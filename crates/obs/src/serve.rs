//! A std-only HTTP scrape endpoint for live telemetry.
//!
//! [`serve`] binds a `TcpListener` and answers:
//!
//! - `GET /metrics`       — Prometheus text exposition of the current snapshot
//! - `GET /trace`         — Chrome `trace_event` JSON of the recorded spans
//! - `GET /healthz`       — `ok`
//! - `GET /debug/events`  — the process-wide flight recorder, drained as JSON
//!
//! The server runs on one background thread and handles each connection
//! inline — scrapes are short and infrequent, so there is no reason to
//! spend a thread pool on them. Dropping the returned [`ObsServer`] (or
//! calling [`ObsServer::shutdown`]) stops the thread deterministically:
//! a stop flag is raised and a self-connection unblocks `accept`.
//!
//! Because one thread serves everything, the request-head read is strictly
//! bounded: at most [`MAX_HEAD_BYTES`] bytes and [`HEAD_DEADLINE`] of wall
//! time per connection, so neither an oversized head nor a drip-feeding
//! client can wedge the accept loop. Non-GET methods get `405` (with
//! `Allow: GET`), an unparsable request line gets `400`, an oversized head
//! gets `431`.

use crate::{export, flight, Obs};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on one request head; beyond it the server answers `431`.
pub const MAX_HEAD_BYTES: usize = 8192;
/// Wall-clock budget for reading one request head. A client that has not
/// finished its head by then gets whatever its bytes parse as (usually
/// `400`) — it cannot hold the accept loop hostage.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// A running scrape endpoint. Shuts down when dropped.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// The address actually bound (resolves port 0 to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a scrape endpoint on `addr` (e.g. `"127.0.0.1:9464"`; port 0 picks
/// a free port) serving the given recorder's metrics and trace.
pub fn serve(obs: &Obs, addr: impl ToSocketAddrs) -> io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let obs = obs.clone();
        let stop = Arc::clone(&stop);
        std::thread::Builder::new().name("quarry-obs-serve".into()).spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // A stuck client must not wedge telemetry forever.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = handle(&obs, stream);
                }
            }
        })?
    };
    Ok(ObsServer { addr, stop, thread: Some(thread) })
}

/// What one bounded head read produced.
enum Request {
    /// A well-formed `GET` and its path (query string stripped).
    Get(String),
    /// A well-formed request line with any other method.
    MethodNotAllowed,
    /// No bytes at all (e.g. the shutdown self-connect) — answer nothing.
    Empty,
    /// Bytes arrived but the request line is not HTTP.
    Malformed,
    /// The head exceeded [`MAX_HEAD_BYTES`].
    TooLarge,
}

fn handle(obs: &Obs, mut stream: TcpStream) -> io::Result<()> {
    let (status, content_type, body) = match read_request(&mut stream)? {
        Request::Empty => return Ok(()),
        Request::Get(path) => match path.as_str() {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4; charset=utf-8", export::prometheus(&obs.metrics())),
            "/trace" => ("200 OK", "application/json", export::chrome_trace(&obs.trace())),
            "/debug/events" => ("200 OK", "application/json", export::events_json(&flight::recorder().drain())),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        },
        Request::MethodNotAllowed => {
            ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
        }
        Request::Malformed => ("400 Bad Request", "text/plain; charset=utf-8", "bad request\n".to_string()),
        Request::TooLarge => {
            ("431 Request Header Fields Too Large", "text/plain; charset=utf-8", "request head too large\n".to_string())
        }
    };
    let allow = if status.starts_with("405") { "Allow: GET\r\n" } else { "" };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{allow}Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Reads one request head under the byte cap and wall-clock deadline, then
/// classifies its request line.
fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let started = Instant::now();
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 256];
    loop {
        if buf.len() > MAX_HEAD_BYTES {
            return Ok(Request::TooLarge);
        }
        if started.elapsed() > HEAD_DEADLINE {
            break; // drip-feeder: classify whatever arrived so far
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            // Per-read timeout: keep polling until the head deadline so a
            // slow-but-live client still gets served, a dead one does not
            // pin the worker past the deadline.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => continue,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    if buf.is_empty() {
        return Ok(Request::Empty);
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(path), Some(version)) if version.starts_with("HTTP/") => {
            Ok(Request::Get(path.split('?').next().unwrap_or(path).to_string()))
        }
        (Some(method), Some(_), Some(version))
            if version.starts_with("HTTP/") && method.chars().all(|c| c.is_ascii_uppercase()) =>
        {
            Ok(Request::MethodNotAllowed)
        }
        _ => Ok(Request::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"))
    }

    fn raw(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "{request}").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("http head");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_trace_and_health() {
        let obs = Obs::new(true);
        obs.counter("engine.runs").add(2);
        obs.histogram("engine.op_seconds").observe(0.005);
        drop(obs.span("execute"));
        let server = serve(&obs, "127.0.0.1:0").expect("bind");

        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("quarry_engine_runs_total 2"), "{body}");
        assert!(body.contains("quarry_engine_op_seconds_quantiles{quantile=\"0.99\"}"), "{body}");

        let (head, body) = get(server.addr(), "/trace");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"name\":\"execute\""), "{body}");

        let (head, body) = get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn serves_flight_recorder_events() {
        let obs = Obs::new(true);
        let server = serve(&obs, "127.0.0.1:0").expect("bind");
        flight::recorder().record(flight::EventKind::Custom, "serve-test-event", 0, 7, 0);
        let (head, body) = get(server.addr(), "/debug/events");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"serve-test-event\""), "{body}");
        assert!(body.contains("\"dropped\":"), "{body}");
    }

    #[test]
    fn scrapes_see_live_updates() {
        let obs = Obs::new(true);
        let server = serve(&obs, "127.0.0.1:0").expect("bind");
        let c = obs.counter("live.count");
        c.inc();
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("quarry_live_count_total 1"), "{body}");
        c.add(5);
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("quarry_live_count_total 6"), "{body}");
    }

    #[test]
    fn non_get_methods_are_answered_405_not_dropped() {
        let obs = Obs::new(true);
        let server = serve(&obs, "127.0.0.1:0").expect("bind");
        for request in [
            "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
            "DELETE /trace HTTP/1.1\r\n\r\n",
            "HEAD /healthz HTTP/1.0\r\n\r\n",
        ] {
            let (head, body) = raw(server.addr(), request);
            assert!(head.starts_with("HTTP/1.1 405"), "{request:?} -> {head}");
            assert!(head.contains("Allow: GET"), "{head}");
            assert_eq!(body, "method not allowed\n");
        }
    }

    #[test]
    fn malformed_request_lines_get_400() {
        let obs = Obs::new(true);
        let server = serve(&obs, "127.0.0.1:0").expect("bind");
        for request in ["BLARGH\r\n\r\n", "GET\r\n\r\n", "not http at all\r\n\r\n"] {
            let (head, _) = raw(server.addr(), request);
            assert!(head.starts_with("HTTP/1.1 400"), "{request:?} -> {head}");
        }
    }

    #[test]
    fn oversized_heads_get_431_and_do_not_wedge_the_worker() {
        let obs = Obs::new(true);
        let server = serve(&obs, "127.0.0.1:0").expect("bind");
        let mut request = String::from("GET /metrics HTTP/1.1\r\n");
        while request.len() <= MAX_HEAD_BYTES {
            request.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // No terminating blank line: the byte cap alone must end the read.
        let started = Instant::now();
        let (head, _) = raw(server.addr(), &request);
        assert!(head.starts_with("HTTP/1.1 431"), "{head}");
        assert!(started.elapsed() < HEAD_DEADLINE, "cap, not deadline, ended the read");
        // The worker is free again: a normal scrape still succeeds.
        let (head, _) = get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }

    #[test]
    fn shutdown_is_deterministic_and_frees_the_port() {
        let obs = Obs::new(true);
        let mut server = serve(&obs, "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        server.shutdown();
        drop(server);
        // The port can be rebound immediately after shutdown.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
    }
}
