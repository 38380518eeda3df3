//! The live telemetry endpoint, scraped while the engine runs.
//!
//! Covers the acceptance criteria for production telemetry: a `GET /metrics`
//! during an `execute` run returns valid Prometheus text exposition carrying
//! the engine-pool gauges and p50/p95/p99 quantiles for every `*_seconds`
//! histogram, `/trace` returns Chrome trace-event JSON, and `/healthz`
//! answers while the engine is busy.

use quarry::service::{handle, ServiceRequest, ServiceResponse};
use quarry::Quarry;
use quarry_formats::xrq::figure4_requirement;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response has a head");
    (head.to_string(), body.to_string())
}

/// A minimal Prometheus text-exposition parser: validates line grammar and
/// returns `name{labels} -> value` samples plus `# TYPE` declarations.
fn parse_prometheus(text: &str) -> (BTreeMap<String, f64>, BTreeMap<String, String>) {
    let mut samples = BTreeMap::new();
    let mut types = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type line has a name");
            let kind = parts.next().expect("type line has a kind");
            assert!(["counter", "gauge", "histogram", "summary"].contains(&kind), "unknown metric kind in {line:?}");
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "only TYPE comments are emitted: {line:?}");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("sample line {line:?}"));
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse().unwrap_or_else(|_| panic!("numeric value in {line:?}"))
        };
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name grammar violated by {name:?}"
        );
        samples.insert(series.to_string(), value);
    }
    (samples, types)
}

#[test]
fn scrape_under_engine_load() {
    let mut quarry = Quarry::tpch();
    quarry.add_requirement(figure4_requirement()).expect("requirement integrates");
    let addr = quarry.serve_metrics("127.0.0.1:0").expect("endpoint binds");

    // Hammer the endpoint from a background thread while the engine executes
    // the unified flow in the foreground.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let (head, body) = get(addr, "/metrics");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                parse_prometheus(&body); // every mid-run scrape must parse
                let (health_head, health) = get(addr, "/healthz");
                assert!(health_head.starts_with("HTTP/1.1 200 OK"), "{health_head}");
                assert_eq!(health, "ok\n");
                scrapes += 1;
            }
            scrapes
        })
    };
    for _ in 0..3 {
        quarry.run_etl(quarry_engine::tpch::generate(0.002, 42)).expect("engine run succeeds");
    }
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "at least one scrape landed during the runs");

    // Post-run scrape: pool gauges and per-series quantiles are all present.
    let (head, body) = get(addr, "/metrics");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    let (samples, types) = parse_prometheus(&body);
    for gauge in ["quarry_pool_queue_depth", "quarry_pool_active_workers", "quarry_pool_morsels_in_flight"] {
        assert_eq!(types.get(gauge).map(String::as_str), Some("gauge"), "{gauge} missing: {body}");
        assert!(samples.contains_key(gauge), "{gauge} sample missing");
    }
    assert!(samples.get("quarry_engine_runs_total").copied().unwrap_or(0.0) >= 3.0, "{body}");
    let seconds_families: Vec<&String> =
        types.keys().filter(|n| n.ends_with("_seconds") && types[*n] == "histogram").collect();
    assert!(
        seconds_families.iter().any(|n| *n == "quarry_engine_op_seconds"),
        "engine op timings exported: {seconds_families:?}"
    );
    for family in &seconds_families {
        for q in ["0.5", "0.95", "0.99"] {
            let series = format!("{family}_quantiles{{quantile=\"{q}\"}}");
            assert!(samples.contains_key(&series), "missing {series} in {body}");
        }
        assert!(samples.contains_key(&format!("{family}_bucket{{le=\"+Inf\"}}")), "{family} buckets");
    }

    // The trace endpoint serves Chrome trace-event JSON with worker lanes.
    let (head, trace) = get(addr, "/trace");
    assert!(head.contains("application/json"), "{head}");
    let json = quarry_repository::Json::parse(&trace).expect("trace is valid JSON");
    let events = json.path("traceEvents").and_then(|v| v.as_array().map(<[_]>::len)).unwrap_or(0);
    assert!(events > 0, "trace has events: {trace}");
    assert!(trace.contains("\"ph\":\"X\""), "{trace}");
    assert!(trace.contains("\"name\":\"execute\""), "{trace}");
    assert!(trace.contains("\"tid\":"), "{trace}");
}

#[test]
fn service_layer_starts_endpoint_from_config() {
    let domain = quarry_ontology::tpch::domain();
    let mut config = quarry::QuarryConfig::tpch(0.001);
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    let mut quarry = Quarry::with_config(domain.ontology, domain.sources, config);

    let addr = match handle(&mut quarry, ServiceRequest::ServeMetrics { addr: None }) {
        ServiceResponse::Serving { addr } => addr.parse::<SocketAddr>().expect("bound address"),
        other => panic!("{other:?}"),
    };
    assert_eq!(quarry.metrics_addr(), Some(addr));
    // Serving enables recording, so a lifecycle step is immediately visible.
    quarry.add_requirement(figure4_requirement()).expect("requirement integrates");
    let (_, body) = get(addr, "/metrics");
    assert!(body.contains("quarry_integrator_etl_index_"), "{body}");
    quarry.stop_serving_metrics();
    assert_eq!(quarry.metrics_addr(), None);
}

#[test]
fn serve_without_address_or_config_is_a_structured_error() {
    let mut quarry = Quarry::tpch();
    match handle(&mut quarry, ServiceRequest::ServeMetrics { addr: None }) {
        ServiceResponse::Error(e) => assert!(e.contains("no metrics address"), "{e}"),
        other => panic!("{other:?}"),
    }
}
