//! Exporters: Prometheus text exposition for metric snapshots and Chrome
//! `trace_event` JSON for span trees.
//!
//! Both are hand-rolled over `std` (this crate carries no dependencies) and
//! deterministic: same snapshot in, same bytes out.

use crate::flight::FlightLog;
use crate::{AttrValue, Metric, SpanNode, Trace};
use std::fmt::Write as _;

/// Quantiles published for every histogram family.
pub const QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

// ---------------------------------------------------------------------------
// Prometheus text exposition (version 0.0.4)
// ---------------------------------------------------------------------------

/// Renders a metric snapshot as Prometheus text exposition.
///
/// Metric names are sanitized (`engine.op_seconds` → `quarry_engine_op_seconds`)
/// and prefixed with `quarry_`. Counters get the `_total` suffix; histograms
/// are exposed as a native histogram family (`_bucket{le=…}` / `_sum` /
/// `_count`) plus a derived summary family `<name>_quantiles` carrying
/// p50/p90/p95/p99 so scrapers without histogram_quantile still see tails.
/// Empty histograms render `count=0` and no bucket/quantile lines.
pub fn prometheus(metrics: &[(String, Metric)]) -> String {
    let mut out = String::new();
    for (name, metric) in metrics {
        let base = sanitize(name);
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "# TYPE {base}_total counter");
                let _ = writeln!(out, "{base}_total {v}");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {base} gauge");
                let _ = writeln!(out, "{base} {v}");
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {base} histogram");
                let mut cumulative = 0u64;
                for &(upper, n) in &h.buckets {
                    cumulative += n;
                    let _ = writeln!(out, "{base}_bucket{{le=\"{}\"}} {cumulative}", fmt_f64(upper));
                }
                let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{base}_sum {}", fmt_f64(h.sum));
                let _ = writeln!(out, "{base}_count {}", h.count);
                if !h.is_empty() {
                    let _ = writeln!(out, "# TYPE {base}_quantiles summary");
                    for q in QUANTILES {
                        if let Some(v) = h.quantile(q) {
                            let _ = writeln!(out, "{base}_quantiles{{quantile=\"{}\"}} {}", fmt_f64(q), fmt_f64(v));
                        }
                    }
                    let _ = writeln!(out, "{base}_quantiles_sum {}", fmt_f64(h.sum));
                    let _ = writeln!(out, "{base}_quantiles_count {}", h.count);
                }
            }
            Metric::Info(labels) => {
                // Prometheus info-metric convention: constant 1, identity in
                // the labels (label values escape `\`, `"`, newline).
                let _ = writeln!(out, "# TYPE {base} gauge");
                let rendered: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| {
                        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
                        format!("{}=\"{escaped}\"", sanitize_label(k))
                    })
                    .collect();
                let _ = writeln!(out, "{base}{{{}}} 1", rendered.join(","));
            }
        }
    }
    out
}

/// Maps a label key onto the Prometheus label grammar
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn sanitize_label(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Maps a dotted metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) under the `quarry_` namespace.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("quarry_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus sample-value formatting: `+Inf`/`-Inf` keywords, shortest
/// round-trip decimal otherwise.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

/// Renders a span tree as Chrome `trace_event` JSON (the object form:
/// `{"traceEvents": […]}`), loadable in `about://tracing` and Perfetto.
///
/// Every span becomes one complete ("X") event with microsecond `ts`/`dur`
/// relative to the trace epoch. The process id is 1; the thread id is taken
/// from the span's `worker` attribute when present (the engine stamps the
/// pool lane that ran each operator), so parallel `execute` phases fan out
/// visually across tracks.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for span in &trace.spans {
        write_span_events(&mut out, span, 0, &mut first);
    }
    out.push_str("]}");
    out
}

/// Renders a drained [`FlightLog`] as JSON — the `GET /debug/events` body
/// and the `quarry-cli events --format json` output. Events stay in the
/// drain's global sequence order; the loss accounting rides along so a
/// consumer can tell a complete log from a wrapped one.
pub fn events_json(log: &FlightLog) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"capacity\":{},\"recorded\":{},\"dropped\":{},\"events\":[",
        log.capacity, log.recorded, log.dropped
    );
    for (i, e) in log.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"micros\":{},\"kind\":{},\"label\":{},\"lane\":{},\"a\":{},\"b\":{}}}",
            e.seq,
            e.micros,
            json_string(e.kind.as_str()),
            json_string(&e.label),
            e.lane,
            e.a,
            e.b
        );
    }
    out.push_str("]}");
    out
}

fn write_span_events(out: &mut String, span: &SpanNode, parent_tid: i64, first: &mut bool) {
    let tid = match span.attr("worker") {
        Some(AttrValue::Int(w)) => *w,
        _ => parent_tid,
    };
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":{},\"cat\":\"quarry\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}",
        json_string(&span.name),
        span.start.as_micros(),
        span.elapsed.as_micros()
    );
    if !span.attrs.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in span.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_value(v));
        }
        out.push('}');
    }
    out.push('}');
    for child in &span.children {
        write_span_events(out, child, tid, first);
    }
}

fn json_value(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(n) => n.to_string(),
        AttrValue::Float(f) if f.is_finite() => format!("{f}"),
        AttrValue::Float(_) => "null".to_string(),
        AttrValue::Str(s) => json_string(s),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{EventKind, FlightEvent};
    use crate::Obs;
    use std::time::Duration;

    fn sample_obs() -> Obs {
        let obs = Obs::new(true);
        obs.counter("engine.runs").add(3);
        obs.gauge("pool.queue_depth").set(2);
        let h = obs.histogram("engine.op_seconds");
        h.observe(0.010);
        h.observe(0.020);
        h.observe(0.040);
        obs.histogram("engine.idle_seconds"); // registered, empty
        obs
    }

    #[test]
    fn prometheus_families_cover_all_metric_types() {
        let text = prometheus(&sample_obs().metrics());
        assert!(text.contains("# TYPE quarry_engine_runs_total counter\n"), "{text}");
        assert!(text.contains("quarry_engine_runs_total 3\n"), "{text}");
        assert!(text.contains("# TYPE quarry_pool_queue_depth gauge\n"), "{text}");
        assert!(text.contains("quarry_pool_queue_depth 2\n"), "{text}");
        assert!(text.contains("# TYPE quarry_engine_op_seconds histogram\n"), "{text}");
        assert!(text.contains("quarry_engine_op_seconds_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("quarry_engine_op_seconds_count 3\n"), "{text}");
        assert!(text.contains("quarry_engine_op_seconds_quantiles{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("quarry_engine_op_seconds_quantiles{quantile=\"0.99\"}"), "{text}");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = prometheus(&sample_obs().metrics());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("quarry_engine_op_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.len() >= 4, "three buckets plus +Inf: {text}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "cumulative: {counts:?}");
        assert_eq!(*counts.last().unwrap(), 3);
    }

    #[test]
    fn prometheus_renders_empty_histograms_as_bare_count_zero() {
        let obs = Obs::new(true);
        obs.histogram("idle.seconds");
        // The registry snapshot omits empty histograms; exporting one directly
        // (e.g. via a collector) must not fabricate extrema or quantiles.
        let metrics = vec![("idle.seconds".to_string(), obs.metric("idle.seconds").unwrap())];
        let text = prometheus(&metrics);
        assert!(text.contains("quarry_idle_seconds_count 0\n"), "{text}");
        assert!(text.contains("quarry_idle_seconds_sum 0\n"), "{text}");
        assert!(!text.contains("quantile"), "{text}");
        assert!(!text.contains("inf"), "no fabricated extrema: {text}");
    }

    #[test]
    fn chrome_trace_flattens_the_span_tree_with_worker_tids() {
        let obs = Obs::new(true);
        {
            let root = obs.span("execute");
            root.attr("mode", "parallel");
            obs.record_span(
                "JOIN_1",
                Duration::from_micros(250),
                vec![("worker".into(), AttrValue::Int(2)), ("rows".into(), AttrValue::Int(100))],
            );
        }
        let json = chrome_trace(&obs.trace());
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"name\":\"execute\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"JOIN_1\""), "{json}");
        assert!(json.contains("\"tid\":2"), "{json}");
        assert!(json.contains("\"dur\":250"), "{json}");
        assert!(json.contains("\"rows\":100"), "{json}");
        assert!(json.contains("\"mode\":\"parallel\""), "{json}");
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let obs = Obs::new(true);
        drop(obs.span("weird \"name\"\n"));
        let json = chrome_trace(&obs.trace());
        assert!(json.contains("\"weird \\\"name\\\"\\n\""), "{json}");
    }

    #[test]
    fn chrome_trace_of_empty_trace_is_valid() {
        assert_eq!(chrome_trace(&Trace::default()), "{\"traceEvents\":[]}");
    }

    #[test]
    fn events_json_carries_loss_accounting_and_escapes_labels() {
        let log = FlightLog {
            events: vec![FlightEvent {
                seq: 7,
                micros: 42,
                kind: EventKind::OpFinish,
                label: "needs \"escaping\"".into(),
                lane: 3,
                a: 10,
                b: 4,
            }],
            dropped: 5,
            recorded: 7,
            capacity: 16,
        };
        let json = events_json(&log);
        assert!(json.starts_with("{\"capacity\":16,\"recorded\":7,\"dropped\":5,"), "{json}");
        assert!(json.contains("\"label\":\"needs \\\"escaping\\\"\""), "{json}");
        assert!(json.contains("\"kind\":\"op_finish\""), "{json}");
        assert!(json.contains("\"lane\":3"), "{json}");
        assert_eq!(events_json(&FlightLog::default()), "{\"capacity\":0,\"recorded\":0,\"dropped\":0,\"events\":[]}");
    }

    #[test]
    fn prometheus_renders_info_metrics_with_labels() {
        let obs = Obs::new(true);
        obs.set_build_info("0.1.0", "abc123\"def\\");
        obs.counter("engine.runs").inc();
        let text = prometheus(&obs.metrics());
        assert!(text.contains("quarry_obs_build_info{version=\"0.1.0\",git_hash=\"abc123\\\"def\\\\\"} 1\n"), "{text}");
        assert!(text.contains("# TYPE quarry_obs_uptime_seconds gauge\n"), "{text}");
        // Disabled recorders stay silent; identity is telemetry too.
        obs.set_enabled(false);
        assert!(!prometheus(&obs.metrics()).contains("build_info"));
    }
}
