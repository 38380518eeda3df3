//! JSON documents for observability data: span trees and metric snapshots.
//!
//! The repository stores every artifact as versioned text, so each
//! completed lifecycle step is serialized here as a one-root trace and put
//! under `ArtifactKind::Trace`. The same encoding backs the `GetTrace` /
//! `GetMetrics` service endpoints.

use quarry_obs::{AttrValue, Metric, Obs, SpanNode, Trace};
use quarry_repository::Json;

/// Schema version of the trace document. Bump when the shape changes so
/// readers of old repository versions can tell them apart.
pub const TRACE_DOC_VERSION: f64 = 1.0;

/// Serializes a trace as a versioned JSON document:
///
/// ```json
/// {
///   "version": 1,
///   "spans": [
///     {"name": "add_requirement", "startUs": 0, "elapsedUs": 1234,
///      "attrs": {"requirement": "IR1"}, "children": [...]}
///   ]
/// }
/// ```
pub fn trace_to_json(trace: &Trace) -> Json {
    let mut doc = Json::object();
    doc.set("version", Json::Number(TRACE_DOC_VERSION));
    doc.set("spans", Json::Array(trace.spans.iter().map(span_to_json).collect()));
    doc
}

fn span_to_json(span: &SpanNode) -> Json {
    let mut doc = Json::object();
    doc.set("name", Json::String(span.name.clone()));
    doc.set("startUs", Json::Number(span.start.as_micros() as f64));
    doc.set("elapsedUs", Json::Number(span.elapsed.as_micros() as f64));
    if !span.attrs.is_empty() {
        let mut attrs = Json::object();
        for (key, value) in &span.attrs {
            attrs.set(key.clone(), attr_to_json(value));
        }
        doc.set("attrs", attrs);
    }
    if !span.children.is_empty() {
        doc.set("children", Json::Array(span.children.iter().map(span_to_json).collect()));
    }
    doc
}

fn attr_to_json(value: &AttrValue) -> Json {
    match value {
        AttrValue::Int(i) => Json::Number(*i as f64),
        AttrValue::Float(f) => Json::Number(*f),
        AttrValue::Str(s) => Json::String(s.clone()),
    }
}

/// Serializes the current metric registry plus the engine worker pool's
/// lifetime counters:
///
/// ```json
/// {
///   "version": 1,
///   "counters": {"engine.runs": 2, ...},
///   "gauges": {"pool.queue_depth": 0, ...},
///   "histograms": {"engine.op_seconds": {"count": 9, "sum": ..., "min": ..., "max": ...,
///                                        "p50": ..., "p95": ..., "p99": ...}},
///   "info": {"obs.build_info": {"version": "...", "git_hash": "..."}},
///   "pool": {"regions": ..., "jobs": ..., "helpersSpawned": ...}
/// }
/// ```
///
/// An empty histogram carries only `"count": 0` — no min/max/sum/quantiles,
/// so readers never see fabricated `null` extrema.
pub fn metrics_to_json(obs: &Obs) -> Json {
    let mut counters = Json::object();
    let mut gauges = Json::object();
    let mut histograms = Json::object();
    let mut info = Json::object();
    for (name, metric) in obs.metrics() {
        match metric {
            Metric::Counter(n) => counters.set(name, Json::Number(n as f64)),
            Metric::Gauge(v) => gauges.set(name, Json::Number(v as f64)),
            Metric::Histogram(snap) => histograms.set(name, histogram_to_json(&snap)),
            Metric::Info(labels) => {
                let mut entry = Json::object();
                for (key, value) in labels {
                    entry.set(&key, Json::String(value));
                }
                info.set(name, entry);
            }
        }
    }
    let pool = quarry_engine::pool::stats();
    let mut pool_doc = Json::object();
    pool_doc.set("regions", Json::Number(pool.regions as f64));
    pool_doc.set("jobs", Json::Number(pool.jobs as f64));
    pool_doc.set("helpersSpawned", Json::Number(pool.helpers_spawned as f64));

    let mut doc = Json::object();
    doc.set("version", Json::Number(TRACE_DOC_VERSION));
    doc.set("counters", counters);
    doc.set("gauges", gauges);
    doc.set("histograms", histograms);
    doc.set("info", info);
    doc.set("pool", pool_doc);
    doc
}

fn histogram_to_json(snap: &quarry_obs::HistogramSnapshot) -> Json {
    let mut h = Json::object();
    h.set("count", Json::Number(snap.count as f64));
    if snap.is_empty() {
        return h;
    }
    h.set("sum", Json::Number(snap.sum));
    if let Some(min) = snap.min {
        h.set("min", Json::Number(min));
    }
    if let Some(max) = snap.max {
        h.set("max", Json::Number(max));
    }
    for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        if let Some(v) = snap.quantile(q) {
            h.set(key, Json::Number(v));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_serializes_the_span_tree() {
        let obs = Obs::new(true);
        {
            let step = obs.span("add_requirement");
            step.attr("requirement", "IR1");
            let _phase = obs.span("interpret");
        }
        let doc = trace_to_json(&obs.trace());
        assert_eq!(doc.path("spans.0.name").and_then(Json::as_str), Some("add_requirement"));
        assert_eq!(doc.path("spans.0.attrs.requirement").and_then(Json::as_str), Some("IR1"));
        assert_eq!(doc.path("spans.0.children.0.name").and_then(Json::as_str), Some("interpret"));
        // The document round-trips through the parser.
        let parsed = Json::parse(&doc.to_pretty_string()).unwrap();
        assert_eq!(parsed.path("spans.0.name").and_then(Json::as_str), Some("add_requirement"));
    }

    #[test]
    fn metrics_include_counters_histograms_and_pool_stats() {
        let obs = Obs::new(true);
        obs.counter("engine.runs").add(2);
        obs.histogram("engine.op_seconds").observe(0.25);
        let doc = metrics_to_json(&obs);
        // Metric names contain dots, so fetch them with `get`, not `path`.
        assert_eq!(doc.get("counters").and_then(|c| c.get("engine.runs")).and_then(Json::as_f64), Some(2.0));
        let h = doc.get("histograms").and_then(|h| h.get("engine.op_seconds")).unwrap();
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(h.get("p50").and_then(Json::as_f64).is_some(), "quantiles present");
        assert!(h.get("p99").and_then(Json::as_f64).is_some());
        assert!(doc.path("pool.regions").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn gauges_get_their_own_section() {
        let obs = Obs::new(true);
        obs.gauge("pool.queue_depth").set(3);
        let doc = metrics_to_json(&obs);
        assert_eq!(doc.get("gauges").and_then(|g| g.get("pool.queue_depth")).and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn empty_histograms_render_as_bare_count_zero() {
        let obs = Obs::new(true);
        obs.histogram("idle.seconds"); // registered, never observed
                                       // Force it into the document the way a collector would.
        let snap = match obs.metric("idle.seconds").unwrap() {
            Metric::Histogram(s) => s,
            other => panic!("{other:?}"),
        };
        let h = histogram_to_json(&snap);
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(0.0));
        assert!(h.get("min").is_none(), "no fabricated min: {h:?}");
        assert!(h.get("max").is_none(), "no fabricated max: {h:?}");
        assert!(h.get("p50").is_none());
        // And the encoding stays parseable (no bare `inf` tokens).
        Json::parse(&h.to_pretty_string()).expect("well-formed");
    }
}
