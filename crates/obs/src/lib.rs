//! Observability substrate for Quarry: tracing spans and a production-grade
//! metric registry.
//!
//! The paper's only named quality factors — *structural design complexity*
//! and *overall ETL execution time* — are exactly the signals the system
//! should expose continuously. This crate is the substrate: an [`Obs`]
//! handle records a tree of timed spans (one per lifecycle phase, one per
//! engine operator) plus named counters, gauges, and log-bucketed
//! histograms, all behind a single enabled flag.
//!
//! Design constraints, in order:
//!
//! - **std-only** — no dependencies, so every crate in the workspace can
//!   carry a handle without pulling anything in;
//! - **zero-cost when disabled** — every recording entry point begins with
//!   one relaxed atomic load and returns before any allocation or lock;
//! - **cheap when enabled** — metrics are recorded through pre-resolved
//!   handles ([`Obs::counter`] / [`Obs::gauge`] / [`Obs::histogram`]) that
//!   bump striped relaxed atomics: no map lock, no string hashing, no
//!   allocation on the hot path (see `registry.rs`);
//! - **thread-safe** — a handle is `Clone + Send + Sync`; metrics may be
//!   bumped from engine worker threads while the lifecycle thread owns the
//!   span stack.
//!
//! Spans nest lexically: [`Obs::span`] returns a guard, dropping it closes
//! the span and attaches it to the enclosing one (or to the trace roots).
//! Pre-measured work (e.g. the engine's per-operator timings) is attached
//! with [`Obs::record_span`] without re-timing it.
//!
//! For getting the data out, [`export`] renders metric snapshots as
//! Prometheus text exposition and span trees as Chrome `trace_event` JSON,
//! and [`serve`] exposes both on a std-only HTTP scrape endpoint
//! (`GET /metrics`, `/trace`, `/healthz`, `/debug/events`).
//!
//! [`flight`] builds on the substrate: the always-on fixed-capacity ring
//! buffer of structured events (the "black box").

#![forbid(unsafe_code)]

pub mod export;
pub mod flight;
mod registry;
pub mod serve;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Metric};

use registry::Registry;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Span tree model
// ---------------------------------------------------------------------------

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Float(f64),
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One completed span: a named, timed piece of work with attributes and
/// child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub name: String,
    /// Offset from the start of the trace.
    pub start: Duration,
    pub elapsed: Duration,
    pub attrs: Vec<(String, AttrValue)>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Depth-first search for a span by name, including `self`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Number of spans in this subtree, including `self`.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if !self.attrs.is_empty() {
            out.push_str(" (");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push(')');
        }
        out.push_str(&format!("  {:?}\n", self.elapsed));
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// A completed trace: the forest of root spans recorded so far, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub spans: Vec<SpanNode>,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Depth-first search across all roots.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    pub fn span_count(&self) -> usize {
        self.spans.iter().map(SpanNode::span_count).sum()
    }

    /// Renders the span forest as an indented text tree with per-span
    /// timings — what `quarry-cli trace` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            s.render_into(&mut out, 0);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct SpanState {
    /// Trace epoch: the instant the first span of the trace opened.
    epoch: Option<Instant>,
    /// Open spans, outermost first. `Span` guards index into this.
    stack: Vec<Frame>,
    /// Completed root spans.
    roots: Vec<SpanNode>,
}

#[derive(Debug)]
struct Frame {
    name: String,
    started_at: Instant,
    start: Duration,
    attrs: Vec<(String, AttrValue)>,
    children: Vec<SpanNode>,
}

/// A callback appending externally owned metrics (e.g. the engine pool's
/// always-on gauges) to every snapshot while the recorder is enabled.
pub type Collector = Box<dyn Fn(&mut Vec<(String, Metric)>) + Send + Sync>;

struct Inner {
    enabled: Arc<AtomicBool>,
    spans: Mutex<SpanState>,
    registry: Registry,
    collectors: Mutex<Vec<Collector>>,
    /// Bumped whenever a name is requested under two different metric types
    /// (see [`Obs::type_conflicts`]). Not gated on `enabled`: losing data to
    /// a naming bug is worth surfacing even on an otherwise idle recorder.
    type_conflicts: Arc<registry::CounterSentinel>,
    /// Construction instant — the epoch [`UPTIME_METRIC`] counts from.
    started: Instant,
    /// `(label, value)` identity pairs set by [`Obs::set_build_info`];
    /// surfaced as [`BUILD_INFO_METRIC`] once set.
    build_info: Mutex<Option<Vec<(String, String)>>>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            enabled: Arc::new(AtomicBool::new(false)),
            spans: Mutex::default(),
            registry: Registry::default(),
            collectors: Mutex::new(Vec::new()),
            type_conflicts: Arc::new(registry::CounterSentinel::default()),
            started: Instant::now(),
            build_info: Mutex::new(None),
        }
    }
}

/// A cheaply cloneable observability handle. All clones share one recorder.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Arc<Inner>,
}

/// Name under which metric-type conflicts are surfaced in snapshots.
pub const TYPE_CONFLICTS_METRIC: &str = "obs.type_conflicts";

/// Name of the build-identity info metric (`version`/`git_hash` labels),
/// emitted once [`Obs::set_build_info`] was called — so `/metrics` scrapes
/// are self-identifying across daemon restarts.
pub const BUILD_INFO_METRIC: &str = "obs.build_info";

/// Name of the process-uptime gauge (seconds since the recorder was
/// constructed), emitted alongside [`BUILD_INFO_METRIC`].
pub const UPTIME_METRIC: &str = "obs.uptime_seconds";

impl Obs {
    pub fn new(enabled: bool) -> Self {
        let obs = Obs::default();
        obs.set_enabled(enabled);
        obs
    }

    /// A handle that records nothing until [`Obs::set_enabled`] turns it on.
    pub fn disabled() -> Self {
        Obs::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span. The returned guard closes it on drop; guards must be
    /// dropped in reverse open order (lexical nesting). When disabled this
    /// is one atomic load and no work.
    #[must_use = "dropping the guard immediately records an empty span"]
    pub fn span(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span { obs: None, depth: 0 };
        }
        let mut state = self.inner.spans.lock().expect("span lock");
        let now = Instant::now();
        let epoch = *state.epoch.get_or_insert(now);
        let depth = state.stack.len();
        state.stack.push(Frame {
            name: name.to_string(),
            started_at: now,
            start: now.duration_since(epoch),
            attrs: Vec::new(),
            children: Vec::new(),
        });
        Span { obs: Some(self.clone()), depth }
    }

    /// Attaches a pre-measured span (e.g. an engine operator timing) as a
    /// child of the innermost open span, or as a trace root if none is open.
    pub fn record_span(&self, name: &str, elapsed: Duration, attrs: Vec<(String, AttrValue)>) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.inner.spans.lock().expect("span lock");
        let now = Instant::now();
        let epoch = *state.epoch.get_or_insert(now);
        let start = now.duration_since(epoch).saturating_sub(elapsed);
        let node = SpanNode { name: name.to_string(), start, elapsed, attrs, children: Vec::new() };
        match state.stack.last_mut() {
            Some(frame) => frame.children.push(node),
            None => state.roots.push(node),
        }
    }

    // ---- handle resolution --------------------------------------------------

    /// Resolves (registering on first use) a counter handle. Resolve once,
    /// bump forever: the handle itself is one relaxed striped atomic add.
    ///
    /// If `name` is already registered as another metric type the conflict
    /// is surfaced (debug assert + [`TYPE_CONFLICTS_METRIC`] counter) and a
    /// detached handle is returned: recording through it stays safe but
    /// reaches no registered metric.
    pub fn counter(&self, name: &str) -> Counter {
        match self.inner.registry.counter(name, &self.inner.enabled) {
            Ok(cell) => Counter(cell),
            Err(conflict) => {
                self.report_conflict(name, conflict);
                Counter(registry::detached_counter(&self.inner.enabled))
            }
        }
    }

    /// Resolves (registering on first use) a gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.inner.registry.gauge(name, &self.inner.enabled) {
            Ok(cell) => Gauge(cell),
            Err(conflict) => {
                self.report_conflict(name, conflict);
                Gauge(registry::detached_gauge(&self.inner.enabled))
            }
        }
    }

    /// Resolves (registering on first use) a histogram handle with fixed
    /// log-bucketed (HDR-style) layout and `quantile(q)` on its snapshots.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.inner.registry.histogram(name, &self.inner.enabled) {
            Ok(cell) => Histogram(cell),
            Err(conflict) => {
                self.report_conflict(name, conflict);
                Histogram(registry::detached_histogram(&self.inner.enabled))
            }
        }
    }

    /// A metric-type conflict drops the observation; surface it rather than
    /// losing data silently. The counter is bumped *before* the debug assert
    /// so release builds keep an audit trail where debug builds panic.
    fn report_conflict(&self, name: &str, conflict: registry::TypeConflict) {
        self.inner.type_conflicts.inc();
        debug_assert!(
            false,
            "metric `{name}` is registered as a {} but was requested as a {}",
            conflict.existing, conflict.requested
        );
    }

    /// How many metric-type conflicts this recorder has seen.
    pub fn type_conflicts(&self) -> u64 {
        self.inner.type_conflicts.value()
    }

    // ---- snapshots ----------------------------------------------------------

    /// Registers a collector whose output is appended to every [`Obs::metrics`]
    /// snapshot while the recorder is enabled — the hook for externally owned
    /// always-on metrics such as the engine pool's gauges.
    pub fn register_collector(&self, collector: Collector) {
        self.inner.collectors.lock().expect("collector lock").push(collector);
    }

    /// Declares this process's build identity. From then on every enabled
    /// snapshot carries [`BUILD_INFO_METRIC`] (an info metric with
    /// `version`/`git_hash` labels, constant value 1) and [`UPTIME_METRIC`]
    /// (seconds since this recorder was constructed), so a scrape identifies
    /// which build — and which incarnation — it is talking to.
    pub fn set_build_info(&self, version: &str, git_hash: &str) {
        let labels = vec![("version".to_string(), version.to_string()), ("git_hash".to_string(), git_hash.to_string())];
        *self.inner.build_info.lock().expect("build info lock") = Some(labels);
    }

    /// Seconds since this recorder was constructed.
    pub fn uptime_seconds(&self) -> u64 {
        self.inner.started.elapsed().as_secs()
    }

    /// Snapshot of all metrics with recorded data, in name order: registry
    /// entries, then collector output, then [`TYPE_CONFLICTS_METRIC`] if any
    /// conflict occurred. Eagerly registered but untouched metrics (zero
    /// counters, unset gauges, empty histograms) are omitted.
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        let mut out = self.inner.registry.snapshot();
        if self.is_enabled() {
            for collector in self.inner.collectors.lock().expect("collector lock").iter() {
                collector(&mut out);
            }
            if let Some(labels) = self.inner.build_info.lock().expect("build info lock").as_ref() {
                out.push((BUILD_INFO_METRIC.to_string(), Metric::Info(labels.clone())));
                out.push((UPTIME_METRIC.to_string(), Metric::Gauge(self.uptime_seconds() as i64)));
            }
        }
        let conflicts = self.inner.type_conflicts.value();
        if conflicts > 0 {
            out.push((TYPE_CONFLICTS_METRIC.to_string(), Metric::Counter(conflicts)));
        }
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Snapshot of one registered metric by name (including ones that have
    /// not recorded anything yet). Collector-provided metrics are not
    /// addressable here.
    pub fn metric(&self, name: &str) -> Option<Metric> {
        self.inner.registry.get(name)
    }

    /// Snapshot of the completed root spans recorded so far. Open spans are
    /// not included.
    pub fn trace(&self) -> Trace {
        Trace { spans: self.inner.spans.lock().expect("span lock").roots.clone() }
    }

    /// Clears the recorded trace and resets all metric values (the enabled
    /// flag, registrations, live handles, and collectors are kept).
    pub fn clear(&self) {
        let mut state = self.inner.spans.lock().expect("span lock");
        state.roots.clear();
        state.epoch = None;
        drop(state);
        self.inner.registry.reset();
        self.inner.type_conflicts.reset();
    }
}

/// An open span. Closes (and records) the span when dropped.
#[derive(Debug)]
pub struct Span {
    /// `None` when observability is disabled — every method is a no-op.
    obs: Option<Obs>,
    depth: usize,
}

impl Span {
    /// Sets an attribute on this span (callable while child spans are open).
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        let Some(obs) = &self.obs else { return };
        let mut state = obs.inner.spans.lock().expect("span lock");
        if let Some(frame) = state.stack.get_mut(self.depth) {
            let value = value.into();
            match frame.attrs.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => frame.attrs.push((key.to_string(), value)),
            }
        }
    }

    /// Closes the span, as dropping it does, and returns a copy of it if it
    /// closed as a trace root. `None` when recording is off or the span
    /// nests inside another one (its parent carries it).
    pub fn close(mut self) -> Option<SpanNode> {
        let obs = self.obs.take()?;
        let mut state = obs.inner.spans.lock().expect("span lock");
        let closed = state.close_to(self.depth);
        (closed && self.depth == 0).then(|| state.roots.last().cloned()).flatten()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(obs) = &self.obs else { return };
        obs.inner.spans.lock().expect("span lock").close_to(self.depth);
    }
}

impl SpanState {
    /// Closes the frame at `depth` and anything opened after it that leaked
    /// (guards dropped out of order fold into their parent rather than
    /// dangling). Returns whether any frame was open there.
    fn close_to(&mut self, depth: usize) -> bool {
        let closed = self.stack.len() > depth;
        while self.stack.len() > depth {
            let frame = self.stack.pop().expect("non-empty");
            let node = SpanNode {
                name: frame.name,
                start: frame.start,
                elapsed: frame.started_at.elapsed(),
                attrs: frame.attrs,
                children: frame.children,
            };
            match self.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => self.roots.push(node),
            }
        }
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        {
            let s = obs.span("root");
            s.attr("k", 1i64);
        }
        obs.counter("c").add(5);
        obs.histogram("h").observe(1.0);
        obs.gauge("g").set(3);
        obs.record_span("pre", Duration::from_millis(1), vec![]);
        assert!(obs.trace().is_empty());
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn handles_resolve_once_and_accumulate() {
        let obs = Obs::new(true);
        let runs = obs.counter("engine.runs");
        let depth = obs.gauge("engine.queue_depth");
        let seconds = obs.histogram("engine.op_seconds");
        runs.add(2);
        runs.inc();
        depth.set(5);
        depth.sub(2);
        seconds.observe(0.010);
        seconds.observe(0.020);
        assert_eq!(runs.value(), 3);
        assert_eq!(depth.value(), 3);
        assert_eq!(obs.metric("engine.runs"), Some(Metric::Counter(3)));
        assert_eq!(obs.metric("engine.queue_depth"), Some(Metric::Gauge(3)));
        let snap = seconds.snapshot();
        assert_eq!(snap.count, 2);
        assert!((snap.sum - 0.030).abs() < 1e-9);
        assert_eq!(snap.min, Some(0.010));
        assert_eq!(snap.max, Some(0.020));
        // A clone of the handle hits the same cell, as does a re-resolve.
        runs.clone().inc();
        obs.counter("engine.runs").inc();
        assert_eq!(runs.value(), 5);
    }

    #[test]
    fn spans_nest_and_carry_attributes() {
        let obs = Obs::new(true);
        {
            let root = obs.span("add_requirement");
            root.attr("requirement", "IR1");
            {
                let child = obs.span("interpret");
                child.attr("ops", 12usize);
            }
            {
                let _child = obs.span("validate");
            }
            root.attr("cost", 3.5);
        }
        let trace = obs.trace();
        assert_eq!(trace.spans.len(), 1);
        let root = &trace.spans[0];
        assert_eq!(root.name, "add_requirement");
        assert_eq!(root.attr("requirement"), Some(&AttrValue::Str("IR1".into())));
        assert_eq!(root.attr("cost"), Some(&AttrValue::Float(3.5)));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "interpret");
        assert_eq!(root.children[0].attr("ops"), Some(&AttrValue::Int(12)));
        assert!(root.find("validate").is_some());
        assert_eq!(trace.span_count(), 3);
        assert!(root.children.iter().all(|c| c.start >= root.start));
    }

    #[test]
    fn sequential_roots_accumulate() {
        let obs = Obs::new(true);
        drop(obs.span("first"));
        drop(obs.span("second"));
        let trace = obs.trace();
        assert_eq!(trace.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["first", "second"]);
        assert!(trace.spans[1].start >= trace.spans[0].start);
        obs.clear();
        assert!(obs.trace().is_empty());
    }

    #[test]
    fn close_returns_only_a_root_span() {
        let obs = Obs::new(true);
        let outer = obs.span("change_requirement");
        let inner = obs.span("remove_requirement");
        assert_eq!(inner.close(), None, "a nested span is carried by its parent");
        let root = outer.close().expect("a root span is returned");
        assert_eq!(root.name, "change_requirement");
        assert_eq!(root.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(), ["remove_requirement"]);
        assert_eq!(obs.trace().spans, [root]);
        assert_eq!(Obs::disabled().span("off").close(), None);
    }

    #[test]
    fn record_span_attaches_premeasured_children() {
        let obs = Obs::new(true);
        {
            let _exec = obs.span("execute");
            obs.record_span("JOIN_1", Duration::from_micros(250), vec![("rows".into(), AttrValue::Int(100))]);
        }
        obs.record_span("orphan", Duration::from_micros(1), vec![]);
        let trace = obs.trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].children[0].name, "JOIN_1");
        assert_eq!(trace.spans[0].children[0].attr("rows"), Some(&AttrValue::Int(100)));
        assert_eq!(trace.spans[1].name, "orphan");
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let obs = Obs::new(true);
        obs.counter("engine.runs").add(1);
        obs.counter("engine.runs").add(2);
        let op_ms = obs.histogram("engine.op_ms");
        op_ms.observe(2.0);
        op_ms.observe(4.0);
        assert_eq!(obs.metric("engine.runs"), Some(Metric::Counter(3)));
        match obs.metric("engine.op_ms") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 6.0);
                assert_eq!(h.min, Some(2.0));
                assert_eq!(h.max, Some(4.0));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(obs.metrics().len(), 2);
    }

    #[test]
    fn metrics_are_thread_safe() {
        let obs = Obs::new(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let n = obs.counter("n");
                s.spawn(move || {
                    for _ in 0..1000 {
                        n.inc();
                    }
                });
            }
        });
        assert_eq!(obs.metric("n"), Some(Metric::Counter(4000)));
    }

    #[test]
    fn type_conflicts_are_counted_not_silently_dropped() {
        let obs = Obs::new(true);
        obs.counter("x").inc();
        // Requesting the same name as a histogram is a naming bug: in debug
        // builds it asserts; in release builds it is surfaced as a counter.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| obs.histogram("x").observe(1.0)));
        assert_eq!(result.is_err(), cfg!(debug_assertions), "debug assert fires exactly in debug builds");
        assert_eq!(obs.type_conflicts(), 1);
        let metrics = obs.metrics();
        assert!(metrics.iter().any(|(n, m)| n == TYPE_CONFLICTS_METRIC && m.as_counter() == Some(1)), "{metrics:?}");
        // The original counter is intact.
        assert_eq!(obs.metric("x"), Some(Metric::Counter(1)));
    }

    #[test]
    fn collectors_feed_snapshots_only_while_enabled() {
        let obs = Obs::new(true);
        obs.register_collector(Box::new(|out| {
            out.push(("pool.queue_depth".to_string(), Metric::Gauge(4)));
        }));
        assert!(obs.metrics().iter().any(|(n, _)| n == "pool.queue_depth"));
        obs.set_enabled(false);
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn render_shows_tree_with_timings() {
        let obs = Obs::new(true);
        {
            let root = obs.span("deploy");
            root.attr("platform", "native");
            let _c = obs.span("generate");
        }
        let text = obs.trace().render();
        assert!(text.contains("deploy (platform=native)"), "{text}");
        assert!(text.contains("\n  generate"), "{text}");
    }

    #[test]
    fn clear_resets_epoch() {
        let obs = Obs::new(true);
        drop(obs.span("a"));
        obs.clear();
        drop(obs.span("b"));
        let trace = obs.trace();
        assert_eq!(trace.spans.len(), 1);
        assert!(trace.spans[0].start < Duration::from_millis(10), "epoch restarted");
    }

    #[test]
    fn clear_keeps_handles_recording() {
        let obs = Obs::new(true);
        let c = obs.counter("n");
        c.add(3);
        obs.clear();
        assert!(obs.metrics().is_empty());
        c.add(1);
        assert_eq!(obs.metric("n"), Some(Metric::Counter(1)));
    }
}
