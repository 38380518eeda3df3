//! The metric registry behind [`crate::Obs`].
//!
//! Call sites resolve a name to a handle **once** ([`Counter`], [`Gauge`],
//! [`Histogram`]) and afterwards record through the handle's own cell — no
//! name lookup, no allocation on the hot path. A counter or gauge is one
//! relaxed atomic; a histogram keeps its count, sum, extrema and buckets
//! behind one mutex, so a snapshot always sees whole observations. The
//! name → cell map is one mutex-guarded `BTreeMap`, touched only at
//! registration and snapshot time.
//!
//! Histograms are fixed log-bucketed (HDR-style): base-2 octaves split into
//! 8 sub-buckets straight from the `f64` bit pattern, covering ~1 ns to 64 s
//! with ≤ 12.5% relative bucket width, plus underflow/overflow buckets.
//! [`HistogramSnapshot::quantile`] is therefore exact to within one bucket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// Metric snapshots
// ---------------------------------------------------------------------------

/// A point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    /// Smallest observed value; `None` while the histogram is empty.
    pub min: Option<f64>,
    /// Largest observed value; `None` while the histogram is empty.
    pub max: Option<f64>,
    /// `(upper_bound, count)` of every non-empty bucket, ascending. The last
    /// bucket's bound may be `+inf` (overflow bucket).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), exact to within one bucket:
    /// the upper bound of the bucket holding the q-th observation, clamped
    /// to the observed `[min, max]` range. `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total: u64 = self.buckets.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= target {
                let mut v = upper;
                if let Some(max) = self.max {
                    v = v.min(max);
                }
                if let Some(min) = self.min {
                    v = v.max(min);
                }
                return Some(v);
            }
        }
        self.max
    }
}

/// A named metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// A value that can move both ways (queue depths, in-flight work).
    Gauge(i64),
    /// Distribution of observed values over fixed log buckets.
    Histogram(HistogramSnapshot),
    /// Identity labels with constant value 1 (Prometheus info-metric
    /// convention, e.g. `obs.build_info{version=…,git_hash=…}`). Snapshot-
    /// only: provided by the recorder, not backed by registry cells.
    Info(Vec<(String, String)>),
}

impl Metric {
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_gauge(&self) -> Option<i64> {
        match self {
            Metric::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_histogram(&self) -> Option<&HistogramSnapshot> {
        match self {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }

    pub fn as_info(&self) -> Option<&[(String, String)]> {
        match self {
            Metric::Info(labels) => Some(labels),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Cells (the shared storage behind handles)
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct CounterCell {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl CounterCell {
    pub(crate) fn new(enabled: &Arc<AtomicBool>) -> Self {
        CounterCell { enabled: Arc::clone(enabled), value: AtomicU64::new(0) }
    }

    #[inline]
    fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
pub(crate) struct GaugeCell {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
    touched: AtomicBool,
}

impl GaugeCell {
    pub(crate) fn new(enabled: &Arc<AtomicBool>) -> Self {
        GaugeCell { enabled: Arc::clone(enabled), value: AtomicI64::new(0), touched: AtomicBool::new(false) }
    }

    #[inline]
    fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
            self.touched.store(true, Ordering::Relaxed);
        }
    }

    #[inline]
    fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
            self.touched.store(true, Ordering::Relaxed);
        }
    }

    fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn is_touched(&self) -> bool {
        self.touched.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.touched.store(false, Ordering::Relaxed);
    }
}

// Histogram bucket layout: one underflow bucket, `OCTAVES × 8` log-linear
// buckets derived from the f64 bit pattern (exponent selects the octave, the
// top three mantissa bits the sub-bucket), one overflow bucket.

/// Smallest bucketed value: 2^-30 s ≈ 0.93 ns (biased exponent 993).
const MIN_EXP: u64 = 993;
/// Largest bucketed octave starts at 2^6 = 64 s (biased exponent 1029).
const MAX_EXP: u64 = 1029;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
const LINEAR_BUCKETS: usize = OCTAVES * 8;
/// Total buckets including underflow (index 0) and overflow (last index).
pub(crate) const BUCKETS: usize = LINEAR_BUCKETS + 2;

/// Bucket index for a value. Zero, negatives, and subnormals fall into the
/// underflow bucket; values beyond the last octave (incl. `+inf`) into the
/// overflow bucket. Callers must filter `NaN` before indexing.
#[inline]
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> 49) & 0x7) as usize;
    1 + (exp - MIN_EXP) as usize * 8 + sub
}

/// Upper bound of bucket `i` (inclusive reporting bound).
fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        return f64::from_bits(MIN_EXP << 52); // smallest bucketed value
    }
    if i >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let k = i - 1;
    let exp = MIN_EXP + (k / 8) as u64;
    let sub = (k % 8) as f64 + 1.0;
    f64::from_bits(exp << 52) * (1.0 + sub / 8.0)
}

/// What a histogram has observed; one lock covers all of it.
#[derive(Debug)]
struct HistogramState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl HistogramState {
    const EMPTY: HistogramState =
        HistogramState { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, buckets: [0; BUCKETS] };
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    enabled: Arc<AtomicBool>,
    state: Mutex<HistogramState>,
}

impl HistogramCell {
    pub(crate) fn new(enabled: &Arc<AtomicBool>) -> Self {
        HistogramCell { enabled: Arc::clone(enabled), state: Mutex::new(HistogramState::EMPTY) }
    }

    fn state(&self) -> MutexGuard<'_, HistogramState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn observe(&self, v: f64) {
        if !self.enabled.load(Ordering::Relaxed) || v.is_nan() {
            return;
        }
        let mut s = self.state();
        s.count += 1;
        s.sum += v;
        s.buckets[bucket_index(v)] += 1;
        if v < s.min {
            s.min = v;
        }
        if v > s.max {
            s.max = v;
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let s = self.state();
        let buckets =
            (s.buckets.iter().enumerate()).filter(|(_, &n)| n > 0).map(|(i, &n)| (bucket_upper(i), n)).collect();
        HistogramSnapshot {
            count: s.count,
            sum: s.sum,
            min: s.min.is_finite().then_some(s.min),
            max: s.max.is_finite().then_some(s.max),
            buckets,
        }
    }

    fn reset(&self) {
        *self.state() = HistogramState::EMPTY;
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A pre-resolved counter handle: one relaxed atomic add per bump. Clones
/// share the same cell.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Arc<CounterCell>);

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.add(n);
    }

    #[inline]
    pub fn inc(&self) {
        self.0.add(1);
    }

    pub fn value(&self) -> u64 {
        self.0.value()
    }
}

/// A pre-resolved gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Arc<GaugeCell>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.add(delta);
    }

    #[inline]
    pub fn sub(&self, delta: i64) {
        self.0.add(-delta);
    }

    pub fn value(&self) -> i64 {
        self.0.value()
    }
}

/// A pre-resolved histogram handle: one short lock per observation.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCell>);

impl Histogram {
    #[inline]
    pub fn observe(&self, v: f64) {
        self.0.observe(v);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }

    /// Convenience: quantile of the current snapshot.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// Name → cell map. Locked only at registration and snapshot time;
/// recording goes through the cells directly.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    names: Mutex<BTreeMap<String, Entry>>,
}

/// The error returned when a name is already registered with another type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TypeConflict {
    pub existing: &'static str,
    pub requested: &'static str,
}

impl Registry {
    fn names(&self) -> MutexGuard<'_, BTreeMap<String, Entry>> {
        // A panic while holding the lock (e.g. a failed debug assert in a
        // caller's thread) must not wedge the whole registry.
        self.names.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry registered under `name`, registering `make()` if none is.
    fn entry(&self, name: &str, make: impl FnOnce() -> Entry) -> Entry {
        self.names().entry(name.to_string()).or_insert_with(make).clone()
    }

    pub(crate) fn counter(&self, name: &str, enabled: &Arc<AtomicBool>) -> Result<Arc<CounterCell>, TypeConflict> {
        match self.entry(name, || Entry::Counter(Arc::new(CounterCell::new(enabled)))) {
            Entry::Counter(cell) => Ok(cell),
            other => Err(TypeConflict { existing: other.kind(), requested: "counter" }),
        }
    }

    pub(crate) fn gauge(&self, name: &str, enabled: &Arc<AtomicBool>) -> Result<Arc<GaugeCell>, TypeConflict> {
        match self.entry(name, || Entry::Gauge(Arc::new(GaugeCell::new(enabled)))) {
            Entry::Gauge(cell) => Ok(cell),
            other => Err(TypeConflict { existing: other.kind(), requested: "gauge" }),
        }
    }

    pub(crate) fn histogram(&self, name: &str, enabled: &Arc<AtomicBool>) -> Result<Arc<HistogramCell>, TypeConflict> {
        match self.entry(name, || Entry::Histogram(Arc::new(HistogramCell::new(enabled)))) {
            Entry::Histogram(cell) => Ok(cell),
            other => Err(TypeConflict { existing: other.kind(), requested: "histogram" }),
        }
    }

    /// Snapshot of one metric by name, including untouched entries.
    pub(crate) fn get(&self, name: &str) -> Option<Metric> {
        self.names().get(name).map(|e| match e {
            Entry::Counter(c) => Metric::Counter(c.value()),
            Entry::Gauge(g) => Metric::Gauge(g.value()),
            Entry::Histogram(h) => Metric::Histogram(h.snapshot()),
        })
    }

    /// Snapshot of all metrics *with recorded data*, in name order. Handles
    /// are registered eagerly (often at construction, before anything is
    /// recorded), so zero counters, untouched gauges, and empty histograms
    /// are omitted — a metric appears once it has observations.
    pub(crate) fn snapshot(&self) -> Vec<(String, Metric)> {
        let names = self.names();
        let recorded = names.iter().filter_map(|(name, entry)| {
            let metric = match entry {
                Entry::Counter(c) => Some(c.value()).filter(|&v| v > 0).map(Metric::Counter)?,
                Entry::Gauge(g) => g.is_touched().then(|| Metric::Gauge(g.value()))?,
                Entry::Histogram(h) => Some(h.snapshot()).filter(|s| !s.is_empty()).map(Metric::Histogram)?,
            };
            Some((name.clone(), metric))
        });
        recorded.collect()
    }

    /// Resets every value while keeping all registrations (live handles keep
    /// recording into the same cells).
    pub(crate) fn reset(&self) {
        for entry in self.names().values() {
            match entry {
                Entry::Counter(c) => c.reset(),
                Entry::Gauge(g) => g.reset(),
                Entry::Histogram(h) => h.reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(true))
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_contain_their_values() {
        let mut prev = 0.0;
        for i in 0..BUCKETS - 1 {
            let upper = bucket_upper(i);
            assert!(upper > prev, "bucket {i}: {upper} must exceed {prev}");
            prev = upper;
        }
        assert_eq!(bucket_upper(BUCKETS - 1), f64::INFINITY);
        // Every sampled value lands in its half-open bucket
        // `[bucket_upper(i-1), bucket_upper(i))` (boundary values such as
        // exact powers of two start the next bucket).
        for &v in &[1e-9, 3.7e-7, 1e-3, 0.02, 0.5, 1.0, 1.5, 12.0, 63.9] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v} beyond bucket {i} bound {}", bucket_upper(i));
            if i > 1 {
                assert!(v >= bucket_upper(i - 1), "{v} below bucket {}'s bound", i - 1);
            }
        }
    }

    #[test]
    fn bucket_relative_width_is_within_one_eighth() {
        for k in 1..BUCKETS - 1 {
            let lo = bucket_upper(k - 1);
            let hi = bucket_upper(k);
            assert!(hi / lo <= 1.0 + 1.0 / 8.0 + 1e-12, "bucket {k}: {lo}..{hi}");
        }
    }

    #[test]
    fn extremes_land_in_underflow_and_overflow() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(1e-12), 0);
        assert_eq!(bucket_index(1e9), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_track_a_known_distribution() {
        let h = HistogramCell::new(&on());
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // uniform 0.001 .. 1.000
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert!((snap.sum - 500.5).abs() < 1e-6);
        assert_eq!(snap.min, Some(0.001));
        assert_eq!(snap.max, Some(1.0));
        for (q, exact) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
            let est = snap.quantile(q).unwrap();
            assert!(est >= exact * (1.0 - 0.125) && est <= exact * (1.0 + 0.125), "q{q}: {est} vs {exact}");
        }
        // q=0 reports the first bucket's bound, within one bucket of min.
        let q0 = snap.quantile(0.0).unwrap();
        assert!((0.001..=0.001 * 1.125).contains(&q0), "{q0}");
        assert_eq!(snap.quantile(1.0).unwrap(), 1.0);
    }

    #[test]
    fn empty_histogram_has_no_extrema_and_no_quantiles() {
        let h = HistogramCell::new(&on());
        let snap = h.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.min, None);
        assert_eq!(snap.max, None);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn nan_observations_are_dropped() {
        let h = HistogramCell::new(&on());
        h.observe(f64::NAN);
        assert!(h.snapshot().is_empty());
        h.observe(2.0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn disabled_cells_record_nothing() {
        let enabled = Arc::new(AtomicBool::new(false));
        let c = CounterCell::new(&enabled);
        let h = HistogramCell::new(&enabled);
        let g = GaugeCell::new(&enabled);
        c.add(5);
        h.observe(1.0);
        g.set(3);
        assert_eq!(c.value(), 0);
        assert!(h.snapshot().is_empty());
        assert!(!g.is_touched());
        enabled.store(true, Ordering::Relaxed);
        c.add(5);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn registry_snapshot_omits_untouched_entries() {
        let reg = Registry::default();
        let enabled = on();
        let c = reg.counter("a.count", &enabled).unwrap();
        reg.histogram("a.seconds", &enabled).unwrap();
        reg.gauge("a.depth", &enabled).unwrap();
        assert!(reg.snapshot().is_empty(), "nothing recorded yet");
        c.add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0], ("a.count".into(), Metric::Counter(2)));
        // `get` still exposes registered-but-empty metrics.
        assert_eq!(reg.get("a.depth"), Some(Metric::Gauge(0)));
    }

    #[test]
    fn type_conflicts_are_reported() {
        let reg = Registry::default();
        let enabled = on();
        reg.counter("x", &enabled).unwrap();
        let err = reg.histogram("x", &enabled).unwrap_err();
        assert_eq!(err, TypeConflict { existing: "counter", requested: "histogram" });
        let err = reg.gauge("x", &enabled).unwrap_err();
        assert_eq!(err.existing, "counter");
    }

    #[test]
    fn reset_keeps_handles_live() {
        let reg = Registry::default();
        let enabled = on();
        let c = reg.counter("n", &enabled).unwrap();
        c.add(7);
        reg.reset();
        assert_eq!(c.value(), 0);
        c.add(1);
        assert_eq!(reg.get("n"), Some(Metric::Counter(1)), "same cell after reset");
    }
}
