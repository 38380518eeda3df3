//! CI gate for the deep-observability layer (experiment E17).
//!
//! The flight recorder, per-run `ExecutionProfile` capture, and drift
//! sampling are *always on* — there is no configuration knob that removes
//! them from a production run — so their cost must live inside the same
//! ≤ 2% envelope the E12 telemetry gate established. This gate runs the E7b
//! workload (morsel-parallel unified flow, high overlap, N=8, sf=0.01):
//!
//! 1. **Overhead**: median wall clock with the flight recorder disabled vs.
//!    enabled, gated with the E12 formula (2% plus an absolute epsilon for
//!    scheduler jitter on shared runners). Profile capture and drift
//!    sampling ride both sides — they are unconditional — so the recorder's
//!    per-event cost is the only delta, and the capture cost is measured
//!    separately below.
//! 2. **Capture cost**: per-run `ExecutionProfile::capture` + JSON encode,
//!    which every run pays before the artifact put; gated against the same
//!    2%-of-run budget.
//! 3. **Evidence**: after the measured runs, the repository must hold a
//!    versioned profile artifact (one version per run) and the recorder
//!    must have recorded per-operator `op_finish` events.
//!
//! Measured points are merged into `BENCH_obs.json` (next to the E12 rows)
//! for the EXPERIMENTS.md table.

use quarry::obs::flight::{self, EventKind};
use quarry::profile::KernelDelta;
use quarry::{ExecutionProfile, Quarry};
use quarry_engine::tpch;
use quarry_etl::cost::cardinality_state;
use quarry_repository::{ArtifactKind, Json};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SF: f64 = 0.01;
const N: usize = 8;
const SAMPLES: usize = 7;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Median wall clock of `SAMPLES` runs — robust to one-off scheduling
/// spikes on either side of the comparison (same estimator as E12).
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

fn main() {
    let catalog = tpch::generate(SF, 42);
    let mut q = Quarry::tpch();
    for r in quarry_bench::high_overlap_family(N) {
        q.add_requirement(r).expect("integrates");
    }
    // Metrics stay disabled on both sides (that envelope is E12's); this
    // gate isolates what this layer added to every run.
    q.set_observability(false);

    let recorder = flight::recorder();
    recorder.set_enabled(false);
    lifecycle_run(&q, &catalog); // warm-up: page in the catalog and pool
    let disabled = median_of(|| lifecycle_run(&q, &catalog));

    recorder.set_enabled(true);
    let enabled = median_of(|| lifecycle_run(&q, &catalog));

    let overhead = enabled.as_secs_f64() / disabled.as_secs_f64() - 1.0;
    println!(
        "profile gate: E7b N={N} sf={SF} run — recorder off {disabled:?}, on {enabled:?} \
         ({:+.2}% overhead, 2% + jitter envelope)",
        overhead * 100.0
    );
    let budget = disabled.mul_f64(1.02) + Duration::from_millis(20);
    if !(enabled <= budget || enabled <= disabled + disabled / 10) {
        fail(&format!("always-on flight recording costs too much: {enabled:?} vs disabled {disabled:?}"));
    }

    // Per-run profile capture + JSON encode, measured on a real report. The
    // runs above already paid this inside the lifecycle; timing it directly
    // puts its absolute cost on record and bounds it against the run.
    let (_, report) = q.run_etl(catalog.clone()).expect("flow executes");
    let kernels = KernelDelta::snapshot();
    let flow = q.unified().1.clone();
    let stats = q.config().stats.clone();
    let capture = median_of(|| {
        let t0 = Instant::now();
        let estimates = cardinality_state(&flow, &stats).unwrap_or_default();
        let profile = ExecutionProfile::capture(&flow, &report, &estimates, KernelDelta::default(), kernels);
        black_box(profile.to_json().to_pretty_string());
        t0.elapsed()
    });
    println!(
        "profile gate: ExecutionProfile capture + encode {capture:?} per run ({:.2}% of the run)",
        capture.as_secs_f64() / disabled.as_secs_f64() * 100.0
    );
    if capture > disabled.mul_f64(0.02) + Duration::from_millis(5) {
        fail(&format!("profile capture {capture:?} exceeds 2% of the {disabled:?} run"));
    }

    // Evidence that the measured runs actually produced observability: the
    // repository versions one profile per execution, and the recorder holds
    // per-operator events from the enabled runs.
    let artifact = q
        .repository()
        .latest(ArtifactKind::Profile, &q.config().design_name)
        .unwrap_or_else(|e| fail(&format!("no profile artifact after the measured runs: {e}")));
    let runs = 2 * SAMPLES + 2; // warm-up + both medians + the capture-source run
    if (artifact.version as usize) < runs {
        fail(&format!(
            "profile artifact at version {} after {runs} runs — captures are being skipped",
            artifact.version
        ));
    }
    let log = recorder.drain();
    let op_events = log.events.iter().filter(|e| e.kind == EventKind::OpFinish).count();
    println!(
        "profile gate: profile artifact at version {}, recorder holds {} events ({op_events} op_finish, {} dropped)",
        artifact.version,
        log.events.len(),
        log.dropped
    );
    if op_events == 0 {
        fail("the flight recorder saw no op_finish events from the enabled runs");
    }

    // Merge the measured rows into BENCH_obs.json alongside the E12 series.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let mut doc = std::fs::read_to_string(path).ok().and_then(|s| Json::parse(&s).ok()).unwrap_or_else(Json::object);
    let ms = |d: Duration| Json::Number(d.as_secs_f64() * 1e3);
    let mut gate = Json::object();
    gate.set("experiment", Json::String("E17 flight recorder + profile capture overhead".into()));
    gate.set("workload", Json::String(format!("run_etl, high_overlap_family({N}), tpch sf={SF}, median of {SAMPLES}")));
    gate.set("recorder_disabled_ms", ms(disabled));
    gate.set("recorder_enabled_ms", ms(enabled));
    gate.set("overhead_pct", Json::Number(overhead * 100.0));
    gate.set("profile_capture_ms", ms(capture));
    gate.set("profile_versions", Json::Number(artifact.version as f64));
    gate.set("recorder_events", Json::Number(log.events.len() as f64));
    doc.set("profile_gate", gate);
    if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
        eprintln!("could not write {path}: {e}");
    }

    println!("OK: always-on flight recording + profile capture hold the ≤2% E7b envelope");
}
