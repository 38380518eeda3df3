//! The lifecycle benchmark: one binary, four seeded workloads, one protocol.
//!
//! ```text
//! lifecycle --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! lifecycle --all   [--seed <n>] [--seconds <s>]     every workload, both metric sets
//! lifecycle --check [--seed <n>] [--seconds <s>]     A/A: every workload twice, compared
//! lifecycle --quick                                  sf = 0.01, one pass each (smoke)
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced protocol and reports the per-layer metrics; without
//! `--trace` a run does both. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero if any operation failed or any metric could not be measured.
//! See `README.md` beside this file for the metric glossary.

mod oracle;
mod protocol;
mod report;
mod stats;
mod trace;
mod workloads;

use oracle::Tally;
use protocol::{Bench, Layers, Samples, Tracer};
use quarry_repository::Json;
use report::{Metric, RunResult, END_TO_END, RUN_SECONDS};
use stats::{median, summarize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
/// Set-ups per end-to-end run; `setup_s` is the fastest of them.
const SETUPS: usize = 3;
/// Fewest measured passes whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Interleaved repetitions of the extra cold-run configurations.
const VARIANT_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    /// End-to-end metrics only, tracing off.
    Off,
    /// Per-layer metrics only, from the traced protocol.
    On,
    Both,
}

#[derive(Debug, Clone, Copy)]
struct RunOptions {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    /// Smoke mode: smallest inputs, one pass of each kind, no warm-up.
    quick: bool,
}

/// Directory for everything a run writes: `$CARGO_TARGET_DIR/lifecycle`, or
/// `target/lifecycle` — relative to the working directory, so inside the
/// checkout the benchmark was started from.
fn output_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into())).join("lifecycle")
}

/// How a sample of per-pass values becomes the reported value.
#[derive(Clone, Copy)]
enum Pick {
    Median,
    /// Passes repeat identical work and a shared machine's noise is
    /// one-sided (a pass is never faster than the machine allows, often
    /// slower), so the fastest sample is the steadiest estimate of what the
    /// work costs: it needs one undisturbed sample in a run, where a
    /// quartile needs a quarter of them. Over ten seeds beside a bursty
    /// synthetic neighbour the minimum's worst spread per workload was
    /// 6-10%, the lower quartile's 11-36%, the median's 13-32% (see the
    /// README's "Steadiness").
    Min,
}

fn sample_metric(name: &str, unit: &'static str, values: &[f64], pick: Pick) -> Option<Metric> {
    let summary = summarize(values)?;
    let value = match pick {
        Pick::Median => summary.median,
        Pick::Min => summary.min,
    };
    Some(Metric { name: name.to_string(), unit, value, summary: Some(summary) })
}

fn end_to_end_metrics(setups: &[f64], s: &Samples) -> Vec<Metric> {
    let unit = |name: &str| END_TO_END.iter().find(|(m, _)| m.name == name).map_or("", |(m, _)| m.unit);
    let sample = |name: &str, values: &[f64]| sample_metric(name, unit(name), values, Pick::Min);
    let peak_rss = s.peak_rss_mb.map(|value| Metric {
        name: "peak_rss_mb".into(),
        unit: unit("peak_rss_mb"),
        value,
        summary: None,
    });
    [
        sample_metric("setup_s", unit("setup_s"), setups, Pick::Min),
        sample("lifecycle_pass_s", &s.lifecycle_pass_s),
        sample("optimize_s", &s.optimize_s),
        sample("exec_cold_s", &s.cold_s),
        sample("exec_warm_s", &s.warm_s),
        sample("exec_after_invalidate_s", &s.invalidate_s),
        sample("session_s", &s.session_s),
        sample("add_p50_ms", &s.add_ms),
        sample("change_p50_ms", &s.change_ms),
        sample("step_p95_ms", &s.step_p95_ms),
        sample("recover_s", &s.recover_s),
        sample("wal_bytes_per_user_byte", &s.wal_ratio),
        peak_rss,
        sample("md_complexity", &s.md_complexity),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn per_layer_metrics(layers: &Layers) -> Vec<Metric> {
    let metric =
        |(name, unit, _): &(String, &'static str, _)| sample_metric(name, unit, layers.0.get(name)?, Pick::Median);
    report::per_layer().iter().filter_map(metric).collect()
}

/// Untraced timed passes: one discarded warm-up, then passes until
/// `seconds` have been measured. `peak_rss_mb` is read after the first
/// `MIN_PASSES` measured passes — a fixed amount of work, where a reading at
/// the end would grow with the number of passes the machine got through.
fn measure_end_to_end(bench: &mut Bench, opts: &RunOptions) -> Samples {
    let mut discard = (Samples::default(), Layers::default());
    if !opts.quick {
        bench.pass(false, &mut discard.0, &mut discard.1, None);
    }
    let mut samples = Samples::default();
    let min_passes = if opts.quick { 1 } else { MIN_PASSES };
    let started = Instant::now();
    while samples.passes < min_passes || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds) {
        let before = samples.passes;
        bench.pass(false, &mut samples, &mut discard.1, None);
        if samples.passes == before {
            break; // the pass could not even start; the tally says why
        }
        if samples.passes == min_passes {
            samples.peak_rss_mb = report::peak_rss_mb();
        }
    }
    samples
}

/// The traced protocol: untraced and traced passes alternate for `seconds`
/// (counters come from the former, replayed busy times from the latter, and
/// their difference is the tracing overhead), then one pass with the
/// program's observability on and the extra cold-run configurations.
fn measure_per_layer(bench: &mut Bench, opts: &RunOptions, generate_s: f64) -> (Layers, Tracer) {
    let mut layers = Layers::default();
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    if !opts.quick {
        bench.pass(false, &mut Samples::default(), &mut Layers::default(), None);
    }
    let min = if opts.quick { 1 } else { 2 };
    let started = Instant::now();
    while traced.passes < min || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds) {
        let before = plain.passes + traced.passes;
        bench.pass(false, &mut plain, &mut layers, None);
        bench.pass(false, &mut traced, &mut layers, Some(&mut tracer));
        if plain.passes + traced.passes != before + 2 {
            break;
        }
    }
    let mut observed = Samples::default();
    bench.pass(true, &mut observed, &mut Layers::default(), None);

    let [default, one_thread, cache_off, greedy] = bench.cold_variants(if opts.quick { 1 } else { VARIANT_REPS });
    if let (Some(default), Some(one_thread), Some(cache_off), Some(greedy)) =
        (median(&default), median(&one_thread), median(&cache_off), median(&greedy))
    {
        layers.put("engine.pool.speedup_vs_1", one_thread / default);
        layers.put("engine.cache.cold_overhead_share", default / cache_off - 1.0);
        layers.put("integrator.optimize.measured_gain_share", 1.0 - default / greedy);
        if let Some(optimize_s) = median(&plain.optimize_s) {
            // Runs until the search has paid for itself; negative when the
            // optimized flow measured slower than the greedy one.
            layers.put("integrator.optimize.payback_runs", optimize_s / (greedy - default));
        }
    }
    if let (Some(plain_s), Some(traced_s), Some(observed_s)) =
        (median(&plain.pass_s), median(&traced.pass_s), median(&observed.pass_s))
    {
        layers.put("bench.trace.overhead_share", traced_s / plain_s - 1.0);
        layers.put("obs.overhead_share", observed_s / plain_s - 1.0);
    }
    if let (Some(p99), Some(max)) = (median(&plain.step_p99_ms), median(&plain.step_max_ms)) {
        layers.put("repository.step_p99_ms", p99);
        layers.put("repository.step_max_ms", max);
    }
    layers.put("engine.tpch.generate_s", generate_s);
    layers.put("engine.tpch.rows", bench.fx.catalog.total_rows() as f64);
    layers.put("core.ops_failed_share", bench.tally.failed as f64 / bench.tally.attempted.max(1) as f64);
    (layers, tracer)
}

/// Runs one workload in this process.
fn run_workload(opts: &RunOptions) -> RunResult {
    let w = if opts.quick { opts.workload.quick() } else { *opts.workload };
    let mut tally = Tally::default();
    let scratch = output_dir().join(format!("tmp-{}-{}", std::process::id(), w.name));

    // Set up several times and keep the last fixture: `setup_s` is the
    // fastest set-up, like every other timing (a set-up is one long region,
    // so a busy neighbour shifts all of them; the fastest shifts least).
    let setups = if opts.quick || opts.trace == TraceMode::On { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..setups {
        drop(fixture.take());
        let (fx, s) = protocol::set_up(&w, opts.seed, &mut tally);
        setup_s.push(s);
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one set-up");
    if !opts.quick {
        match oracle::check_pinned(include_str!("expected_inputs.json"), w.name, opts.seed, &fx.digest) {
            Ok(pinned) => {
                println!("inputs: {}", if pinned { "match expected_inputs.json" } else { "not pinned for this seed" })
            }
            Err(e) => tally.fail(e),
        }
    }

    let mut bench = Bench { fx: &fx, scratch: scratch.clone(), tally, reference: None, pass_no: 0 };
    let mut metrics = Vec::new();
    let mut wanted: Vec<String> = Vec::new();
    let mut measured_passes = 0;
    if opts.trace != TraceMode::On {
        let samples = measure_end_to_end(&mut bench, opts);
        measured_passes = samples.passes;
        metrics.extend(end_to_end_metrics(&setup_s, &samples));
        wanted.extend(END_TO_END.iter().map(|(m, _)| m.name.to_string()));
    }
    if opts.trace != TraceMode::Off {
        let (layers, tracer) = measure_per_layer(&mut bench, opts, fx.generate_s);
        metrics.extend(per_layer_metrics(&layers));
        wanted.extend(report::per_layer().into_iter().map(|(name, ..)| name));
        let path = output_dir().join(format!("{}.trace.json", w.name));
        match std::fs::write(&path, tracer.rec.to_json()) {
            Ok(()) => println!("trace: {} spans written to {}", tracer.rec.spans().len(), path.display()),
            Err(e) => bench.tally.fail(format!("cannot write {}: {e}", path.display())),
        }
        println!("trace: self time by span name (all traced passes; {} shadow resyncs)", tracer.resyncs);
        for (name, s) in tracer.rec.self_time_by_name().iter().take(12) {
            println!("  {name:<36} {s:.6} s");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let warmups = usize::from(!opts.quick);
    println!(
        "provenance: {}",
        report::provenance(&w, opts.seed, opts.seconds, warmups, measured_passes).to_compact_string()
    );
    for (table, (rows, hash)) in &fx.digest.tables {
        println!("input: table {table} rows {rows} hash {hash:016x}");
    }
    println!(
        "input: xrq documents {} hash {:016x}",
        fx.script.docs.len() + fx.script.changes.len(),
        fx.digest.xrq_hash
    );
    let missing = wanted.into_iter().filter(|name| !metrics.iter().any(|m| m.name == *name)).collect();
    let Bench { tally, .. } = bench;
    RunResult { attempted: tally.attempted, failed: tally.failed, failures: tally.failures, metrics, missing }
}

// ---- multi-run modes: each run is a child process, so that `peak_rss_mb` and
// ---- the process-wide counters of one run never see another's ---------------------

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// This executable, asked for one run of one workload.
fn child_command(workload: &str, seed: u64, seconds: f64) -> std::io::Result<std::process::Command> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    Ok(cmd)
}

/// One untraced run as a child process: its result line and its
/// `summaries:` line.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<(Json, Json), String> {
    let out = child_command(workload, seed, seconds)
        .and_then(|mut cmd| cmd.args(["--trace", "0"]).stderr(std::process::Stdio::inherit()).output())
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parse = |line: Option<&str>| line.and_then(|l| Json::parse(l).ok());
    let result = parse(stdout.lines().last());
    let summaries = parse(stdout.lines().find_map(|l| l.strip_prefix("summaries: ")));
    match (result, summaries) {
        (Some(r), Some(s)) if out.status.success() && r.path("correct") == Some(&Json::Bool(true)) => Ok((r, s)),
        _ => Err(format!("{workload}: the run failed; its output was:\n{stdout}")),
    }
}

fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        println!("== {} (seed {seed}) ==", w.name);
        let status = child_command(w.name, seed, seconds).and_then(|mut cmd| cmd.status());
        ok &= status.is_ok_and(|s| s.success());
    }
    exit_code(ok)
}

/// Verdict of comparing one metric of two runs of one commit: they differ
/// if the medians are further apart than the bound; a pair within the bound
/// is still `unresolved`, not `same`, when either run's own interquartile
/// spread exceeds the bound.
fn aa_verdict(a: f64, b: f64, spread: f64, bound: f64) -> &'static str {
    let differs = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE) > bound;
    match (differs, spread > bound) {
        (true, _) => "DIFFERS",
        (false, true) => "unresolved",
        (false, false) => "same",
    }
}

/// A/A self-check: every workload twice back to back, both medians and
/// quartiles printed per end-to-end metric; fails if any pair differs by
/// more than the metric's bound.
fn run_check(seed: u64, seconds: f64) -> ExitCode {
    let mut failed = false;
    for w in &WORKLOADS {
        println!("== A/A {} (seed {seed}) ==", w.name);
        let runs: Vec<_> = (0..2).map(|_| run_child(w.name, seed, seconds)).collect();
        let (a, b) = match (&runs[0], &runs[1]) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("{e}");
                failed = true;
                continue;
            }
        };
        for (m, bound) in END_TO_END {
            let value = |run: &(Json, Json)| run.0.path(&format!("metrics.{}.value", m.name)).and_then(Json::as_f64);
            // Quartiles of the sample behind a value; a single reading
            // (`peak_rss_mb`) is its own quartiles.
            let quartiles = |run: &(Json, Json), v: f64| {
                let q = |k: &str| run.1.path(&format!("{}.{k}", m.name)).and_then(Json::as_f64).unwrap_or(v);
                (q("q1"), q("q3"))
            };
            let (Some(va), Some(vb)) = (value(a), value(b)) else {
                println!("{:<26} missing from a run", m.name);
                failed = true;
                continue;
            };
            let ((a1, a3), (b1, b3)) = (quartiles(a, va), quartiles(b, vb));
            let spread = stats::spread(va, a1, a3).max(stats::spread(vb, b1, b3));
            let verdict = aa_verdict(va, vb, spread, bound);
            failed |= verdict == "DIFFERS";
            let n = report::json_number;
            println!(
                "{:<26} {:>12} [{} .. {}]  vs {:>12} [{} .. {}] {:<5} bound {:>4.1}%  {verdict}",
                m.name,
                n(va),
                n(a1),
                n(a3),
                n(vb),
                n(b1),
                n(b3),
                m.unit,
                bound * 100.0
            );
        }
    }
    exit_code(!failed)
}

/// The inputs `expected_inputs.json` pins, for the default seed.
fn print_inputs() {
    let mut workloads = Json::object();
    for w in &WORKLOADS {
        let (fx, _) = protocol::set_up(w, DEFAULT_SEED, &mut Tally::default());
        workloads.set(w.name, fx.digest.to_json());
    }
    let mut doc = Json::object();
    doc.set("seed", Json::Number(DEFAULT_SEED as f64));
    doc.set("workloads", workloads);
    print!("{}", doc.to_pretty_string());
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lifecycle --workload <{}> [--seed <n>] [--seconds <s>] [--trace 0|1]\n       \
         lifecycle --all | --check [--seed <n>] [--seconds <s>]\n       \
         lifecycle --quick | --print-benchmark-json | --print-inputs",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut mode) =
        (None, DEFAULT_SEED, RUN_SECONDS as f64, TraceMode::Both, "");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => workload = value().and_then(workloads::find),
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => seconds = v,
                None => return usage(),
            },
            "--trace" => match value() {
                Some("0") => trace = TraceMode::Off,
                Some("1") => trace = TraceMode::On,
                _ => return usage(),
            },
            "--all" | "--check" | "--quick" | "--print-benchmark-json" | "--print-inputs" => mode = arg.as_str(),
            _ => return usage(),
        }
    }
    match mode {
        "--print-benchmark-json" => {
            print!("{}", report::benchmark_json());
            return ExitCode::SUCCESS;
        }
        "--print-inputs" => {
            print_inputs();
            return ExitCode::SUCCESS;
        }
        "--all" => return run_all(seed, seconds),
        "--check" => return run_check(seed, seconds),
        _ => {}
    }
    if let Err(e) = std::fs::create_dir_all(output_dir()) {
        eprintln!("cannot create {}: {e}", output_dir().display());
        return ExitCode::FAILURE;
    }
    let quick = mode == "--quick";
    let selected: Vec<&'static Workload> = match (workload, quick) {
        (Some(w), _) => vec![w],
        (None, true) => WORKLOADS.iter().collect(),
        (None, false) => return usage(),
    };
    let mut ok = true;
    for w in selected {
        println!("# lifecycle benchmark: workload {} seed {seed}{}", w.name, if quick { " (quick)" } else { "" });
        let result = run_workload(&RunOptions { workload: w, seed, seconds, trace, quick });
        result.print_human();
        println!("{}", result.result_line());
        ok &= result.correct();
    }
    exit_code(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke path: every workload at sf = 0.01, one pass of each kind;
    /// every metric named in `BENCHMARK.json` is emitted exactly once, with
    /// its unit, and every oracle comparison passes.
    #[test]
    fn quick_run_emits_every_metric_once_with_its_unit() {
        for w in &WORKLOADS {
            let opts = RunOptions { workload: w, seed: 7, seconds: 0.0, trace: TraceMode::Both, quick: true };
            let r = run_workload(&opts);
            assert!(r.correct(), "{}: failures {:?}, missing {:?}", w.name, r.failures, r.missing);
            assert!(r.attempted > 20, "{}: {} ops", w.name, r.attempted);
            let mut expected: Vec<(String, &str)> =
                END_TO_END.iter().map(|(m, _)| (m.name.to_string(), m.unit)).collect();
            expected.extend(report::per_layer().into_iter().map(|(name, unit, _)| (name, unit)));
            assert_eq!(r.metrics.len(), expected.len(), "{}", w.name);
            for (name, unit) in expected {
                let hits: Vec<_> = r.metrics.iter().filter(|m| m.name == name).collect();
                assert_eq!(hits.len(), 1, "{}: metric {name}", w.name);
                assert_eq!(hits[0].unit, unit, "{}: metric {name}", w.name);
                assert!(hits[0].value.is_finite(), "{}: metric {name}", w.name);
            }
            for (m, _) in END_TO_END {
                assert!(r.metric(m.name).unwrap().value > 0.0, "{}: {} must never be 0", w.name, m.name);
            }
            Json::parse(&r.result_line()).expect("result line parses");
        }
    }

    #[test]
    fn aa_verdicts() {
        assert_eq!(aa_verdict(1.00, 1.05, 0.02, 0.10), "same");
        assert_eq!(aa_verdict(1.00, 1.20, 0.02, 0.10), "DIFFERS");
        assert_eq!(aa_verdict(1.00, 1.05, 0.30, 0.10), "unresolved");
        assert_eq!(aa_verdict(5.0, 5.0, 0.0, 0.001), "same");
    }
}
