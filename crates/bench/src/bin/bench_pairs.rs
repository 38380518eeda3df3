//! Alternating A/B pairs of the lifecycle benchmark between two git revisions.
//!
//! ```text
//! bench_pairs [--base <rev>] [--head <rev>] [--pairs <n>] [--seed <n>] [--trace 0|1]
//!             [--workloads <a,b,..>] [--dir <path>]
//! ```
//!
//! Each revision is extracted with `git archive` into a directory of its own
//! under `--dir` (default: `bench_pairs` in the system's temporary directory)
//! and built there with `cargo build --offline`, into its own target
//! directory. Then, per workload of `BENCHMARK.json` (read from the head
//! revision), `--pairs` pairs run the benchmark's command once per side,
//! alternating which side goes first, each for the spec's `run_seconds`. With `--trace 0` (the default) the
//! end-to-end metrics are compared, with `--trace 1` the per-layer ones.
//!
//! Per metric the report prints both medians, the base's q1–q3, Δ % of the
//! head against the base, how many pairs the head won (by the metric's
//! `better` direction) and a verdict: `unresolved` when the medians differ by
//! no more than the base's interquartile range, else `better` or `worse`.
//! A run that fails, or reports `correct` = false, is counted and makes the
//! exit code non-zero.

use quarry_repository::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Options {
    base: String,
    head: String,
    pairs: usize,
    seed: u64,
    trace: u8,
    workloads: Option<Vec<String>>,
    dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: bench_pairs [--base <rev>] [--head <rev>] [--pairs <n>] [--seed <n>] [--trace 0|1] \
          [--workloads <a,b,..>] [--dir <path>]"
    );
    std::process::exit(2)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str, valid: impl Fn(&T) -> bool) -> T {
    value.parse().ok().filter(valid).unwrap_or_else(|| usage(&format!("bad value `{value}` for {flag}")))
}

fn options() -> Options {
    let mut o = Options {
        base: "HEAD~1".into(),
        head: "HEAD".into(),
        pairs: 10,
        seed: 42,
        trace: 0,
        workloads: None,
        dir: std::env::temp_dir().join("bench_pairs"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--base" => o.base = value,
            "--head" => o.head = value,
            "--pairs" => o.pairs = parsed(&flag, &value, |&n| n > 0),
            "--seed" => o.seed = parsed(&flag, &value, |_| true),
            "--trace" => o.trace = parsed(&flag, &value, |&t| t <= 1),
            "--workloads" => o.workloads = Some(value.split(',').map(str::to_string).collect()),
            "--dir" => o.dir = PathBuf::from(value),
            _ => usage(&format!("unknown argument `{flag}`")),
        }
    }
    o
}

/// Runs `cmd`, failing the whole comparison if it cannot start or fails.
fn check(cmd: &mut Command, what: &str) -> Vec<u8> {
    match cmd.stderr(Stdio::inherit()).output() {
        Ok(out) if out.status.success() => out.stdout,
        Ok(out) => usage(&format!("{what} failed ({})", out.status)),
        Err(e) => usage(&format!("{what} could not start: {e}")),
    }
}

/// The full commit id of `rev`.
fn resolve(rev: &str) -> String {
    let out = check(Command::new("git").args(["rev-parse", "--verify", &format!("{rev}^{{commit}}")]), "git rev-parse");
    String::from_utf8_lossy(&out).trim().to_string()
}

/// Extracts `commit` into `dir` (replacing what was there) and builds the
/// benchmark's manifest offline into `dir/target`.
fn prepare(commit: &str, dir: &Path, manifest: &str) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).unwrap_or_else(|e| usage(&format!("cannot clear {}: {e}", dir.display())));
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", dir.display())));
    let tar = check(Command::new("git").args(["archive", "--format=tar", commit]), "git archive");
    let mut untar = Command::new("tar")
        .args(["-x", "-C"])
        .arg(dir)
        .stdin(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| usage(&format!("tar could not start: {e}")));
    std::io::Write::write_all(untar.stdin.as_mut().expect("piped"), &tar).expect("tar reads its input");
    if !untar.wait().is_ok_and(|s| s.success()) {
        usage("tar failed");
    }
    eprintln!("building {commit} in {}", dir.display());
    check(
        Command::new("cargo")
            .args(["build", "--release", "--quiet", "--offline", "--manifest-path", manifest])
            .current_dir(dir)
            .env("CARGO_TARGET_DIR", dir.join("target")),
        "cargo build",
    );
}

/// One run of the benchmark's `command` in `dir`: the metrics of its last
/// output line, or `None` if it failed or reported itself incorrect.
fn run(command: &[String], dir: &Path, workload: &str, seconds: f64, o: &Options) -> Option<HashMap<String, f64>> {
    let mut args = command.to_vec();
    if args.first().map(String::as_str) == Some("cargo") && args.len() > 1 {
        args.insert(2, "--offline".into());
    }
    let out = Command::new(&args[0])
        .args(&args[1..])
        .args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", &o.trace.to_string()])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(stdout.lines().last()?).ok()?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return None;
    }
    let Some(Json::Object(metrics)) = result.get("metrics") else { return None };
    Some(metrics.iter().filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?))).collect())
}

/// The `p`-quantile of sorted `xs`, interpolated linearly between ranks.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let at = p * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

fn main() -> ExitCode {
    let o = options();
    let (base, head) = (resolve(&o.base), resolve(&o.head));
    let spec_text = check(Command::new("git").args(["show", &format!("{head}:BENCHMARK.json")]), "git show");
    let spec = Json::parse(&String::from_utf8_lossy(&spec_text)).unwrap_or_else(|e| usage(&format!("{e:?}")));
    let strings = |json: Option<&Json>| -> Vec<String> {
        let Some(Json::Array(items)) = json else { usage("BENCHMARK.json lacks a list") };
        items.iter().map(|i| i.as_str().map(str::to_string).unwrap_or_default()).collect()
    };
    let command = strings(spec.get("command"));
    let seconds =
        spec.get("run_seconds").and_then(Json::as_f64).unwrap_or_else(|| usage("BENCHMARK.json lacks run_seconds"));
    let manifest_at = command.iter().position(|a| a == "--manifest-path").map(|i| command[i + 1].clone());
    let manifest = manifest_at.unwrap_or_else(|| usage("the benchmark's command names no --manifest-path"));
    let Some(Json::Array(workloads)) = spec.get("workloads") else { usage("BENCHMARK.json lacks workloads") };
    let workloads: Vec<String> = (workloads.iter())
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .filter(|w| o.workloads.as_ref().is_none_or(|only| only.contains(w)))
        .collect();
    let Some(Json::Array(metrics)) = spec.get(if o.trace == 0 { "end_to_end" } else { "per_layer" }) else {
        usage("BENCHMARK.json lacks the metric list")
    };
    let metrics: Vec<(String, bool)> = (metrics.iter())
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("better")?.as_str()? == "lower")))
        .collect();

    let sides = [("base", &base), ("head", &head)];
    let dirs: Vec<PathBuf> = sides.iter().map(|(label, _)| o.dir.join(label)).collect();
    for ((_, commit), dir) in sides.iter().zip(&dirs) {
        prepare(commit, dir, &manifest);
    }
    println!("bench_pairs: base {base} vs head {head}");
    println!("{} pairs per workload, seed {}, --seconds {seconds}, --trace {}", o.pairs, o.seed, o.trace);
    let mut failed = 0;
    for workload in &workloads {
        // Per side, per metric: one value per pair that both sides completed.
        let mut values: [HashMap<String, Vec<f64>>; 2] = Default::default();
        for pair in 0..o.pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut got: [Option<HashMap<String, f64>>; 2] = [None, None];
            for side in order {
                got[side] = run(&command, &dirs[side], workload, seconds, &o);
                failed += usize::from(got[side].is_none());
            }
            eprintln!("{workload}: pair {}/{} done", pair + 1, o.pairs);
            let [Some(b), Some(h)] = got else { continue };
            for (name, _) in &metrics {
                if let (Some(&vb), Some(&vh)) = (b.get(name), h.get(name)) {
                    values[0].entry(name.clone()).or_default().push(vb);
                    values[1].entry(name.clone()).or_default().push(vh);
                }
            }
        }
        println!("\n{workload}");
        println!(
            "  {:<44} {:>12} {:>25} {:>12} {:>8} {:>6}  verdict",
            "metric", "base", "base q1–q3", "head", "Δ %", "wins"
        );
        for (name, lower) in &metrics {
            let (Some(b), Some(h)) = (values[0].get(name), values[1].get(name)) else { continue };
            let wins = b.iter().zip(h).filter(|(b, h)| if *lower { h < b } else { h > b }).count();
            let (bs, hs) = (sorted(b.clone()), sorted(h.clone()));
            let (bm, hm, q1, q3) = (quantile(&bs, 0.5), quantile(&hs, 0.5), quantile(&bs, 0.25), quantile(&bs, 0.75));
            let delta = if bm == 0.0 { 0.0 } else { 100.0 * (hm - bm) / bm.abs() };
            let verdict = if (hm - bm).abs() <= q3 - q1 {
                "unresolved"
            } else if (hm < bm) == *lower {
                "better"
            } else {
                "worse"
            };
            let spread = format!("{q1:.6}–{q3:.6}");
            println!(
                "  {name:<44} {bm:>12.6} {spread:>25} {hm:>12.6} {delta:>+8.1} {wins:>3}/{:<2}  {verdict}",
                b.len()
            );
        }
    }
    if failed > 0 {
        println!("\n{failed} run(s) failed or reported `correct` = false");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
