//! Metric definitions, provenance and the printed report.
//!
//! [`END_TO_END`] and [`per_layer`] are the single source of the metric
//! names: `BENCHMARK.json` at the repository root is `benchmark_json()`
//! verbatim (a test compares them), and a run fails if it cannot produce
//! every metric of the set it was asked for.

use crate::stats::Summary;
use crate::workloads::{Workload, WORKLOADS};
use quarry_repository::Json;

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`,
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression. Every timing is the
/// fastest sample of the run, a sample being a per-pass statistic or one
/// engine run (`setup_s`: one set-up). Wall-clock timings
/// carry the widest bound: on the shared 2-core reference box whole runs are
/// at times 10-40% slower, and a tighter bound rejects unchanged code (see
/// the README's "Steadiness").
pub const END_TO_END: [(MetricDef, f64); 14] = [
    (lower("setup_s", "s"), 0.25),
    (lower("lifecycle_pass_s", "s"), 0.25),
    (lower("optimize_s", "s"), 0.25),
    (lower("exec_cold_s", "s"), 0.25),
    (lower("exec_warm_s", "s"), 0.25),
    (lower("exec_after_invalidate_s", "s"), 0.25),
    (lower("session_s", "s"), 0.25),
    (lower("add_p50_ms", "ms"), 0.25),
    (lower("change_p50_ms", "ms"), 0.25),
    (lower("step_p95_ms", "ms"), 0.25),
    (lower("recover_s", "s"), 0.25),
    (lower("wal_bytes_per_user_byte", "ratio"), 0.03),
    (lower("peak_rss_mb", "MB"), 0.15),
    (lower("md_complexity", "score"), 0.001),
];

/// Operator kinds whose busy time and output rows are reported per kind.
pub const OP_KINDS: [&str; 9] = [
    "Datastore",
    "Extraction",
    "Selection",
    "Projection",
    "Derivation",
    "Join",
    "Aggregation",
    "SurrogateKey",
    "Loader",
];

/// Per-layer metrics, layer = crate/module name. Counts are "work done" and
/// carry `higher` only where more is better for the same inputs.
const PER_LAYER_FIXED: [MetricDef; 60] = [
    lower("formats.xrq_parse.busy_s", "s"),
    lower("formats.xrq_parse.docs", "count"),
    lower("formats.design_write.busy_s", "s"),
    lower("formats.design_write.bytes", "bytes"),
    lower("interpreter.interpret.busy_s", "s"),
    lower("interpreter.interpret.calls", "count"),
    lower("interpreter.interpret.failed", "count"),
    lower("integrator.md_step.busy_s", "s"),
    lower("integrator.etl_step.busy_s", "s"),
    higher("integrator.etl_step.reused_ops_share", "ratio"),
    lower("integrator.unified_ops", "count"),
    lower("integrator.change.busy_s", "s"),
    lower("integrator.remove.busy_s", "s"),
    lower("integrator.optimize.busy_s", "s"),
    lower("integrator.optimize.moves_proposed", "count"),
    lower("integrator.optimize.moves_accepted", "count"),
    higher("integrator.optimize.accept_share", "ratio"),
    higher("integrator.optimize.modeled_gain_share", "ratio"),
    higher("integrator.optimize.measured_gain_share", "ratio"),
    lower("integrator.optimize.payback_runs", "runs"),
    lower("md.complexity", "score"),
    lower("md.validate.warnings", "count"),
    lower("deployer.deploy.busy_s", "s"),
    lower("deployer.deploy.bytes", "bytes"),
    lower("deployer.deploy.files", "count"),
    lower("engine.run.rows_processed", "rows"),
    higher("engine.run.rows_per_s", "rows/s"),
    lower("engine.run.residual_share", "ratio"),
    higher("engine.kernel.vectorized", "count"),
    lower("engine.kernel.scalar_fallback", "count"),
    lower("engine.kernel.fallback_share", "ratio"),
    lower("engine.pool.regions", "count"),
    lower("engine.pool.jobs", "count"),
    lower("engine.pool.helpers_spawned", "count"),
    higher("engine.pool.speedup_vs_1", "ratio"),
    higher("engine.cache.hit_share", "ratio"),
    lower("engine.cache.inserts", "count"),
    lower("engine.cache.rejects", "count"),
    lower("engine.cache.evictions", "count"),
    lower("engine.cache.resident_bytes", "bytes"),
    lower("engine.cache.entries", "count"),
    lower("engine.cache.cold_overhead_share", "ratio"),
    lower("engine.tpch.generate_s", "s"),
    lower("engine.tpch.rows", "rows"),
    lower("repository.put.calls", "count"),
    lower("repository.wal.appends", "count"),
    lower("repository.wal.appended_bytes", "bytes"),
    lower("repository.wal.fsyncs", "count"),
    lower("repository.wal.fsync_busy_s", "s"),
    lower("repository.wal.compactions", "count"),
    lower("repository.compaction.stall_max_ms", "ms"),
    lower("repository.recover.replayed_records", "count"),
    lower("repository.disk_bytes", "bytes"),
    lower("repository.step_p99_ms", "ms"),
    lower("repository.step_max_ms", "ms"),
    lower("obs.overhead_share", "ratio"),
    lower("bench.trace.overhead_share", "ratio"),
    lower("core.step.residual_share", "ratio"),
    lower("core.pass.residual_share", "ratio"),
    lower("core.ops_failed_share", "ratio"),
];

/// Name of a per-kind engine metric, e.g. `engine.op.Join.busy_s`.
pub fn op_metric(kind: &str, what: &str) -> String {
    format!("engine.op.{kind}.{what}")
}

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = PER_LAYER_FIXED.iter().map(|m| (m.name.to_string(), m.unit, m.better)).collect();
    for kind in OP_KINDS {
        out.push((op_metric(kind, "busy_s"), "s", "lower"));
        out.push((op_metric(kind, "rows_out"), "rows", "lower"));
    }
    out
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Median, quartiles and sample count behind `value`, where it is a
    /// statistic of a sample and not a single reading.
    pub summary: Option<Summary>,
}

// ---- JSON helpers --------------------------------------------------------------

pub fn json_string(s: &str) -> String {
    Json::String(s.to_string()).to_compact_string()
}

/// A number with all its digits (shortest representation that round-trips).
pub fn json_number(v: f64) -> String {
    Json::Number(v).to_compact_string()
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_string(w.name), json_string(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                json_number(*bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(name),
                json_string(unit),
                json_string(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/bench/src/bin/lifecycle/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/lifecycle\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

// ---- provenance ----------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).stderr(std::process::Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a result came from: two numbers for one workload must never be
/// compared without knowing they came from the same settings.
pub fn provenance(w: &Workload, seed: u64, seconds: f64, warmup_passes: usize, measured_passes: usize) -> Json {
    let git_rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let mut p = Json::object();
    p.set("workload", Json::String(w.name.to_string()));
    p.set("seed", Json::Number(seed as f64));
    p.set("sf", Json::Number(w.sf));
    p.set("n", Json::Number(w.n as f64));
    p.set("family", Json::String(format!("{:?}", w.family)));
    p.set("cache_budget_bytes", Json::Number(w.cache_budget_bytes as f64));
    p.set("seconds", Json::Number(seconds));
    p.set("warmup_passes", Json::Number(warmup_passes as f64));
    p.set("measured_passes", Json::Number(measured_passes as f64));
    p.set("git_rev", Json::String(git_rev.unwrap_or_else(|| "unknown (not a git checkout)".to_string())));
    p.set("git_dirty", dirty.map_or(Json::Null, Json::Bool));
    p.set("rustc", Json::String(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())));
    p.set("profile", Json::String(if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()));
    p.set("available_parallelism", Json::Number(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)));
    p.set("pool_threads", Json::Number(quarry_engine::pool::threads() as f64));
    p.set("optimizer_budget_ms", Json::Number(w.optimizer_budget_ms as f64));
    p.set("fsync", Json::String("batched".to_string()));
    p
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 =
        status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

// ---- the printed report ----------------------------------------------------------

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Metric names the run was asked for but could not produce.
    pub missing: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing.is_empty()
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The machine-readable result: one line, exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// `{name: {median, q1, q3, n}}` for every metric that is a statistic of
    /// a sample: what `--check` reads back from its child runs.
    fn summaries_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                let s = m.summary?;
                Some(format!(
                    "{}: {{\"min\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    json_string(&m.name),
                    json_number(s.min),
                    json_number(s.median),
                    json_number(s.q1),
                    json_number(s.q3),
                    s.n
                ))
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// Every metric by name with its unit, quartiles and sample count.
    pub fn print_human(&self) {
        for m in &self.metrics {
            match &m.summary {
                Some(s) => println!(
                    "{:<46} {:>16} {:<6} median {} q1 {} q3 {} n {}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    json_number(s.median),
                    json_number(s.q1),
                    json_number(s.q3),
                    s.n
                ),
                None => println!("{:<46} {:>16} {}", m.name, json_number(m.value), m.unit),
            }
        }
        println!("summaries: {}", self.summaries_json());
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        for name in &self.missing {
            println!("MISSING: metric `{name}` was not measured");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_committed_file_and_within_the_contract() {
        let text = benchmark_json();
        assert_eq!(
            text,
            include_str!("../../../../../BENCHMARK.json"),
            "BENCHMARK.json is out of date: regenerate it with `lifecycle --print-benchmark-json`"
        );
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.path(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.path("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let (w, e, p) = (names("workloads"), names("end_to_end"), names("per_layer"));
        assert_eq!(w.len(), 4);
        assert!(e.contains(&"setup_s".to_string()));
        assert!(p.len() <= 128, "{} per-layer metrics", p.len());
        let mut all: Vec<&String> = w.iter().chain(&e).chain(&p).collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used once");
        for name in all {
            assert!(name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(text.len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            failures: vec![],
            metrics: vec![Metric { name: "setup_s".into(), unit: "s", value: 0.8127, summary: None }],
            missing: vec![],
        };
        let doc = Json::parse(&r.result_line()).unwrap();
        let Json::Object(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.path("metrics.setup_s.value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(doc.path("metrics.setup_s.unit").and_then(Json::as_str), Some("s"));
        assert!(!r.result_line().contains('\n'));
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 1.0));
    }
}
