//! CI gate for the cost-based flow optimizer (experiment E16).
//!
//! The optimizer anneals the unified flow over semantically-equivalent
//! rewrites, so it must clear two bars at once:
//!
//! 1. **It pays**: on the E7 high-overlap workload (sf=0.01, N=8) the
//!    committed design must model at least [`MIN_IMPROVEMENT`] cheaper than
//!    the greedy-integrated design it replaced, and the optimization itself
//!    must finish inside its `optimizer.budget_ms` wall-clock envelope — with
//!    every chain running its full step schedule, so the step count, not the
//!    clock, ends the search and the result is the deterministic one.
//! 2. **It is invisible in the data**: the optimized flow's warehouse must be
//!    bit-identical to the greedy flow's at 1, 4, and 8 threads, and its
//!    measured wall clock may not regress against the greedy flow beyond
//!    runner noise.
//!
//! Measured points are persisted to `BENCH_optimizer.json` for the
//! EXPERIMENTS.md table.

use quarry::Quarry;
use quarry_bench::high_overlap_family;
use quarry_engine::{tpch, Engine};
use quarry_repository::Json;
use std::time::Instant;

/// The optimizer was accepted at a ≥10% modeled-cost win on E7.
const MIN_IMPROVEMENT: f64 = 0.10;
/// Slack over `optimizer.budget_ms` for the non-annealing tail of an
/// optimization (canonicalize + validate + re-cost) plus runner noise.
const BUDGET_SLACK_MS: f64 = 250.0;
/// The optimized flow may not run slower than the greedy flow beyond noise.
const MAX_RUNTIME_RATIO: f64 = 1.15;
/// Floor for the denominator: below this the workload is too fast for a
/// ratio to be meaningful on shared CI runners.
const MIN_BASE_MS: f64 = 0.05;
/// PR 7's measured E7 serial headline on the reference machine, recorded in
/// the JSON for trend context (wall clocks are not cross-machine gated).
const E7_HEADLINE_MS: f64 = 2.2;
const SF: f64 = 0.01;
const N: usize = 8;
const REPS: usize = 5;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Best-of-`REPS` wall clock of `flow` from a fresh engine each rep.
fn best_run_ms(catalog: &quarry_engine::Catalog, flow: &quarry_etl::Flow) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut engine = Engine::new(catalog.clone());
        let t = Instant::now();
        std::hint::black_box(engine.run(flow).expect("run"));
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let mut q = Quarry::tpch();
    for r in high_overlap_family(N) {
        q.add_requirement(r).expect("the family integrates");
    }
    let greedy = q.unified().1.clone();
    let budget_ms = q.config().optimizer.budget_ms;
    let schedule = q.config().optimizer.anneal_options();
    let full_schedule = (schedule.chains * schedule.steps) as u64;
    let report = q.optimize().expect("optimize");
    let optimized = q.unified().1.clone();

    println!(
        "optimizer gate: E7 N={N} modeled cost {:.0} -> {:.0} ({:.1}% better, floor {:.0}%); \
         {} proposed / {} accepted over {} chain(s) in {:.1} ms (budget {budget_ms} ms)",
        report.before_cost,
        report.after_cost,
        report.improvement() * 100.0,
        MIN_IMPROVEMENT * 100.0,
        report.proposed,
        report.accepted,
        report.chains,
        report.wall_ms,
    );
    if !report.applied {
        fail("the optimizer found no committable improvement on the E7 high-overlap design");
    }
    if report.improvement() < MIN_IMPROVEMENT {
        fail(&format!(
            "modeled-cost improvement {:.1}% is below the accepted {:.0}% floor",
            report.improvement() * 100.0,
            MIN_IMPROVEMENT * 100.0
        ));
    }
    if report.proposed != full_schedule {
        fail(&format!(
            "the {budget_ms} ms budget cut the search short: {} of {} chains x {} steps proposed",
            report.proposed, schedule.chains, schedule.steps
        ));
    }
    if report.wall_ms > budget_ms as f64 + BUDGET_SLACK_MS {
        fail(&format!(
            "optimization took {:.1} ms against a {budget_ms} ms budget (+{BUDGET_SLACK_MS} ms slack)",
            report.wall_ms
        ));
    }

    // Bit-identity: the greedy flow's 1-thread warehouse is the one
    // reference; the optimized flow must reproduce it exactly at every
    // thread width.
    let catalog = tpch::generate(SF, 42);
    quarry_engine::pool::set_threads(1);
    let mut reference = Engine::new(catalog.clone());
    reference.run(&greedy).expect("greedy 1-thread run");
    let mut tables: Vec<String> = reference.catalog.table_names().map(str::to_string).collect();
    tables.sort();
    for threads in [1usize, 4, 8] {
        quarry_engine::pool::set_threads(threads);
        let mut engine = Engine::new(catalog.clone());
        engine.run(&optimized).expect("optimized run");
        for t in &tables {
            if engine.catalog.get(t) != reference.catalog.get(t) {
                fail(&format!("table `{t}` differs between greedy and optimized flows at {threads} threads"));
            }
        }
    }
    quarry_engine::pool::set_threads(0); // restore auto-detection
    println!("optimizer gate: warehouses bit-identical (1/4/8 threads, {} tables)", tables.len());

    // Measured wall clock: the modeled win must at least not cost real time.
    let greedy_ms = best_run_ms(&catalog, &greedy);
    let optimized_ms = best_run_ms(&catalog, &optimized);
    let ratio = optimized_ms / greedy_ms.max(MIN_BASE_MS);
    println!(
        "optimizer gate: E7 wall clock greedy {greedy_ms:.3} ms, optimized {optimized_ms:.3} ms, \
         ratio {ratio:.2}x (limit {MAX_RUNTIME_RATIO}x; PR 7 headline {E7_HEADLINE_MS} ms)"
    );

    let mut doc = Json::object();
    doc.set("experiment", Json::String("E16 cost-based flow optimizer".to_string()));
    doc.set("workload", Json::String(format!("E7 high-overlap family, N={N}, sf={SF}, best of {REPS}")));
    doc.set("modeled_cost_before", Json::Number(report.before_cost));
    doc.set("modeled_cost_after", Json::Number(report.after_cost));
    doc.set("improvement", Json::Number(report.improvement()));
    doc.set("min_improvement", Json::Number(MIN_IMPROVEMENT));
    doc.set("moves_proposed", Json::Number(report.proposed as f64));
    doc.set("moves_accepted", Json::Number(report.accepted as f64));
    doc.set("chains", Json::Number(report.chains as f64));
    doc.set("optimize_wall_ms", Json::Number(report.wall_ms));
    doc.set("proposals_per_s", Json::Number(report.proposed as f64 / (report.wall_ms / 1e3)));
    doc.set("budget_ms", Json::Number(budget_ms as f64));
    doc.set("greedy_run_ms", Json::Number(greedy_ms));
    doc.set("optimized_run_ms", Json::Number(optimized_ms));
    doc.set("runtime_ratio", Json::Number(ratio));
    doc.set("pr7_headline_ms", Json::Number(E7_HEADLINE_MS));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_optimizer.json");
    if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
        eprintln!("could not write {path}: {e}");
    }

    if ratio > MAX_RUNTIME_RATIO {
        fail(&format!(
            "the optimized flow ran {ratio:.2}x the greedy flow's wall clock — the modeled win costs real time"
        ));
    }
    println!("OK: optimizer holds a ≥{:.0}% modeled win with a bit-identical warehouse", MIN_IMPROVEMENT * 100.0);
}
