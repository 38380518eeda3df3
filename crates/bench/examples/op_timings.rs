//! Prints the per-operator timing breakdown of one unified flow — the
//! profiling companion to `bench etl_execution` and to the lifecycle
//! benchmark's workloads. Defaults to the E7 headline (high overlap,
//! sf = 0.01, N = 8); the lifecycle benchmark's `wide-low-overlap` is
//! `--family low --sf 0.05`.
//!
//! ```text
//! cargo run --release -p quarry-bench --example op_timings -- \
//!     [--family high|low] [--flow greedy|optimized] [--sf 0.01] [--n 8] [--threads 0] [--warm]
//! ```
//!
//! `--flow greedy` (the default) runs the unified flow as integration left
//! it; `--flow optimized` runs `Quarry::optimize` over it first, which is the
//! flow the lifecycle benchmark executes. `--threads 0` keeps the pool's
//! auto-detected width. `--warm` installs a result cache keyed like the
//! lifecycle's (`Engine::set_result_cache`), fills it with one run and times
//! the runs after it: the lifecycle benchmark's `exec_warm_s`, where the
//! cache serves every pure operator and what is left is mostly the loaders
//! (the `loaders:` line puts their busy time beside the run's wall time).
//! It also times 20 warm `Quarry::run_etl` calls and prints their median
//! wall time beside their median `RunReport.total` (the `run_etl:` line):
//! the difference is what a warm run spends outside the engine.
//! The fastest of five runs is printed: busy time per
//! operator kind; what the scheduler made of it — achieved parallelism
//! (Σ elapsed ÷ wall), idle time per lane, the chain of operators that ended
//! last (each link the input that finished last: its work and the time its
//! links sat finished-but-not-started), the longest chain of dependent work,
//! the time loaders waited for their turn; then the 25 slowest operators.
//! Beside it: the run's minor page faults and peak RSS (`/proc/self/stat`
//! and `VmHWM`, reset before each run where `/proc/self/clear_refs` allows;
//! omitted where `/proc` does not exist), the most operator outputs the
//! scheduler held at once, with `--flow optimized` the search's wall
//! time and move counts, and one `fused:` line per group of sibling
//! aggregations the plan runs as one keyed pass (its producer and members;
//! each member's timing is an equal share of the pass). The `events:` line counts the flight-recorder
//! events the fastest run recorded, by kind: the traffic the recorder's one
//! lock per event has to carry.

use quarry::obs::flight;
use quarry::{Quarry, QuarryConfig};
use quarry_engine::{tpch, Engine, OpTiming, PhysicalPlan, ResultCache};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: op_timings [--family high|low] [--flow greedy|optimized] [--sf <f64>] [--n <usize>] \
         [--threads <usize>] [--warm]"
    );
    std::process::exit(2)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value `{value}` for {flag}")))
}

/// Minor page faults of this process so far: field 10 of `/proc/self/stat`
/// (the fields after the parenthesized command name start at field 3).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse().ok()
}

/// Peak resident set size in kB: `VmHWM` in `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn main() {
    let (mut high, mut optimized, mut sf, mut n, mut threads, mut warm) = (true, false, 0.01f64, 8usize, 0usize, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--warm" {
            warm = true;
            continue;
        }
        let value = args.next().unwrap_or_default();
        match (flag.as_str(), value.as_str()) {
            ("--family", "high") => high = true,
            ("--family", "low") => high = false,
            ("--flow", "greedy") => optimized = false,
            ("--flow", "optimized") => optimized = true,
            ("--sf", v) => sf = parsed(&flag, v),
            ("--n", v) => n = parsed(&flag, v),
            ("--threads", v) => threads = parsed(&flag, v),
            _ => usage(&format!("unknown argument `{flag} {value}`")),
        }
    }
    quarry_engine::pool::set_threads(threads);
    let catalog = tpch::generate(sf, 42);
    let domain = quarry_ontology::tpch::domain();
    let mut q = Quarry::with_config(domain.ontology, domain.sources, QuarryConfig::tpch(sf));
    let requirements = if high { quarry_bench::high_overlap_family(n) } else { quarry_bench::requirement_family(n) };
    for r in requirements {
        q.add_requirement(r).expect("integrates");
    }
    let search = optimized.then(|| {
        let t0 = Instant::now();
        let report = q.optimize().expect("optimizes");
        (t0.elapsed(), report)
    });
    let unified = q.unified().1.clone();
    // The cache one run filled, which every timed run reads.
    let cache = warm.then(|| {
        let cache = Arc::new(ResultCache::new(true, q.config().cache.budget_bytes));
        let mut engine = Engine::new(catalog.clone());
        engine.set_result_cache(Arc::clone(&cache), 1, HashMap::new());
        engine.run(&unified).expect("fills the cache");
        cache
    });

    let mut best: Option<(Duration, quarry_engine::RunReport, Option<u64>, Option<u64>)> = None;
    let mut events = String::new();
    for _ in 0..5 {
        let mut engine = Engine::new(catalog.clone());
        if let Some(cache) = &cache {
            engine.set_result_cache(Arc::clone(cache), 1, HashMap::new());
        }
        // Resets VmHWM to the current RSS (Linux); where refused, the peak
        // printed is the process's.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let faults_before = minor_faults();
        let events_before = flight::recorder().drain().recorded;
        let t0 = Instant::now();
        let report = engine.run(&unified).expect("runs");
        let total = t0.elapsed();
        let faults = minor_faults().zip(faults_before).map(|(after, before)| after - before);
        if best.as_ref().is_none_or(|(t, ..)| total < *t) {
            let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
            for e in flight::recorder().drain().events.iter().filter(|e| e.seq >= events_before) {
                *by_kind.entry(e.kind.as_str()).or_default() += 1;
            }
            let counts: Vec<String> = by_kind.iter().map(|(kind, n)| format!("{kind} {n}")).collect();
            events = format!("{} recorded ({})", by_kind.values().sum::<u64>(), counts.join(", "));
            best = Some((total, report, faults, peak_rss_kb()));
        }
    }
    let (total, report, faults, peak_kb) = best.expect("five runs");
    println!(
        "{} overlap, {} flow{}, sf={sf}, N={n}, threads={} (available_parallelism={}): total {total:?} over {} ops",
        if high { "high" } else { "low" },
        if optimized { "optimized" } else { "greedy" },
        if warm { ", warm" } else { "" },
        quarry_engine::pool::threads(),
        std::thread::available_parallelism().map_or(0, usize::from),
        report.timings.len()
    );
    if let Some((wall, search)) = &search {
        println!("optimize: {wall:?}, {} moves proposed, {} accepted", search.proposed, search.accepted);
    }
    let plan = PhysicalPlan::compile(&unified, &catalog.statistics()).expect("compiles");
    for group in plan.fused_groups() {
        let members: Vec<&str> = group.members.iter().map(|&m| plan.nodes()[m].op.name.as_str()).collect();
        println!("fused: {} over {}: {}", members.len(), plan.nodes()[group.producer].op.name, members.join(", "));
    }
    if warm {
        // One run fills the lifecycle's own cache; the 20 after it are warm.
        q.run_etl(catalog.clone()).expect("fills the lifecycle's cache");
        let (mut walls, mut totals): (Vec<Duration>, Vec<Duration>) = (0..20)
            .map(|_| {
                let catalog = catalog.clone();
                let t0 = Instant::now();
                let (engine, report) = q.run_etl(catalog).expect("runs");
                let wall = t0.elapsed();
                drop(engine);
                (wall, report.total)
            })
            .unzip();
        walls.sort();
        totals.sort();
        println!(
            "run_etl: median {:?} wall over 20 warm runs, median RunReport.total {:?}, {:?} outside the engine",
            walls[10],
            totals[10],
            walls[10].saturating_sub(totals[10])
        );
    }
    let mut memory = Vec::new();
    memory.extend(faults.map(|f| format!("{f} minor page faults")));
    memory.extend(peak_kb.map(|kb| format!("peak RSS {:.1} MB (VmHWM)", kb as f64 / 1024.0)));
    memory.push(format!("{} operator outputs held at once", report.peak_held));
    println!("memory: {}", memory.join(", "));
    println!("events: {events}");
    let mut by_kind: BTreeMap<&str, (Duration, usize, usize)> = BTreeMap::new();
    for t in &report.timings {
        let e = by_kind.entry(t.kind).or_default();
        *e = (e.0 + t.elapsed, e.1 + 1, e.2 + t.rows_out);
    }
    let mut kinds: Vec<_> = by_kind.into_iter().collect();
    kinds.sort_by_key(|(_, (busy, _, _))| std::cmp::Reverse(*busy));
    for (kind, (busy, ops, rows_out)) in kinds {
        println!("{busy:>12?}  ops={ops:>3} out={rows_out:>8}  {kind}");
    }
    let busy: Duration = report.timings.iter().map(|t| t.elapsed).sum();
    let loaders: Duration = report.timings.iter().filter(|t| t.kind == "Loader").map(|t| t.elapsed).sum();
    println!(
        "loaders: Σ elapsed {loaders:?} of wall {:?} ({:.0}%)",
        report.total,
        100.0 * loaders.as_secs_f64() / report.total.as_secs_f64()
    );
    println!(
        "parallelism: {:.2} (Σ elapsed {busy:?} ÷ wall {:?})",
        busy.as_secs_f64() / report.total.as_secs_f64(),
        report.total
    );
    for (lane, busy) in report.lane_busy().iter().enumerate() {
        println!("lane {lane}: busy {busy:?}, idle {:?}", report.total.saturating_sub(*busy));
    }
    // Walk back from the operator that ended last along the input that ended
    // last: with no idle lane this chain is what the wall time is made of.
    let timing: HashMap<&str, &OpTiming> = report.timings.iter().map(|t| (t.op.as_str(), t)).collect();
    let inputs_of = |t: &OpTiming| {
        let inputs = unified.inputs_of(unified.id_by_name(&t.op).expect("timed ops are in the flow"));
        inputs.iter().map(|i| unified.op(*i).name.as_str())
    };
    let end = |t: &OpTiming| t.started + t.elapsed;
    let last_input = |t: &OpTiming| inputs_of(t).filter_map(|i| timing.get(i).copied()).max_by_key(|i| end(i));
    let mut link = report.timings.iter().max_by_key(|t| end(t)).expect("a flow has operations");
    let (mut links, mut work, mut waited) = (1, link.elapsed, Duration::ZERO);
    while let Some(input) = last_input(link) {
        waited += link.started.saturating_sub(end(input));
        (links, work, link) = (links + 1, work + input.elapsed, input);
    }
    println!("critical path: the {links} ops that ended last did {work:?} of work and waited {waited:?} to start");
    // The longest chain of dependent work bounds the wall time at any width
    // (`timings` is in position order: inputs come before their consumers).
    let mut chain: HashMap<&str, Duration> = HashMap::new();
    for t in &report.timings {
        let before = inputs_of(t).filter_map(|i| chain.get(i)).max().copied();
        chain.insert(&t.op, t.elapsed + before.unwrap_or_default());
    }
    println!("longest dependent chain: {:?} of work", chain.values().max().expect("a flow has operations"));
    let loader_wait: Duration = (report.timings.iter().filter(|t| t.kind == "Loader"))
        .map(|t| t.started.saturating_sub(last_input(t).map_or(Duration::ZERO, end)))
        .sum();
    println!("loaders waited {loader_wait:?} for their turn (input finished, loader not started)");
    println!();
    let mut ops: Vec<_> = report.timings.iter().collect();
    ops.sort_by_key(|t| std::cmp::Reverse(t.elapsed));
    for t in ops.iter().take(25) {
        println!("{:>12?}  in={:>7} out={:>7}  {:<12} {}", t.elapsed, t.rows_in, t.rows_out, t.kind, t.op);
    }
}
