//! CI gate for the cross-run subflow result cache (experiment E18).
//!
//! The cache keeps pipeline-breaker outputs across runs of the unified flow
//! and serves them when a subflow's recursive fingerprint matches, so it
//! must clear four bars at once on the E7 high-overlap workload (sf=0.01,
//! N=8, the same source catalog across runs):
//!
//! 1. **Warm runs pay**: a repeat run over an unchanged catalog must be at
//!    least [`MIN_WARM_SPEEDUP`]× faster than the cold run and serve a
//!    ≥ [`MIN_HIT_RATE`] hit rate.
//! 2. **Cold runs don't**: the first cache-enabled run may cost at most
//!    [`MAX_COLD_OVERHEAD`] over a cache-disabled run (plus a fixed jitter
//!    epsilon for shared runners).
//! 3. **Memory is bounded**: resident cached bytes stay within
//!    `cache.budget_bytes` at all times.
//! 4. **It is invisible in the data**: cached warehouses are bit-identical
//!    to uncached ones at 1, 4, and 8 threads.
//!
//! Measured points are persisted to `BENCH_cache.json` for the
//! EXPERIMENTS.md E18 table.

use quarry::{Quarry, QuarryConfig};
use quarry_bench::high_overlap_family;
use quarry_engine::{tpch, Catalog, Engine};
use quarry_repository::Json;
use std::time::Instant;

/// A warm repeat must at least halve the cold wall clock.
const MIN_WARM_SPEEDUP: f64 = 2.0;
/// Warm lookups over an unchanged catalog must mostly hit.
const MIN_HIT_RATE: f64 = 0.60;
/// Fingerprinting + admission bookkeeping on a cold run.
const MAX_COLD_OVERHEAD: f64 = 0.03;
/// Absolute jitter allowance for the overhead ratio on shared runners (the
/// E7 run is ~2.5 ms; a scheduler blip is larger than the 3% envelope).
const OVERHEAD_EPS_MS: f64 = 0.25;
const SF: f64 = 0.01;
const N: usize = 8;
const REPS: usize = 7;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn quarry_with_cache(enabled: bool) -> Quarry {
    let domain = quarry_ontology::tpch::domain();
    let mut cfg = QuarryConfig::tpch(SF);
    cfg.cache.enabled = enabled;
    let mut q = Quarry::with_config(domain.ontology, domain.sources, cfg);
    for r in high_overlap_family(N) {
        q.add_requirement(r).expect("the family integrates");
    }
    q
}

fn sorted_table_names(c: &Catalog) -> Vec<String> {
    let mut names: Vec<String> = c.table_names().map(str::to_string).collect();
    names.sort();
    names
}

fn assert_identical(reference: &Engine, candidate: &Engine, label: &str) {
    let names = sorted_table_names(&reference.catalog);
    if names != sorted_table_names(&candidate.catalog) {
        fail(&format!("table sets differ ({label})"));
    }
    for t in &names {
        if reference.catalog.get(t) != candidate.catalog.get(t) {
            fail(&format!("table `{t}` differs between cache-off and cache-on warehouses ({label})"));
        }
    }
}

fn main() {
    let data = tpch::generate(SF, 42);

    // --- Cold overhead: cache-disabled vs first cache-enabled run, both
    // best-of-REPS (the enabled instance's cache is cleared before
    // every rep, so each rep is a true cold run).
    let q_off = quarry_with_cache(false);
    let mut disabled_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(q_off.run_etl(data.clone()).expect("cache-off run"));
        disabled_ms = disabled_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    let q_on = quarry_with_cache(true);
    let mut cold_ms = f64::INFINITY;
    for _ in 0..REPS {
        q_on.clear_result_cache();
        let t = Instant::now();
        std::hint::black_box(q_on.run_etl(data.clone()).expect("cold cached run"));
        cold_ms = cold_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let overhead = cold_ms / disabled_ms.max(1e-6) - 1.0;
    println!(
        "cache gate: E7 N={N} best of {REPS}: cache-off {disabled_ms:.3} ms, \
         cold cache-on {cold_ms:.3} ms (overhead {:.1}%, limit {:.0}% + {OVERHEAD_EPS_MS} ms)",
        overhead * 100.0,
        MAX_COLD_OVERHEAD * 100.0,
    );

    // --- Warm speedup + hit rate: populate once, then time warm repeats.
    q_on.clear_result_cache();
    q_on.run_etl(data.clone()).expect("populating run");
    let before = q_on.cache_stats();
    let mut warm_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(q_on.run_etl(data.clone()).expect("warm cached run"));
        warm_ms = warm_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let after = q_on.cache_stats();
    let (d_hits, d_misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = d_hits as f64 / ((d_hits + d_misses) as f64).max(1.0);
    let speedup = cold_ms / warm_ms.max(1e-6);
    println!(
        "cache gate: warm {warm_ms:.3} ms ({speedup:.2}x over cold, floor {MIN_WARM_SPEEDUP}x); \
         warm hit rate {:.0}% ({d_hits} hits / {d_misses} misses, floor {:.0}%)",
        hit_rate * 100.0,
        MIN_HIT_RATE * 100.0,
    );
    if after.bytes > after.budget_bytes {
        fail(&format!("resident cache bytes {} exceed the {} budget", after.bytes, after.budget_bytes));
    }
    println!(
        "cache gate: {} entries, {} / {} bytes resident ({} inserts, {} rejects, {} evictions)",
        after.entries, after.bytes, after.budget_bytes, after.inserts, after.rejects, after.evictions
    );

    // --- Bit-identity: the cache-off 1-thread warehouse is the one
    // reference; warm cached runs must reproduce it at every thread width.
    quarry_engine::pool::set_threads(1);
    let (reference, _) = q_off.run_etl(data.clone()).expect("cache-off 1-thread run");
    for threads in [1usize, 4, 8] {
        quarry_engine::pool::set_threads(threads);
        let (warm, _) = q_on.run_etl(data.clone()).expect("warm cached run");
        assert_identical(&reference, &warm, &format!("{threads} threads"));
    }
    quarry_engine::pool::set_threads(0); // restore auto-detection
    println!(
        "cache gate: warehouses bit-identical (1/4/8 threads, {} tables)",
        sorted_table_names(&reference.catalog).len()
    );

    let mut doc = Json::object();
    doc.set("experiment", Json::String("E18 cross-run subflow result cache".to_string()));
    doc.set("workload", Json::String(format!("E7 high-overlap family, N={N}, sf={SF}, best of {REPS}")));
    doc.set("disabled_run_ms", Json::Number(disabled_ms));
    doc.set("cold_run_ms", Json::Number(cold_ms));
    doc.set("warm_run_ms", Json::Number(warm_ms));
    doc.set("warm_speedup", Json::Number(speedup));
    doc.set("min_warm_speedup", Json::Number(MIN_WARM_SPEEDUP));
    doc.set("cold_overhead", Json::Number(overhead));
    doc.set("max_cold_overhead", Json::Number(MAX_COLD_OVERHEAD));
    doc.set("warm_hit_rate", Json::Number(hit_rate));
    doc.set("min_hit_rate", Json::Number(MIN_HIT_RATE));
    doc.set("entries", Json::Number(after.entries as f64));
    doc.set("resident_bytes", Json::Number(after.bytes as f64));
    doc.set("budget_bytes", Json::Number(after.budget_bytes as f64));
    doc.set("inserts", Json::Number(after.inserts as f64));
    doc.set("rejects", Json::Number(after.rejects as f64));
    doc.set("evictions", Json::Number(after.evictions as f64));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json");
    if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
        eprintln!("could not write {path}: {e}");
    }

    if speedup < MIN_WARM_SPEEDUP {
        fail(&format!("warm repeat is only {speedup:.2}x over cold — the cache is not paying"));
    }
    if hit_rate < MIN_HIT_RATE {
        fail(&format!("warm hit rate {:.0}% is below the {:.0}% floor", hit_rate * 100.0, MIN_HIT_RATE * 100.0));
    }
    if cold_ms > disabled_ms * (1.0 + MAX_COLD_OVERHEAD) + OVERHEAD_EPS_MS {
        fail(&format!(
            "cold cache-on run costs {:.1}% over cache-off (limit {:.0}% + {OVERHEAD_EPS_MS} ms)",
            overhead * 100.0,
            MAX_COLD_OVERHEAD * 100.0
        ));
    }
    println!(
        "OK: warm runs {speedup:.2}x over cold at a {:.0}% hit rate, within budget, bit-identical",
        hit_rate * 100.0
    );
}
