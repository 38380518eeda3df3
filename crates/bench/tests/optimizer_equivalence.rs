//! Optimizer equivalence suite.
//!
//! Every rewrite the annealer may commit is individually proven
//! output-preserving in `quarry_etl::rewrite`, so the composition must be
//! too: an optimized unified flow has to produce a warehouse bit-identical
//! to the greedy-integrated flow it replaced at 1, 4, and 8 threads, for
//! every workload family, with and without observed-cardinality feedback,
//! and across incremental add/remove lifecycles.

use quarry::Quarry;
use quarry_bench::{high_overlap_family, requirement_family};
use quarry_engine::{tpch, Catalog, Engine};
use quarry_etl::Flow;
use quarry_formats::Requirement;

/// Small enough to keep debug-mode runs quick, large enough that lineitem
/// spans several morsels.
const SF: f64 = 0.002;

/// Integrates `family` greedily, then optimizes; returns both unified flows.
fn greedy_and_optimized(family: Vec<Requirement>) -> (Flow, Flow) {
    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    let greedy = q.unified().1.clone();
    q.optimize().expect("optimize");
    (greedy, q.unified().1.clone())
}

fn sorted_table_names(c: &Catalog) -> Vec<String> {
    let mut names: Vec<String> = c.table_names().map(str::to_string).collect();
    names.sort();
    names
}

/// Asserts the optimized flow reproduces the greedy flow's 1-thread
/// warehouse bit for bit at 1, 4, and 8 threads.
fn assert_optimized_equivalent(catalog: &Catalog, greedy: &Flow, optimized: &Flow) {
    quarry_engine::pool::set_threads(1);
    let mut reference = Engine::new(catalog.clone());
    reference.run(greedy).expect("greedy 1-thread run");
    let tables = sorted_table_names(&reference.catalog);
    for threads in [1usize, 4, 8] {
        quarry_engine::pool::set_threads(threads);
        let mut engine = Engine::new(catalog.clone());
        engine.run(optimized).expect("optimized run");
        assert_eq!(tables, sorted_table_names(&engine.catalog), "table sets differ at {threads} threads");
        for t in &tables {
            assert_eq!(
                reference.catalog.get(t),
                engine.catalog.get(t),
                "table `{t}` not bit-identical after optimization at {threads} threads"
            );
        }
    }
    quarry_engine::pool::set_threads(0); // restore auto-detection
}

#[test]
fn optimized_high_overlap_flows_match_greedy_bit_for_bit() {
    let catalog = tpch::generate(SF, 42);
    for n in [2, 4, 8] {
        let (greedy, optimized) = greedy_and_optimized(high_overlap_family(n));
        assert_optimized_equivalent(&catalog, &greedy, &optimized);
    }
}

#[test]
fn optimized_mixed_family_flows_match_greedy_bit_for_bit() {
    let catalog = tpch::generate(SF, 42);
    let (greedy, optimized) = greedy_and_optimized(requirement_family(6));
    assert_optimized_equivalent(&catalog, &greedy, &optimized);
}

#[test]
fn observed_cardinalities_never_change_the_answer() {
    // Feeding measured row counts back into the cost model steers the
    // search, but every design it can reach is output-preserving — so the
    // warehouse must stay bit-identical even after a full observe cycle.
    let catalog = tpch::generate(SF, 42);
    let mut q = Quarry::tpch();
    for r in high_overlap_family(6) {
        q.add_requirement(r).expect("integrates");
    }
    let greedy = q.unified().1.clone();
    let mut probe = Engine::new(catalog.clone());
    let report = probe.run(&greedy).expect("baseline run");
    q.observe_run(&report);
    q.optimize().expect("optimize with observed stats");
    let optimized = q.unified().1.clone();
    assert_optimized_equivalent(&catalog, &greedy, &optimized);
}

#[test]
fn optimize_between_incremental_steps_keeps_the_lifecycle_sound() {
    // Optimize after every integration step; later adds and removes build
    // on the optimized design and must still produce the same warehouse as
    // the never-optimized lifecycle.
    let catalog = tpch::generate(SF, 42);
    let family = high_overlap_family(5);

    let mut plain = Quarry::tpch();
    let mut opt = Quarry::tpch();
    for r in &family {
        plain.add_requirement(r.clone()).expect("plain add");
        opt.add_requirement(r.clone()).expect("optimized add");
        opt.optimize().expect("optimize step");
        assert_optimized_equivalent(&catalog, plain.unified().1, opt.unified().1);
    }

    let victim = family[2].id.clone();
    plain.remove_requirement(&victim).expect("plain remove");
    opt.remove_requirement(&victim).expect("optimized remove");
    opt.optimize().expect("optimize after removal");
    assert_optimized_equivalent(&catalog, plain.unified().1, opt.unified().1);
}
