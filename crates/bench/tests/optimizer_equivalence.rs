//! Optimizer equivalence suite.
//!
//! Every rewrite the annealer may commit is individually proven
//! output-preserving in `quarry_etl::rewrite`, so the composition must be
//! too: an optimized unified flow has to produce a warehouse bit-identical
//! to the greedy-integrated flow it replaced at 1, 4, and 8 threads, for
//! every workload family, with and without observed-cardinality feedback,
//! and across incremental add/remove lifecycles.

use quarry::Quarry;
use quarry_bench::{at_width, high_overlap_family, requirement_family};
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
    let mut reference = Engine::new(catalog.clone());
    at_width(1, || reference.run(greedy)).expect("greedy 1-thread run");
    let tables = sorted_table_names(&reference.catalog);
    for threads in [1usize, 4, 8] {
        let mut engine = Engine::new(catalog.clone());
        at_width(threads, || engine.run(optimized)).expect("optimized run");
        assert_eq!(tables, sorted_table_names(&engine.catalog), "table sets differ at {threads} threads");
        for t in &tables {
            assert_eq!(
                reference.catalog.get(t),
                engine.catalog.get(t),
                "table `{t}` not bit-identical after optimization at {threads} threads"
            );
        }
    }
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

/// What one seeded search did, pinned at the commit before `RewriteState`
/// stopped cloning and diffing the flow per proposal: the step counts, the
/// winning chain, the committed cost bit for bit and the committed flow's
/// xLM bytes. A change to the search's bookkeeping must leave all of it
/// untouched; a change to the move set, the candidate order, the RNG streams
/// or a legality check is what moves these numbers.
struct SearchPin {
    proposed: u64,
    accepted: u64,
    best_chain: usize,
    after_cost_bits: u64,
    xlm_fnv: u64,
}

fn assert_search_pinned(label: &str, family: Vec<Requirement>, pin: SearchPin) {
    use quarry_integrator::anneal::{anneal, AnnealOptions};
    use quarry_integrator::optimize::optimize_flow;

    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    let mut flow = q.unified().1.clone();
    let mut stats = q.config().stats.clone();
    // A budget long enough that the step count, not the clock, ends the search.
    let opts = AnnealOptions { budget_ms: 10_000, ..AnnealOptions::default() };
    let searched = anneal(&flow, &stats, &opts).expect("anneal");
    let (report, facts) = optimize_flow(&mut flow, &mut stats, &opts).expect("optimize");
    let xlm = quarry_formats::xlm::to_string(&flow);
    let fnv = xlm.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert!(report.applied, "{label}: the pinned search commits");
    assert_eq!(
        (report.proposed, report.accepted, searched.best_chain),
        (pin.proposed, pin.accepted, pin.best_chain),
        "{label}: proposed / accepted / best chain"
    );
    assert_eq!(report.after_cost.to_bits(), pin.after_cost_bits, "{label}: committed cost {}", report.after_cost);
    assert_eq!(fnv, pin.xlm_fnv, "{label}: committed flow bytes");
    let facts = facts.unwrap_or_else(|| panic!("{label}: a canonical commit hands its facts over"));
    facts.audit(&flow, &quarry_etl::cost::EstimatedTime, &stats).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn seeded_searches_commit_the_pinned_flows() {
    let pin = |proposed, accepted, best_chain, after_cost_bits, xlm_fnv| SearchPin {
        proposed,
        accepted,
        best_chain,
        after_cost_bits,
        xlm_fnv,
    };
    for (n, p) in [
        (2, pin(1536, 492, 1, 0x40fb_a46c_dd2f_1a9f, 0xcf83_132b_3525_8183)),
        (4, pin(1536, 517, 1, 0x4101_7a8d_26e9_78d5, 0xf72d_1304_c1d6_058c)),
        (8, pin(1536, 566, 1, 0x4107_5310_0831_26ec, 0xcb82_1100_ac7d_9af4)),
    ] {
        assert_search_pinned(&format!("high_overlap_family({n})"), high_overlap_family(n), p);
    }
    for (n, p) in [
        (6, pin(1536, 500, 0, 0x4134_44f5_6978_d4fd, 0x3612_934e_6643_1908)),
        (8, pin(1536, 510, 3, 0x4136_6564_be76_c8b4, 0xc440_d86e_56b5_3759)),
    ] {
        assert_search_pinned(&format!("requirement_family({n})"), requirement_family(n), p);
    }
}

/// The from-scratch rebuild is the oracle, on the flows the benchmark
/// optimizes: a seeded walk of accepted and undone proposals over the unified
/// high- and low-overlap designs, audited after every step (the randomized
/// small flows get the same treatment in `quarry-etl`'s
/// `cost_consistency.rs`).
#[test]
fn walks_over_the_unified_families_match_a_rebuild_after_every_step() {
    use quarry_etl::rewrite::RewriteState;

    for (label, family) in [("high-overlap", high_overlap_family(8)), ("low-overlap", requirement_family(8))] {
        let mut q = Quarry::tpch();
        for r in family {
            q.add_requirement(r).expect("integrates");
        }
        let mut st = RewriteState::new(q.unified().1.clone(), q.config().stats.clone()).expect("valid flow");
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut kept = 0;
        for step in 0..240 {
            let moves = st.candidate_moves();
            let mv = moves[(next() % moves.len() as u64) as usize];
            let what = format!("{label} step {step} {}", st.describe(&mv));
            let before = st.flow().clone();
            let cost_before = st.cost();
            let Ok(undo) = st.apply(&mv) else {
                assert_eq!(st.flow(), &before, "{what}: a rejected move leaves the flow alone");
                continue;
            };
            st.audit().unwrap_or_else(|e| panic!("{what}: after apply: {e}"));
            if next() % 2 == 0 {
                st.undo(undo);
                assert_eq!(st.flow(), &before, "{what}: undo restores op order, edge order and ids");
                assert_eq!(st.cost().to_bits(), cost_before.to_bits(), "{what}: undo restores the cost");
                st.audit().unwrap_or_else(|e| panic!("{what}: after undo: {e}"));
            } else {
                kept += 1;
            }
        }
        assert!(kept > 20, "{label}: the walk must keep real moves, kept {kept}");
    }
}
