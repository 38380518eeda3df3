//! Optimizer equivalence suite.
//!
//! Every rewrite the optimizer may commit is individually proven
//! output-preserving in `quarry_etl::rewrite`, so the composition must be
//! too: an optimized unified flow has to produce a warehouse bit-identical
//! to the greedy-integrated flow it replaced at 1, 4, and 8 threads, for
//! every workload family, with and without observed-cardinality feedback,
//! and across incremental add/remove lifecycles.

use quarry::Quarry;
use quarry_bench::{at_width, high_overlap_family, requirement_family};
use quarry_engine::{tpch, Catalog, Engine};
use quarry_etl::cost::SourceStats;
use quarry_etl::Flow;
use quarry_formats::Requirement;

#[path = "../../etl/tests/common/mod.rs"]
mod random_flows;

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

/// What one search did: its proposal and accept counts, the committed cost
/// bit for bit and the committed flow's xLM bytes. A change to the search's
/// bookkeeping must leave all of it untouched; a change to the move set, the
/// candidate order, the descent or escape rules or a legality check is what
/// moves these numbers.
struct SearchPin {
    proposed: u64,
    accepted: u64,
    after_cost_bits: u64,
    xlm_fnv: u64,
}

fn assert_search_pinned(label: &str, family: Vec<Requirement>, pin: SearchPin) {
    use quarry_integrator::optimize::optimize_flow;

    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    let mut flow = q.unified().1.clone();
    let mut stats = q.config().stats.clone();
    // A budget long enough that the local optimum, not the clock, ends the
    // search.
    let (report, facts) = optimize_flow(&mut flow, &mut stats, 10_000).expect("optimize");
    let xlm = quarry_formats::xlm::to_string(&flow);
    let fnv = xlm.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert!(report.applied, "{label}: the pinned search commits");
    assert_eq!((report.proposed, report.accepted), (pin.proposed, pin.accepted), "{label}: proposed / accepted");
    assert_eq!(report.after_cost.to_bits(), pin.after_cost_bits, "{label}: committed cost {}", report.after_cost);
    assert_eq!(fnv, pin.xlm_fnv, "{label}: committed flow bytes");
    let facts = facts.unwrap_or_else(|| panic!("{label}: a canonical commit hands its facts over"));
    facts.audit(&flow, &quarry_etl::cost::EstimatedTime, &stats).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn seeded_searches_commit_the_pinned_flows() {
    let pin = |proposed, accepted, after_cost_bits, xlm_fnv| SearchPin { proposed, accepted, after_cost_bits, xlm_fnv };
    // Every committed cost is at or below the annealer's pin: high N = 2
    // equal, N = 4 143 185.644 → 143 184.404, N = 8 191 074.004 →
    // 191 016.404, low N = 6 1 328 373.412 → 1 326 236.224, N = 8
    // 1 467 748.744 → 1 465 451.424.
    for (n, p) in [
        (2, pin(107, 9, 0x40fb_a46c_dd2f_1a9f, 0x7648_bd72_e465_9b0b)),
        (4, pin(139, 14, 0x4101_7a83_3b64_5a1e, 0xb509_ccfc_fbb6_6e01)),
        (8, pin(162, 19, 0x4107_5143_3b64_5a20, 0x901e_3578_76fe_a354)),
    ] {
        assert_search_pinned(&format!("high_overlap_family({n})"), high_overlap_family(n), p);
    }
    for (n, p) in [
        (6, pin(479, 31, 0x4134_3c9c_3958_1062, 0xb0ec_ed6b_b354_7131)),
        (8, pin(497, 36, 0x4136_5c6b_6c8b_4394, 0x64b0_d221_0286_5b21)),
    ] {
        assert_search_pinned(&format!("requirement_family({n})"), requirement_family(n), p);
    }
}

/// The unified flow of `family`, integrated greedily, with the statistics
/// the lifecycle optimizes it under.
fn unified(family: Vec<Requirement>) -> (Flow, SourceStats) {
    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    (q.unified().1.clone(), q.config().stats.clone())
}

/// The flows the search properties run over: the seeded random flows of
/// `quarry-etl`'s `cost_consistency.rs`, canonicalized as the lifecycle
/// keeps every unified flow, and the high/low-overlap unified designs at
/// N = 8 and the low-overlap one at N = 64.
fn search_inputs() -> Vec<(String, Flow, SourceStats)> {
    let mut out: Vec<_> = (0..24u64)
        .filter_map(|seed| {
            let (mut flow, stats) = random_flows::random_flow(seed);
            while quarry_etl::rules::canonicalize(&mut flow, true).ok()? > 0 {}
            flow.schemas().ok()?;
            Some((format!("random flow {seed}"), flow, stats))
        })
        .collect();
    for (label, family) in [
        ("high-overlap N = 8", high_overlap_family(8)),
        ("low-overlap N = 8", requirement_family(8)),
        ("low-overlap N = 64", requirement_family(64)),
    ] {
        let (flow, stats) = unified(family);
        out.push((label.to_string(), flow, stats));
    }
    out
}

/// The search `optimize_flow` commits from ends at a local optimum: every
/// candidate move is illegal or does not pay, and no escape pair pays — a
/// first move legal there, then any move anchored at an operation it touched
/// that was not legal before it, or a duplicate merge. (The committed flow
/// itself is that end state re-canonicalized; canonical form pushes
/// selections back down, so a hoist can pay on it, but no commit keeps one.)
#[test]
fn searches_end_at_a_local_optimum() {
    use quarry_etl::rewrite::{Move, RewriteState};
    use quarry_integrator::anneal::search;
    use quarry_integrator::optimize::optimize_flow;
    use std::collections::HashSet;

    let mut improved = 0;
    for (label, flow, stats) in search_inputs() {
        let out = search(&flow, &stats, 60_000).expect("the search runs");
        let (report, _) = optimize_flow(&mut flow.clone(), &mut stats.clone(), 60_000).expect("optimize");
        assert_eq!((report.proposed, report.accepted), (out.proposed, out.accepted), "{label}: the same search");
        improved += usize::from(out.accepted > 0);
        let mut st = RewriteState::new(out.flow, out.stats).expect("the search ends on a valid flow");
        // The search's margin: a win is a drop of more than 1e-9 of the cost.
        let pays = |delta: f64, st: &RewriteState| delta < -1e-9 * st.cost().abs().max(1.0);
        let mut legal = Vec::new();
        for mv in st.candidate_moves() {
            let describe = st.describe(&mv);
            let Ok(applied) = st.apply(&mv) else { continue };
            assert!(!pays(applied.delta, &st), "{label}: {describe} pays {}", applied.delta);
            st.undo(applied);
            legal.push(mv);
        }
        let before: HashSet<Move> = legal.iter().copied().collect();
        for first in legal.iter().filter(|mv| **mv != Move::MergeDuplicates) {
            let describe = st.describe(first);
            let applied = st.apply(first).expect("legal at the optimum");
            let touched = applied.touched();
            let seconds: Vec<Move> = st
                .candidate_moves()
                .into_iter()
                .filter(|mv| {
                    *mv == Move::MergeDuplicates
                        || (!before.contains(mv) && mv.anchors().any(|id| touched.contains(&id)))
                })
                .collect();
            for second in seconds {
                let then = st.describe(&second);
                let Ok(next) = st.apply(&second) else { continue };
                assert!(
                    !pays(applied.delta + next.delta, &st),
                    "{label}: {describe} then {then} pays {}",
                    applied.delta + next.delta
                );
                st.undo(next);
            }
            st.undo(applied);
        }
    }
    assert!(improved >= 3, "the searches must move somewhere to check: {improved}");
}

/// The search does not use the worker pool: at widths 1, 2 and 8 the same
/// `(flow, stats)` commits the same flow at the same cost after the same
/// number of proposals and accepts.
#[test]
fn the_search_is_the_same_at_every_pool_width() {
    use quarry_integrator::optimize::optimize_flow;

    for (label, family) in [("high-overlap", high_overlap_family(8)), ("low-overlap", requirement_family(8))] {
        let (flow, stats) = unified(family);
        let searched = [1usize, 2, 8].map(|width| {
            let (mut flow, mut stats) = (flow.clone(), stats.clone());
            let (report, _) = at_width(width, || optimize_flow(&mut flow, &mut stats, 60_000)).expect("optimize");
            (width, quarry_formats::xlm::to_string(&flow), report)
        });
        let (_, xlm, first) = &searched[0];
        assert!(first.applied, "{label}: the search commits");
        for (width, other_xlm, other) in &searched[1..] {
            assert_eq!(other_xlm, xlm, "{label}: committed flow at width {width}");
            assert_eq!(other.after_cost.to_bits(), first.after_cost.to_bits(), "{label}: cost at width {width}");
            assert_eq!((other.proposed, other.accepted), (first.proposed, first.accepted), "{label}: width {width}");
        }
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
