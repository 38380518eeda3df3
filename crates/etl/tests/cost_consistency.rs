//! Cost-model consistency properties on randomized flows — the invariants
//! the optimizer's search rests on:
//!
//! 1. `EstimatedTime::decompose()` parts sum to `cost()` (±ε).
//! 2. Every rewrite move is cost-delta-consistent: the incrementally
//!    maintained cost equals a full re-cost of the mutated flow.
//! 3. `undo` restores the state bit-identically.
//! 4. Over long accept/undo walks, everything `RewriteState` maintains beside
//!    the flow equals a from-scratch derivation after every step, and every
//!    move kind is applied and undone at least once.
//! 5. Undos compose: up to 32 accepted moves undone newest-first restore the
//!    state at every depth.

mod common;

use common::{chance, pick, random_flow};
use proptest::prelude::*;
use quarry_etl::cost::{EstimatedTime, EtlCostModel};
use quarry_etl::rewrite::{Move, RewriteError, RewriteState};
use quarry_etl::{parse_expr, JoinKind, OpKind};

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite invariant: the additive decomposition sums to the total.
    #[test]
    fn decompose_parts_sum_to_cost(seed in any::<u64>()) {
        let (flow, stats) = random_flow(seed);
        let total = EstimatedTime.cost(&flow, &stats).unwrap();
        let parts = EstimatedTime.decompose(&flow, &stats).unwrap().expect("EstimatedTime decomposes");
        prop_assert_eq!(parts.len(), flow.op_count());
        let sum: f64 = parts.iter().map(|p| p.cost).sum();
        assert_close(sum, total, "decompose sum");
    }

    /// The search's invariant: every move either cleanly rejects, or the
    /// incrementally maintained cost matches a full re-cost and undo
    /// restores the state bit-identically.
    #[test]
    fn every_move_is_delta_consistent(seed in any::<u64>()) {
        let (flow, stats) = random_flow(seed);
        let mut st = RewriteState::new(flow, stats).unwrap();
        assert_close(st.cost(), st.full_recost().unwrap(), "initial cost");
        for mv in st.candidate_moves() {
            let reference = st.clone();
            match st.apply(&mv) {
                Ok(applied) => {
                    st.flow().validate().unwrap();
                    assert_close(st.cost(), st.full_recost().unwrap(), &st.describe(&mv));
                    st.undo(applied);
                }
                // `Flow` errors are late legality rejections (e.g. a
                // hoisted predicate's column was pruned upstream by an
                // earlier move): the rollback below must leave the state
                // untouched.
                Err(RewriteError::Illegal(_) | RewriteError::Flow(_)) => {}
            }
            prop_assert_eq!(st.flow(), reference.flow(), "flow restored after {}", st.describe(&mv));
            prop_assert_eq!(st.cost().to_bits(), reference.cost().to_bits());
        }
    }

    /// Random walks stay consistent on arbitrary seeds: a short chain of
    /// kept and undone moves, audited against a rebuild after every step.
    #[test]
    fn random_move_sequences_stay_consistent(seed in any::<u64>()) {
        let (flow, stats) = random_flow(seed);
        let mut st = RewriteState::new(flow, stats).unwrap();
        audited_walk(&mut st, seed ^ 0xabcdef, 12, &mut Coverage::default());
    }

    /// Selectivity composition stays a probability on arbitrary predicates
    /// (satellite: AND/OR clamping).
    #[test]
    fn selectivity_is_always_a_probability(seed in any::<u64>()) {
        let mut rng = seed;
        let preds = [
            "a > 1 OR b > 2 OR c > 3 OR d > 4 OR e > 5",
            "a = 1 OR a = 2 OR a = 3 OR a = 4 OR a = 5 OR a = 6 OR a = 7",
            "NOT (a > 1 OR b > 2 OR c > 3)",
            "a > 1 AND (b > 2 OR c > 3 OR d > 4 OR e > 5 OR f > 6)",
        ];
        let p = parse_expr(preds[pick(&mut rng, preds.len() as u64) as usize]).unwrap();
        let s = quarry_etl::cost::selectivity(&p);
        prop_assert!((0.0..=1.0).contains(&s), "selectivity {s} out of [0,1]");
    }
}

/// The seven [`Move`] kinds, in declaration order.
const KINDS: [&str; 7] = ["hoist", "swap", "assoc", "unassoc", "prune", "remove-projection", "merge"];

fn kind(mv: &Move) -> usize {
    match mv {
        Move::HoistSelection { .. } => 0,
        Move::SwapJoins { .. } => 1,
        Move::AssocJoins { .. } => 2,
        Move::UnassocJoins { .. } => 3,
        Move::PruneColumns { .. } => 4,
        Move::RemoveProjection { .. } => 5,
        Move::MergeDuplicates => 6,
    }
}

/// How often each move kind was applied and undone, by [`kind`].
#[derive(Default)]
struct Coverage {
    applied: [usize; KINDS.len()],
    undone: [usize; KINDS.len()],
}

impl Coverage {
    /// Panics naming every kind never applied or never undone.
    fn assert_every_kind_applied_and_undone(&self) {
        let missing: Vec<String> = (0..KINDS.len())
            .filter(|&k| self.applied[k] == 0 || self.undone[k] == 0)
            .map(|k| format!("{} (applied {}, undone {})", KINDS[k], self.applied[k], self.undone[k]))
            .collect();
        assert!(missing.is_empty(), "move kinds the walks never applied and undone: {missing:?}");
    }
}

/// Walks `proposals` seeded proposals from `st`, accepting roughly half of
/// the legal ones. After every `apply` and every `undo` the maintained state
/// must equal a from-scratch rebuild ([`RewriteState::audit`]), and `undo`
/// must restore the flow exactly — op order, edge order and `next_id` are all
/// part of `Flow`'s equality. Counts into `seen` what applied and what was
/// undone; returns how many proposals applied.
fn audited_walk(st: &mut RewriteState, seed: u64, proposals: usize, seen: &mut Coverage) -> usize {
    let mut rng = seed;
    let mut applied = 0;
    for step in 0..proposals {
        let moves = st.candidate_moves();
        let mv = moves[pick(&mut rng, moves.len() as u64) as usize];
        let label = format!("seed {seed} step {step} {}", st.describe(&mv));
        let before = st.flow().clone();
        let cost_before = st.cost();
        match st.apply(&mv) {
            Ok(undo) => {
                applied += 1;
                seen.applied[kind(&mv)] += 1;
                st.audit().unwrap_or_else(|e| panic!("{label}: after apply: {e}"));
                st.flow().validate().unwrap_or_else(|e| panic!("{label}: {e}"));
                if chance(&mut rng, 50) {
                    st.undo(undo);
                    seen.undone[kind(&mv)] += 1;
                    assert_eq!(st.flow(), &before, "{label}: undo restores the flow");
                    assert_eq!(st.cost().to_bits(), cost_before.to_bits(), "{label}: undo restores the cost");
                    st.audit().unwrap_or_else(|e| panic!("{label}: after undo: {e}"));
                }
            }
            Err(RewriteError::Illegal(_) | RewriteError::Flow(_)) => {
                assert_eq!(st.flow(), &before, "{label}: a rejected move leaves the flow alone");
                assert_eq!(st.cost().to_bits(), cost_before.to_bits());
                st.audit().unwrap_or_else(|e| panic!("{label}: after rejection: {e}"));
            }
        }
    }
    applied
}

/// The from-scratch rebuild is the oracle: long seeded walks over the
/// randomized flows, applying and undoing every
/// move kind.
#[test]
fn long_walks_match_a_rebuild_after_every_step() {
    let mut applied = 0;
    let mut seen = Coverage::default();
    for seed in 0..24u64 {
        let (flow, stats) = random_flow(seed);
        let mut st = RewriteState::new(flow, stats).unwrap();
        st.audit().unwrap();
        applied += audited_walk(&mut st, seed ^ 0x5eed, 200, &mut seen);
    }
    assert!(applied > 500, "the walks must exercise real moves, applied only {applied}");
    seen.assert_every_kind_applied_and_undone();
}

/// Most moves an undo stack holds in [`stacked_undo`].
const STACK_DEPTH: usize = 32;

/// Accepts every legal move among seeded proposals until [`STACK_DEPTH`]
/// are applied in a row, then undoes them newest-first. At every depth the
/// flow, the statistics and the cost bits must equal what they were when
/// that move was applied, and the maintained maps a rebuild: undo records
/// compose, whatever was applied after them. Returns the depth reached.
fn stacked_undo(mut st: RewriteState, seed: u64) -> usize {
    let mut rng = seed;
    let mut stack = Vec::new();
    for _ in 0..4 * STACK_DEPTH {
        if stack.len() == STACK_DEPTH {
            break;
        }
        let moves = st.candidate_moves();
        let mv = moves[pick(&mut rng, moves.len() as u64) as usize];
        let before = (st.flow().clone(), st.stats().clone(), st.cost(), st.describe(&mv));
        if let Ok(applied) = st.apply(&mv) {
            stack.push((before, applied));
        }
    }
    let depth = stack.len();
    while let Some(((flow, stats, cost, label), applied)) = stack.pop() {
        let label = format!("seed {seed} depth {}: undo {label}", stack.len() + 1);
        st.undo(applied);
        assert_eq!(st.flow(), &flow, "{label}: flow");
        assert_eq!(st.stats(), &stats, "{label}: statistics");
        assert_eq!(st.cost().to_bits(), cost.to_bits(), "{label}: cost");
        st.audit().unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    depth
}

/// Stacked undos over the seeded randomized flows: whole runs of accepted
/// moves taken back, not only the move just applied.
#[test]
fn stacked_undos_restore_every_depth() {
    let mut depths = Vec::new();
    for seed in 0..24u64 {
        let (flow, stats) = random_flow(seed);
        depths.push(stacked_undo(RewriteState::new(flow, stats).unwrap(), seed ^ 0x57ac));
    }
    let full = depths.iter().filter(|&&d| d == STACK_DEPTH).count();
    assert!(full >= 8, "too few walks stacked {STACK_DEPTH} moves: {depths:?}");
}

/// A left join must never accept a swap (outer semantics are not
/// reorderable) — deterministic companion to the randomized suite.
#[test]
fn left_joins_never_swap() {
    for seed in 0..64u64 {
        let (flow, stats) = random_flow(seed);
        let Ok(mut st) = RewriteState::new(flow, stats) else { continue };
        let left_joins: Vec<_> = st
            .flow()
            .ops()
            .filter(|o| matches!(o.kind, OpKind::Join { kind: JoinKind::Left, .. }))
            .map(|o| o.id)
            .collect();
        for j in left_joins {
            assert!(
                matches!(st.apply(&Move::SwapJoins { upper: j }), Err(RewriteError::Illegal(_))),
                "left join accepted a swap"
            );
        }
    }
}
