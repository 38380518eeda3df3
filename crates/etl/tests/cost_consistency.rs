//! Cost-model consistency properties on randomized flows — the invariants
//! the annealing optimizer's correctness rests on:
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

use proptest::prelude::*;
use quarry_etl::cost::{EstimatedTime, EtlCostModel, SourceStats};
use quarry_etl::rewrite::{Move, RewriteError, RewriteState};
use quarry_etl::{parse_expr, AggSpec, ColType, Column, Flow, JoinKind, OpKind, Schema};

fn mix(state: &mut u64) -> u64 {
    // SplitMix64: deterministic, seedable, no external dependency.
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: u64) -> u64 {
    mix(state) % n
}

fn chance(state: &mut u64, percent: u64) -> bool {
    pick(state, 100) < percent
}

fn lineitem() -> OpKind {
    OpKind::Datastore {
        datastore: "lineitem".into(),
        schema: Schema::new(vec![
            Column::new("l_orderkey", ColType::Integer),
            Column::new("l_partkey", ColType::Integer),
            Column::new("l_extendedprice", ColType::Decimal),
            Column::new("l_discount", ColType::Decimal),
            Column::new("l_quantity", ColType::Integer),
        ]),
    }
}

fn orders() -> OpKind {
    OpKind::Datastore {
        datastore: "orders".into(),
        schema: Schema::new(vec![
            Column::new("o_orderkey", ColType::Integer),
            Column::new("o_custkey", ColType::Integer),
            Column::new("o_totalprice", ColType::Decimal),
        ]),
    }
}

fn customer() -> OpKind {
    OpKind::Datastore {
        datastore: "customer".into(),
        schema: Schema::new(vec![
            Column::new("c_custkey", ColType::Integer),
            Column::new("c_name", ColType::Text),
            Column::new("c_acctbal", ColType::Decimal),
        ]),
    }
}

fn part() -> OpKind {
    OpKind::Datastore {
        datastore: "part".into(),
        schema: Schema::new(vec![
            Column::new("p_partkey", ColType::Integer),
            Column::new("p_name", ColType::Text),
            Column::new("p_retailprice", ColType::Decimal),
        ]),
    }
}

/// Appends a random run of unary operations over the lineitem schema.
fn random_lineitem_chain(f: &mut Flow, mut at: quarry_etl::OpId, rng: &mut u64, tag: &str) -> quarry_etl::OpId {
    let preds =
        ["l_discount > 0.05", "l_quantity < 25", "l_extendedprice > 1000", "l_discount > 0.01 AND l_quantity > 5"];
    for i in 0..pick(rng, 3) {
        let p = preds[pick(rng, preds.len() as u64) as usize];
        at = f.append(at, format!("SEL_{tag}_{i}"), OpKind::Selection { predicate: parse_expr(p).unwrap() }).unwrap();
    }
    if chance(rng, 30) {
        at = f.append(at, format!("SORT_{tag}"), OpKind::Sort { columns: vec!["l_orderkey".into()] }).unwrap();
    }
    at
}

/// A randomized but always-valid flow over the TPC-H-shaped table pool,
/// plus randomized statistics (rows, declared keys, observations).
fn random_flow(seed: u64) -> (Flow, SourceStats) {
    let mut rng = seed;
    let mut f = Flow::new(format!("rand_{seed}"));
    let li = f.add_op("DS_lineitem", lineitem()).unwrap();
    let mut spine = random_lineitem_chain(&mut f, li, &mut rng, "a");

    // Optionally a union of two lineitem branches (schemas stay identical:
    // selections and sorts preserve schema).
    if chance(&mut rng, 25) {
        let li2 = f.append(spine, "DUP_GUARD", OpKind::Distinct).unwrap();
        let li3 = f.add_op("DS_lineitem_b", lineitem()).unwrap();
        let branch = random_lineitem_chain(&mut f, li3, &mut rng, "b");
        let u = f.add_op("UNION_li", OpKind::Union).unwrap();
        f.connect(li2, u).unwrap();
        f.connect(branch, u).unwrap();
        spine = u;
    }

    // Join orders; maybe stack a part join on top (the swap-move shape).
    if chance(&mut rng, 80) {
        let ord = f.add_op("DS_orders", orders()).unwrap();
        let j = f
            .add_op(
                "JOIN_orders",
                OpKind::Join {
                    kind: if chance(&mut rng, 80) { JoinKind::Inner } else { JoinKind::Left },
                    left_on: vec!["l_orderkey".into()],
                    right_on: vec!["o_orderkey".into()],
                },
            )
            .unwrap();
        f.connect(spine, j).unwrap();
        f.connect(ord, j).unwrap();
        spine = j;
        // A customer join probing on an orders column: the shape the
        // re-association moves need (`(A ⋈ B) ⋈ C` with C's keys on B).
        if chance(&mut rng, 50) {
            let cust = f.add_op("DS_customer", customer()).unwrap();
            let jc = f
                .add_op(
                    "JOIN_customer",
                    OpKind::Join {
                        kind: JoinKind::Inner,
                        left_on: vec!["o_custkey".into()],
                        right_on: vec!["c_custkey".into()],
                    },
                )
                .unwrap();
            f.connect(spine, jc).unwrap();
            f.connect(cust, jc).unwrap();
            spine = jc;
        }
        if chance(&mut rng, 60) {
            let pt = f.add_op("DS_part", part()).unwrap();
            let pin = if chance(&mut rng, 50) {
                f.append(pt, "SEL_part", OpKind::Selection { predicate: parse_expr("p_retailprice > 500").unwrap() })
                    .unwrap()
            } else {
                pt
            };
            let j2 = f
                .add_op(
                    "JOIN_part",
                    OpKind::Join {
                        kind: JoinKind::Inner,
                        left_on: vec!["l_partkey".into()],
                        right_on: vec!["p_partkey".into()],
                    },
                )
                .unwrap();
            f.connect(spine, j2).unwrap();
            f.connect(pin, j2).unwrap();
            spine = j2;
        }
    }

    if chance(&mut rng, 40) {
        spine = f
            .append(
                spine,
                "DERIVE_rev",
                OpKind::Derivation {
                    column: "revenue".into(),
                    expr: parse_expr("l_extendedprice * (1 - l_discount)").unwrap(),
                },
            )
            .unwrap();
    }

    // Post-join filters keep the optimizer's pushdown moves interesting.
    if chance(&mut rng, 50) {
        spine = f
            .append(spine, "SEL_late", OpKind::Selection { predicate: parse_expr("l_quantity > 1").unwrap() })
            .unwrap();
    }

    if chance(&mut rng, 70) {
        spine = f
            .append(
                spine,
                "AGG_main",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "total")],
                },
            )
            .unwrap();
    }
    f.append(spine, "LOAD_main", OpKind::Loader { table: "fact".into(), key: vec![] }).unwrap();

    let mut stats = SourceStats::new()
        .with_table("lineitem", (1000 + pick(&mut rng, 9000)) as f64)
        .with_table("orders", (500 + pick(&mut rng, 2000)) as f64)
        .with_table("part", (200 + pick(&mut rng, 1000)) as f64)
        .with_table("customer", (100 + pick(&mut rng, 1500)) as f64);
    if chance(&mut rng, 70) {
        stats.declare_unique("orders", vec!["o_orderkey".into()]);
    }
    if chance(&mut rng, 70) {
        stats.declare_unique("part", vec!["p_partkey".into()]);
    }
    // Random observations against existing op names (absolute for any op,
    // io pairs for selections).
    let names: Vec<(String, bool)> =
        f.ops().map(|o| (o.name.clone(), matches!(o.kind, OpKind::Selection { .. }))).collect();
    for (name, is_sel) in names {
        if is_sel && chance(&mut rng, 40) {
            let rows_in = (100 + pick(&mut rng, 5000)) as f64;
            let rows_out = rows_in * (pick(&mut rng, 100) as f64 / 100.0);
            stats.observe_op_io(&name, rows_in, rows_out);
        } else if chance(&mut rng, 15) {
            stats.observe_op(&name, (1 + pick(&mut rng, 4000)) as f64);
        }
    }
    (f, stats)
}

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

    /// The annealer invariant: every move either cleanly rejects, or the
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

/// The eight [`Move`] kinds, in declaration order.
const KINDS: [&str; 8] = ["push", "hoist", "swap", "assoc", "unassoc", "prune", "remove-projection", "merge"];

fn kind(mv: &Move) -> usize {
    match mv {
        Move::PushSelection { .. } => 0,
        Move::HoistSelection { .. } => 1,
        Move::SwapJoins { .. } => 2,
        Move::AssocJoins { .. } => 3,
        Move::UnassocJoins { .. } => 4,
        Move::PruneColumns { .. } => 5,
        Move::RemoveProjection { .. } => 6,
        Move::MergeDuplicates => 7,
    }
}

/// How often each move kind was applied and undone, by [`kind`].
#[derive(Default)]
struct Coverage {
    applied: [usize; 8],
    undone: [usize; 8],
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
/// that move was applied, and the maintained maps a rebuild — the property
/// the annealer's undo back to its best state rests on. Returns the depth
/// reached.
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

/// Stacked undos over the seeded randomized flows: the annealer takes back whole runs of accepted moves, not only
/// the move it just applied.
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
