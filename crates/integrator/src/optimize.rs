//! The cost-based flow optimizer: descent search + safe commit.
//!
//! [`optimize_flow`] wraps the search ([`crate::anneal`]: deterministic
//! first-improvement descent with a local two-move escape) with the
//! discipline the lifecycle needs before it may swap the unified flow:
//!
//! 1. the search's flow is **re-canonicalized** to a fixpoint
//!    ([`quarry_etl::rules::canonicalize`]) — the consolidation index
//!    requires canonical form, so only wins that survive normalization
//!    (join-spine order, column pruning, sharing) are kept. Normalization
//!    pushes every selection back down, which is why the search has a
//!    hoist but no push move: a hoist is kept only for what it enables;
//! 2. the candidate is **re-validated** and its loader interfaces are
//!    compared against the original (same target tables, bit-identical sink
//!    schemas) — a structural guarantee on top of the per-move
//!    order-preservation proofs;
//! 3. the candidate is **re-costed from scratch** and committed only when it
//!    actually beats the input. Otherwise the report says `applied: false`
//!    and the caller keeps its flow untouched.
//!
//! Steps 2 and 3 read one fresh derivation of the candidate
//! ([`FlowFacts::of`]): its schemas give the loader contract, its cost parts
//! the after-cost — the bits [`quarry_etl::cost::EtlCostModel::cost`]
//! gives.
//!
//! On a commit that derivation is handed back beside the report when the
//! candidate is canonical to a fixpoint: the caller (the lifecycle's
//! `optimize` step) builds its consolidation index over the committed flow
//! beside those facts
//! ([`ConsolidationState::adopt`](crate::state::ConsolidationState::adopt)),
//! so the next design step neither re-canonicalizes nor re-derives.

use crate::anneal::{search_from, MoveRecord};
use crate::IntegrateError;
use quarry_etl::cost::{EstimatedTime, SourceStats};
use quarry_etl::facts::FlowFacts;
use quarry_etl::rewrite::RewriteState;
use quarry_etl::{rules, Flow, OpId, OpKind, Schema};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Canonicalization fixpoint cap. Normalization itself is a fixpoint pass;
/// the outer loop only re-runs it when dedupe unlocked further merges, which
/// converges in one or two rounds on real flows.
const CANONICAL_PASS_CAP: usize = 8;

/// What one optimization run did.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// Modeled cost of the input flow.
    pub before_cost: f64,
    /// Modeled cost of the returned flow (equals `before_cost` when the
    /// search found nothing that survives canonicalization).
    pub after_cost: f64,
    /// Whether the returned flow differs from the input.
    pub applied: bool,
    /// Moves proposed.
    pub proposed: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// Wall time of the whole optimization (search + canonicalize +
    /// re-validate), milliseconds.
    pub wall_ms: f64,
    /// The search's capped move log (for `optimize --explain`).
    pub log: Vec<MoveRecord>,
}

impl OptimizeReport {
    /// Fractional modeled-cost improvement in `[0, 1)`.
    pub fn improvement(&self) -> f64 {
        if self.before_cost > 0.0 {
            (1.0 - self.after_cost / self.before_cost).max(0.0)
        } else {
            0.0
        }
    }
}

/// The loader interface of a flow: target table → input schema, the contract
/// the optimizer must leave bit-identical. Multiple loaders into one table
/// collect into a sorted multiset via the count suffix. `schemas` is the
/// flow's propagated output schema per operation.
fn sink_interfaces(flow: &Flow, schemas: &HashMap<OpId, Schema>) -> BTreeMap<(String, usize), Schema> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    let mut loaders: Vec<_> = flow
        .ops()
        .filter_map(|op| match &op.kind {
            OpKind::Loader { table, .. } => Some((table.clone(), op.id)),
            _ => None,
        })
        .collect();
    loaders.sort();
    for (table, id) in loaders {
        let inputs = flow.inputs_of(id);
        let schema = inputs.first().map(|i| schemas[i].clone()).unwrap_or_else(|| Schema::new(vec![]));
        let n = seen.entry(table.clone()).or_insert(0);
        out.insert((table, *n), schema);
        *n += 1;
    }
    out
}

/// Optimizes `flow` in place. On `Ok((report, facts))` the flow is either
/// untouched (`applied: false`) or replaced by a canonical, validated,
/// execution-equivalent flow with strictly lower modeled cost. On `Err` the
/// flow is untouched.
///
/// `facts` is the commit check's derivation of the committed flow, under
/// [`EstimatedTime`] and the committed `stats`, when that flow is canonical
/// to a fixpoint (the last canonicalization pass changed nothing); the
/// caller hands it to
/// [`ConsolidationState::adopt`](crate::state::ConsolidationState::adopt).
/// `None` when nothing was applied or the pass cap was reached first.
///
/// `stats` is mutable because a commit also commits the search's view of
/// the statistics: absolute observations recorded for operations the kept
/// moves restructured are dropped — a reshaped join's old measured
/// cardinality no longer describes it, and keeping it would pin the new
/// design's estimates to the old design's reality. The next observed run
/// re-pins them. When nothing is applied, `stats` is untouched.
///
/// `budget_ms` bounds the search's wall time (the `optimizer.budget_ms`
/// key); a search it cuts short commits what it kept so far.
pub fn optimize_flow(
    flow: &mut Flow,
    stats: &mut SourceStats,
    budget_ms: u64,
) -> Result<(OptimizeReport, Option<FlowFacts>), IntegrateError> {
    let started = Instant::now();
    let invalid = |e: quarry_etl::FlowError| IntegrateError::InvalidResult(vec![e.to_string()]);
    // The search state's initial pass is the one derivation of the input
    // flow: the loader contract and the cost to beat (`EstimatedTime::cost`'s
    // bits).
    let base = RewriteState::new(flow.clone(), stats.clone()).map_err(invalid)?;
    let sinks_before = sink_interfaces(flow, base.schemas());
    let before_cost = base.cost();

    let outcome = search_from(base, budget_ms);
    let mut report = OptimizeReport {
        before_cost,
        after_cost: before_cost,
        applied: false,
        proposed: outcome.proposed,
        accepted: outcome.accepted,
        wall_ms: 0.0,
        log: outcome.log,
    };

    // Re-canonicalize the search's flow to a fixpoint: the lifecycle keeps the
    // unified flow permanently canonical, so a win must survive this or it
    // was only an artifact of non-canonical selection placement.
    let mut candidate = outcome.flow;
    let mut canonical = false;
    for _ in 0..CANONICAL_PASS_CAP {
        if rules::canonicalize(&mut candidate, true).map_err(invalid)? == 0 {
            canonical = true;
            break;
        }
    }
    // Re-validate and re-cost in one derivation (schema-correct, acyclic, no
    // dangling output) and compare the loader contract, which must be
    // bit-identical: same target tables, same sink schemas, column for
    // column. The derivation uses the search's statistics: observations it
    // invalidated by restructuring an operation must not pin
    // the candidate's estimates.
    let facts = FlowFacts::of(&candidate, &EstimatedTime, &outcome.stats).map_err(invalid)?;
    candidate.check_outputs_consumed().map_err(invalid)?;
    if sink_interfaces(&candidate, facts.schemas()) != sinks_before {
        report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        return Ok((report, None)); // structural guard tripped: keep the input flow
    }

    // Commit only a from-scratch-verified strict improvement.
    let after_cost = facts.cost(&candidate, &EstimatedTime, &outcome.stats).map_err(invalid)?;
    let mut committed = None;
    if after_cost < before_cost {
        *flow = candidate;
        *stats = outcome.stats;
        report.after_cost = after_cost;
        report.applied = true;
        committed = canonical.then_some(facts);
    }
    report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((report, committed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::cost::EtlCostModel;
    use quarry_etl::{parse_expr, ColType, Column, JoinKind, OpKind, Schema};

    /// A budget no test search comes near.
    const BUDGET_MS: u64 = 60_000;

    fn spine() -> (Flow, SourceStats) {
        let mut f = Flow::new("spine");
        let ps = f
            .add_op(
                "DS_partsupp",
                OpKind::Datastore {
                    datastore: "partsupp".into(),
                    schema: Schema::new(vec![
                        Column::new("ps_partkey", ColType::Integer),
                        Column::new("ps_suppkey", ColType::Integer),
                        Column::new("ps_supplycost", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let pt = f
            .add_op(
                "DS_part",
                OpKind::Datastore {
                    datastore: "part".into(),
                    schema: Schema::new(vec![
                        Column::new("p_partkey", ColType::Integer),
                        Column::new("p_name", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let sp = f
            .add_op(
                "DS_supplier",
                OpKind::Datastore {
                    datastore: "supplier".into(),
                    schema: Schema::new(vec![
                        Column::new("s_suppkey", ColType::Integer),
                        Column::new("s_nation", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let j1 = f
            .add_op(
                "JOIN_part",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["ps_partkey".into()],
                    right_on: vec!["p_partkey".into()],
                },
            )
            .unwrap();
        f.connect(ps, j1).unwrap();
        f.connect(pt, j1).unwrap();
        let sel = f
            .append(sp, "SEL_spain", OpKind::Selection { predicate: parse_expr("s_nation = 'Spain'").unwrap() })
            .unwrap();
        let j2 = f
            .add_op(
                "JOIN_supp",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["ps_suppkey".into()],
                    right_on: vec!["s_suppkey".into()],
                },
            )
            .unwrap();
        f.connect(j1, j2).unwrap();
        f.connect(sel, j2).unwrap();
        let agg = f
            .append(
                j2,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["p_name".into()],
                    aggregates: vec![quarry_etl::AggSpec::new("SUM", parse_expr("ps_supplycost").unwrap(), "total")],
                },
            )
            .unwrap();
        f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f.validate().unwrap();
        let stats = SourceStats::new()
            .with_table("partsupp", 8_000.0)
            .with_table("part", 2_000.0)
            .with_table("supplier", 100.0)
            .with_unique("part", &["p_partkey"])
            .with_unique("supplier", &["s_suppkey"]);
        (f, stats)
    }

    #[test]
    fn optimize_commits_a_canonical_improvement() {
        let (mut flow, mut stats) = spine();
        let original = flow.clone();
        let (report, facts) = optimize_flow(&mut flow, &mut stats, BUDGET_MS).unwrap();
        assert!(report.applied, "the spine swap must survive canonicalization");
        // The handed-over facts describe the committed flow under the
        // committed statistics, and price it at the reported cost.
        let facts = facts.expect("a canonical commit hands its facts over");
        facts.audit(&flow, &EstimatedTime, &stats).unwrap();
        assert_eq!(facts.cost(&flow, &EstimatedTime, &stats).unwrap().to_bits(), report.after_cost.to_bits());
        assert!(report.improvement() > 0.10, "improvement {}", report.improvement());
        assert_ne!(flow, original);
        flow.validate().unwrap();
        // Canonical fixpoint: re-canonicalizing the committed flow is a no-op.
        let mut again = flow.clone();
        assert_eq!(rules::canonicalize(&mut again, true).unwrap(), 0);
        assert_eq!(again, flow);
        // The loader contract is untouched.
        assert_eq!(
            sink_interfaces(&flow, &flow.schemas().unwrap()),
            sink_interfaces(&original, &original.schemas().unwrap())
        );
    }

    #[test]
    fn optimize_leaves_an_already_optimal_flow_alone() {
        let (mut flow, mut stats) = spine();
        // First run finds the win; the second starts from the optimum.
        optimize_flow(&mut flow, &mut stats, BUDGET_MS).unwrap();
        let settled = flow.clone();
        let (report, facts) = optimize_flow(&mut flow, &mut stats, BUDGET_MS).unwrap();
        assert!(!report.applied, "no second win to find");
        assert!(facts.is_none(), "nothing committed, nothing handed over");
        assert_eq!(report.after_cost.to_bits(), report.before_cost.to_bits());
        assert_eq!(flow, settled, "applied: false leaves the flow untouched");
    }

    #[test]
    fn optimize_handles_an_empty_flow() {
        let mut flow = Flow::new("empty");
        let mut stats = SourceStats::new();
        let (report, _) = optimize_flow(&mut flow, &mut stats, BUDGET_MS).unwrap();
        assert!(!report.applied);
        assert_eq!(report.before_cost, 0.0);
    }

    #[test]
    fn the_search_state_prices_the_input_like_the_model() {
        let (flow, mut stats) = spine();
        let empty = Flow::new("empty");
        for observed in [false, true] {
            if observed {
                stats.observe_op_io("SEL_spain", 100.0, 95.0);
            }
            for flow in [&flow, &empty] {
                let base = RewriteState::new(flow.clone(), stats.clone()).unwrap();
                assert_eq!(base.cost().to_bits(), EstimatedTime.cost(flow, &stats).unwrap().to_bits());
            }
        }
    }

    #[test]
    fn observed_cardinalities_steer_the_search() {
        let (mut flow, mut stats) = spine();
        // Pretend a run observed the Spain filter to be barely selective:
        // 95 of 100 suppliers qualify. The swap's modeled win shrinks but
        // the optimizer must keep using the observed ratio consistently.
        stats.observe_op_io("SEL_spain", 100.0, 95.0);
        let (report, _) = optimize_flow(&mut flow, &mut stats, BUDGET_MS).unwrap();
        let (mut flow2, mut stats2) = spine();
        let (report2, _) = optimize_flow(&mut flow2, &mut stats2, BUDGET_MS).unwrap();
        // With the default 10% selectivity guess the win is much larger than
        // with the observed 95%.
        assert!(report2.improvement() > report.improvement());
    }

    /// The descent's commit on the spine (see `optimizer_equivalence.rs` for
    /// the families).
    #[test]
    fn seeded_optimization_of_the_spine_is_pinned() {
        let (mut flow, mut stats) = spine();
        let (report, _) = optimize_flow(&mut flow, &mut stats, 10_000).unwrap();
        assert!(report.applied);
        assert_eq!((report.proposed, report.accepted), (29, 3));
        // The annealer's pinned cost: the descent commits the same optimum.
        assert_eq!(report.after_cost.to_bits(), 0x40d0_122e_978d_4fdf);
        let xlm = quarry_formats::xlm::to_string(&flow);
        let fnv = xlm.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fnv, 0x0a2f_5ab4_578a_6639);
    }
}
