//! The optimizer's search: deterministic first-improvement descent over the
//! rewrite-move neighborhood ([`quarry_etl::rewrite::Move`]), with a local
//! two-move escape. (The module keeps the name of the annealer it replaced.)
//!
//! The descent walks [`RewriteState::candidate_moves`] (seven move kinds;
//! there is no selection push-down, since the commit's canonical form pushes
//! every selection down anyway) cyclically and keeps a move only when it
//! lowers the modeled cost; after each kept move it re-enumerates and carries
//! on from the same position, and it stops after a full cycle in which
//! nothing paid.
//!
//! Some wins are reached only through a step that does not pay on its own
//! (e.g. hoisting a selection so a join swap becomes legal). So at each local
//! optimum one escape sweep tries pairs. The first move is any non-merge
//! move legal there (none pays alone). The second is a move it newly
//! enabled — anchored at an operation the first one touched
//! ([`Applied::touched`], [`Move::anchors`]) and not legal at the optimum —
//! or [`Move::MergeDuplicates`] when a touched operation now has a sibling
//! with the same `(merge_key, inputs)`. The first pair whose deltas sum below
//! zero is kept and the descent resumes; otherwise both moves are undone and
//! the search ends.
//!
//! Nothing is random and nothing runs on the worker pool, so the search is a
//! function of `(flow, stats)`. `budget_ms` is a wall-clock safety valve for
//! adversarially large flows and its only nondeterministic exit: it can stop
//! the search early, never make it keep a costlier state.

use quarry_etl::cost::SourceStats;
use quarry_etl::rewrite::{Applied, Move, RewriteState};
use quarry_etl::{rules, Flow, FlowError, OpId};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Move-log cap: enough to explain a search without letting a long one turn
/// the report into a transcript.
const LOG_CAP: usize = 256;

/// A move pays when it lowers the modeled cost by more than this share of
/// the starting cost. The running cost is a sum of deltas, so a move and its
/// inverse whose true deltas cancel can both read a few ulps below zero; the
/// margin keeps such a pair from cycling.
const MIN_GAIN_SHARE: f64 = 1e-9;

/// One proposal the search evaluated (kept for `optimize --explain`).
#[derive(Debug, Clone, PartialEq)]
pub struct MoveRecord {
    /// Proposal number, counted from 0.
    pub step: usize,
    /// Human-readable move label (op names at proposal time).
    pub describe: String,
    /// Modeled cost delta of the move (negative = improvement); `None` when
    /// the move's legality analysis rejected it.
    pub delta: Option<f64>,
    pub accepted: bool,
}

/// The result of one search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The flow the search ended on (not yet re-canonicalized).
    pub flow: Flow,
    /// Source statistics as maintained by the search: absolute observations
    /// recorded for operations its moves restructured are dropped (a
    /// reshaped operation's old measurement no longer describes it), while
    /// selections keep their position-independent observed ratios. `cost` is
    /// the cost of `flow` under *these* stats; a caller committing `flow`
    /// must commit the stats with it or its own re-cost will disagree.
    pub stats: SourceStats,
    /// Modeled cost of `flow` under `stats`.
    pub cost: f64,
    /// Modeled cost of the input flow.
    pub start_cost: f64,
    /// Moves proposed (including illegal ones).
    pub proposed: u64,
    /// Moves kept (an escape pair counts two).
    pub accepted: u64,
    /// The first `LOG_CAP` (256) proposals, in order.
    pub log: Vec<MoveRecord>,
}

/// Searches `flow` under the ETL cost model. Returns the cheapest flow found
/// — the input itself when no move or escape pair pays.
pub fn search(flow: &Flow, stats: &SourceStats, budget_ms: u64) -> Result<SearchOutcome, FlowError> {
    Ok(search_from(RewriteState::new(flow.clone(), stats.clone())?, budget_ms))
}

/// [`search`] from an already-built search state (whose full initial pass
/// the caller may want to read schemas off before the search starts).
pub fn search_from(state: RewriteState, budget_ms: u64) -> SearchOutcome {
    let start_cost = state.cost();
    let scale = if start_cost > 0.0 { start_cost } else { 1.0 };
    let mut s = Search {
        st: state,
        deadline: Instant::now() + Duration::from_millis(budget_ms.max(1)),
        scale,
        proposed: 0,
        accepted: 0,
        log: Vec::new(),
    };
    while s.descend().is_some_and(|legal| s.escape(&legal)) {}
    let cost = s.st.cost();
    let (flow, stats) = s.st.into_parts();
    SearchOutcome { flow, stats, cost, start_cost, proposed: s.proposed, accepted: s.accepted, log: s.log }
}

struct Search {
    st: RewriteState,
    deadline: Instant,
    /// The starting cost (1 for a free flow): what [`MIN_GAIN_SHARE`] and
    /// the flight events' thousandths are shares of.
    scale: f64,
    proposed: u64,
    accepted: u64,
    log: Vec<MoveRecord>,
}

impl Search {
    /// First-improvement descent to a local optimum. Returns the moves legal
    /// there, in candidate order (none of them pays), or `None` when the
    /// budget ran out first.
    fn descend(&mut self) -> Option<Vec<Move>> {
        let mut moves = self.st.candidate_moves();
        let mut legal = vec![false; moves.len()];
        let (mut at, mut unpaid) = (0, 0);
        // The neighborhood depends on the flow alone, and a rejected or
        // illegal proposal leaves the flow as it was: re-enumerate only after
        // a kept move.
        while unpaid < moves.len() {
            if self.out_of_time() {
                return None;
            }
            let (mv, i) = (moves[at], at);
            (at, unpaid) = ((at + 1) % moves.len(), unpaid + 1);
            let step = self.proposed as usize;
            match self.propose(&mv) {
                Some(applied) if self.pays(applied.delta) => {
                    self.keep(step, applied.delta);
                    moves = self.st.candidate_moves();
                    legal = vec![false; moves.len()];
                    (at, unpaid) = (at % moves.len(), 0);
                }
                Some(applied) => {
                    self.st.undo(applied);
                    legal[i] = true;
                }
                None => {}
            }
        }
        Some(moves.into_iter().zip(legal).filter_map(|(mv, legal)| legal.then_some(mv)).collect())
    }

    /// One escape sweep from a local optimum whose legal moves are `legal`
    /// (see the module docs). Returns whether a pair was kept.
    fn escape(&mut self, legal: &[Move]) -> bool {
        let before: HashSet<Move> = legal.iter().copied().collect();
        for first in legal.iter().filter(|mv| **mv != Move::MergeDuplicates) {
            if self.out_of_time() {
                return false;
            }
            let step = self.proposed as usize;
            let Some(applied) = self.propose(first) else { continue };
            match self.second_after(&applied, &before) {
                Some((second_step, second)) => {
                    self.keep(step, applied.delta);
                    self.keep(second_step, second.delta);
                    return true;
                }
                None => self.st.undo(applied),
            }
        }
        false
    }

    /// Tries the second moves of an escape after `first` (see the module
    /// docs; `before` holds the moves legal at the optimum), keeping the
    /// first one whose delta and `first`'s sum to a win and undoing the rest.
    fn second_after(&mut self, first: &Applied, before: &HashSet<Move>) -> Option<(usize, Applied)> {
        let touched = first.touched();
        let flow = self.st.flow();
        let mut seconds: Vec<Move> = self
            .st
            .candidate_moves()
            .into_iter()
            .filter(|mv| !before.contains(mv) && mv.anchors().any(|id| touched.contains(&id)))
            .collect();
        if touched.iter().any(|&id| flow.contains(id) && has_duplicate_sibling(flow, id)) {
            seconds.push(Move::MergeDuplicates);
        }
        for mv in seconds {
            if self.out_of_time() {
                return None;
            }
            let step = self.proposed as usize;
            let Some(applied) = self.propose(&mv) else { continue };
            if self.pays(first.delta + applied.delta) {
                return Some((step, applied));
            }
            self.st.undo(applied);
        }
        None
    }

    /// Applies `mv`, logging the proposal while the log has room. `None`
    /// when the move is illegal (the state is unchanged).
    fn propose(&mut self, mv: &Move) -> Option<Applied> {
        if self.log.len() < LOG_CAP {
            let describe = self.st.describe(mv);
            self.log.push(MoveRecord { step: self.log.len(), describe, delta: None, accepted: false });
        }
        let step = self.proposed as usize;
        self.proposed += 1;
        let applied = self.st.apply(mv).ok()?;
        if let Some(record) = self.log.get_mut(step) {
            record.delta = Some(applied.delta);
        }
        Some(applied)
    }

    /// Counts the move proposed at `step` as kept: marks its log entry and
    /// records it on the flight recorder, so a post-hoc drain shows *when*
    /// the search moved, interleaved with engine and WAL events.
    fn keep(&mut self, step: usize, delta: f64) {
        self.accepted += 1;
        if let Some(record) = self.log.get_mut(step) {
            record.accepted = true;
        }
        quarry_obs::flight::recorder().record(
            quarry_obs::flight::EventKind::OptimizerMove,
            "descent",
            0,
            step as i64,
            (delta / self.scale * 1000.0) as i64,
        );
    }

    fn pays(&self, delta: f64) -> bool {
        delta < -MIN_GAIN_SHARE * self.scale
    }

    /// The deadline check is amortized: an `Instant::now()` per proposal
    /// would cost more than many of the incremental move evaluations it
    /// guards.
    fn out_of_time(&self) -> bool {
        self.proposed.is_multiple_of(16) && Instant::now() >= self.deadline
    }
}

/// Whether another consumer of `id`'s inputs shares its `(merge_key,
/// inputs)`: the condition under which a [`Move::MergeDuplicates`] pass would
/// fold it. Sources never qualify: no move adds or changes one.
fn has_duplicate_sibling(flow: &Flow, id: OpId) -> bool {
    let inputs = flow.inputs_of(id);
    let Some(&producer) = inputs.first() else { return false };
    let key = rules::merge_key(&flow.op(id).kind);
    flow.outputs_of(producer)
        .iter()
        .any(|&other| other != id && flow.inputs_of(other) == inputs && rules::merge_key(&flow.op(other).kind) == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{parse_expr, ColType, Column, JoinKind, OpKind, Schema};

    /// A stacked inner-join spine where the canonical join order is wrong:
    /// the highly selective Spain filter sits on the *outer* build side, so
    /// swapping it inward is a large modeled win the greedy integrator never
    /// takes.
    fn spine() -> (Flow, SourceStats) {
        spine_with_part_filters(0)
    }

    /// [`spine`] with a chain of `filters` selections on its part branch.
    fn spine_with_part_filters(filters: usize) -> (Flow, SourceStats) {
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
        let mut pt = f
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
        for i in 0..filters {
            let predicate = parse_expr(&format!("p_partkey > {i}")).unwrap();
            pt = f.append(pt, format!("SEL_part_{i}"), OpKind::Selection { predicate }).unwrap();
        }
        let sp = f
            .add_op(
                "DS_supplier",
                OpKind::Datastore {
                    datastore: "supplier".into(),
                    schema: Schema::new(vec![
                        Column::new("s_suppkey", ColType::Integer),
                        Column::new("s_name", ColType::Text),
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
    fn annealing_finds_the_join_swap_win() {
        let (flow, stats) = spine();
        let out = search(&flow, &stats, 10_000).unwrap();
        assert!(
            out.cost < out.start_cost * 0.9,
            "the spine swap is worth >10%: start {} best {}",
            out.start_cost,
            out.cost
        );
        assert!(out.accepted > 0 && out.proposed >= out.accepted);
        // The result is a valid flow whose full re-cost matches the claim.
        out.flow.validate().unwrap();
        let recost = RewriteState::new(out.flow.clone(), stats).unwrap().cost();
        assert!((recost - out.cost).abs() <= 1e-9 * recost.abs().max(1.0));
    }

    #[test]
    fn the_search_is_deterministic() {
        let (flow, stats) = spine();
        let a = search(&flow, &stats, 60_000).unwrap();
        let b = search(&flow, &stats, 60_000).unwrap();
        assert_eq!(a.flow, b.flow);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!((a.proposed, a.accepted), (b.proposed, b.accepted));
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn move_log_is_capped() {
        // More proposals than the log keeps.
        let (flow, stats) = spine_with_part_filters(LOG_CAP / 4);
        let out = search(&flow, &stats, 60_000).unwrap();
        assert!(out.proposed as usize > LOG_CAP, "the fixture outgrows the log: {} proposals", out.proposed);
        assert_eq!(out.log.len(), LOG_CAP);
        assert!(out.log.iter().enumerate().all(|(i, r)| r.step == i), "the log is the first proposals, in order");
        assert!(out.log.iter().any(|r| r.accepted), "an explain log without accepted moves explains nothing");
    }

    /// The same pin `optimizer_equivalence.rs` holds for the requirement
    /// families, on this file's fixture.
    #[test]
    fn seeded_search_on_the_spine_is_pinned() {
        let (flow, stats) = spine();
        let out = search(&flow, &stats, 10_000).unwrap();
        assert_eq!((out.proposed, out.accepted), (32, 3));
        // The annealer's pinned cost: the descent reaches the same optimum.
        assert_eq!(out.cost.to_bits(), 0x40d0_1288_3126_e978);
        let xlm = quarry_formats::xlm::to_string(&out.flow);
        let fnv = xlm.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fnv, 0x3848_b885_6696_1a1f);
    }
}
