//! The optimizer's rewrite-move engine: semantically-equivalent flow
//! transformations with incremental cost maintenance.
//!
//! A [`RewriteState`] owns a flow together with its schema, cardinality,
//! per-operation cost and live-column maps. Applying a [`Move`] edits the flow
//! under an edit journal, replays the transfer functions over exactly the
//! operations the journal says the move touched (propagation stops as soon as
//! values settle), and returns the cost delta plus an undo record — so a
//! simulated-annealing chain evaluates a move in O(touched ops) however large
//! the flow is, and rejecting a move replays the journal backwards.
//!
//! Every move preserves *bit-identical execution output*, not just relational
//! equivalence: the engine's operators are order-deterministic, and
//! downstream consumers (float aggregation folds, loaders) are sensitive to
//! row order, so each move's legality analysis proves row-order preservation:
//!
//! - [`Move::PushSelection`] / [`Move::HoistSelection`]: filters commute with
//!   order-preserving unary operators; pushing below a union replicates the
//!   filter into both branches (σ(A ∪ B) = σ(A) ∪ σ(B)).
//! - [`Move::SwapJoins`]: reorders a stacked inner-join spine
//!   `(A ⋈ B) ⋈ C  →  (A ⋈ C) ⋈ B`. Output row order is preserved when at
//!   least one build side is unique on its join keys (no interleaving to
//!   collapse, proven via [`unique_on`]); the column-block permutation must
//!   be absorbed downstream ([`schema_order_insensitive`]) before any
//!   order-sensitive sink.
//! - [`Move::AssocJoins`] / [`Move::UnassocJoins`]: re-associate a spine
//!   into a bushy plan and back, `(A ⋈ B) ⋈ C ↔ A ⋈ (B ⋈ C)`, legal when
//!   the key pair linking to C lives entirely on B. Exact without any
//!   uniqueness gate: the engine probes in input order and expands matches
//!   in build-row order, so both shapes emit the literal nested loop
//!   `for a { for b in B(a) { for c in C(b) } } }` — same rows, same
//!   multiplicities, same order — and the output column blocks
//!   `A ++ B ++ C` never permute.
//! - [`Move::PruneColumns`] / [`Move::RemoveProjection`]: width-only
//!   rewrites; the live-column analysis ([`live_columns`]) guarantees pruned
//!   columns never reach a loader, union, or distinct.
//!
//! Deep validity (column collisions, type errors) is enforced by running full
//! schema propagation over the touched region — a move that breaks the flow
//! is rolled back and reported as an error, never committed.

use crate::cost::{cardinality_state, op_cardinality, CardState, EstimatedTime, EtlCostModel, SourceStats};
use crate::flow::{Edit, Flow, FlowError, Journal, OpId, Operation};
use crate::ops::{JoinKind, OpKind};
use crate::rules;
use crate::schema::Schema;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::fmt;

/// One candidate rewrite of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Move a selection one step toward the sources (crossing an
    /// order-preserving unary op, routing into a join branch, or replicating
    /// into both union branches).
    PushSelection { sel: OpId },
    /// Move a selection one step toward the sinks (the inverse of a push;
    /// lets a chain escape the canonical all-the-way-down placement).
    HoistSelection { sel: OpId },
    /// Swap the build sides of a stacked inner-join spine:
    /// `(A ⋈ B) ⋈ C → (A ⋈ C) ⋈ B`, exchanging the two joins' key pairs.
    SwapJoins { upper: OpId },
    /// Rotate a stacked inner-join spine into a bushy plan:
    /// `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`, legal when the upper join's probe keys
    /// live on B. The big lever when B ⋈ C is selective: the wide probe
    /// stream pays one join instead of two.
    AssocJoins { upper: OpId },
    /// Rotate a bushy inner-join pair back into a spine:
    /// `A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C` (the inverse of [`Move::AssocJoins`]),
    /// legal when the outer join's build keys live on B.
    UnassocJoins { upper: OpId },
    /// Insert a projection on the edge `from → to` keeping only the columns
    /// live through `to` (profitable only when the cost model charges for
    /// width).
    PruneColumns { from: OpId, to: OpId },
    /// Remove a projection whose widening is absorbed downstream.
    RemoveProjection { proj: OpId },
    /// Merge duplicate `(merge_key, inputs)` operations (one full dedupe
    /// pass; the re-cost treats the whole flow as touched).
    MergeDuplicates,
}

/// Why a move could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    /// The move's legality analysis rejected it; the state is unchanged.
    Illegal(&'static str),
    /// The mutated flow failed schema validation; the state was rolled back.
    Flow(FlowError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Illegal(why) => write!(f, "illegal move: {why}"),
            RewriteError::Flow(e) => write!(f, "move produced an invalid flow: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<FlowError> for RewriteError {
    fn from(e: FlowError) -> Self {
        RewriteError::Flow(e)
    }
}

type ObsRecord = (Option<f64>, Option<(f64, f64)>);

/// The entries one [`RewriteState::apply`] displaced in a maintained map,
/// oldest first (`None`: the entry did not exist).
type Displaced<T> = Vec<(OpId, Option<T>)>;

/// Writes (`Some`) or drops (`None`) one map entry, remembering what it
/// displaced.
fn put<T>(map: &mut HashMap<OpId, T>, log: &mut Displaced<T>, id: OpId, value: Option<T>) {
    let old = match value {
        Some(v) => map.insert(id, v),
        None => map.remove(&id),
    };
    log.push((id, old));
}

/// Puts displaced entries back, newest first.
fn restore<T>(map: &mut HashMap<OpId, T>, log: Displaced<T>) {
    for (id, old) in log.into_iter().rev() {
        match old {
            Some(v) => map.insert(id, v),
            None => map.remove(&id),
        };
    }
}

/// Everything needed to take back one successful [`RewriteState::apply`]: the
/// flow's edit journal (edges rewired, kinds replaced, operations inserted
/// and removed — replayed backwards it restores the exact prior flow, op
/// order, edge order and ids included), the observations the move dropped or
/// planted, and per maintained map the entries it displaced. Nothing in it is
/// proportional to the flow; it is as large as what the move touched.
pub struct Applied {
    /// Cost change of the move (negative = improvement). Bitwise-consistent
    /// with a full re-cost of the new flow.
    pub delta: f64,
    journal: Journal,
    cost: f64,
    obs_restore: Vec<(String, ObsRecord)>,
    obs_added: Vec<String>,
    schemas: Displaced<Schema>,
    cards: Displaced<CardState>,
    costs: Displaced<f64>,
    live: Displaced<BTreeSet<String>>,
    ranks: Displaced<u64>,
}

/// Spacing of the initial topological ranks: room for ~20 rounds of placing
/// an operation halfway between its neighbours before any rank has to move.
const RANK_GAP: u64 = 1 << 20;

/// A flow under optimization, with everything a move's legality and cost
/// depend on maintained beside it: per operation its output schema,
/// cardinality state, modeled cost, live output columns ([`live_columns`])
/// and a topological rank (`rank[from] < rank[to]` on every edge), plus the
/// total cost. [`apply`](Self::apply) repairs each of them for the operations
/// a move reaches — schemas, cardinalities and ranks downstream of the
/// rewired edges, liveness upstream — in rank order, stopping where values
/// settle, so a proposal costs what it touches however large the flow is.
/// [`RewriteState::new`] on the same flow and statistics rebuilds identical
/// maps from scratch; that equality is what the maintenance is tested
/// against.
#[derive(Clone)]
pub struct RewriteState {
    flow: Flow,
    stats: SourceStats,
    model: EstimatedTime,
    schemas: HashMap<OpId, Schema>,
    cards: HashMap<OpId, CardState>,
    op_costs: HashMap<OpId, f64>,
    live: HashMap<OpId, BTreeSet<String>>,
    ranks: HashMap<OpId, u64>,
    cost: f64,
}

/// Visits `seeds` and every operation a change reaches from them, each once
/// and only after everything it depends on: a downstream sweep pops the
/// lowest rank first and follows consumers, an upstream sweep the highest and
/// follows inputs. `visit` reports whether the operation's value changed;
/// only then are its neighbours in sweep direction visited.
pub(crate) fn sweep(
    flow: &Flow,
    ranks: &HashMap<OpId, u64>,
    seeds: impl IntoIterator<Item = OpId>,
    downstream: bool,
    mut visit: impl FnMut(OpId) -> Result<bool, FlowError>,
) -> Result<(), FlowError> {
    let key = |id: OpId| (if downstream { u64::MAX - ranks[&id] } else { ranks[&id] }, id);
    let mut heap: BinaryHeap<(u64, OpId)> = seeds.into_iter().map(key).collect();
    let mut last = None;
    while let Some((_, id)) = heap.pop() {
        // An operation is queued once per changed neighbour, all of them
        // before its turn, so its duplicates pop back to back.
        if last == Some(id) {
            continue;
        }
        last = Some(id);
        if visit(id)? {
            let next = if downstream { flow.outputs_of(id) } else { flow.inputs_of(id) };
            heap.extend(next.iter().map(|&n| key(n)));
        }
    }
    Ok(())
}

impl RewriteState {
    /// Builds the state with a full initial pass. The flow must be
    /// schema-valid (validity is what lets every later move lean on
    /// incremental propagation for its deep checks).
    pub fn new(flow: Flow, stats: SourceStats, model: EstimatedTime) -> Result<Self, FlowError> {
        let schemas = flow.schemas()?;
        let cards: HashMap<OpId, CardState> = (*cardinality_state(&flow, &stats)?).clone();
        let use_width = model.weights.per_column != 0.0;
        let mut op_costs = HashMap::with_capacity(flow.op_count());
        let mut cost = 0.0;
        for op in flow.ops() {
            let input_rows: Vec<f64> = flow.inputs_of(op.id).iter().map(|i| cards[i].0).collect();
            let out_cols = if use_width { schemas[&op.id].len() } else { 0 };
            let c = model.op_cost(&op.kind, &input_rows, cards[&op.id].0, out_cols);
            op_costs.insert(op.id, c);
            cost += c;
        }
        let live = live_columns(&flow, &schemas);
        let ranks = flow.topo_order()?.into_iter().zip((1..).map(|i| i * RANK_GAP)).collect();
        Ok(RewriteState { flow, stats, model, schemas, cards, op_costs, live, ranks, cost })
    }

    pub fn flow(&self) -> &Flow {
        &self.flow
    }

    pub fn stats(&self) -> &SourceStats {
        &self.stats
    }

    /// Current total modeled cost (maintained incrementally).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Output schema per operation (maintained incrementally).
    pub fn schemas(&self) -> &HashMap<OpId, Schema> {
        &self.schemas
    }

    pub fn into_parts(self) -> (Flow, SourceStats) {
        (self.flow, self.stats)
    }

    /// Total cost recomputed from scratch — the oracle the incremental
    /// maintenance is tested against.
    pub fn full_recost(&self) -> Result<f64, FlowError> {
        self.model.cost(&self.flow, &self.stats)
    }

    /// Rebuilds the state from scratch ([`RewriteState::new`] on a copy of
    /// the flow and statistics) and compares everything maintained against
    /// it: schemas, cardinalities, per-operation costs and live columns
    /// exactly, the running total within rounding (it is a sum of deltas),
    /// and the ranks against the edges. `Err` names the first difference —
    /// the oracle the incremental maintenance is tested against.
    pub fn audit(&self) -> Result<(), String> {
        fn same<T: PartialEq + fmt::Debug>(
            what: &str,
            op: &str,
            have: Option<T>,
            rebuilt: Option<T>,
        ) -> Result<(), String> {
            if have == rebuilt {
                Ok(())
            } else {
                Err(format!("{what} of {op}: {have:?}, rebuilt {rebuilt:?}"))
            }
        }
        let fresh = RewriteState::new(self.flow.clone(), self.stats.clone(), self.model).map_err(|e| e.to_string())?;
        let bits = |c: &CardState| (c.0.to_bits(), c.1.to_bits());
        for op in self.flow.ops() {
            let (id, name) = (&op.id, op.name.as_str());
            same("schema", name, self.schemas.get(id), fresh.schemas.get(id))?;
            same("cardinality bits", name, self.cards.get(id).map(bits), fresh.cards.get(id).map(bits))?;
            same(
                "cost",
                name,
                self.op_costs.get(id).map(|c| c.to_bits()),
                fresh.op_costs.get(id).map(|c| c.to_bits()),
            )?;
            same("live columns", name, self.live.get(id), fresh.live.get(id))?;
        }
        let entries = [self.schemas.len(), self.cards.len(), self.op_costs.len(), self.live.len(), self.ranks.len()];
        if entries != [self.flow.op_count(); 5] {
            return Err(format!("map sizes {entries:?} for {} operations", self.flow.op_count()));
        }
        if (self.cost - fresh.cost).abs() > 1e-9 * fresh.cost.abs().max(1.0) {
            return Err(format!("total cost {}, rebuilt {}", self.cost, fresh.cost));
        }
        match self.flow.edges().iter().find(|(f, t)| self.ranks[f] >= self.ranks[t]) {
            Some((f, t)) => {
                Err(format!("rank of {} is not below its consumer {}", self.flow.op(*f).name, self.flow.op(*t).name))
            }
            None => Ok(()),
        }
    }

    /// A human-readable label for a move (uses current op names).
    pub fn describe(&self, mv: &Move) -> String {
        let name = |id: OpId| if self.flow.contains(id) { self.flow.op(id).name.as_str() } else { "?" };
        match mv {
            Move::PushSelection { sel } => format!("push-selection({})", name(*sel)),
            Move::HoistSelection { sel } => format!("hoist-selection({})", name(*sel)),
            Move::SwapJoins { upper } => format!("swap-joins({})", name(*upper)),
            Move::AssocJoins { upper } => format!("assoc-joins({})", name(*upper)),
            Move::UnassocJoins { upper } => format!("unassoc-joins({})", name(*upper)),
            Move::PruneColumns { from, to } => format!("prune-columns({} -> {})", name(*from), name(*to)),
            Move::RemoveProjection { proj } => format!("remove-projection({})", name(*proj)),
            Move::MergeDuplicates => "merge-duplicates".to_string(),
        }
    }

    /// Enumerates structurally-plausible moves in deterministic order. Deep
    /// legality runs at [`apply`](Self::apply) time; an annealing chain
    /// samples from this list and treats `Illegal` as a skipped proposal.
    pub fn candidate_moves(&self) -> Vec<Move> {
        let is_inner_join = |id: OpId| matches!(self.flow.op(id).kind, OpKind::Join { kind: JoinKind::Inner, .. });
        let mut out = Vec::new();
        for op in self.flow.ops() {
            match &op.kind {
                OpKind::Selection { .. } => {
                    out.push(Move::PushSelection { sel: op.id });
                    out.push(Move::HoistSelection { sel: op.id });
                }
                OpKind::Join { kind: JoinKind::Inner, .. } => {
                    if let [left, right] = *self.flow.inputs_of(op.id) {
                        if is_inner_join(left) {
                            out.push(Move::SwapJoins { upper: op.id });
                            out.push(Move::AssocJoins { upper: op.id });
                        }
                        if is_inner_join(right) {
                            out.push(Move::UnassocJoins { upper: op.id });
                        }
                    }
                }
                OpKind::Projection { .. } => out.push(Move::RemoveProjection { proj: op.id }),
                _ => {}
            }
        }
        if self.model.weights.per_column != 0.0 {
            for &(f, t) in self.flow.edges() {
                if benefits_from_pruning(&self.flow.op(t).kind) {
                    out.push(Move::PruneColumns { from: f, to: t });
                }
            }
        }
        out.push(Move::MergeDuplicates);
        out
    }

    /// Applies a move. On success the maps and cost are updated and an
    /// [`Applied`] record is returned for [`undo`](Self::undo); on failure
    /// the state is left exactly as it was.
    ///
    /// Cost per proposal: the structural edit (a handful of edge-list edits,
    /// each one scan of the flat edge array for the edge's position), then
    /// one transfer-function call per operation whose inputs, schema or
    /// cardinality actually changed. Swaps, re-associations, hoists and
    /// pushes touch the 2–4 operations around the rewired edges and whatever
    /// their changed schema reaches before a projection or aggregation
    /// absorbs it; a prune or projection removal the same from one edge;
    /// [`Move::MergeDuplicates`] is one hashing pass over the flow and, when
    /// it merges, treats every operation as touched.
    pub fn apply(&mut self, mv: &Move) -> Result<Applied, RewriteError> {
        self.precheck(mv)?;
        self.flow.begin_journal();
        let moved = self.apply_structural(mv);
        let journal = self.flow.take_journal();
        if let Err(e) = moved {
            self.flow.revert(journal);
            return Err(e);
        }
        let mut undo = Applied {
            delta: 0.0,
            journal,
            cost: self.cost,
            obs_restore: Vec::new(),
            obs_added: Vec::new(),
            schemas: Vec::new(),
            cards: Vec::new(),
            costs: Vec::new(),
            live: Vec::new(),
            ranks: Vec::new(),
        };
        match self.repair(mv, &mut undo) {
            Ok(delta) => {
                self.cost += delta;
                undo.delta = delta;
                Ok(undo)
            }
            // The mutated flow failed deep validation: roll everything back.
            Err(e) => {
                self.undo(undo);
                Err(RewriteError::Flow(e))
            }
        }
    }

    /// Brings the maintained maps in line with the flow `undo.journal` just
    /// edited, logging every displaced entry into `undo`. Returns the cost
    /// delta; on `Err` the caller undoes whatever was already repaired.
    fn repair(&mut self, mv: &Move, undo: &mut Applied) -> Result<f64, FlowError> {
        // ---- the journal names what the move structurally touched: new
        // operations and operations whose kind or input list changed
        // (`dirty`), and operations whose consumers changed (`fed`, where
        // the liveness repair starts) ----
        let mut dirty: BTreeSet<OpId> = BTreeSet::new();
        let mut fed: Vec<OpId> = Vec::new();
        let mut rekinded: Vec<OpId> = Vec::new();
        let mut added: Vec<OpId> = Vec::new();
        let mut removed: Vec<OpId> = Vec::new();
        for edit in &undo.journal.0 {
            match edit {
                Edit::OpAdded { id } => added.push(*id),
                Edit::OpRemoved { op, .. } => removed.push(op.id),
                Edit::Kind { id, .. } | Edit::Op { old: Operation { id, .. } } => rekinded.push(*id),
                Edit::EdgeInserted { edge, .. } | Edit::EdgeRemoved { edge, .. } => {
                    fed.push(edge.0);
                    dirty.insert(edge.1);
                }
                Edit::EdgeSet { old, new, .. } => {
                    fed.extend([old.0, new.0]);
                    dirty.extend([old.1, new.1]);
                }
            }
        }
        // What a consumer needs from its inputs depends on its kind.
        rekinded.retain(|id| self.flow.contains(*id));
        fed.extend(rekinded.iter().flat_map(|id| self.flow.inputs_of(*id)));
        fed.retain(|id| self.flow.contains(*id));
        dirty.extend(rekinded);
        dirty.extend(added.iter().copied());
        if matches!(mv, Move::MergeDuplicates) {
            // A dedupe pass re-costs the whole flow as touched.
            dirty.extend(self.flow.ops().map(|o| o.id));
        }
        dirty.retain(|id| self.flow.contains(*id));
        removed.sort_unstable();

        // ---- observations: absolutes recorded at the old position no longer
        // describe a structurally-touched op; selections keep their
        // input/output *ratio*, which is position-independent. ----
        for &id in &dirty {
            let op = self.flow.op(id);
            if !matches!(op.kind, OpKind::Selection { .. }) {
                let rec = self.stats.take_observation(&op.name);
                if rec != (None, None) {
                    undo.obs_restore.push((op.name.clone(), rec));
                }
            }
        }
        // A selection replicated into union branches inherits the original's
        // observed ratio (per-branch selectivity under independence).
        if let Move::PushSelection { sel } = mv {
            let replaced = undo.journal.0.iter().find_map(|e| match e {
                Edit::OpRemoved { op, .. } if op.id == *sel => Some(op),
                _ => None,
            });
            if let Some(orig) = replaced {
                if let (OpKind::Selection { predicate }, Some(ratio)) =
                    (&orig.kind, self.stats.observed_selectivity(&orig.name))
                {
                    for &id in &added {
                        let copy = self.flow.op(id);
                        if matches!(&copy.kind, OpKind::Selection { predicate: p } if p == predicate) {
                            self.stats.put_observation(&copy.name, (None, Some((1.0, ratio))));
                            undo.obs_added.push(copy.name.clone());
                        }
                    }
                }
            }
        }

        // ---- drop map entries of removed ops ----
        let mut removed_cost = 0.0;
        for &id in &removed {
            removed_cost += self.op_costs.get(&id).copied().unwrap_or(0.0);
            put(&mut self.schemas, &mut undo.schemas, id, None);
            put(&mut self.cards, &mut undo.cards, id, None);
            put(&mut self.op_costs, &mut undo.costs, id, None);
            put(&mut self.live, &mut undo.live, id, None);
            put(&mut self.ranks, &mut undo.ranks, id, None);
        }

        self.repair_ranks(&dirty, &mut undo.ranks)?;
        let (flow, ranks, stats) = (&self.flow, &self.ranks, &self.stats);

        // ---- schema propagation over the touched region (deep validity) ----
        let mut schema_changed: BTreeSet<OpId> = BTreeSet::new();
        let schemas = &mut self.schemas;
        sweep(flow, ranks, dirty.iter().copied(), true, |id| {
            let in_schemas: Vec<&Schema> = flow.inputs_of(id).iter().map(|i| &schemas[i]).collect();
            let op = flow.op(id);
            let new = op.kind.output_schema(&op.name, &in_schemas)?;
            if schemas.get(&id) == Some(&new) {
                return Ok(false);
            }
            put(schemas, &mut undo.schemas, id, Some(new));
            schema_changed.insert(id);
            Ok(true)
        })?;
        let schemas = &self.schemas;

        // ---- cardinality propagation, stopping where values settle ----
        let mut card_changed: BTreeSet<OpId> = BTreeSet::new();
        let cards = &mut self.cards;
        sweep(flow, ranks, dirty.iter().copied(), true, |id| {
            let in_cards: Vec<CardState> = flow.inputs_of(id).iter().map(|i| cards[i]).collect();
            let op = flow.op(id);
            let new = op_cardinality(&op.kind, &op.name, &in_cards, stats);
            let same =
                cards.get(&id).is_some_and(|o| o.0.to_bits() == new.0.to_bits() && o.1.to_bits() == new.1.to_bits());
            if !same {
                put(cards, &mut undo.cards, id, Some(new));
                card_changed.insert(id);
            }
            Ok(!same)
        })?;
        let cards = &self.cards;

        // ---- liveness: an operation's live columns follow from its own
        // schema and its consumers' kinds and live columns, so the repair
        // runs upstream from wherever one of those changed ----
        let live = &mut self.live;
        let seeds = fed.iter().chain(&schema_changed).copied();
        sweep(flow, ranks, seeds, false, |id| {
            let new = live_of(flow, schemas, live, id);
            let same = live.get(&id) == Some(&new);
            if !same {
                put(live, &mut undo.live, id, Some(new));
            }
            Ok(!same)
        })?;

        // ---- incremental re-cost: touched ops, plus any op whose inputs'
        // cardinalities moved. Ascending id order fixes the rounding of the
        // float sum. ----
        let mut recost: BTreeSet<OpId> = dirty;
        recost.extend(schema_changed.iter().copied());
        for &id in &card_changed {
            recost.insert(id);
            recost.extend(flow.outputs_of(id));
        }
        let use_width = self.model.weights.per_column != 0.0;
        let mut delta = -removed_cost;
        for &id in &recost {
            let input_rows: Vec<f64> = flow.inputs_of(id).iter().map(|i| cards[i].0).collect();
            let out_cols = if use_width { schemas[&id].len() } else { 0 };
            let new_cost = self.model.op_cost(&flow.op(id).kind, &input_rows, cards[&id].0, out_cols);
            let old = self.op_costs.get(&id).copied();
            delta += new_cost - old.unwrap_or(0.0);
            if old != Some(new_cost) {
                put(&mut self.op_costs, &mut undo.costs, id, Some(new_cost));
            }
        }
        Ok(delta)
    }

    /// Re-establishes `rank[from] < rank[to]` on the in-edges of `dirty`
    /// (new operations and operations whose inputs were rewired). An
    /// operation that sits too low moves halfway between its highest input
    /// and its lowest consumer; only when that gap is used up does it jump a
    /// whole [`RANK_GAP`] and push its consumers up in turn.
    fn repair_ranks(&mut self, dirty: &BTreeSet<OpId>, log: &mut Displaced<u64>) -> Result<(), FlowError> {
        let mut queue: VecDeque<OpId> = dirty.iter().copied().collect();
        // On a DAG every operation is raised at most once per operation
        // upstream of it; running out means the move closed a cycle.
        let mut raises_left = (self.flow.op_count() + 1).pow(2);
        while let Some(id) = queue.pop_front() {
            let ranks = &self.ranks;
            // Inputs not ranked yet are new and still queued; ranking them
            // re-checks this operation.
            let floor = self.flow.inputs_of(id).iter().filter_map(|i| ranks.get(i)).max().copied();
            if ranks.get(&id).is_some_and(|r| floor.is_none_or(|f| *r > f)) {
                continue;
            }
            raises_left = raises_left.checked_sub(1).ok_or(FlowError::Cycle)?;
            let floor = floor.unwrap_or(0);
            let ceiling = self.flow.outputs_of(id).iter().filter_map(|o| ranks.get(o)).min().copied();
            let rank = match ceiling {
                Some(ceiling) if ceiling > floor + 1 => floor + (ceiling - floor) / 2,
                _ => floor + RANK_GAP,
            };
            put(&mut self.ranks, log, id, Some(rank));
            if ceiling.is_some_and(|c| c <= rank) {
                queue.extend(self.flow.outputs_of(id));
            }
        }
        Ok(())
    }

    /// Restores the state captured by a successful [`apply`](Self::apply).
    ///
    /// Undos compose newest-first: after moves `a, b, c`, undoing `c`, `b`,
    /// `a` in that order restores the state before `a` exactly — flow (op
    /// ids, op order, edge order), statistics, cost bits and every maintained
    /// map. Each token restores what its move displaced from the state that
    /// move saw, so it must be undone while the state is again that state.
    pub fn undo(&mut self, undo: Applied) {
        self.flow.revert(undo.journal);
        self.cost = undo.cost;
        for (name, rec) in undo.obs_restore {
            self.stats.put_observation(&name, rec);
        }
        for name in undo.obs_added {
            let _ = self.stats.take_observation(&name);
        }
        restore(&mut self.schemas, undo.schemas);
        restore(&mut self.cards, undo.cards);
        restore(&mut self.op_costs, undo.costs);
        restore(&mut self.live, undo.live);
        restore(&mut self.ranks, undo.ranks);
    }

    /// Cheap existence/kind checks that must run before the flow is edited
    /// (stale ids would otherwise panic in `Flow::op`).
    fn precheck(&self, mv: &Move) -> Result<(), RewriteError> {
        let want = |id: OpId| if self.flow.contains(id) { Ok(()) } else { Err(RewriteError::Illegal("unknown op")) };
        match mv {
            Move::PushSelection { sel } | Move::HoistSelection { sel } => {
                want(*sel)?;
                if !matches!(self.flow.op(*sel).kind, OpKind::Selection { .. }) {
                    return Err(RewriteError::Illegal("not a selection"));
                }
            }
            Move::SwapJoins { upper } | Move::AssocJoins { upper } | Move::UnassocJoins { upper } => want(*upper)?,
            Move::PruneColumns { from, to } => {
                want(*from)?;
                want(*to)?;
                if !self.flow.inputs_of(*to).contains(from) {
                    return Err(RewriteError::Illegal("edge gone"));
                }
            }
            Move::RemoveProjection { proj } => {
                want(*proj)?;
                if !matches!(self.flow.op(*proj).kind, OpKind::Projection { .. }) {
                    return Err(RewriteError::Illegal("not a projection"));
                }
            }
            Move::MergeDuplicates => {}
        }
        Ok(())
    }

    /// Edits the flow (under the journal [`apply`](Self::apply) opened). On
    /// `Err` the caller reverts the journal.
    fn apply_structural(&mut self, mv: &Move) -> Result<(), RewriteError> {
        match mv {
            Move::PushSelection { sel } => {
                if rules::push_selection_with(&mut self.flow, *sel, Some(&self.schemas))? {
                    Ok(())
                } else {
                    Err(RewriteError::Illegal("selection cannot move down"))
                }
            }
            Move::HoistSelection { sel } => self.hoist_selection(*sel),
            Move::SwapJoins { upper } => self.swap_joins(*upper),
            Move::AssocJoins { upper } => self.assoc_joins(*upper),
            Move::UnassocJoins { upper } => self.unassoc_joins(*upper),
            Move::PruneColumns { from, to } => self.prune_columns(*from, *to),
            Move::RemoveProjection { proj } => self.remove_projection(*proj),
            Move::MergeDuplicates => {
                if rules::dedupe(&mut self.flow) == 0 {
                    Err(RewriteError::Illegal("no duplicates"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Rewires edges in place. Every `(old, new)` pair names a distinct
    /// existing edge (its first copy); all are located before any is
    /// rewritten, so one pair's result is never mistaken for another's
    /// pattern, and each input slot keeps its place in the edge list.
    fn rewire<const N: usize>(&mut self, pairs: [((OpId, OpId), (OpId, OpId)); N]) {
        let at = pairs.map(|((from, to), _)| self.flow.edge_pos(from, to).expect("the edge was read off this flow"));
        for (pos, (_, new)) in at.into_iter().zip(pairs) {
            self.flow.set_edge(pos, new);
        }
    }

    /// The key lists of `id` if it is an inner join.
    fn inner_join_keys(&self, id: OpId, not_a_join: &'static str) -> Result<(Vec<String>, Vec<String>), RewriteError> {
        match &self.flow.op(id).kind {
            OpKind::Join { kind: JoinKind::Inner, left_on, right_on } => Ok((left_on.clone(), right_on.clone())),
            OpKind::Join { .. } => Err(RewriteError::Illegal("outer joins do not reorder")),
            _ => Err(RewriteError::Illegal(not_a_join)),
        }
    }

    fn hoist_selection(&mut self, sel: OpId) -> Result<(), RewriteError> {
        let &[consumer] = self.flow.outputs_of(sel) else {
            return Err(RewriteError::Illegal("selection output is shared"));
        };
        let ckind = &self.flow.op(consumer).kind;
        if ckind.arity() != 1 || ckind.is_sink() {
            return Err(RewriteError::Illegal("consumer is not a unary operator"));
        }
        let pred_cols: Vec<String> = match &self.flow.op(sel).kind {
            OpKind::Selection { predicate } => predicate.columns().into_iter().collect(),
            _ => unreachable!("precheck verified the kind"),
        };
        // Same commute condition as pushing down across `consumer`; whether
        // the predicate's columns still exist above it is left to schema
        // propagation (which rolls back on failure).
        if !rules::selection_moves_above(ckind, &pred_cols) {
            return Err(RewriteError::Illegal("filter does not commute with consumer"));
        }
        let input = self.flow.inputs_of(sel)[0];
        // `input → sel → consumer → …` becomes `input → consumer → sel → …`:
        // the consumer takes over sel's input slot, sel takes over the
        // consumer's output slots, and the new `consumer → sel` edge goes
        // last.
        let sel_in = self.flow.edge_pos(input, sel).expect("sel's input edge exists");
        self.flow.remove_edge(sel_in);
        self.rewire([((sel, consumer), (input, consumer))]);
        for pos in 0..self.flow.edge_count() {
            let (f, t) = self.flow.edges()[pos];
            if f == consumer {
                self.flow.set_edge(pos, (sel, t));
            }
        }
        self.flow.insert_edge(self.flow.edge_count(), (consumer, sel));
        Ok(())
    }

    fn swap_joins(&mut self, upper: OpId) -> Result<(), RewriteError> {
        let (u_lo, u_ro) = self.inner_join_keys(upper, "not a join")?;
        let &[j1, c] = self.flow.inputs_of(upper) else { return Err(RewriteError::Illegal("join arity")) };
        let (l_lo, l_ro) = self.inner_join_keys(j1, "left input is not a join")?;
        if self.flow.outputs_of(j1).len() != 1 {
            return Err(RewriteError::Illegal("lower join output is shared"));
        }
        let &[a, b] = self.flow.inputs_of(j1) else { return Err(RewriteError::Illegal("join arity")) };
        // The upper join's probe keys must come from A — otherwise A ⋈ C has
        // no key to join on.
        let a_schema = &self.schemas[&a];
        if !u_lo.iter().all(|k| a_schema.has(k)) {
            return Err(RewriteError::Illegal("upper probe keys come from the lower build side"));
        }
        // Bit-identity: with both builds keyed uniquely-or-not, the nested
        // match expansion `for b in B(a) for c in C(a)` only commutes with
        // `for c in C(a) for b in B(a)` when one of the two match lists has
        // at most one element per probe row.
        if !unique_on(&self.flow, &self.schemas, &self.stats, b, &l_ro)
            && !unique_on(&self.flow, &self.schemas, &self.stats, c, &u_ro)
        {
            return Err(RewriteError::Illegal("neither build side is unique on its keys"));
        }
        // The output column *order* changes (B's block and C's block swap);
        // some downstream op must absorb that before any order-sensitive
        // sink.
        if !schema_order_insensitive(&self.flow, upper) {
            return Err(RewriteError::Illegal("column order reaches an order-sensitive sink"));
        }
        self.rewire([((b, j1), (c, j1)), ((c, upper), (b, upper))]);
        // The key pairs travel with the build sides.
        self.flow.set_kind(j1, OpKind::Join { kind: JoinKind::Inner, left_on: u_lo, right_on: u_ro });
        self.flow.set_kind(upper, OpKind::Join { kind: JoinKind::Inner, left_on: l_lo, right_on: l_ro });
        Ok(())
    }

    /// `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`. Requires the upper probe keys to live
    /// on B — the exact case [`Self::swap_joins`] must reject. Bag-exact and
    /// order-exact with no further gate: both shapes emit the nested loop
    /// `for a { for b in B(a) { for c in C(b) } }` in the same order, and the
    /// output column blocks stay `A ++ B ++ C`.
    fn assoc_joins(&mut self, upper: OpId) -> Result<(), RewriteError> {
        let (u_lo, u_ro) = self.inner_join_keys(upper, "not a join")?;
        let &[j1, c] = self.flow.inputs_of(upper) else { return Err(RewriteError::Illegal("join arity")) };
        let (l_lo, l_ro) = self.inner_join_keys(j1, "left input is not a join")?;
        if self.flow.outputs_of(j1).len() != 1 {
            return Err(RewriteError::Illegal("lower join output is shared"));
        }
        let &[a, b] = self.flow.inputs_of(j1) else { return Err(RewriteError::Illegal("join arity")) };
        if a == b || a == c || b == c {
            return Err(RewriteError::Illegal("join inputs are not distinct"));
        }
        // The C key pair must link to B alone, so it can travel below A.
        let b_schema = &self.schemas[&b];
        if !u_lo.iter().all(|k| b_schema.has(k)) {
            return Err(RewriteError::Illegal("upper probe keys are not build-resident"));
        }
        // In-place positional rewiring: each op's input slots keep their
        // place in the edge list, so assoc → unassoc restores the flow
        // exactly (edge order included).
        self.rewire([((a, j1), (b, j1)), ((b, j1), (c, j1)), ((j1, upper), (a, upper)), ((c, upper), (j1, upper))]);
        // j1 becomes B ⋈ C (the bushy build), upper becomes A ⋈ j1.
        self.flow.set_kind(j1, OpKind::Join { kind: JoinKind::Inner, left_on: u_lo, right_on: u_ro });
        self.flow.set_kind(upper, OpKind::Join { kind: JoinKind::Inner, left_on: l_lo, right_on: l_ro });
        Ok(())
    }

    /// `A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C` — the exact inverse of
    /// [`Self::assoc_joins`], with the mirrored legality condition: the
    /// outer build keys must live on B.
    fn unassoc_joins(&mut self, upper: OpId) -> Result<(), RewriteError> {
        let (u_lo, u_ro) = self.inner_join_keys(upper, "not a join")?;
        let &[a, mid] = self.flow.inputs_of(upper) else { return Err(RewriteError::Illegal("join arity")) };
        let (m_lo, m_ro) = self.inner_join_keys(mid, "build input is not a join")?;
        if self.flow.outputs_of(mid).len() != 1 {
            return Err(RewriteError::Illegal("build join output is shared"));
        }
        let &[b, c] = self.flow.inputs_of(mid) else { return Err(RewriteError::Illegal("join arity")) };
        if a == b || a == c || b == c {
            return Err(RewriteError::Illegal("join inputs are not distinct"));
        }
        // A must link to B alone for A ⋈ B to be joinable before C arrives.
        let b_schema = &self.schemas[&b];
        if !u_ro.iter().all(|k| b_schema.has(k)) {
            return Err(RewriteError::Illegal("outer build keys are not probe-resident"));
        }
        // Mirror of [`Self::assoc_joins`]'s positional rewiring.
        self.rewire([
            ((b, mid), (a, mid)),
            ((c, mid), (b, mid)),
            ((a, upper), (mid, upper)),
            ((mid, upper), (c, upper)),
        ]);
        // mid becomes A ⋈ B (the new spine bottom), upper becomes mid ⋈ C.
        self.flow.set_kind(mid, OpKind::Join { kind: JoinKind::Inner, left_on: u_lo, right_on: u_ro });
        self.flow.set_kind(upper, OpKind::Join { kind: JoinKind::Inner, left_on: m_lo, right_on: m_ro });
        Ok(())
    }

    fn prune_columns(&mut self, from: OpId, to: OpId) -> Result<(), RewriteError> {
        if self.model.weights.per_column == 0.0 {
            return Err(RewriteError::Illegal("width is free under this cost model"));
        }
        if !benefits_from_pruning(&self.flow.op(to).kind) {
            return Err(RewriteError::Illegal("consumer does not benefit from pruning"));
        }
        let pos = self.flow.inputs_of(to).iter().position(|&i| i == from).ok_or(RewriteError::Illegal("edge gone"))?;
        let needed = needed_input(&self.flow, &self.schemas, to, pos, &self.live[&to]);
        let from_schema = &self.schemas[&from];
        let cols: Vec<String> = from_schema.names().filter(|n| needed.contains(*n)).map(str::to_string).collect();
        if cols.len() >= from_schema.len() {
            return Err(RewriteError::Illegal("nothing to prune"));
        }
        let name = rules::unique_op_name(&self.flow, &format!("PROJECT_prune_{}", self.flow.op(to).name));
        let proj = self.flow.add_op(name, OpKind::Projection { columns: cols })?;
        // The pruned columns feed `to` and everything past it; the satisfier
        // set therefore mirrors the consumer's.
        self.flow.op_mut(proj).satisfies = self.flow.op(to).satisfies.clone();
        rules::splice_on_edge(&mut self.flow, proj, from, to);
        Ok(())
    }

    fn remove_projection(&mut self, proj: OpId) -> Result<(), RewriteError> {
        if self.flow.inputs_of(proj).len() != 1 {
            return Err(RewriteError::Illegal("projection arity"));
        }
        if !absorbs_widening(&self.flow, proj) {
            return Err(RewriteError::Illegal("widened columns reach a width-sensitive sink"));
        }
        self.flow.remove_bridging(proj);
        Ok(())
    }
}

/// Whether a narrower input makes `consumer` cheaper under a width-aware
/// cost model (the consumers [`Move::PruneColumns`] targets).
fn benefits_from_pruning(consumer: &OpKind) -> bool {
    matches!(
        consumer,
        OpKind::Join { .. }
            | OpKind::Selection { .. }
            | OpKind::Sort { .. }
            | OpKind::Derivation { .. }
            | OpKind::SurrogateKey { .. }
    )
}

/// Whether `op`'s output is provably unique on `cols` (at most one row per
/// distinct `cols` value). Conservative: `false` means "unknown". Sources
/// answer from the keys declared in [`SourceStats`]; aggregations are unique
/// on their group-by; joins preserve left-side uniqueness when the build is
/// unique on its keys.
pub fn unique_on(flow: &Flow, schemas: &HashMap<OpId, Schema>, stats: &SourceStats, op: OpId, cols: &[String]) -> bool {
    if cols.is_empty() {
        return false;
    }
    let o = flow.op(op);
    let unary_input = || flow.inputs_of(op).first().copied();
    match &o.kind {
        OpKind::Datastore { datastore, .. } => stats.datastore_unique_on(datastore, cols),
        OpKind::Aggregation { group_by, .. } => group_by.is_empty() || group_by.iter().all(|g| cols.contains(g)),
        // Row subsets and reorderings preserve uniqueness.
        OpKind::Selection { .. } | OpKind::Sort { .. } | OpKind::Distinct | OpKind::Loader { .. } => {
            unary_input().is_some_and(|i| unique_on(flow, schemas, stats, i, cols))
        }
        // Columns surviving a projection exist upstream unchanged.
        OpKind::Projection { .. } | OpKind::Extraction { .. } => {
            unary_input().is_some_and(|i| unique_on(flow, schemas, stats, i, cols))
        }
        OpKind::Derivation { column, .. } => {
            let base: Vec<String> = cols.iter().filter(|c| *c != column).cloned().collect();
            !base.is_empty() && unary_input().is_some_and(|i| unique_on(flow, schemas, stats, i, &base))
        }
        OpKind::SurrogateKey { natural, output } => {
            let base: Vec<String> = cols.iter().filter(|c| *c != output).cloned().collect();
            if !base.is_empty() && unary_input().is_some_and(|i| unique_on(flow, schemas, stats, i, &base)) {
                return true;
            }
            // The surrogate determines the natural key, so uniqueness on the
            // natural key transfers to the surrogate.
            cols.iter().any(|c| c == output)
                && unary_input().is_some_and(|i| unique_on(flow, schemas, stats, i, natural))
        }
        OpKind::Join { right_on, .. } => {
            let &[l, r] = flow.inputs_of(op) else { return false };
            // Each left row appears at most once (build unique on its keys),
            // and the left side is unique on the left-resident part of
            // `cols`.
            let lschema = &schemas[&l];
            let lcols: Vec<String> = cols.iter().filter(|c| lschema.has(c)).cloned().collect();
            unique_on(flow, schemas, stats, r, right_on)
                && !lcols.is_empty()
                && unique_on(flow, schemas, stats, l, &lcols)
        }
        OpKind::Union => false,
    }
}

/// Whether a permutation of `op`'s output *column order* (same column set,
/// same rows) is invisible in every final output: each downstream path must
/// hit an operation that fixes column order from its own spec (projection,
/// extraction, aggregation) before reaching a loader or union.
pub fn schema_order_insensitive(flow: &Flow, op: OpId) -> bool {
    flow.outputs_of(op).iter().all(|&c| match &flow.op(c).kind {
        // These emit columns in their own declared order.
        OpKind::Projection { .. } | OpKind::Extraction { .. } | OpKind::Aggregation { .. } => true,
        // A loader writes its input schema verbatim; a union compares
        // schemas exactly.
        OpKind::Loader { .. } | OpKind::Union => false,
        // Everything else passes the (permuted) order through. A distinct's
        // row set and order are unchanged under a consistent column
        // permutation, so it passes through too.
        _ => schema_order_insensitive(flow, c),
    })
}

/// Whether *extra* input columns appearing at `op`'s position would be
/// invisible in every final output (the legality condition for removing a
/// projection): each downstream path must drop or ignore them before a
/// loader, union, or distinct. Name collisions introduced by widening are
/// caught separately by schema propagation.
pub fn absorbs_widening(flow: &Flow, op: OpId) -> bool {
    flow.outputs_of(op).iter().all(|&c| match &flow.op(c).kind {
        OpKind::Projection { .. } | OpKind::Extraction { .. } | OpKind::Aggregation { .. } => true,
        // Extra columns change a loader's output, a union's schema check,
        // and a distinct's row-equality relation.
        OpKind::Loader { .. } | OpKind::Union | OpKind::Distinct => false,
        _ => absorbs_widening(flow, c),
    })
}

/// For every operation, the set of its output columns that are *live*: they
/// feed some final output (loader) or some computation on the way. Computed
/// by a backward pass of `live_of`.
pub fn live_columns(flow: &Flow, schemas: &HashMap<OpId, Schema>) -> HashMap<OpId, BTreeSet<String>> {
    let order = flow.topo_order().expect("state flows are acyclic");
    let mut live = HashMap::with_capacity(order.len());
    for &id in order.iter().rev() {
        let columns = live_of(flow, schemas, &live, id);
        live.insert(id, columns);
    }
    live
}

/// The live output columns of `id`, given those of its consumers: what each
/// consumer needs from the input slot `id` fills ([`needed_input`]), and for
/// a sink its whole schema (loaders, unions and distincts pin their full
/// input — their semantics depend on every column).
fn live_of(
    flow: &Flow,
    schemas: &HashMap<OpId, Schema>,
    live: &HashMap<OpId, BTreeSet<String>>,
    id: OpId,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if flow.op(id).kind.is_sink() {
        out.extend(schemas[&id].names().map(str::to_string));
    }
    // (A consumer fed twice by `id` is visited twice; the union is idempotent.)
    for &consumer in flow.outputs_of(id) {
        for (pos, &input) in flow.inputs_of(consumer).iter().enumerate() {
            if input == id {
                out.extend(needed_input(flow, schemas, consumer, pos, &live[&consumer]));
            }
        }
    }
    out
}

/// The columns operation `of`'s input at position `pos` must provide, given
/// that `out_live` of its own output columns are needed downstream.
fn needed_input(
    flow: &Flow,
    schemas: &HashMap<OpId, Schema>,
    of: OpId,
    pos: usize,
    out_live: &BTreeSet<String>,
) -> BTreeSet<String> {
    let op = flow.op(of);
    let input_id = flow.inputs_of(of)[pos];
    let in_schema = &schemas[&input_id];
    let full = || in_schema.names().map(str::to_string).collect::<BTreeSet<String>>();
    match &op.kind {
        // A loader stores every input column; a union's branches must agree
        // exactly; a distinct's row equality reads the full row.
        OpKind::Loader { .. } | OpKind::Union | OpKind::Distinct => full(),
        // These reference exactly their spec (schema validity requires the
        // full spec present even if downstream needs less).
        OpKind::Projection { columns } | OpKind::Extraction { columns } => columns.iter().cloned().collect(),
        OpKind::Aggregation { .. } => op.kind.reads().into_iter().collect(),
        OpKind::Join { left_on, right_on, .. } => {
            let keys = if pos == 0 { left_on } else { right_on };
            let mut out: BTreeSet<String> = keys.iter().cloned().collect();
            out.extend(in_schema.names().filter(|n| out_live.contains(*n)).map(str::to_string));
            out
        }
        OpKind::Selection { .. } | OpKind::Sort { .. } => {
            let mut out: BTreeSet<String> = op.kind.reads().into_iter().collect();
            out.extend(out_live.iter().cloned());
            out
        }
        OpKind::Derivation { column, .. } => {
            let mut out: BTreeSet<String> = op.kind.reads().into_iter().collect();
            out.extend(out_live.iter().filter(|c| *c != column).cloned());
            out
        }
        OpKind::SurrogateKey { natural, output } => {
            let mut out: BTreeSet<String> = natural.iter().cloned().collect();
            out.extend(out_live.iter().filter(|c| *c != output).cloned());
            out
        }
        OpKind::Datastore { .. } => unreachable!("sources have no inputs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;
    use crate::ops::{AggSpec, JoinKind};
    use crate::schema::{ColType, Column};

    fn ds(name: &str, cols: &[(&str, ColType)]) -> OpKind {
        OpKind::Datastore {
            datastore: name.into(),
            schema: Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect()),
        }
    }

    /// partsupp ⋈ part ⋈ supplier(σ) → aggregation → loader: the E7-shaped
    /// spine the swap move targets.
    fn spine_flow() -> Flow {
        let mut f = Flow::new("spine");
        let ps = f
            .add_op(
                "DS_partsupp",
                ds(
                    "partsupp",
                    &[
                        ("ps_partkey", ColType::Integer),
                        ("ps_suppkey", ColType::Integer),
                        ("ps_availqty", ColType::Integer),
                    ],
                ),
            )
            .unwrap();
        let part =
            f.add_op("DS_part", ds("part", &[("p_partkey", ColType::Integer), ("p_name", ColType::Text)])).unwrap();
        let supp = f
            .add_op("DS_supplier", ds("supplier", &[("s_suppkey", ColType::Integer), ("s_nation", ColType::Text)]))
            .unwrap();
        let sel = f
            .append(supp, "SEL_nation", OpKind::Selection { predicate: parse_expr("s_nation = 'Spain'").unwrap() })
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
        f.connect(part, j1).unwrap();
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
                "AGG_qty",
                OpKind::Aggregation {
                    group_by: vec!["p_name".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("ps_availqty").unwrap(), "qty")],
                },
            )
            .unwrap();
        f.append(agg, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        f
    }

    fn spine_stats() -> SourceStats {
        SourceStats::new()
            .with_table("partsupp", 8000.0)
            .with_table("part", 2000.0)
            .with_table("supplier", 100.0)
            .with_unique("part", &["p_partkey"])
            .with_unique("supplier", &["s_suppkey"])
    }

    fn state(flow: Flow, stats: SourceStats) -> RewriteState {
        RewriteState::new(flow, stats, EstimatedTime { weights: crate::cost::TimeWeights::columnar() }).unwrap()
    }

    #[test]
    fn swap_joins_moves_selective_build_first_and_costs_stay_consistent() {
        let mut st = state(spine_flow(), spine_stats());
        let before = st.cost();
        let upper = st.flow().id_by_name("JOIN_supp").unwrap();
        let applied = st.apply(&Move::SwapJoins { upper }).unwrap();
        // The selective supplier build now feeds the lower join; joining it
        // first shrinks the probe stream of the second join.
        assert!(applied.delta < 0.0, "swap should be profitable, delta = {}", applied.delta);
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
        let j1 = st.flow().id_by_name("JOIN_part").unwrap();
        let j1_inputs = st.flow().inputs_of(j1);
        assert_eq!(st.flow().op(j1_inputs[1]).name, "SEL_nation");
        // Key pairs traveled with the build sides.
        match &st.flow().op(j1).kind {
            OpKind::Join { left_on, right_on, .. } => {
                assert_eq!(left_on, &["ps_suppkey".to_string()]);
                assert_eq!(right_on, &["s_suppkey".to_string()]);
            }
            other => panic!("expected join, got {other:?}"),
        }
        st.flow().validate().unwrap();
        assert_eq!(before + applied.delta, st.cost());
    }

    #[test]
    fn swap_joins_undo_restores_everything() {
        let mut st = state(spine_flow(), spine_stats());
        let reference = st.clone();
        let upper = st.flow().id_by_name("JOIN_supp").unwrap();
        let applied = st.apply(&Move::SwapJoins { upper }).unwrap();
        st.undo(applied);
        assert_eq!(st.flow(), reference.flow());
        assert_eq!(st.cost().to_bits(), reference.cost().to_bits());
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
    }

    #[test]
    fn swap_joins_requires_a_unique_build_side() {
        let f = spine_flow();
        // Stacking both joins is fine, but with no declared keys neither
        // build side is provably unique.
        let stats =
            SourceStats::new().with_table("partsupp", 8000.0).with_table("part", 2000.0).with_table("supplier", 100.0);
        let upper = f.id_by_name("JOIN_supp").unwrap();
        let mut st = state(f, stats);
        assert!(matches!(
            st.apply(&Move::SwapJoins { upper }),
            Err(RewriteError::Illegal("neither build side is unique on its keys"))
        ));
    }

    /// lineitem ⋈ supplier ⋈ σ(nation), where the nation join probes on
    /// `s_nationkey` — a column produced by the lower join's *build* side.
    /// Swap cannot touch this shape; assoc is the move that pays here.
    fn nation_spine_flow() -> Flow {
        let mut f = Flow::new("nation_spine");
        let li = f
            .add_op("DS_lineitem", ds("lineitem", &[("l_suppkey", ColType::Integer), ("l_quantity", ColType::Integer)]))
            .unwrap();
        let supp = f
            .add_op(
                "DS_supplier",
                ds("supplier", &[("s_suppkey", ColType::Integer), ("s_nationkey", ColType::Integer)]),
            )
            .unwrap();
        let nat = f
            .add_op("DS_nation", ds("nation", &[("n_nationkey", ColType::Integer), ("n_name", ColType::Text)]))
            .unwrap();
        let sel = f
            .append(nat, "SEL_nation", OpKind::Selection { predicate: parse_expr("n_name = 'Spain'").unwrap() })
            .unwrap();
        let j1 = f
            .add_op(
                "JOIN_supp",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["l_suppkey".into()],
                    right_on: vec!["s_suppkey".into()],
                },
            )
            .unwrap();
        f.connect(li, j1).unwrap();
        f.connect(supp, j1).unwrap();
        let j2 = f
            .add_op(
                "JOIN_nation",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["s_nationkey".into()],
                    right_on: vec!["n_nationkey".into()],
                },
            )
            .unwrap();
        f.connect(j1, j2).unwrap();
        f.connect(sel, j2).unwrap();
        let agg = f
            .append(
                j2,
                "AGG_qty",
                OpKind::Aggregation {
                    group_by: vec!["s_suppkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_quantity").unwrap(), "qty")],
                },
            )
            .unwrap();
        f.append(agg, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        f
    }

    fn nation_spine_stats() -> SourceStats {
        SourceStats::new()
            .with_table("lineitem", 60000.0)
            .with_table("supplier", 400.0)
            .with_table("nation", 25.0)
            .with_unique("supplier", &["s_suppkey"])
            .with_unique("nation", &["n_nationkey"])
    }

    #[test]
    fn assoc_joins_builds_a_bushy_plan_and_costs_stay_consistent() {
        let mut st = state(nation_spine_flow(), nation_spine_stats());
        let before = st.cost();
        let upper = st.flow().id_by_name("JOIN_nation").unwrap();
        // The spine shape is out of swap's reach...
        assert!(matches!(
            st.apply(&Move::SwapJoins { upper }),
            Err(RewriteError::Illegal("upper probe keys come from the lower build side"))
        ));
        // ...but assoc collapses supplier ⋈ nation into a build before the
        // wide lineitem stream probes anything.
        let applied = st.apply(&Move::AssocJoins { upper }).unwrap();
        assert!(applied.delta < 0.0, "bushy build should be profitable, delta = {}", applied.delta);
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
        assert_eq!(before + applied.delta, st.cost());
        st.flow().validate().unwrap();
        let j1 = st.flow().id_by_name("JOIN_supp").unwrap();
        let names = |ids: &[OpId]| -> Vec<String> { ids.iter().map(|&i| st.flow().op(i).name.clone()).collect() };
        assert_eq!(names(st.flow().inputs_of(upper)), ["DS_lineitem", "JOIN_supp"]);
        assert_eq!(names(st.flow().inputs_of(j1)), ["DS_supplier", "SEL_nation"]);
        // The key pairs traveled: the bushy build joins supplier to nation,
        // the outer join keeps the lineitem ⋈ supplier pair.
        match &st.flow().op(j1).kind {
            OpKind::Join { left_on, right_on, .. } => {
                assert_eq!(left_on, &["s_nationkey".to_string()]);
                assert_eq!(right_on, &["n_nationkey".to_string()]);
            }
            other => panic!("expected join, got {other:?}"),
        }
        match &st.flow().op(upper).kind {
            OpKind::Join { left_on, right_on, .. } => {
                assert_eq!(left_on, &["l_suppkey".to_string()]);
                assert_eq!(right_on, &["s_suppkey".to_string()]);
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn assoc_then_unassoc_roundtrips() {
        let mut st = state(nation_spine_flow(), nation_spine_stats());
        let reference = st.clone();
        let upper = st.flow().id_by_name("JOIN_nation").unwrap();
        let assoc = st.apply(&Move::AssocJoins { upper }).unwrap();
        let unassoc = st.apply(&Move::UnassocJoins { upper }).unwrap();
        assert_eq!(st.flow(), reference.flow());
        assert!((assoc.delta + unassoc.delta).abs() < 1e-9 * st.cost().abs().max(1.0));
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
    }

    #[test]
    fn assoc_joins_undo_restores_everything() {
        let mut st = state(nation_spine_flow(), nation_spine_stats());
        let reference = st.clone();
        let upper = st.flow().id_by_name("JOIN_nation").unwrap();
        let applied = st.apply(&Move::AssocJoins { upper }).unwrap();
        st.undo(applied);
        assert_eq!(st.flow(), reference.flow());
        assert_eq!(st.cost().to_bits(), reference.cost().to_bits());
    }

    #[test]
    fn assoc_joins_rejects_probe_resident_keys() {
        // In the partsupp spine the upper join probes on `ps_suppkey`, a
        // probe-side column: associating would orphan the key.
        let mut st = state(spine_flow(), spine_stats());
        let upper = st.flow().id_by_name("JOIN_supp").unwrap();
        assert!(matches!(
            st.apply(&Move::AssocJoins { upper }),
            Err(RewriteError::Illegal("upper probe keys are not build-resident"))
        ));
    }

    #[test]
    fn swap_joins_rejects_when_order_reaches_a_loader() {
        let mut f = spine_flow();
        // Remove the aggregation: the permuted column order would reach the
        // loader and change the stored table.
        let agg = f.id_by_name("AGG_qty").unwrap();
        f.remove_bridging(agg);
        // Loader key empty; schema of loader input is join output now.
        let upper = f.id_by_name("JOIN_supp").unwrap();
        let mut st = state(f, spine_stats());
        assert!(matches!(
            st.apply(&Move::SwapJoins { upper }),
            Err(RewriteError::Illegal("column order reaches an order-sensitive sink"))
        ));
    }

    #[test]
    fn hoist_then_push_roundtrips() {
        let mut f = Flow::new("hp");
        let l = f
            .add_op("DS", ds("lineitem", &[("l_orderkey", ColType::Integer), ("l_discount", ColType::Decimal)]))
            .unwrap();
        let sel =
            f.append(l, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        let srt = f.append(sel, "SORT", OpKind::Sort { columns: vec!["l_orderkey".into()] }).unwrap();
        f.append(srt, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let mut st = state(f, SourceStats::new().with_table("lineitem", 1000.0));
        let reference = st.flow().clone();
        let applied = st.apply(&Move::HoistSelection { sel }).unwrap();
        // Selection now sits above the sort.
        let sort_id = st.flow().id_by_name("SORT").unwrap();
        assert_eq!(st.flow().outputs_of(sort_id), vec![sel]);
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
        st.undo(applied);
        assert_eq!(st.flow(), &reference);
        // Pushing from the hoisted position returns to the original shape.
        st.apply(&Move::HoistSelection { sel }).unwrap();
        st.apply(&Move::PushSelection { sel }).unwrap();
        assert_eq!(st.flow(), &reference);
    }

    #[test]
    fn hoist_across_aggregation_requires_group_by_columns() {
        let mut f = Flow::new("ha");
        let l = f
            .add_op("DS", ds("lineitem", &[("l_orderkey", ColType::Integer), ("l_discount", ColType::Decimal)]))
            .unwrap();
        let sel =
            f.append(l, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        let agg = f
            .append(
                sel,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("COUNT", crate::expr::Expr::Int(1), "n")],
                },
            )
            .unwrap();
        f.append(agg, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let mut st = state(f, SourceStats::new().with_table("lineitem", 1000.0));
        // l_discount is aggregated away: hoisting the filter above the
        // aggregation is not legal.
        assert!(st.apply(&Move::HoistSelection { sel }).is_err());
    }

    #[test]
    fn prune_and_remove_projection_roundtrip() {
        let st = state(spine_flow(), spine_stats());
        let ps = st.flow().id_by_name("DS_partsupp").unwrap();
        let j1 = st.flow().id_by_name("JOIN_part").unwrap();
        // partsupp carries no column the aggregation doesn't need here
        // (ps_partkey/ps_suppkey are join keys, ps_availqty is aggregated);
        // prune the part side instead: p_name is needed, p_partkey is the
        // key — nothing prunable either. Widen part with a dead column.
        let mut f = st.flow().clone();
        let part = f.id_by_name("DS_part").unwrap();
        if let OpKind::Datastore { schema, .. } = &mut f.op_mut(part).kind {
            schema.columns.push(Column::new("p_comment", ColType::Text));
        }
        let mut st = state(f, spine_stats());
        let before = st.cost();
        let applied = st.apply(&Move::PruneColumns { from: part, to: j1 }).unwrap();
        assert!(applied.delta < 0.0, "dropping a dead column must pay, delta = {}", applied.delta);
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
        st.flow().validate().unwrap();
        let proj = st
            .flow()
            .ops()
            .find(|o| matches!(o.kind, OpKind::Projection { .. }))
            .map(|o| o.id)
            .expect("prune inserted a projection");
        match &st.flow().op(proj).kind {
            OpKind::Projection { columns } => {
                assert!(!columns.contains(&"p_comment".to_string()), "dead column pruned");
                assert!(columns.contains(&"p_partkey".to_string()), "join key kept");
                assert!(columns.contains(&"p_name".to_string()), "group-by column kept");
            }
            _ => unreachable!(),
        }
        // Removing the projection restores the original cost.
        let removed = st.apply(&Move::RemoveProjection { proj }).unwrap();
        assert!((removed.delta + applied.delta).abs() < 1e-9);
        assert!((st.cost() - before).abs() < 1e-9 * before.abs().max(1.0));
        let _ = ps;
    }

    #[test]
    fn remove_projection_blocked_before_a_loader() {
        let mut f = Flow::new("rp");
        let l = f
            .add_op("DS", ds("lineitem", &[("l_orderkey", ColType::Integer), ("l_discount", ColType::Decimal)]))
            .unwrap();
        let proj = f.append(l, "PROJ", OpKind::Projection { columns: vec!["l_orderkey".into()] }).unwrap();
        f.append(proj, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let mut st = state(f, SourceStats::new().with_table("lineitem", 1000.0));
        // Removing it would widen the loaded table: blocked.
        assert!(st.apply(&Move::RemoveProjection { proj }).is_err());
    }

    #[test]
    fn live_columns_traces_needs_through_joins_and_aggregations() {
        let f = spine_flow();
        let schemas = f.schemas().unwrap();
        let live = live_columns(&f, &schemas);
        let ps = f.id_by_name("DS_partsupp").unwrap();
        let part = f.id_by_name("DS_part").unwrap();
        assert!(live[&ps].contains("ps_partkey"), "join key live");
        assert!(live[&ps].contains("ps_availqty"), "aggregated column live");
        assert!(live[&part].contains("p_name"), "group-by column live");
        let j2 = f.id_by_name("JOIN_supp").unwrap();
        assert!(!live[&j2].contains("s_nation") || live[&j2].contains("s_nation"), "s_nation only filters upstream");
        let agg = f.id_by_name("AGG_qty").unwrap();
        // Everything a loader stores is live.
        assert_eq!(live[&agg].len(), schemas[&agg].len());
    }

    #[test]
    fn unique_on_reasons_through_the_operator_algebra() {
        let f = spine_flow();
        let schemas = f.schemas().unwrap();
        let stats = spine_stats();
        let part = f.id_by_name("DS_part").unwrap();
        let sel = f.id_by_name("SEL_nation").unwrap();
        let agg = f.id_by_name("AGG_qty").unwrap();
        assert!(unique_on(&f, &schemas, &stats, part, &["p_partkey".into()]));
        assert!(!unique_on(&f, &schemas, &stats, part, &["p_name".into()]));
        // A filter preserves uniqueness.
        assert!(unique_on(&f, &schemas, &stats, sel, &["s_suppkey".into()]));
        // An aggregation is unique on its group-by.
        assert!(unique_on(&f, &schemas, &stats, agg, &["p_name".into()]));
        // Superset of a unique key stays unique.
        assert!(unique_on(&f, &schemas, &stats, part, &["p_partkey".into(), "p_name".into()]));
    }

    #[test]
    fn push_selection_keeps_observed_ratio_valid_across_positions() {
        let mut f = Flow::new("obs");
        let l = f
            .add_op("DS", ds("lineitem", &[("l_orderkey", ColType::Integer), ("l_discount", ColType::Decimal)]))
            .unwrap();
        let srt = f.append(l, "SORT", OpKind::Sort { columns: vec!["l_orderkey".into()] }).unwrap();
        let sel =
            f.append(srt, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        f.append(sel, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let mut stats = SourceStats::new().with_table("lineitem", 1000.0);
        stats.observe_op_io("SEL", 1000.0, 120.0);
        let mut st = state(f, stats);
        st.apply(&Move::PushSelection { sel }).unwrap();
        // The ratio survived the move (selection observations are kept), so
        // the estimate still reflects the measured 12% selectivity.
        assert!((st.cost() - st.full_recost().unwrap()).abs() < 1e-9 * st.cost().abs().max(1.0));
        let cards = crate::cost::cardinalities(st.flow(), st.stats()).unwrap();
        assert_eq!(cards[&sel], 120.0);
    }

    #[test]
    fn every_candidate_move_is_delta_consistent_or_cleanly_rejected() {
        let mut st = state(spine_flow(), spine_stats());
        for mv in st.candidate_moves() {
            let reference = st.clone();
            match st.apply(&mv) {
                Ok(applied) => {
                    let full = st.full_recost().unwrap();
                    assert!(
                        (st.cost() - full).abs() < 1e-9 * full.abs().max(1.0),
                        "{}: incremental {} != full {full}",
                        st.describe(&mv),
                        st.cost()
                    );
                    st.flow().validate().unwrap();
                    st.undo(applied);
                }
                Err(RewriteError::Illegal(_)) => {}
                Err(RewriteError::Flow(e)) => panic!("{}: flow error {e}", st.describe(&mv)),
            }
            assert_eq!(st.flow(), reference.flow(), "state restored after {}", st.describe(&mv));
            assert_eq!(st.cost().to_bits(), reference.cost().to_bits());
        }
    }
}
