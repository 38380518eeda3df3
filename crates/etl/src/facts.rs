//! What validating and costing a flow derives per operation, kept current
//! across edits instead of re-derived from the whole flow.
//!
//! [`Flow::validate`] propagates every schema and [`EtlCostModel::cost`]
//! every cardinality and cost part on each call. An edit invalidates those
//! facts only at the operations it added, re-kinded or rewired and wherever
//! a changed schema or cardinality reaches downstream of them; one sweep
//! re-derives exactly that region, in rank order, stopping where values
//! settle. The integrator's steps only grow a flow and name what they
//! touched ([`FlowFacts::refresh`], which derives everything for a flow it
//! holds nothing for or under changed statistics); the optimizer's moves
//! also rewire and remove operations, and log what they displace so a move
//! can be taken back ([`FlowFacts::repair`], [`FlowFacts::undo`]). Whoever
//! needs a whole flow validated and priced once — the compiled plan, a
//! retraction without a kept index, the optimizer's commit check, whose
//! derivation the integrator then keeps — derives it fresh
//! ([`FlowFacts::of`]): one walk in [`Flow::topo_order`] yields the schemas,
//! the estimated rows, the cost parts and the ranks together.

use crate::cost::{cardinality_state, op_cardinality, CardState, EtlCostModel, SourceStats};
use crate::flow::{Flow, FlowError, OpId, Operation};
use crate::schema::Schema;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

/// How far an operation ranked from its inputs alone sits above the highest
/// of them: room for ~20 rounds of placing an operation halfway between its
/// neighbours before any rank has to move.
const RANK_GAP: u64 = 1 << 20;

/// The entries one edit displaced in a kept map, oldest first (`None`: the
/// entry did not exist).
pub(crate) type Displaced<T> = Vec<(OpId, Option<T>)>;

/// Writes (`Some`) or drops (`None`) one map entry, remembering what it
/// displaced.
pub(crate) fn put<T>(map: &mut HashMap<OpId, T>, log: &mut Displaced<T>, id: OpId, value: Option<T>) {
    let old = match value {
        Some(v) => map.insert(id, v),
        None => map.remove(&id),
    };
    log.push((id, old));
}

/// Puts displaced entries back, newest first.
pub(crate) fn restore<T>(map: &mut HashMap<OpId, T>, log: Displaced<T>) {
    for (id, old) in log.into_iter().rev() {
        match old {
            Some(v) => map.insert(id, v),
            None => map.remove(&id),
        };
    }
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

/// One operation's output schema, cardinality state and cost part, from its
/// inputs' schemas and cardinality states.
fn derive_op(
    op: &Operation,
    in_schemas: &[&Schema],
    in_cards: &[CardState],
    model: &dyn EtlCostModel,
    stats: &SourceStats,
) -> Result<(Schema, CardState, Option<f64>), FlowError> {
    let schema = op.kind.output_schema(&op.name, in_schemas)?;
    let card = op_cardinality(&op.kind, &op.name, in_cards, stats);
    let in_rows: Vec<f64> = in_cards.iter().map(|c| c.0).collect();
    let cost = model.op_part(&op.kind, &in_rows, card.0, schema.len());
    Ok((schema, card, cost))
}

/// What one [`FlowFacts::repair`] displaced, per kept map; handed back to
/// [`FlowFacts::undo`]. As large as what the edit touched.
#[derive(Debug, Default)]
pub struct FactsUndo {
    schemas: Displaced<Schema>,
    cards: Displaced<CardState>,
    costs: Displaced<f64>,
    ranks: Displaced<u64>,
}

/// Per-operation output schema, cardinality state, cost part and
/// topological rank of one flow under one cost model and one state of the
/// source statistics. [`refresh`](Self::refresh) notices other statistics
/// or a model of another name.
#[derive(Debug, Clone, Default)]
pub struct FlowFacts {
    schemas: HashMap<OpId, Schema>,
    cards: HashMap<OpId, CardState>,
    /// Empty when the model prices only whole flows
    /// ([`EtlCostModel::op_part`] is `None`).
    costs: HashMap<OpId, f64>,
    /// `rank[from] < rank[to]` on every edge, the order [`sweep`] visits in;
    /// repaired in place where an edit breaks it ([`rerank`](Self::rerank)).
    ranks: HashMap<OpId, u64>,
    /// What the facts were derived under: the model's name and the
    /// statistics' generation, `group_fraction` and `default_rows`. `None`:
    /// nothing derived yet.
    derived_under: Option<(String, u64, u64, u64)>,
    /// Operations the last [`refresh`](Self::refresh) re-derived.
    recomputed: usize,
}

impl FlowFacts {
    /// Derives every fact of `flow` from scratch: validates its schemas
    /// (failing like [`Flow::schemas`], not on dangling outputs) and prices
    /// every operation, in one pass.
    pub fn of(flow: &Flow, model: &dyn EtlCostModel, stats: &SourceStats) -> Result<FlowFacts, FlowError> {
        let mut facts = FlowFacts::default();
        facts.refresh(flow, &[], model, stats)?;
        Ok(facts)
    }

    /// Brings the facts in line with `flow`, where `touched` lists every
    /// operation added or re-kinded since the last call, or derives
    /// everything when they were derived under another model or statistics.
    /// Fails like [`Flow::validate`]'s schema propagation.
    pub fn refresh(
        &mut self,
        flow: &Flow,
        touched: &[OpId],
        model: &dyn EtlCostModel,
        stats: &SourceStats,
    ) -> Result<(), FlowError> {
        let under = (
            model.name().to_string(),
            stats.generation(),
            stats.group_fraction.to_bits(),
            stats.default_rows.to_bits(),
        );
        if self.derived_under.as_ref() != Some(&under) {
            *self = FlowFacts::derive_all(flow, model, stats)?;
            self.derived_under = Some(under);
            return Ok(());
        }
        // Nothing a refresh displaces is ever taken back.
        let mut log = FactsUndo::default();
        self.rerank(flow, touched.iter().copied(), &mut log.ranks)?;
        self.recomputed = self.derive(flow, touched.iter().copied(), model, stats, &mut log)?.len();
        Ok(())
    }

    /// Derives every fact of `flow` in one walk of [`Flow::topo_order`],
    /// each operation after its inputs and ranked [`RANK_GAP`] above the
    /// highest of them (the ranks [`rerank`](Self::rerank) gives a flow it
    /// holds none for). Fails where [`Flow::schemas`] fails, on the same
    /// operation.
    fn derive_all(flow: &Flow, model: &dyn EtlCostModel, stats: &SourceStats) -> Result<FlowFacts, FlowError> {
        let order = flow.topo_order()?;
        let n = order.len();
        let (mut schemas, mut cards) = (HashMap::with_capacity(n), HashMap::with_capacity(n));
        let (mut costs, mut ranks) = (HashMap::with_capacity(n), HashMap::with_capacity(n));
        for &id in &order {
            let inputs = flow.inputs_of(id);
            let in_schemas: Vec<&Schema> = inputs.iter().map(|i| &schemas[i]).collect();
            let in_cards: Vec<CardState> = inputs.iter().map(|i| cards[i]).collect();
            let (schema, card, cost) = derive_op(flow.op(id), &in_schemas, &in_cards, model, stats)?;
            if let Some(part) = cost {
                costs.insert(id, part);
            }
            let rank = inputs.iter().map(|i| ranks[i]).max().unwrap_or(0) + RANK_GAP;
            ranks.insert(id, rank);
            schemas.insert(id, schema);
            cards.insert(id, card);
        }
        Ok(FlowFacts { schemas, cards, costs, ranks, derived_under: None, recomputed: n })
    }

    /// Brings the facts in line with a flow edited in place: `removed`
    /// (ascending ids) left it; `dirty` were added, re-kinded, rewired or had
    /// their observations changed (the statistics' generation is not
    /// consulted). Logs what it displaces into `log`, also on `Err`. Returns
    /// the cost delta — Σ(new − old) of the re-derived parts in ascending id
    /// order, minus the removed parts — and the operations whose schema
    /// changed.
    pub fn repair(
        &mut self,
        flow: &Flow,
        dirty: &BTreeSet<OpId>,
        removed: &[OpId],
        model: &dyn EtlCostModel,
        stats: &SourceStats,
        log: &mut FactsUndo,
    ) -> Result<(f64, Vec<OpId>), FlowError> {
        let mut removed_cost = 0.0;
        for &id in removed {
            removed_cost += self.costs.get(&id).copied().unwrap_or(0.0);
            put(&mut self.schemas, &mut log.schemas, id, None);
            put(&mut self.cards, &mut log.cards, id, None);
            put(&mut self.costs, &mut log.costs, id, None);
            put(&mut self.ranks, &mut log.ranks, id, None);
        }
        self.rerank(flow, dirty.iter().copied(), &mut log.ranks)?;
        let mut visited = self.derive(flow, dirty.iter().copied(), model, stats, log)?;
        // Ascending id order fixes the rounding of the float sum.
        visited.sort_unstable_by_key(|&(id, ..)| id);
        let delta = visited.iter().fold(-removed_cost, |delta, &(_, change, _)| delta + change);
        Ok((delta, visited.into_iter().filter(|&(.., reshaped)| reshaped).map(|(id, ..)| id).collect()))
    }

    /// Takes back one [`repair`](Self::repair). Repairs compose newest-first:
    /// each log restores the facts its repair saw.
    pub fn undo(&mut self, log: FactsUndo) {
        restore(&mut self.schemas, log.schemas);
        restore(&mut self.cards, log.cards);
        restore(&mut self.costs, log.costs);
        restore(&mut self.ranks, log.ranks);
    }

    /// The one derivation: visits `seeds` and whatever a changed schema or
    /// cardinality reaches, each after its inputs, deriving its schema,
    /// cardinality and cost part from theirs. Returns every operation
    /// visited with its cost part's change and whether its schema changed.
    fn derive(
        &mut self,
        flow: &Flow,
        seeds: impl IntoIterator<Item = OpId>,
        model: &dyn EtlCostModel,
        stats: &SourceStats,
        log: &mut FactsUndo,
    ) -> Result<Vec<(OpId, f64, bool)>, FlowError> {
        let missing = |id: OpId| FlowError::UnknownOp(format!("#{} (no facts derived for it)", id.0));
        let bits = |c: &CardState| (c.0.to_bits(), c.1.to_bits());
        let mut visited = Vec::new();
        let FlowFacts { schemas, cards, costs, ranks, .. } = self;
        sweep(flow, ranks, seeds, true, |id| {
            let inputs = flow.inputs_of(id);
            let mut in_schemas = Vec::with_capacity(inputs.len());
            let mut in_cards = Vec::with_capacity(inputs.len());
            for input in inputs {
                in_schemas.push(schemas.get(input).ok_or_else(|| missing(*input))?);
                in_cards.push(*cards.get(input).ok_or_else(|| missing(*input))?);
            }
            let (schema, card, cost) = derive_op(flow.op(id), &in_schemas, &in_cards, model, stats)?;
            let old_cost = costs.get(&id).copied();
            if cost.map(f64::to_bits) != old_cost.map(f64::to_bits) {
                put(costs, &mut log.costs, id, cost);
            }
            // Consumers read the schema and the cardinality, not the cost.
            let new_schema = schemas.get(&id) != Some(&schema);
            visited.push((id, cost.unwrap_or(0.0) - old_cost.unwrap_or(0.0), new_schema));
            if new_schema {
                put(schemas, &mut log.schemas, id, Some(schema));
            }
            let new_card = cards.get(&id).map(bits) != Some(bits(&card));
            if new_card {
                put(cards, &mut log.cards, id, Some(card));
            }
            Ok(new_schema || new_card)
        })?;
        Ok(visited)
    }

    /// Re-establishes `rank[from] < rank[to]` on the in-edges of `dirty`
    /// (new operations and operations whose inputs were rewired). An
    /// operation that sits too low moves halfway between its highest input
    /// and its lowest consumer; only when that gap is used up does it jump a
    /// whole [`RANK_GAP`] and push its consumers up in turn.
    fn rerank(
        &mut self,
        flow: &Flow,
        dirty: impl IntoIterator<Item = OpId>,
        log: &mut Displaced<u64>,
    ) -> Result<(), FlowError> {
        let mut queue: VecDeque<OpId> = dirty.into_iter().collect();
        // On a DAG every operation is raised at most once per operation
        // upstream of it; running out means the edit closed a cycle.
        let mut raises_left = (flow.op_count() + 1).pow(2);
        while let Some(id) = queue.pop_front() {
            let ranks = &self.ranks;
            // Inputs not ranked yet are new and still queued; ranking them
            // re-checks this operation.
            let floor = flow.inputs_of(id).iter().filter_map(|i| ranks.get(i)).max().copied();
            if ranks.get(&id).is_some_and(|r| floor.is_none_or(|f| *r > f)) {
                continue;
            }
            raises_left = raises_left.checked_sub(1).ok_or(FlowError::Cycle)?;
            let floor = floor.unwrap_or(0);
            let ceiling = flow.outputs_of(id).iter().filter_map(|o| ranks.get(o)).min().copied();
            let rank = match ceiling {
                Some(ceiling) if ceiling > floor + 1 => floor + (ceiling - floor) / 2,
                _ => floor + RANK_GAP,
            };
            put(&mut self.ranks, log, id, Some(rank));
            if ceiling.is_some_and(|c| c <= rank) {
                queue.extend(flow.outputs_of(id));
            }
        }
        Ok(())
    }

    /// Drops what is kept for operations that left the flow. What the
    /// others keep stays valid only if they kept their inputs, as the
    /// survivors of a requirement retraction do
    /// ([`Flow::retract_requirement`]).
    pub fn forget(&mut self, gone: impl IntoIterator<Item = OpId>) {
        for id in gone {
            self.schemas.remove(&id);
            self.cards.remove(&id);
            self.costs.remove(&id);
            self.ranks.remove(&id);
        }
    }

    /// The flow's cost under `model`: the sum of the kept parts in
    /// operation order — the additions [`EtlCostModel::cost`] performs, so
    /// the same bits — or the model's own answer when a part is missing
    /// because it prices only whole flows (or there is no operation to ask
    /// it about).
    pub fn cost(&self, flow: &Flow, model: &dyn EtlCostModel, stats: &SourceStats) -> Result<f64, FlowError> {
        let parts = flow.ops().map(|op| self.costs.get(&op.id).copied());
        match parts.sum::<Option<f64>>() {
            Some(total) if flow.op_count() > 0 => Ok(total),
            _ => model.cost(flow, stats),
        }
    }

    /// The output schema of every operation, as [`Flow::schemas`] returns it.
    pub fn schemas(&self) -> &HashMap<OpId, Schema> {
        &self.schemas
    }

    /// The `(rows, retained)` state of every operation, as
    /// [`cardinality_state`] returns it.
    pub fn cards(&self) -> &HashMap<OpId, CardState> {
        &self.cards
    }

    /// The cost part of every operation (empty under a whole-flow model).
    pub fn cost_parts(&self) -> &HashMap<OpId, f64> {
        &self.costs
    }

    pub(crate) fn ranks(&self) -> &HashMap<OpId, u64> {
        &self.ranks
    }

    /// How many operations the last [`refresh`](Self::refresh) re-derived.
    pub fn recomputed(&self) -> usize {
        self.recomputed
    }

    /// The oracle the maintenance is tested against: compares schemas with
    /// [`Flow::schemas`], cardinality bits with [`cardinality_state`],
    /// cost-part bits with [`EtlCostModel::op_part`] over those and with
    /// [`EtlCostModel::decompose`], and [`cost`](Self::cost)'s bits with
    /// [`EtlCostModel::cost`]; checks that no operation outside the flow has
    /// facts and that ranks grow along every edge. `Err` names what differs.
    pub fn audit(&self, flow: &Flow, model: &dyn EtlCostModel, stats: &SourceStats) -> Result<(), String> {
        let text = |e: FlowError| e.to_string();
        let (schemas, cards) = (flow.schemas().map_err(text)?, cardinality_state(flow, stats).map_err(text)?);
        let parts = model.decompose(flow, stats).map_err(text)?.into_iter().flatten();
        let decomposed: HashMap<OpId, u64> = parts.map(|p| (p.id, p.cost.to_bits())).collect();
        let bits = |c: &CardState| (c.0.to_bits(), c.1.to_bits());
        for op in flow.ops() {
            let id = op.id;
            let in_rows: Vec<f64> = flow.inputs_of(id).iter().map(|i| cards[i].0).collect();
            let part = model.op_part(&op.kind, &in_rows, cards[&id].0, schemas[&id].len()).map(f64::to_bits);
            let kept = (self.schemas.get(&id), self.cards.get(&id).map(bits), self.costs.get(&id).map(|c| c.to_bits()));
            let fresh = (schemas.get(&id), cards.get(&id).map(bits), part);
            if kept != fresh || part.is_some_and(|p| decomposed.get(&id).is_some_and(|d| *d != p)) {
                let d = decomposed.get(&id);
                return Err(format!("{}: kept {kept:?}, from scratch {fresh:?}, decomposed part {d:?}", op.name));
            }
        }
        let kept = self.schemas.keys().chain(self.cards.keys()).chain(self.costs.keys()).chain(self.ranks.keys());
        if let Some(id) = kept.copied().find(|id| !flow.contains(*id)) {
            return Err(format!("facts kept for #{}, which is not in the flow", id.0));
        }
        let (kept, fresh) =
            (self.cost(flow, model, stats).map(f64::to_bits), model.cost(flow, stats).map(f64::to_bits));
        if kept != fresh {
            return Err(format!("total cost bits: kept {kept:?}, from scratch {fresh:?}"));
        }
        let rank = |id: &OpId| self.ranks.get(id);
        match flow.edges().iter().find(|(f, t)| rank(f).is_none() || rank(f) >= rank(t)) {
            Some((f, t)) => Err(format!("rank of {} is not below its consumer {}", flow.op(*f).name, flow.op(*t).name)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{EstimatedTime, OpCount};
    use crate::expr::parse_expr;
    use crate::ops::{AggSpec, JoinKind, OpKind};
    use crate::schema::{ColType, Column};

    fn ds(table: &str, cols: &[(&str, ColType)]) -> OpKind {
        OpKind::Datastore {
            datastore: table.into(),
            schema: Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect()),
        }
    }

    /// lineitem ⋈ orders → aggregate → load, lineitem filtered.
    fn flow() -> Flow {
        let mut f = Flow::new("f");
        let l =
            f.add_op("L", ds("lineitem", &[("l_orderkey", ColType::Integer), ("l_price", ColType::Decimal)])).unwrap();
        let s = f.append(l, "S", OpKind::Selection { predicate: parse_expr("l_price > 10").unwrap() }).unwrap();
        let o = f.add_op("O", ds("orders", &[("o_orderkey", ColType::Integer)])).unwrap();
        let j = f
            .add_op(
                "J",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["l_orderkey".into()],
                    right_on: vec!["o_orderkey".into()],
                },
            )
            .unwrap();
        f.connect(s, j).unwrap();
        f.connect(o, j).unwrap();
        let a = f
            .append(
                j,
                "A",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_price").unwrap(), "total")],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        f
    }

    fn stats() -> SourceStats {
        SourceStats::new().with_table("lineitem", 60_000.0).with_table("orders", 15_000.0)
    }

    #[test]
    fn first_refresh_derives_everything_and_matches_validate_and_cost() {
        let (f, model, stats) = (flow(), EstimatedTime::new(), stats());
        let facts = FlowFacts::of(&f, &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), f.op_count());
        facts.audit(&f, &model, &stats).unwrap();
        // Each operation sits a whole gap above its highest input.
        for op in f.ops() {
            let floor = f.inputs_of(op.id).iter().map(|i| facts.ranks()[i]).max().unwrap_or(0);
            assert_eq!(facts.ranks()[&op.id], floor + RANK_GAP, "{}", op.name);
        }
    }

    #[test]
    fn a_new_branch_recomputes_only_itself() {
        let (mut f, model, stats) = (flow(), EstimatedTime::new(), stats());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        let j = f.id_by_name("J").unwrap();
        let p = f.append(j, "P", OpKind::Projection { columns: vec!["l_price".into()] }).unwrap();
        let l2 = f.append(p, "LOAD2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        facts.refresh(&f, &[p, l2], &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), 2);
        facts.audit(&f, &model, &stats).unwrap();
    }

    #[test]
    fn a_widened_source_reaches_downstream_until_the_schema_settles() {
        let (mut f, model, stats) = (flow(), EstimatedTime::new(), stats());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        let l = f.id_by_name("L").unwrap();
        let OpKind::Datastore { schema, .. } = &mut f.op_mut(l).kind else { panic!("L is a datastore") };
        schema.columns.push(Column::new("l_tax", ColType::Decimal));
        facts.refresh(&f, &[l], &model, &stats).unwrap();
        // L, S and J widen; the aggregation's output does not, so the loader
        // behind it is not visited.
        assert_eq!(facts.recomputed(), 4);
        facts.audit(&f, &model, &stats).unwrap();
    }

    #[test]
    fn a_pruned_branch_is_forgotten_and_nothing_else_moves() {
        let (mut f, model, stats) = (flow(), EstimatedTime::new(), stats());
        f.stamp_requirement("IR1");
        let j = f.id_by_name("J").unwrap();
        let p = f.append(j, "P", OpKind::Projection { columns: vec!["l_price".into()] }).unwrap();
        let l2 = f.append(p, "LOAD2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        f.op_mut(p).satisfies.insert("IR2".into());
        f.op_mut(l2).satisfies.insert("IR2".into());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        let retraction = f.retract_requirement("IR2");
        facts.forget(retraction.pruned.iter().map(|o| o.id));
        facts.refresh(&f, &[], &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), 0);
        facts.audit(&f, &model, &stats).unwrap();
    }

    #[test]
    fn changed_statistics_rederive_everything() {
        let (f, model, mut stats) = (flow(), EstimatedTime::new(), stats());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), 0, "same statistics, nothing touched");
        stats.set_table("lineitem", 120_000.0);
        facts.refresh(&f, &[], &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), f.op_count());
        facts.audit(&f, &model, &stats).unwrap();
        stats.group_fraction = 0.5;
        facts.refresh(&f, &[], &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), f.op_count(), "the public knobs count as statistics too");
        facts.audit(&f, &model, &stats).unwrap();
    }

    #[test]
    fn an_operation_that_does_not_fit_its_inputs_is_reported() {
        let (mut f, model, stats) = (flow(), EstimatedTime::new(), stats());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        let j = f.id_by_name("J").unwrap();
        let bad = f.append(j, "BAD", OpKind::Selection { predicate: parse_expr("ghost > 1").unwrap() }).unwrap();
        assert!(matches!(facts.refresh(&f, &[bad], &model, &stats), Err(FlowError::InvalidOp { .. })));
        let lone = f.add_op("LONE", OpKind::Distinct).unwrap();
        assert!(matches!(facts.refresh(&f, &[lone], &model, &stats), Err(FlowError::Arity { .. })));
    }

    #[test]
    fn a_fresh_derivation_names_the_first_bad_operation_like_schemas() {
        let (mut f, model, stats) = (flow(), EstimatedTime::new(), stats());
        let l = f.id_by_name("L").unwrap();
        for name in ["BAD1", "BAD2"] {
            let bad = f.append(l, name, OpKind::Selection { predicate: parse_expr("ghost > 1").unwrap() }).unwrap();
            f.append(bad, format!("LOAD_{name}"), OpKind::Loader { table: name.into(), key: vec![] }).unwrap();
        }
        let named = |e: FlowError| match e {
            FlowError::InvalidOp { op, .. } => op,
            other => panic!("expected an invalid operation, got {other}"),
        };
        assert_eq!(named(f.schemas().unwrap_err()), "BAD1");
        assert_eq!(named(FlowFacts::of(&f, &model, &stats).unwrap_err()), "BAD1");
    }

    #[test]
    fn whole_flow_models_are_asked_for_the_total() {
        struct Holistic;
        impl EtlCostModel for Holistic {
            fn name(&self) -> &str {
                "holistic"
            }
            fn cost(&self, flow: &Flow, _: &SourceStats) -> Result<f64, FlowError> {
                Ok(flow.edge_count() as f64)
            }
        }
        let (f, stats) = (flow(), stats());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &Holistic, &stats).unwrap();
        assert!(facts.cost_parts().is_empty());
        assert_eq!(facts.cost(&f, &Holistic, &stats).unwrap(), f.edge_count() as f64);
        facts.audit(&f, &Holistic, &stats).unwrap();
        // Another model is noticed by name and priced per operation again.
        facts.refresh(&f, &[], &OpCount, &stats).unwrap();
        assert_eq!(facts.recomputed(), f.op_count());
        assert_eq!(facts.cost_parts().len(), f.op_count());
        assert_eq!(facts.cost(&f, &OpCount, &stats).unwrap(), OpCount.cost(&f, &stats).unwrap());
        facts.audit(&f, &OpCount, &stats).unwrap();
    }
}
