//! What validating and costing a flow derives per operation, kept current
//! across edits instead of re-derived from the whole flow.
//!
//! [`Flow::validate`] propagates every schema and
//! [`EtlCostModel::cost`] every cardinality and cost part on each call. A
//! flow that only *grows* — operations are added with edges into them, kinds
//! are widened, nothing is rewired or removed, which is all an integration
//! step does — invalidates those facts only at the edited operations and
//! wherever a changed schema or cardinality reaches downstream of them.
//! [`FlowFacts::refresh`] re-derives exactly that region, in dependency
//! order, stopping where values settle; asked about a flow it holds nothing
//! for (or under changed statistics) the same routine derives everything,
//! which is what validating and costing from scratch did.

use crate::cost::{op_cardinality, CardState, EtlCostModel, SourceStats};
use crate::flow::{Flow, FlowError, OpId};
use crate::rewrite::sweep;
use crate::schema::Schema;
use std::collections::HashMap;

/// Per-operation output schema, cardinality state and cost part of one flow
/// under one cost model and one state of the source statistics. A different
/// statistics state or a model of another name is noticed and everything
/// re-derived; a model of the same name that prices differently is not —
/// start from `FlowFacts::default()` when swapping one in.
#[derive(Debug, Clone, Default)]
pub struct FlowFacts {
    schemas: HashMap<OpId, Schema>,
    cards: HashMap<OpId, CardState>,
    /// Empty when the model prices only whole flows
    /// ([`EtlCostModel::op_part`] is `None`).
    costs: HashMap<OpId, f64>,
    /// Longest path from a source: `depth[from] < depth[to]` on every edge,
    /// the order [`sweep`] visits in. An operation never gains an input
    /// after it was added, so a depth never changes.
    depth: HashMap<OpId, u64>,
    /// What the facts were derived under: the model's name and the
    /// statistics' generation, `group_fraction` and `default_rows`. `None`:
    /// nothing derived yet.
    derived_under: Option<(String, u64, u64, u64)>,
    /// Operations the last [`refresh`](Self::refresh) re-derived.
    recomputed: usize,
}

impl FlowFacts {
    /// Brings the facts in line with `flow`, where `touched` lists every
    /// operation added or re-kinded since the last call, producers before
    /// their consumers. Fails like [`Flow::validate`]'s schema propagation
    /// when an operation does not fit its inputs.
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
        let everything;
        let touched = if self.derived_under.as_ref() == Some(&under) {
            touched
        } else {
            *self = FlowFacts { derived_under: Some(under), ..FlowFacts::default() };
            everything = flow.topo_order()?;
            &everything
        };
        let missing = |id: OpId| FlowError::UnknownOp(format!("#{} (no facts derived for it)", id.0));
        for &id in touched {
            if !self.depth.contains_key(&id) {
                let mut depth = 0;
                for input in flow.inputs_of(id) {
                    depth = depth.max(1 + *self.depth.get(input).ok_or_else(|| missing(*input))?);
                }
                self.depth.insert(id, depth);
            }
        }
        self.recomputed = 0;
        let FlowFacts { schemas, cards, costs, depth, recomputed, .. } = self;
        sweep(flow, depth, touched.iter().copied(), true, |id| {
            *recomputed += 1;
            let op = flow.op(id);
            let inputs = flow.inputs_of(id);
            let mut in_schemas = Vec::with_capacity(inputs.len());
            let mut in_cards = Vec::with_capacity(inputs.len());
            for input in inputs {
                in_schemas.push(schemas.get(input).ok_or_else(|| missing(*input))?);
                in_cards.push(*cards.get(input).ok_or_else(|| missing(*input))?);
            }
            let schema = op.kind.output_schema(&op.name, &in_schemas)?;
            let card = op_cardinality(&op.kind, &op.name, &in_cards, stats);
            let in_rows: Vec<f64> = in_cards.iter().map(|c| c.0).collect();
            if let Some(cost) = model.op_part(&op.kind, &in_rows, card.0, schema.len()) {
                costs.insert(id, cost);
            }
            // Consumers read the schema and the cardinality, not the cost.
            let settled = schemas.get(&id) == Some(&schema)
                && cards
                    .get(&id)
                    .is_some_and(|c| (c.0.to_bits(), c.1.to_bits()) == (card.0.to_bits(), card.1.to_bits()));
            schemas.insert(id, schema);
            cards.insert(id, card);
            Ok(!settled)
        })
    }

    /// The flow's cost under `model`: the sum of the maintained parts in
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

    /// The cost part of every operation (empty under a whole-flow model).
    pub fn cost_parts(&self) -> &HashMap<OpId, f64> {
        &self.costs
    }

    /// How many operations the last [`refresh`](Self::refresh) re-derived.
    pub fn recomputed(&self) -> usize {
        self.recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{EstimatedTime, OpCount, TimeWeights};
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

    fn assert_matches_from_scratch(facts: &FlowFacts, f: &Flow, model: &EstimatedTime, stats: &SourceStats) {
        // A clone starts with an empty cardinality memo; the memo does not
        // see writes to the public `group_fraction`/`default_rows`.
        let stats = &stats.clone();
        assert_eq!(facts.schemas(), &f.schemas().unwrap());
        let parts = model.decompose(f, stats).unwrap().unwrap();
        assert_eq!(facts.cost_parts().len(), parts.len());
        for p in &parts {
            assert_eq!(facts.cost_parts()[&p.id].to_bits(), p.cost.to_bits(), "cost part of {}", p.name);
        }
        assert_eq!(facts.cost(f, model, stats).unwrap().to_bits(), model.cost(f, stats).unwrap().to_bits());
    }

    #[test]
    fn first_refresh_derives_everything_and_matches_validate_and_cost() {
        for weights in [TimeWeights::default(), TimeWeights::columnar()] {
            let (f, model, stats) = (flow(), EstimatedTime { weights }, stats());
            let mut facts = FlowFacts::default();
            facts.refresh(&f, &[], &model, &stats).unwrap();
            assert_eq!(facts.recomputed(), f.op_count());
            assert_matches_from_scratch(&facts, &f, &model, &stats);
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
        assert_matches_from_scratch(&facts, &f, &model, &stats);
    }

    #[test]
    fn a_widened_source_reaches_downstream_until_the_schema_settles() {
        let (mut f, model, stats) = (flow(), EstimatedTime { weights: TimeWeights::columnar() }, stats());
        let mut facts = FlowFacts::default();
        facts.refresh(&f, &[], &model, &stats).unwrap();
        let l = f.id_by_name("L").unwrap();
        let OpKind::Datastore { schema, .. } = &mut f.op_mut(l).kind else { panic!("L is a datastore") };
        schema.columns.push(Column::new("l_tax", ColType::Decimal));
        facts.refresh(&f, &[l], &model, &stats).unwrap();
        // L, S and J widen; the aggregation's output does not, so the loader
        // behind it is not visited.
        assert_eq!(facts.recomputed(), 4);
        assert_matches_from_scratch(&facts, &f, &model, &stats);
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
        assert_matches_from_scratch(&facts, &f, &model, &stats);
        stats.group_fraction = 0.5;
        facts.refresh(&f, &[], &model, &stats).unwrap();
        assert_eq!(facts.recomputed(), f.op_count(), "the public knobs count as statistics too");
        assert_matches_from_scratch(&facts, &f, &model, &stats);
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
        // Another model is noticed by name and priced per operation again.
        facts.refresh(&f, &[], &OpCount, &stats).unwrap();
        assert_eq!(facts.recomputed(), f.op_count());
        assert_eq!(facts.cost_parts().len(), f.op_count());
        assert_eq!(facts.cost(&f, &OpCount, &stats).unwrap(), OpCount.cost(&f, &stats).unwrap());
    }
}
