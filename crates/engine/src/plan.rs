//! The physical plan: a flow compiled once, executed any number of times.
//!
//! [`PhysicalPlan::compile`] runs the checks a run needs — schema
//! propagation and a topological order, nothing more, so a dangling output
//! still runs — and fixes what every run of the flow shares, per *position*:
//! level by level (`level(op) = 1 + max(level(inputs))`), a level's pure
//! operations before its loaders, flow order within. With statistics it
//! also derives the run's cost-model facts in one fold over the positions:
//! each node's estimated rows and the modeled cost of its upstream cone.
//! [`Engine::execute`](crate::Engine::execute) runs a plan without looking
//! at the flow again; [`Engine::run`](crate::Engine::run) is compile, then
//! execute.

use quarry_etl::cost::{
    flow_fingerprint, op_cardinality, op_fingerprint, CardState, EstimatedTime, SourceStats, TimeWeights,
};
use quarry_etl::{Flow, FlowError, OpId, OpKind, Operation, Schema};
use std::collections::HashMap;

/// One position of a [`PhysicalPlan`].
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub op: Operation,
    /// Producer positions, one per input edge, in edge order; each is
    /// smaller than this node's own position.
    pub inputs: Vec<usize>,
    /// The operation's output schema.
    pub schema: Schema,
    /// A loader whose input rows are proved pairwise distinct on its key:
    /// it reads an aggregation grouped by part of the key, through steps
    /// that keep one row per group.
    pub distinct: bool,
    /// [`op_fingerprint`] of the operation: its canonical signature, names
    /// excluded.
    pub signature: u64,
    /// The cost model's estimated output rows ([`op_cardinality`]; zero when
    /// compiled without statistics).
    pub estimated_rows: f64,
    /// Modeled cost of the upstream cone — the node and everything it
    /// transitively reads, shared work counted once, summed in position
    /// order (zero when compiled without statistics): what a cache hit on
    /// this output saves.
    pub cone_cost: f64,
}

/// A flow compiled for execution (see the module docs).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    nodes: Vec<PlanNode>,
    flow_name: String,
    flow_fp: u64,
}

impl PhysicalPlan {
    /// Compiles `flow`: fails with the error `flow.schemas()` or
    /// `flow.topo_order()` reports, before any data is touched. With `stats`
    /// the estimates and cone costs are the columnar cost model's.
    pub fn compile(flow: &Flow, stats: Option<&SourceStats>) -> Result<PhysicalPlan, FlowError> {
        let mut schemas = flow.schemas()?;
        let mut order = flow.topo_order()?;
        let mut level: HashMap<OpId, usize> = HashMap::with_capacity(order.len());
        for &id in &order {
            level.insert(id, flow.inputs_of(id).iter().map(|i| level[i] + 1).max().unwrap_or(0));
        }
        // Kahn order is level-major already; the stable sort moves each
        // level's loaders behind its pure operations.
        order.sort_by_key(|id| (level[id], flow.op(*id).kind.is_sink()));
        let pos_of: HashMap<OpId, usize> = order.iter().enumerate().map(|(pos, &id)| (id, pos)).collect();
        let mut nodes: Vec<PlanNode> = order
            .iter()
            .map(|&id| {
                let op = flow.op(id);
                PlanNode {
                    inputs: flow.inputs_of(id).iter().map(|i| pos_of[i]).collect(),
                    schema: schemas.remove(&id).expect("every operation has a schema"),
                    distinct: matches!(&op.kind, OpKind::Loader { key, .. } if input_distinct_on(flow, id, key)),
                    signature: op_fingerprint(&op.kind),
                    estimated_rows: 0.0,
                    cone_cost: 0.0,
                    op: op.clone(),
                }
            })
            .collect();
        if let Some(stats) = stats {
            estimate(&mut nodes, stats);
        }
        Ok(PhysicalPlan { nodes, flow_name: flow.name.clone(), flow_fp: flow_fingerprint(flow) })
    }

    /// The nodes in position order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The name of the flow this plan was compiled from.
    pub fn flow_name(&self) -> &str {
        &self.flow_name
    }

    /// The [`flow_fingerprint`] of the flow this plan was compiled from.
    pub fn flow_fingerprint(&self) -> u64 {
        self.flow_fp
    }

    /// Result-cache keys for one run, per position: each node's signature
    /// folded with `flow_epoch`, a source's `source_epoch` and its inputs'
    /// keys in edge order. Equal keys denote the same computation over the
    /// same source state: names never count, a source epoch re-keys exactly
    /// the subflows reading that source, the flow epoch re-keys everything.
    pub fn cache_keys(&self, flow_epoch: u64, source_epoch: impl Fn(&str) -> u64) -> Vec<u64> {
        let mut keys: Vec<u64> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut key = mix(flow_epoch, node.signature);
            if let OpKind::Datastore { datastore, .. } = &node.op.kind {
                key = mix(key, source_epoch(datastore));
            }
            keys.push(node.inputs.iter().fold(key, |key, &i| mix(key, keys[i])));
        }
        keys
    }
}

/// Fills in each node's estimated rows and cone cost under `stats`: one
/// fold of [`op_cardinality`] and the columnar [`EstimatedTime`] part over
/// the positions (every input precedes its consumer), each cone a bit set of
/// positions whose parts are summed in ascending position order, so a plan's
/// costs are a function of the flow and the statistics alone.
fn estimate(nodes: &mut [PlanNode], stats: &SourceStats) {
    let model = EstimatedTime { weights: TimeWeights::columnar() };
    let words = nodes.len().div_ceil(64);
    let mut cards: Vec<CardState> = Vec::with_capacity(nodes.len());
    let mut parts: Vec<f64> = Vec::with_capacity(nodes.len());
    let mut cones: Vec<Vec<u64>> = Vec::with_capacity(nodes.len());
    for (pos, node) in nodes.iter_mut().enumerate() {
        let inputs: Vec<CardState> = node.inputs.iter().map(|&i| cards[i]).collect();
        let card = op_cardinality(&node.op.kind, &node.op.name, &inputs, stats);
        let input_rows: Vec<f64> = inputs.iter().map(|&(rows, _)| rows).collect();
        parts.push(model.op_cost(&node.op.kind, &input_rows, card.0, node.schema.len()));
        let mut cone = vec![0u64; words];
        cone[pos / 64] |= 1 << (pos % 64);
        for &i in &node.inputs {
            cone.iter_mut().zip(&cones[i]).for_each(|(w, c)| *w |= c);
        }
        node.estimated_rows = card.0;
        node.cone_cost = (0..=pos).filter(|&p| cone[p / 64] >> (p % 64) & 1 == 1).map(|p| parts[p]).sum();
        cards.push(card);
        cones.push(cone);
    }
}

/// Folds `x` into `h`: SplitMix64's finalizer over a rotate-multiply-xor of
/// the pair, so every bit of either word and their order move the result.
pub(crate) fn mix(h: u64, x: u64) -> u64 {
    let mut z = h.rotate_left(29).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the flow proves the rows reaching `loader` pairwise distinct on
/// `key`: its input is an `Aggregation` grouping by a non-empty subset of
/// `key` — one row per group, so no two rows agree on every key column —
/// reached directly or through steps that only drop or reorder rows and
/// columns or append new ones. A group column re-created under its old name
/// on the way (`added`) proves nothing.
fn input_distinct_on(flow: &Flow, loader: OpId, key: &[String]) -> bool {
    let mut added: Vec<&String> = Vec::new();
    let mut at = flow.inputs_of(loader)[0];
    loop {
        match &flow.op(at).kind {
            OpKind::Aggregation { group_by, .. } => {
                return !group_by.is_empty() && group_by.iter().all(|g| key.contains(g) && !added.contains(&g));
            }
            OpKind::Derivation { column, .. } | OpKind::SurrogateKey { output: column, .. } => added.push(column),
            OpKind::Extraction { .. } | OpKind::Projection { .. } | OpKind::Selection { .. } | OpKind::Sort { .. } => {}
            _ => return false,
        }
        at = flow.inputs_of(at)[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::cost::{cardinality_state, EtlCostModel};
    use quarry_etl::{parse_expr, AggSpec, ColType, Column};

    fn src_schema() -> Schema {
        Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Decimal)])
    }

    fn sel(predicate: &str) -> OpKind {
        OpKind::Selection { predicate: parse_expr(predicate).unwrap() }
    }

    /// `SRC → SEL → AGG → LOAD_agg (keyed)`, plus `SRC → LOAD_src` and
    /// `SEL → LOAD_sel`.
    fn pipeline() -> Flow {
        let mut f = Flow::new("p");
        let src = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema: src_schema() }).unwrap();
        let s = f.append(src, "SEL", sel("v > 1")).unwrap();
        let aggregates = vec![AggSpec::new("SUM", parse_expr("v").unwrap(), "total")];
        let a = f.append(s, "AGG", OpKind::Aggregation { group_by: vec!["k".into()], aggregates }).unwrap();
        f.append(a, "LOAD_agg", OpKind::Loader { table: "agg".into(), key: vec!["k".into()] }).unwrap();
        f.append(src, "LOAD_src", OpKind::Loader { table: "src".into(), key: vec!["k".into()] }).unwrap();
        f.append(s, "LOAD_sel", OpKind::Loader { table: "sel".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn positions_are_level_major_with_loaders_last_and_carry_what_a_run_needs() {
        let f = pipeline();
        let plan = PhysicalPlan::compile(&f, None).unwrap();
        let names: Vec<&str> = plan.nodes().iter().map(|n| n.op.name.as_str()).collect();
        assert_eq!(names, ["SRC", "SEL", "LOAD_src", "AGG", "LOAD_sel", "LOAD_agg"]);
        let inputs: Vec<&[usize]> = plan.nodes().iter().map(|n| n.inputs.as_slice()).collect();
        assert_eq!(inputs, [&[][..], &[0], &[0], &[1], &[1], &[3]]);
        let schemas = f.schemas().unwrap();
        assert!(plan.nodes().iter().all(|n| n.schema == schemas[&n.op.id]));
        let distinct: Vec<&str> = plan.nodes().iter().filter(|n| n.distinct).map(|n| n.op.name.as_str()).collect();
        assert_eq!(distinct, ["LOAD_agg"], "only the aggregation's loader is proved distinct");
        assert_eq!(plan.flow_fingerprint(), flow_fingerprint(&f));
        assert!(plan.nodes().iter().all(|n| n.cone_cost == 0.0 && n.estimated_rows == 0.0), "no statistics, no costs");
        let costed = PhysicalPlan::compile(&f, Some(&SourceStats::new().with_table("t", 1000.0))).unwrap();
        let cone = |name: &str| costed.nodes().iter().find(|n| n.op.name == name).unwrap().cone_cost;
        assert!(cone("SRC") > 0.0 && cone("AGG") > cone("SEL") && cone("SEL") > cone("SRC"));
    }

    /// `SRC → SEL → AGG → LOAD` under a 60k-row source.
    fn linear() -> (Flow, SourceStats) {
        let mut f = Flow::new("linear");
        let src = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema: src_schema() }).unwrap();
        let s = f.append(src, "SEL", sel("v > 1")).unwrap();
        let aggregates = vec![AggSpec::new("SUM", parse_expr("v").unwrap(), "total")];
        let a = f.append(s, "AGG", OpKind::Aggregation { group_by: vec!["k".into()], aggregates }).unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "agg".into(), key: vec!["k".into()] }).unwrap();
        (f, SourceStats::new().with_table("t", 60_000.0))
    }

    #[test]
    fn estimates_are_the_cost_models_and_cones_cover_the_upstream_once() {
        let (f, stats) = linear();
        let plan = PhysicalPlan::compile(&f, Some(&stats)).unwrap();
        let cards = cardinality_state(&f, &stats).unwrap();
        for node in plan.nodes() {
            assert_eq!(node.estimated_rows.to_bits(), cards[&node.op.id].0.to_bits(), "`{}`", node.op.name);
        }
        let cone = |name: &str| plan.nodes().iter().find(|n| n.op.name == name).unwrap().cone_cost;
        let total = EstimatedTime { weights: TimeWeights::columnar() }.cost(&f, &stats).unwrap();
        assert!((cone("LOAD") - total).abs() <= 1e-9 * total, "the sink's cone is the whole linear flow");
        assert!(cone("SRC") < cone("SEL") && cone("SEL") < cone("AGG") && cone("AGG") < cone("LOAD"), "cones nest");
        // A shared producer counts once in a cone that reaches it twice.
        let f = pipeline();
        let stats = SourceStats::new().with_table("t", 1000.0);
        let plan = PhysicalPlan::compile(&f, Some(&stats)).unwrap();
        let parts: HashMap<&str, f64> = EstimatedTime { weights: TimeWeights::columnar() }
            .decompose(&f, &stats)
            .unwrap()
            .unwrap()
            .into_iter()
            .map(|p| (f.op(p.id).name.as_str(), p.cost))
            .collect();
        let cone = |name: &str| plan.nodes().iter().find(|n| n.op.name == name).unwrap().cone_cost;
        let agg = parts["SRC"] + parts["SEL"] + parts["AGG"];
        assert!((cone("AGG") - agg).abs() <= 1e-9 * agg);
    }

    #[test]
    fn recompiling_gives_bit_identical_cone_costs() {
        // One source fanning into a long chain of derivations and filters,
        // each also loaded: deep cones of parts of many magnitudes, where the
        // summation order shows in the last bits.
        let mut f = Flow::new("deep");
        let mut at = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema: src_schema() }).unwrap();
        for i in 0..48 {
            let kind = if i % 3 == 0 {
                sel(&format!("v > {i}"))
            } else {
                OpKind::Derivation { column: format!("d{i}"), expr: parse_expr(&format!("v * {i}")).unwrap() }
            };
            at = f.append(at, format!("OP{i}"), kind).unwrap();
            f.append(at, format!("LOAD{i}"), OpKind::Loader { table: format!("t{i}"), key: vec![] }).unwrap();
        }
        let stats = SourceStats::new().with_table("t", 123_457.0);
        let bits = || -> Vec<u64> {
            let plan = PhysicalPlan::compile(&f, Some(&stats)).unwrap();
            plan.nodes().iter().map(|n| n.cone_cost.to_bits()).collect()
        };
        let first = bits();
        for _ in 0..20 {
            assert_eq!(bits(), first, "a plan's cone costs are a function of the flow and the statistics");
        }
    }

    #[test]
    fn compile_fails_where_schema_propagation_does_and_nowhere_else() {
        let mut f = pipeline();
        let src = f.id_by_name("SRC").unwrap();
        // An output nobody reads fails `validate`, not the compile.
        f.append(src, "DANGLING", sel("k > 0")).unwrap();
        assert!(f.validate().is_err());
        assert!(PhysicalPlan::compile(&f, None).is_ok());
        f.append(src, "BAD", sel("missing > 0")).unwrap();
        assert_eq!(PhysicalPlan::compile(&f, None).unwrap_err(), f.schemas().unwrap_err());
    }

    #[test]
    fn cache_keys_ignore_names_and_track_epochs() {
        let f = pipeline();
        let plan = PhysicalPlan::compile(&f, None).unwrap();
        let at = |plan: &PhysicalPlan, name: &str| plan.nodes().iter().position(|n| n.op.name == name).unwrap();
        let keys = plan.cache_keys(1, |_| 7);
        assert_eq!(keys.len(), f.op_count());
        assert_eq!(keys, plan.cache_keys(1, |_| 7), "keys are a function of the plan and the epochs");
        // Renaming an op changes nothing: the computation is identical.
        let mut renamed = f.clone();
        renamed.rename_op(renamed.id_by_name("SEL").unwrap(), "SEL_RENAMED").unwrap();
        assert_eq!(PhysicalPlan::compile(&renamed, None).unwrap().cache_keys(1, |_| 7), keys);
        // A flow-epoch bump re-keys everything, a source-epoch bump every
        // subflow reading the source (here: all of them).
        let flow_bumped = plan.cache_keys(2, |_| 7);
        let source_bumped = plan.cache_keys(1, |_| 8);
        for (pos, key) in keys.iter().enumerate() {
            assert_ne!(*key, flow_bumped[pos], "flow epoch folds into position {pos}");
            assert_ne!(*key, source_bumped[pos], "source epoch folds into position {pos}");
        }
        // Changing a predicate re-keys the op and everything downstream, but
        // not the upstream datastore.
        let mut altered = f.clone();
        let sel_id = altered.id_by_name("SEL").unwrap();
        altered.op_mut(sel_id).kind = sel("v > 2");
        let altered = PhysicalPlan::compile(&altered, None).unwrap();
        let altered_keys = altered.cache_keys(1, |_| 7);
        for (name, same) in [("SRC", true), ("SEL", false), ("AGG", false), ("LOAD_agg", false), ("LOAD_src", true)] {
            assert_eq!(keys[at(&plan, name)] == altered_keys[at(&altered, name)], same, "`{name}`");
        }
    }
}
