//! The physical plan: a flow compiled once, executed any number of times.
//!
//! [`PhysicalPlan::compile`] runs the checks a run needs — schema
//! propagation and a topological order, nothing more, so a dangling output
//! still runs — and fixes what every run of the flow shares, per *position*:
//! level by level (`level(op) = 1 + max(level(inputs))`), a level's pure
//! operations before its loaders, flow order within.
//! [`Engine::execute`](crate::Engine::execute) runs a plan without looking
//! at the flow again; [`Engine::run`](crate::Engine::run) is compile, then
//! execute.

use quarry_etl::cost::{flow_fingerprint, op_fingerprint, EstimatedTime, SourceStats, TimeWeights};
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
    /// Modeled cost of the upstream cone (zero when compiled without
    /// statistics): what a cache hit on this output saves.
    pub cone_cost: f64,
}

/// A flow compiled for execution (see the module docs).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    nodes: Vec<PlanNode>,
    flow_fp: u64,
}

impl PhysicalPlan {
    /// Compiles `flow`: fails with the error `flow.schemas()` or
    /// `flow.topo_order()` reports, before any data is touched. With `stats`
    /// the cone costs are the columnar cost model's.
    pub fn compile(flow: &Flow, stats: Option<&SourceStats>) -> Result<PhysicalPlan, FlowError> {
        let mut schemas = flow.schemas()?;
        let mut order = flow.topo_order()?;
        let model = EstimatedTime { weights: TimeWeights::columnar() };
        let cones = stats.map(|stats| model.subtree_costs(flow, stats)).transpose()?;
        let mut level: HashMap<OpId, usize> = HashMap::with_capacity(order.len());
        for &id in &order {
            level.insert(id, flow.inputs_of(id).iter().map(|i| level[i] + 1).max().unwrap_or(0));
        }
        // Kahn order is level-major already; the stable sort moves each
        // level's loaders behind its pure operations.
        order.sort_by_key(|id| (level[id], flow.op(*id).kind.is_sink()));
        let pos_of: HashMap<OpId, usize> = order.iter().enumerate().map(|(pos, &id)| (id, pos)).collect();
        let nodes = order
            .iter()
            .map(|&id| {
                let op = flow.op(id);
                PlanNode {
                    inputs: flow.inputs_of(id).iter().map(|i| pos_of[i]).collect(),
                    schema: schemas.remove(&id).expect("every operation has a schema"),
                    distinct: matches!(&op.kind, OpKind::Loader { key, .. } if input_distinct_on(flow, id, key)),
                    signature: op_fingerprint(&op.kind),
                    cone_cost: cones.as_ref().map_or(0.0, |cones| cones[&id]),
                    op: op.clone(),
                }
            })
            .collect();
        Ok(PhysicalPlan { nodes, flow_fp: flow_fingerprint(flow) })
    }

    /// The nodes in position order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
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
        assert!(plan.nodes().iter().all(|n| n.cone_cost == 0.0), "no statistics, no cone costs");
        let costed = PhysicalPlan::compile(&f, Some(&SourceStats::new().with_table("t", 1000.0))).unwrap();
        let cone = |name: &str| costed.nodes().iter().find(|n| n.op.name == name).unwrap().cone_cost;
        assert!(cone("SRC") > 0.0 && cone("AGG") > cone("SEL") && cone("SEL") > cone("SRC"));
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
