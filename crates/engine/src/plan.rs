//! The physical plan: a flow compiled once, executed any number of times.
//!
//! [`PhysicalPlan::compile`] runs the checks a run needs — schema
//! propagation and a topological order, nothing more, so a dangling output
//! still runs — and fixes what every run of the flow shares, per *position*:
//! level by level (`level(op) = 1 + max(level(inputs))`), a level's pure
//! operations before its loaders, flow order within. With statistics it
//! also derives the run's cost-model facts in one fold over the positions:
//! each node's estimated rows and the modeled cost of its upstream cone.
//! Last it groups sibling aggregations that can share one keyed pass
//! ([`FusedGroup`]); every member keeps its own node, estimates and cache
//! key. [`Engine::execute`](crate::Engine::execute) runs a plan without looking
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

/// Sibling aggregations the engine runs as one keyed pass: they group by
/// the same columns, and each reads `producer`'s rows one for one — its
/// input is `producer` itself or reaches it through derivations and
/// projections only, none of which defines or drops a group column. So every
/// member's input holds the producer's group columns, row for row: the pass
/// hashes each row once and folds every member's measures, evaluated over
/// the member's own input, as lanes of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedGroup {
    /// The position where every member's chain of derivations and
    /// projections ends.
    pub producer: usize,
    /// The members' positions, ascending; at least two.
    pub members: Vec<usize>,
}

/// A flow compiled for execution (see the module docs).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    nodes: Vec<PlanNode>,
    fused: Vec<FusedGroup>,
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
        let fused = fuse(&nodes);
        Ok(PhysicalPlan { nodes, fused, flow_name: flow.name.clone(), flow_fp: flow_fingerprint(flow) })
    }

    /// The nodes in position order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The fused aggregation groups, by their first member's position. An
    /// aggregation in none of them runs as a pass of its own.
    pub fn fused_groups(&self) -> &[FusedGroup] {
        &self.fused
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

/// Groups the aggregations that share one keyed pass ([`FusedGroup`]). From
/// each aggregation's input the walk climbs through projections and through
/// derivations of other columns; a derivation of a group column, or any
/// other kind, ends the chain. (A projection on the way keeps every group
/// column: the aggregation reads them, and nothing between re-creates one.)
/// Aggregations with equal `group_by` whose chains end at the same position
/// share a pass over it.
fn fuse(nodes: &[PlanNode]) -> Vec<FusedGroup> {
    // Per group-by and chain end the aggregations, in position order.
    let mut siblings: HashMap<(&[String], usize), Vec<usize>> = HashMap::new();
    for (pos, node) in nodes.iter().enumerate() {
        let OpKind::Aggregation { group_by, .. } = &node.op.kind else { continue };
        let mut at = node.inputs[0];
        loop {
            match &nodes[at].op.kind {
                OpKind::Derivation { column, .. } if !group_by.contains(column) => {}
                OpKind::Projection { .. } => {}
                _ => break,
            }
            at = nodes[at].inputs[0];
        }
        siblings.entry((group_by.as_slice(), at)).or_default().push(pos);
    }
    let mut groups: Vec<FusedGroup> = (siblings.into_iter())
        .filter(|(_, members)| members.len() > 1)
        .map(|((_, producer), members)| FusedGroup { producer, members })
        .collect();
    groups.sort_by_key(|g| g.members[0]);
    groups
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
    use quarry_etl::{parse_expr, AggSpec, ColType, Column, OpId};

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

    /// The unified flow of the benchmark's demo: eight requirements of the
    /// high-overlap family, greedy or optimized, with the statistics its
    /// lifecycle costs it with.
    fn demo(optimized: bool) -> (Flow, SourceStats) {
        unified(true, optimized)
    }

    /// The unified flow of eight requirements of the high- or low-overlap
    /// family: the demo's flow or the wide one.
    fn unified(high: bool, optimized: bool) -> (Flow, SourceStats) {
        let mut q = quarry::Quarry::tpch();
        let family = if high { quarry_bench::high_overlap_family(8) } else { quarry_bench::requirement_family(8) };
        for r in family {
            q.add_requirement(r).expect("the family integrates");
        }
        if optimized {
            q.optimize().expect("the search runs");
        }
        (q.unified().1.clone(), q.config().stats.clone())
    }

    /// Each fused group as its producer's name and its members' names.
    fn fused_names(plan: &PhysicalPlan) -> Vec<(String, Vec<String>)> {
        let name = |p: usize| plan.nodes()[p].op.name.clone();
        plan.fused_groups().iter().map(|g| (name(g.producer), g.members.iter().map(|&m| name(m)).collect())).collect()
    }

    #[test]
    fn fused_demo_flow_runs_its_eight_aggregations_as_one_pass_over_key_supplier() {
        for optimized in [false, true] {
            let (f, stats) = demo(optimized);
            let plan = PhysicalPlan::compile(&f, Some(&stats)).unwrap();
            let groups = fused_names(&plan);
            assert_eq!(groups.len(), 1, "optimized: {optimized}: {groups:?}");
            let (producer, members) = &groups[0];
            assert_eq!(producer, "KEY_Supplier", "optimized: {optimized}");
            let aggregations: Vec<String> = (plan.nodes().iter())
                .filter(|n| matches!(n.op.kind, OpKind::Aggregation { .. }))
                .map(|n| n.op.name.clone())
                .collect();
            assert_eq!(members, &aggregations, "every aggregation, in position order (optimized: {optimized})");
            assert_eq!(members.len(), 8);
        }
    }

    #[test]
    fn fused_wide_flow_runs_its_two_pairs() {
        for optimized in [false, true] {
            let (f, stats) = unified(false, optimized);
            let groups = fused_names(&PhysicalPlan::compile(&f, Some(&stats)).unwrap());
            let shapes: Vec<(&str, usize)> = groups.iter().map(|(p, m)| (p.as_str(), m.len())).collect();
            assert_eq!(shapes, [("KEY_Supplier", 2), ("KEY_Part", 2)], "optimized: {optimized}: {groups:?}");
        }
    }

    fn agg(group_by: &[&str]) -> OpKind {
        let aggregates = vec![AggSpec::new("SUM", parse_expr("v").unwrap(), "total")];
        OpKind::Aggregation { group_by: group_by.iter().map(|g| g.to_string()).collect(), aggregates }
    }

    fn derive(column: &str, expr: &str) -> OpKind {
        OpKind::Derivation { column: column.into(), expr: parse_expr(expr).unwrap() }
    }

    /// `SRC(k, v)` and two aggregations: `A` over what `a` builds on it,
    /// `B` over what `b` builds; each loaded. Returns the plan's groups.
    fn siblings(
        a: impl FnOnce(&mut Flow, OpId) -> OpId,
        b: impl FnOnce(&mut Flow, OpId) -> OpId,
    ) -> Vec<(String, Vec<String>)> {
        let mut f = Flow::new("siblings");
        let src = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema: src_schema() }).unwrap();
        let outs = [a(&mut f, src), b(&mut f, src)];
        for (name, out) in ["A", "B"].into_iter().zip(outs) {
            f.append(out, format!("LOAD_{name}"), OpKind::Loader { table: name.into(), key: vec![] }).unwrap();
        }
        fused_names(&PhysicalPlan::compile(&f, None).unwrap())
    }

    fn pair(producer: &str) -> Vec<(String, Vec<String>)> {
        vec![(producer.to_string(), vec!["A".to_string(), "B".to_string()])]
    }

    #[test]
    fn fused_only_past_derivations_and_projections_never_a_selection() {
        // Each member derives its own measure straight off the source.
        let measure = |name: &'static str| {
            move |f: &mut Flow, src: OpId| {
                let d = f.append(src, format!("D_{name}"), derive(&format!("m_{name}"), "v * 2")).unwrap();
                f.append(d, name, agg(&["k"])).unwrap()
            }
        };
        assert_eq!(siblings(measure("A"), measure("B")), pair("SRC"));
        // A projection on one way and a bare read on the other still fuse.
        let projected = |f: &mut Flow, src: OpId| {
            let p = f.append(src, "P", OpKind::Projection { columns: vec!["v".into(), "k".into()] }).unwrap();
            f.append(p, "A", agg(&["k"])).unwrap()
        };
        let bare = |f: &mut Flow, src: OpId| f.append(src, "B", agg(&["k"])).unwrap();
        let members = vec!["B".to_string(), "A".to_string()];
        assert_eq!(siblings(projected, bare), [("SRC".to_string(), members)], "members in position order");
        // A selection in one member's chain: its rows are not the source's.
        let selected = |f: &mut Flow, src: OpId| {
            let s = f.append(src, "S", sel("v > 1")).unwrap();
            let d = f.append(s, "D_A", derive("m_A", "v * 2")).unwrap();
            f.append(d, "A", agg(&["k"])).unwrap()
        };
        assert_eq!(siblings(selected, measure("B")), []);
    }

    #[test]
    fn fused_never_over_a_group_column_derived_above_the_producer() {
        // Both group by `g`, each deriving it on its own way up: the chains
        // end at two derivations.
        let own = |name: &'static str| {
            move |f: &mut Flow, src: OpId| {
                let d = f.append(src, format!("G_{name}"), derive("g", "k * 3")).unwrap();
                f.append(d, name, agg(&["g"])).unwrap()
            }
        };
        assert_eq!(siblings(own("A"), own("B")), []);
        // Reading one derivation of `g`, they fuse over it.
        let mut f = Flow::new("shared_g");
        let src = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema: src_schema() }).unwrap();
        let g = f.append(src, "G", derive("g", "k * 3")).unwrap();
        for name in ["A", "B"] {
            let d = f.append(g, format!("D_{name}"), derive(&format!("m_{name}"), "v")).unwrap();
            let a = f.append(d, name, agg(&["g"])).unwrap();
            f.append(a, format!("LOAD_{name}"), OpKind::Loader { table: name.into(), key: vec![] }).unwrap();
        }
        assert_eq!(fused_names(&PhysicalPlan::compile(&f, None).unwrap()), pair("G"));
    }

    #[test]
    fn fused_never_through_a_projection_that_drops_a_group_column() {
        // `A` drops `k` and re-creates it: its rows carry another `k`.
        let dropped = |f: &mut Flow, src: OpId| {
            let p = f.append(src, "P", OpKind::Projection { columns: vec!["v".into()] }).unwrap();
            let d = f.append(p, "K", derive("k", "v * 2")).unwrap();
            f.append(d, "A", agg(&["k"])).unwrap()
        };
        let bare = |f: &mut Flow, src: OpId| f.append(src, "B", agg(&["k"])).unwrap();
        assert_eq!(siblings(dropped, bare), []);
    }

    #[test]
    fn fused_never_across_unequal_group_by() {
        let by = |name: &'static str, group_by: &'static [&'static str]| {
            move |f: &mut Flow, src: OpId| f.append(src, name, agg(group_by)).unwrap()
        };
        assert_eq!(siblings(by("A", &["k"]), by("B", &["k", "v"])), []);
        assert_eq!(siblings(by("A", &["k", "v"]), by("B", &["v", "k"])), [], "the order is the output's layout");
        assert_eq!(siblings(by("A", &[]), by("B", &[])), pair("SRC"), "global aggregations fuse too");
    }

    #[test]
    fn fused_groups_are_identical_across_recompiles() {
        for (f, stats) in [demo(false), demo(true), unified(false, true)] {
            let first = PhysicalPlan::compile(&f, Some(&stats)).unwrap().fused_groups().to_vec();
            assert!(!first.is_empty());
            for _ in 0..10 {
                assert_eq!(PhysicalPlan::compile(&f, Some(&stats)).unwrap().fused_groups(), first);
                assert_eq!(PhysicalPlan::compile(&f, None).unwrap().fused_groups(), first, "statistics play no part");
            }
        }
    }

    /// Fusion adds groups and moves nothing a node held: over every position
    /// of the demo flow, greedy and optimized, the cache keys, cone costs and
    /// estimated rows fold to the values the plan gave before fusion existed.
    #[test]
    fn fused_plans_keep_every_position_key_cost_and_estimate() {
        let folds = |optimized: bool| -> [u64; 3] {
            let (f, stats) = demo(optimized);
            let plan = PhysicalPlan::compile(&f, Some(&stats)).unwrap();
            let keys = plan.cache_keys(1, |source| source.len() as u64);
            let nodes = plan.nodes();
            [
                keys.iter().fold(0, |h, &k| mix(h, k)),
                nodes.iter().fold(0, |h, n| mix(h, n.cone_cost.to_bits())),
                nodes.iter().fold(0, |h, n| mix(h, n.estimated_rows.to_bits())),
            ]
        };
        assert_eq!(
            folds(false),
            [3_571_867_569_331_655_183, 9_355_202_956_469_615_908, 16_388_726_278_503_823_435],
            "greedy: (keys, cone costs, estimates)"
        );
        assert_eq!(
            folds(true),
            [17_595_385_578_762_588_509, 17_998_957_066_008_898_951, 5_817_732_587_727_871_357],
            "optimized: (keys, cone costs, estimates)"
        );
    }
}
