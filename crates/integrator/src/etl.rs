//! The ETL Process Integrator (paper §2.3, CoAl \[5\]): consolidates each new
//! partial flow into the unified flow, maximizing the reuse of existing data
//! and operations.
//!
//! Matching walks both DAGs from the sources: a partial operation matches a
//! unified operation when their *match keys* agree and their inputs matched
//! pairwise (so the matched region is always a prefix of both flows). Match
//! keys are semantic signatures — predicates are compared after
//! normalization, extraction widths are ignored (the unified extraction is
//! *widened* to the union of the columns both sides need, which downstream
//! operations tolerate by construction).

use crate::IntegrateError;
use quarry_engine::pool;
use quarry_etl::cost::{EstimatedTime, EtlCostModel, SourceStats};
use quarry_etl::facts::FlowFacts;
use quarry_etl::rules;
use quarry_etl::{Flow, FlowError, OpId, Operation};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;

/// Options controlling the consolidation.
#[derive(Debug, Clone, Copy)]
pub struct EtlIntegrationOptions {
    /// Apply the generic equivalence rules to both flows before matching
    /// (paper: "aligns the order of ETL operations by applying generic
    /// equivalence rules"). Disable for the E8 ablation.
    pub align_with_rules: bool,
}

impl Default for EtlIntegrationOptions {
    fn default() -> Self {
        EtlIntegrationOptions { align_with_rules: true }
    }
}

/// What the consolidation did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EtlIntegrationReport {
    /// Unified operations reused by the new requirement (matched).
    pub reused_ops: usize,
    /// Operations copied from the partial flow.
    pub added_ops: usize,
    /// Cost of the consolidated flow under the supplied model.
    pub cost: f64,
    /// Matched pairs (partial op name → unified op name).
    pub matched: Vec<(String, String)>,
}

/// The result of one ETL integration step.
#[derive(Debug, Clone)]
pub struct EtlIntegration {
    pub flow: Flow,
    pub report: EtlIntegrationReport,
}

// Semantic matching uses [`rules::merge_key`]: extraction widths and
// datastore schemas are deliberately excluded; the integrator widens the
// surviving extraction to the union of columns.

/// Hash index over a canonical flow: `(merge_key, input ids) → op`, plus the
/// set of op names in use. After common-subflow elimination the key is
/// unique per operation, so matching a partial op is one lookup instead of
/// an O(U) scan that recomputes `merge_key` per candidate. Matched ops keep
/// their key (widening never changes it; see [`rules::merge_key`]) and
/// copied ops are inserted as they land, so the index stays in sync with an
/// incrementally grown flow.
///
/// Beside it sit the flow's per-operation schemas and cost parts
/// ([`FlowFacts`]), which a step refreshes for the operations it copied or
/// widened and whatever those reach, instead of validating and costing the
/// whole flow.
#[derive(Debug, Clone, Default)]
pub struct EtlIndex {
    by_key: HashMap<(String, Vec<OpId>), OpId>,
    names: HashSet<String>,
    facts: FlowFacts,
}

impl EtlIndex {
    /// Builds the index for a flow already in canonical form. If the flow is
    /// not canonical the first op with a given key wins, mirroring the
    /// first-match scan the index replaces.
    pub fn build(flow: &Flow) -> Self {
        let mut by_key = HashMap::with_capacity(flow.op_count());
        for op in flow.ops() {
            by_key.entry((rules::merge_key(&op.kind), flow.inputs_of(op.id).to_vec())).or_insert(op.id);
        }
        EtlIndex { by_key, names: flow.ops().map(|o| o.name.clone()).collect(), facts: FlowFacts::default() }
    }

    /// The schemas and cost parts kept beside the index (nothing before the
    /// first step under it).
    pub fn facts(&self) -> &FlowFacts {
        &self.facts
    }

    /// Drops the entries of the operations a requirement retraction pruned
    /// from `flow` (`pruned` in flow order, so ascending by id) and brings
    /// the facts in line with it. The survivors keep their inputs, so their
    /// keys and facts stand; only statistics that moved since the last step
    /// re-derive anything.
    pub(crate) fn forget(
        &mut self,
        flow: &Flow,
        pruned: &[Operation],
        cost: &dyn EtlCostModel,
        stats: &SourceStats,
    ) -> Result<(), FlowError> {
        if !pruned.is_empty() {
            self.by_key.retain(|_, id| pruned.binary_search_by_key(id, |o| o.id).is_err());
            for op in pruned {
                self.names.remove(&op.name);
            }
            self.facts.forget(pruned.iter().map(|o| o.id));
        }
        self.facts.refresh(flow, &[], cost, stats)
    }

    /// Compares the entries with what [`EtlIndex::build`] derives from
    /// `flow`; `Err` says what differs.
    pub(crate) fn audit(&self, flow: &Flow) -> Result<(), String> {
        let fresh = EtlIndex::build(flow);
        if self.by_key != fresh.by_key {
            return Err(format!("{} keys kept, {} rebuilt, or entries differ", self.by_key.len(), fresh.by_key.len()));
        }
        if self.names != fresh.names {
            let (kept, rebuilt) = (&self.names - &fresh.names, &fresh.names - &self.names);
            return Err(format!("names differ: only kept {kept:?}, only rebuilt {rebuilt:?}"));
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// Per-step match statistics of `consolidate_into`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsolidateOutcome {
    /// Index hits: partial ops matched onto existing unified ops.
    pub hits: u64,
    /// Index misses: partial ops copied into the unified flow.
    pub misses: u64,
}

/// Consolidates a *canonical* `part` into `out` (also canonical), keeping
/// `index` in sync. This is the shared matching core of both the one-shot
/// [`integrate_etl`] and the incremental `ConsolidationState`. Returns the
/// finished report; `out.name` must already be set.
pub(crate) fn consolidate_into(
    out: &mut Flow,
    part: &Flow,
    index: &mut EtlIndex,
    cost: &dyn EtlCostModel,
    stats: &SourceStats,
    outcome: &mut ConsolidateOutcome,
) -> Result<EtlIntegrationReport, IntegrateError> {
    let order = part.topo_order().map_err(|e| IntegrateError::MalformedPartial(e.to_string()))?;

    // partial op → op in `out` (matched or copied).
    let mut image: BTreeMap<OpId, OpId> = BTreeMap::new();
    // Resolved to names only after the loop, so the report carries the
    // unified ops' *final* (post-widening) state.
    let mut matched_pairs: Vec<(String, OpId)> = Vec::new();
    let mut added = 0usize;

    // What the step invalidates in `index.facts`: the operations it widens
    // or copies, producers before consumers like the order it walks in.
    let mut touched: Vec<OpId> = Vec::new();

    for pid in order {
        let pop = part.op(pid);
        let p_inputs = part.inputs_of(pid);
        let p_images: Option<Vec<OpId>> = p_inputs.iter().map(|i| image.get(i).copied()).collect();

        // Loaders merge like any other op (same table, same key, same
        // upstream): shared dimension pipelines must not double-load their
        // tables. Several partial ops may collapse onto one unified op —
        // every operation is deterministic, so identical kind + identical
        // inputs means identical output. Only ops whose entire upstream was
        // matched can be reused; guaranteed by input-image equality, which
        // the index key encodes.
        let candidate =
            p_images.as_ref().and_then(|imgs| index.by_key.get(&(rules::merge_key(&pop.kind), imgs.clone())).copied());

        match candidate {
            Some(uid) => {
                debug_assert_eq!(out.op(uid).kind.arity(), pop.kind.arity());
                image.insert(pid, uid);
                matched_pairs.push((pop.name.clone(), uid));
                outcome.hits += 1;
                // Union satisfier sets and widen extractions/datastores
                // ([`rules::widen_into`]). Widening never changes the merge
                // key, so the index entry stays valid.
                let uop = out.op_mut_journaled(uid);
                uop.satisfies.extend(pop.satisfies.iter().cloned());
                if rules::widen_into(&mut uop.kind, &pop.kind) {
                    touched.push(uid);
                }
            }
            None => {
                // Copy the op, keeping names unique.
                let mut name = pop.name.clone();
                while index.names.contains(&name) {
                    name.push('\'');
                }
                let new_id =
                    out.add_op(name, pop.kind.clone()).map_err(|e| IntegrateError::MalformedPartial(e.to_string()))?;
                out.op_mut(new_id).satisfies = pop.satisfies.clone();
                if let Some(imgs) = &p_images {
                    for input in imgs {
                        out.connect(*input, new_id).map_err(|e| IntegrateError::MalformedPartial(e.to_string()))?;
                    }
                }
                // A miss is exactly the canonical-form dedupe criterion: the
                // copied op's key is new, so inserting it preserves both the
                // invariant and index/flow agreement.
                index.by_key.insert((rules::merge_key(&pop.kind), p_images.unwrap_or_default()), new_id);
                index.names.insert(out.op(new_id).name.clone());
                image.insert(pid, new_id);
                touched.push(new_id);
                added += 1;
                outcome.misses += 1;
            }
        }
    }

    // Validation and costing, for what the step reached (everything, under
    // a fresh index): schemas first, then dangling outputs, like
    // `Flow::validate`.
    let invalid = |e: FlowError| IntegrateError::InvalidResult(vec![e.to_string()]);
    index.facts.refresh(out, &touched, cost, stats).map_err(invalid)?;
    out.check_outputs_consumed().map_err(invalid)?;
    let total_cost = index.facts.cost(out, cost, stats).map_err(invalid)?;
    Ok(EtlIntegrationReport {
        reused_ops: matched_pairs.len(),
        added_ops: added,
        cost: total_cost,
        matched: matched_pairs.into_iter().map(|(p, uid)| (p, out.op(uid).name.clone())).collect(),
    })
}

/// Aligns both flows into canonical form, in parallel on the engine pool
/// (the unified side dominates; the partial normalizes alongside it).
pub(crate) fn canonicalize_pair(out: &mut Flow, part: &mut Flow, align_with_rules: bool) -> Result<(), IntegrateError> {
    let flows = [Mutex::new(out), Mutex::new(part)];
    let results: Vec<Result<usize, FlowError>> = pool::run_indexed(2, |i| {
        let mut flow = flows[i].lock().expect("canonicalize pair lock");
        rules::canonicalize(&mut flow, align_with_rules)
    });
    for r in results {
        r.map_err(|e| IntegrateError::MalformedPartial(e.to_string()))?;
    }
    Ok(())
}

/// Integrates `partial` into `unified`, returning the consolidated flow.
pub fn integrate_etl(
    unified: &Flow,
    partial: &Flow,
    cost: &dyn EtlCostModel,
    stats: &SourceStats,
    options: EtlIntegrationOptions,
) -> Result<EtlIntegration, IntegrateError> {
    let mut out = unified.clone();
    let mut part = partial.clone();
    if out.name.is_empty() {
        out.name = "unified".to_string();
    }
    // Rule alignment orders both flows canonically; common-subflow
    // elimination on both sides follows, since redundancy inside either flow
    // would otherwise alias during matching and duplicate sinks.
    canonicalize_pair(&mut out, &mut part, options.align_with_rules)?;

    let mut index = EtlIndex::build(&out);
    let mut outcome = ConsolidateOutcome::default();
    let report = consolidate_into(&mut out, &part, &mut index, cost, stats, &mut outcome)?;
    Ok(EtlIntegration { flow: out, report })
}

/// Convenience: integrate with the paper's default ETL quality factor
/// (estimated overall execution time).
pub fn integrate_etl_default(
    unified: &Flow,
    partial: &Flow,
    stats: &SourceStats,
) -> Result<EtlIntegration, IntegrateError> {
    integrate_etl(unified, partial, &EstimatedTime::new(), stats, EtlIntegrationOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{parse_expr, AggSpec, ColType, Column, JoinKind, OpKind, Schema};

    fn li_schema(cols: &[(&str, ColType)]) -> Schema {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
    }

    /// lineitem → filter → aggregate → load, parameterized.
    fn pipeline(name: &str, filter: &str, measure: &str, out_table: &str, req: &str) -> Flow {
        let mut f = Flow::new(name);
        let d = f
            .add_op(
                "DATASTORE_Lineitem",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: li_schema(&[
                        ("l_orderkey", ColType::Integer),
                        ("l_extendedprice", ColType::Decimal),
                        ("l_discount", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let e = f
            .append(
                d,
                "EXTRACTION_Lineitem",
                OpKind::Extraction {
                    columns: vec!["l_orderkey".into(), "l_extendedprice".into(), "l_discount".into()],
                },
            )
            .unwrap();
        let s = f.append(e, "SEL", OpKind::Selection { predicate: parse_expr(filter).unwrap() }).unwrap();
        let a = f
            .append(
                s,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr(measure).unwrap(), "m")],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: out_table.into(), key: vec![] }).unwrap();
        f.stamp_requirement(req);
        f
    }

    fn stats() -> SourceStats {
        SourceStats::new().with_table("lineitem", 60_000.0)
    }

    #[test]
    fn identical_pipelines_share_everything_but_the_loader() {
        let a = pipeline("u", "l_discount > 0.05", "l_extendedprice", "t1", "IR1");
        let b = pipeline("p", "l_discount > 0.05", "l_extendedprice", "t2", "IR2");
        let r = integrate_etl_default(&a, &b, &stats()).unwrap();
        assert_eq!(r.report.reused_ops, 4, "{:?}", r.report.matched);
        assert_eq!(r.report.added_ops, 1, "only the loader is new");
        assert_eq!(r.flow.op_count(), a.op_count() + 1);
        // The shared ops now serve both requirements.
        let agg = r.flow.op_by_name("AGG").unwrap();
        assert!(agg.satisfies.contains("IR1") && agg.satisfies.contains("IR2"));
    }

    #[test]
    fn divergence_forks_at_the_right_point() {
        let a = pipeline("u", "l_discount > 0.05", "l_extendedprice", "t1", "IR1");
        let b = pipeline("p", "l_discount > 0.05", "l_extendedprice * (1 - l_discount)", "t2", "IR2");
        let r = integrate_etl_default(&a, &b, &stats()).unwrap();
        // Shared: datastore, extraction, selection. Fork: aggregation, loader.
        assert_eq!(r.report.reused_ops, 3, "{:?}", r.report.matched);
        assert_eq!(r.report.added_ops, 2);
        r.flow.validate().unwrap();
        assert!(r.flow.op_by_name("AGG'").is_some(), "copied op renamed");
    }

    #[test]
    fn different_filters_limit_the_shared_prefix() {
        let a = pipeline("u", "l_discount > 0.05", "l_extendedprice", "t1", "IR1");
        let b = pipeline("p", "l_discount > 0.08", "l_extendedprice", "t2", "IR2");
        // With rule alignment, selections sit right above the datastore in
        // canonical form, so only the scan itself is shared…
        let aligned = integrate_etl_default(&a, &b, &stats()).unwrap();
        assert_eq!(aligned.report.reused_ops, 1, "{:?}", aligned.report.matched);
        // …without alignment the authored order keeps the extraction shared
        // too, and the flows fork at the differing filters.
        let raw =
            integrate_etl(&a, &b, &EstimatedTime::new(), &stats(), EtlIntegrationOptions { align_with_rules: false })
                .unwrap();
        assert_eq!(raw.report.reused_ops, 2, "{:?}", raw.report.matched);
        aligned.flow.validate().unwrap();
        raw.flow.validate().unwrap();
    }

    #[test]
    fn extraction_widening_merges_different_column_needs() {
        let mut a = Flow::new("u");
        let d = a
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: li_schema(&[("l_orderkey", ColType::Integer)]),
                },
            )
            .unwrap();
        let e = a.append(d, "EX", OpKind::Extraction { columns: vec!["l_orderkey".into()] }).unwrap();
        a.append(e, "LOAD", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        a.stamp_requirement("IR1");

        let mut b = Flow::new("p");
        let d = b
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: li_schema(&[("l_discount", ColType::Decimal)]),
                },
            )
            .unwrap();
        let e = b.append(d, "EX", OpKind::Extraction { columns: vec!["l_discount".into()] }).unwrap();
        b.append(e, "LOAD", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        b.stamp_requirement("IR2");

        let r = integrate_etl_default(&a, &b, &stats()).unwrap();
        assert_eq!(r.report.reused_ops, 2);
        match &r.flow.op_by_name("EX").unwrap().kind {
            OpKind::Extraction { columns } => {
                assert!(columns.contains(&"l_orderkey".to_string()) && columns.contains(&"l_discount".to_string()));
            }
            other => panic!("{other:?}"),
        }
        match &r.flow.op_by_name("DS").unwrap().kind {
            OpKind::Datastore { schema, .. } => assert!(schema.has("l_discount") && schema.has("l_orderkey")),
            other => panic!("{other:?}"),
        }
        r.flow.validate().unwrap();
    }

    #[test]
    fn rule_alignment_finds_reordered_overlap() {
        // Unified was authored filter-then-project; the new flow
        // project-then-filter. With rules the orders align and everything
        // matches; without, the flows only share the source.
        let build = |project_first: bool, table: &str, req: &str| {
            let mut f = Flow::new("f");
            let d = f
                .add_op(
                    "DS",
                    OpKind::Datastore {
                        datastore: "lineitem".into(),
                        schema: li_schema(&[
                            ("l_orderkey", ColType::Integer),
                            ("l_extendedprice", ColType::Decimal),
                            ("l_discount", ColType::Decimal),
                        ]),
                    },
                )
                .unwrap();
            let e = f
                .append(
                    d,
                    "EX",
                    OpKind::Extraction {
                        columns: vec!["l_orderkey".into(), "l_extendedprice".into(), "l_discount".into()],
                    },
                )
                .unwrap();
            let (top, bottom): (OpKind, OpKind) = (
                OpKind::Projection { columns: vec!["l_orderkey".into(), "l_discount".into()] },
                OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() },
            );
            let mid = if project_first {
                let p = f.append(e, "P", top.clone()).unwrap();
                f.append(p, "S", bottom.clone()).unwrap()
            } else {
                let s = f.append(e, "S", bottom).unwrap();
                f.append(s, "P", top).unwrap()
            };
            f.append(mid, "LOAD", OpKind::Loader { table: table.into(), key: vec![] }).unwrap();
            f.stamp_requirement(req);
            f
        };
        let unified = build(true, "t1", "IR1");
        let partial = build(false, "t2", "IR2");

        let aligned = integrate_etl(
            &unified,
            &partial,
            &EstimatedTime::new(),
            &stats(),
            EtlIntegrationOptions { align_with_rules: true },
        )
        .unwrap();
        let unaligned = integrate_etl(
            &unified,
            &partial,
            &EstimatedTime::new(),
            &stats(),
            EtlIntegrationOptions { align_with_rules: false },
        )
        .unwrap();
        assert!(
            aligned.report.reused_ops > unaligned.report.reused_ops,
            "rules must expose reordered overlap: {} vs {}",
            aligned.report.reused_ops,
            unaligned.report.reused_ops
        );
        assert!(aligned.report.cost <= unaligned.report.cost);
        aligned.flow.validate().unwrap();
        unaligned.flow.validate().unwrap();
    }

    #[test]
    fn joins_match_only_with_matching_branches() {
        let build = |orders_table: &str, req: &str, filter: Option<&str>| {
            let mut f = Flow::new("f");
            let l = f
                .add_op(
                    "L",
                    OpKind::Datastore {
                        datastore: "lineitem".into(),
                        schema: li_schema(&[("l_orderkey", ColType::Integer), ("l_extendedprice", ColType::Decimal)]),
                    },
                )
                .unwrap();
            let o = f
                .add_op(
                    "O",
                    OpKind::Datastore {
                        datastore: orders_table.into(),
                        schema: li_schema(&[("o_orderkey", ColType::Integer), ("o_totalprice", ColType::Decimal)]),
                    },
                )
                .unwrap();
            let mut right = o;
            if let Some(pred) = filter {
                right = f.append(o, "OF", OpKind::Selection { predicate: parse_expr(pred).unwrap() }).unwrap();
            }
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
            f.connect(l, j).unwrap();
            f.connect(right, j).unwrap();
            f.append(j, "LOAD", OpKind::Loader { table: format!("t_{req}"), key: vec![] }).unwrap();
            f.stamp_requirement(req);
            f
        };
        // Same branches → join reused.
        let a = build("orders", "IR1", None);
        let b = build("orders", "IR2", None);
        let r = integrate_etl_default(&a, &b, &stats()).unwrap();
        assert!(r.report.matched.iter().any(|(p, _)| p == "J"), "{:?}", r.report.matched);

        // A filtered right branch → the join must NOT be reused.
        let c = build("orders", "IR3", Some("o_totalprice > 10"));
        let r2 = integrate_etl_default(&a, &c, &stats()).unwrap();
        assert!(!r2.report.matched.iter().any(|(p, _)| p == "J"), "{:?}", r2.report.matched);
        r2.flow.validate().unwrap();
    }

    #[test]
    fn integrating_into_an_empty_flow_copies_everything() {
        let empty = Flow::new("unified");
        let p = pipeline("p", "l_discount > 0.01", "l_extendedprice", "t", "IR1");
        let r = integrate_etl_default(&empty, &p, &stats()).unwrap();
        assert_eq!(r.report.reused_ops, 0);
        assert_eq!(r.report.added_ops, p.op_count());
        r.flow.validate().unwrap();
    }

    #[test]
    fn consolidated_cost_is_below_sum_of_parts() {
        let a = pipeline("u", "l_discount > 0.05", "l_extendedprice", "t1", "IR1");
        let b = pipeline("p", "l_discount > 0.05", "l_extendedprice * 2", "t2", "IR2");
        let model = EstimatedTime::new();
        let r = integrate_etl(&a, &b, &model, &stats(), EtlIntegrationOptions::default()).unwrap();
        let sum = model.cost(&a, &stats()).unwrap() + model.cost(&b, &stats()).unwrap();
        assert!(r.report.cost < sum, "consolidation saves work: {} vs {}", r.report.cost, sum);
    }

    #[test]
    fn matched_pairs_name_ops_as_they_appear_in_the_final_flow() {
        // The report must describe the consolidated flow *after* widening,
        // so every reported unified name resolves in the returned flow and
        // trace documents stay consistent with it.
        let a = pipeline("u", "l_discount > 0.05", "l_extendedprice", "t1", "IR1");
        let b = pipeline("p", "l_discount > 0.05", "l_extendedprice", "t2", "IR2");
        let r = integrate_etl_default(&a, &b, &stats()).unwrap();
        assert!(!r.report.matched.is_empty());
        for (partial_name, unified_name) in &r.report.matched {
            assert!(
                r.flow.op_by_name(unified_name).is_some(),
                "reported unified op `{unified_name}` (matched from `{partial_name}`) missing from the final flow"
            );
        }
    }

    #[test]
    fn identical_redundant_ops_collapse_onto_one_unified_op() {
        // A partial with two identical selections feeding different loaders:
        // both collapse onto one unified selection (deterministic ops with
        // identical inputs compute identical outputs) and both loaders hang
        // off it.
        let mut p = Flow::new("p");
        let d = p
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: li_schema(&[("l_discount", ColType::Decimal)]),
                },
            )
            .unwrap();
        let s1 = p.append(d, "S1", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        let s2 = p.append(d, "S2", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        p.append(s1, "LOAD1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        p.append(s2, "LOAD2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        p.stamp_requirement("IR1");
        let r = integrate_etl(
            &p.clone(),
            &p,
            &EstimatedTime::new(),
            &stats(),
            EtlIntegrationOptions { align_with_rules: false },
        )
        .unwrap();
        r.flow.validate().unwrap();
        let selections = r.flow.ops().filter(|o| matches!(o.kind, OpKind::Selection { .. })).count();
        assert_eq!(selections, 1, "redundant selections collapse during common-subflow elimination");
        assert_eq!(r.report.added_ops, 0, "{:?}", r.report.matched);
        // Both loaders survive (different tables).
        assert_eq!(r.flow.sinks().len(), 2);
    }
}
