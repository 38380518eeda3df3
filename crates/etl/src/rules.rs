//! Generic equivalence rules over logical ETL flows.
//!
//! The ETL Process Integrator "aligns the order of ETL operations by applying
//! generic equivalence rules" (paper §2.3) so that semantically equal flows
//! written with different operation orders still expose their overlap. The
//! rules implemented here are the classic algebraic ones:
//!
//! - **selection–selection commutation** (adjacent filters swap freely),
//! - **selection push-down through unary operations** (projection, sort,
//!   derivation/surrogate-key when the predicate does not read the
//!   introduced column, aggregation when the predicate only reads group-by
//!   columns),
//! - **selection push-down through joins** into the branch that produces all
//!   of the predicate's columns,
//! - **adjacent projection merging**.
//!
//! [`normalize`] drives the rules to a fix-point, producing the canonical
//! "selections-first, projections-merged" shape both flows are brought into
//! before overlap search. Every rewrite preserves the relation computed at
//! every surviving sink — property-tested end-to-end against the execution
//! engine in `quarry-engine`.

use crate::expr::Expr;
use crate::flow::{Flow, FlowError, OpId};
use crate::ops::OpKind;
use crate::schema::Schema;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Flattens nested ANDs and sorts conjuncts by their textual form, producing
/// a canonical predicate used for operation matching (`a>1 AND b=2` matches
/// `b=2 AND a>1`).
pub fn normalize_predicate(expr: &Expr) -> Expr {
    let mut conjuncts = Vec::new();
    collect_conjuncts(expr, &mut conjuncts);
    conjuncts.sort_by_key(|e| e.to_string());
    conjuncts.dedup_by_key(|e| e.to_string());
    let mut it = conjuncts.into_iter();
    let first = it.next().expect("an expression has at least one conjunct");
    it.fold(first, Expr::and)
}

fn collect_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary(crate::expr::BinOp::And, l, r) => {
            collect_conjuncts(l, out);
            collect_conjuncts(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// A stable signature of an operation's semantics, used by the integrator to
/// match operations across flows. Predicates are normalized; joins list both
/// key sides; datastores their source name and extraction width.
pub fn op_signature(kind: &OpKind) -> String {
    match kind {
        OpKind::Datastore { datastore, schema } => format!("datastore:{datastore}:{}", schema),
        OpKind::Extraction { columns } => {
            let mut cs = columns.clone();
            cs.sort();
            format!("extraction:{}", cs.join(","))
        }
        OpKind::Selection { predicate } => format!("selection:{}", normalize_predicate(predicate)),
        OpKind::Projection { columns } => {
            let mut cs = columns.clone();
            cs.sort();
            format!("projection:{}", cs.join(","))
        }
        OpKind::Derivation { column, expr } => format!("derivation:{column}:={expr}"),
        OpKind::Join { kind, left_on, right_on } => {
            format!("join[{}]:{}={}", kind.as_str(), left_on.join(","), right_on.join(","))
        }
        OpKind::Aggregation { group_by, aggregates } => {
            let mut gs = group_by.clone();
            gs.sort();
            let mut aggs: Vec<String> = aggregates
                .iter()
                .map(|a| format!("{}({})as{}", a.function.to_ascii_uppercase(), a.input, a.output))
                .collect();
            aggs.sort();
            format!("aggregation:{}:{}", gs.join(","), aggs.join(";"))
        }
        OpKind::Union => "union".to_string(),
        OpKind::Distinct => "distinct".to_string(),
        OpKind::Sort { columns } => format!("sort:{}", columns.join(",")),
        OpKind::SurrogateKey { natural, output } => format!("sk:{}->{output}", natural.join(",")),
        OpKind::Loader { table, key } => format!("loader:{table}:{}", key.join(",")),
    }
}

/// The signature used when deciding whether two operations compute the same
/// data: like [`op_signature`] but *relaxed* for sources — two reads of the
/// same datastore are the same data regardless of extraction width (the
/// survivor is widened to the union of columns, see [`widen_into`]).
pub fn merge_key(kind: &OpKind) -> String {
    match kind {
        OpKind::Datastore { datastore, .. } => format!("datastore:{datastore}"),
        OpKind::Extraction { .. } => "extraction".to_string(),
        other => op_signature(other),
    }
}

/// Widens `survivor` to additionally cover `other`'s needs: datastore
/// schemas and extraction column lists take the union. No-op for other
/// operation kinds. Returns whether `survivor` changed.
pub fn widen_into(survivor: &mut OpKind, other: &OpKind) -> bool {
    let mut widened = false;
    match (survivor, other) {
        (OpKind::Datastore { schema, .. }, OpKind::Datastore { schema: oschema, .. }) => {
            for c in &oschema.columns {
                if !schema.has(&c.name) {
                    schema.columns.push(c.clone());
                    widened = true;
                }
            }
        }
        (OpKind::Extraction { columns }, OpKind::Extraction { columns: ocols }) => {
            for c in ocols {
                if !columns.contains(c) {
                    columns.push(c.clone());
                    widened = true;
                }
            }
        }
        _ => {}
    }
    widened
}

/// Common-subflow elimination: merges operations that compute the same data
/// (same [`merge_key`], same inputs) onto the earliest one, re-pointing
/// consumers and unioning satisfier sets. Safe because every logical
/// operation is deterministic. Returns the number of merges.
///
/// Merges happen one at a time, always the earliest operation that has a
/// duplicate with its earliest duplicate, because the order decides which
/// entry survives and in which order a widened source lists its columns. Each
/// scan is one hashing pass over `(merge_key, inputs)`; the keys are formatted
/// once per call, since widening the survivor never changes its key.
pub fn dedupe(flow: &mut Flow) -> usize {
    let mut keys: Vec<(OpId, String)> = flow.ops().map(|o| (o.id, merge_key(&o.kind))).collect();
    let mut merged = 0;
    while let Some((a, b)) = earliest_duplicate(flow, &keys) {
        merge_into(flow, keys[a].0, keys.remove(b).0);
        merged += 1;
    }
    merged
}

/// Merges `b` into its duplicate `a`: `a` is widened to cover `b`'s needs
/// and serves its requirements, `b`'s consumers are re-pointed to `a` in
/// place, `b`'s input edges and `b` itself go.
fn merge_into(flow: &mut Flow, a: OpId, b: OpId) {
    let b_kind = flow.op(b).kind.clone();
    let b_reqs = flow.op(b).satisfies.clone();
    let a_op = flow.op_mut_journaled(a);
    widen_into(&mut a_op.kind, &b_kind);
    a_op.satisfies.extend(b_reqs);
    flow.detach(b, Some(a));
    flow.remove_op_entry(b);
}

/// Positions in `keys` (which lists the operations in flow order) of the
/// earliest operation whose `(merge_key, inputs)` some later operation
/// repeats, and of the first such repeat.
fn earliest_duplicate(flow: &Flow, keys: &[(OpId, String)]) -> Option<(usize, usize)> {
    let mut first: HashMap<(&str, &[OpId]), usize> = HashMap::with_capacity(keys.len());
    let mut best: Option<(usize, usize)> = None;
    for (j, (id, key)) in keys.iter().enumerate() {
        match first.entry((key.as_str(), flow.inputs_of(*id))) {
            Entry::Vacant(slot) => {
                slot.insert(j);
            }
            // Later repeats of a signature never displace its first repeat.
            Entry::Occupied(slot) => {
                let i = *slot.get();
                if best.is_none_or(|(earliest, _)| i < earliest) {
                    best = Some((i, j));
                }
            }
        }
    }
    best
}

/// Whether a selection with footprint `pred_cols` may move from *after* the
/// unary operation `above` to *before* it without changing semantics.
pub(crate) fn selection_moves_above(above: &OpKind, pred_cols: &[String]) -> bool {
    match above {
        // Adjacent selections are handled by merging (see
        // `merge_adjacent_selections`), never by swapping — a swap rule
        // would ping-pong forever in the fix-point loop.
        OpKind::Selection { .. } => false,
        // Filters commute with sorts and pure column subsets (the
        // predicate's columns exist upstream of a projection, since
        // projections only drop columns).
        OpKind::Sort { .. } | OpKind::Projection { .. } | OpKind::Extraction { .. } => true,
        // Safe unless the predicate reads the column the op introduces.
        OpKind::Derivation { column, .. } => !pred_cols.contains(column),
        OpKind::SurrogateKey { output, .. } => !pred_cols.contains(output),
        // A filter on group-by columns commutes with the aggregation.
        OpKind::Aggregation { group_by, .. } => pred_cols.iter().all(|c| group_by.contains(c)),
        // Distinct commutes with any filter.
        OpKind::Distinct => true,
        // Never move above sources/sinks; unions need per-branch routing
        // (handled by the caller as a binary case like joins).
        OpKind::Datastore { .. } | OpKind::Loader { .. } | OpKind::Join { .. } | OpKind::Union => false,
    }
}

/// Attempts to move the selection `sel` one step closer to the sources.
/// Returns `Ok(true)` when a move happened.
///
/// Moves only happen when the operation being crossed has `sel` as its sole
/// consumer (otherwise the rewrite would change what the other consumers
/// see).
pub fn push_selection_once(flow: &mut Flow, sel: OpId) -> Result<bool, FlowError> {
    let Some((input, to)) = plan_selection_move(flow, sel, None)? else { return Ok(false) };
    match to {
        SelectionMove::IntoUnion => {
            // σ(A ∪ B) = σ(A) ∪ σ(B): the filter is *replicated* into both
            // branches (routing it into just one would leave the other
            // branch unfiltered). Bag union concatenates, and the filter
            // preserves order within each branch, so the rewrite is
            // bit-identical.
            let branches = flow.inputs_of(input).to_vec();
            debug_assert_eq!(branches.len(), 2);
            let kind = flow.op(sel).kind.clone();
            let reqs = flow.op(sel).satisfies.clone();
            let base = flow.op(sel).name.clone();
            for (i, &branch) in branches.iter().enumerate() {
                let name = unique_op_name(flow, &format!("{base}_u{}", i + 1));
                let copy = flow.add_op(name, kind.clone())?;
                flow.op_mut(copy).satisfies = reqs.clone();
                // Each splice consumes the first remaining (branch, union)
                // edge, so a self-union A ∪ A gets one copy per slot.
                splice_on_edge(flow, copy, branch, input);
            }
            flow.remove_bridging(sel);
        }
        SelectionMove::Onto(from) => move_between(flow, sel, from, input),
    }
    Ok(true)
}

/// Where [`push_selection_once`] moves a selection that reads a union or
/// another operation.
enum SelectionMove {
    /// A copy into each branch of the union.
    IntoUnion,
    /// Onto the edge from this operation into the one the selection read.
    Onto(OpId),
}

/// The move [`push_selection_once`] makes, if any, and the operation the
/// selection reads before it. Routing into a join branch needs the branches'
/// schemas: `known` when the caller maintains them, else propagated here.
fn plan_selection_move(
    flow: &Flow,
    sel: OpId,
    known: Option<&HashMap<OpId, Schema>>,
) -> Result<Option<(OpId, SelectionMove)>, FlowError> {
    let OpKind::Selection { predicate } = &flow.op(sel).kind else { return Ok(None) };
    let pred_cols: Vec<String> = predicate.columns().into_iter().collect();
    let Some(&input) = flow.inputs_of(sel).first() else { return Ok(None) };
    if flow.outputs_of(input).len() != 1 {
        return Ok(None); // shared intermediate: moving the filter would leak
    }
    let to = match &flow.op(input).kind {
        OpKind::Union => Some(SelectionMove::IntoUnion),
        OpKind::Join { kind, .. } => {
            // Route into the branch that supplies every predicate column.
            // For left joins only the left (probe) branch is legal: a
            // build-side filter would also have to drop the null-extended
            // rows the outer join keeps.
            let branches = flow.inputs_of(input);
            debug_assert_eq!(branches.len(), 2);
            let legal_branches = if *kind == crate::ops::JoinKind::Left { &branches[..1] } else { branches };
            let propagated;
            let schemas = match known {
                Some(schemas) => schemas,
                None => {
                    propagated = flow.schemas()?;
                    &propagated
                }
            };
            legal_branches
                .iter()
                .copied()
                .find(|b| pred_cols.iter().all(|c| schemas[b].has(c)))
                .map(SelectionMove::Onto)
        }
        unary if selection_moves_above(unary, &pred_cols) => {
            let grand_inputs = flow.inputs_of(input);
            debug_assert!(grand_inputs.len() <= 1, "unary ops have one input");
            grand_inputs.first().copied().map(SelectionMove::Onto) // `None`: `input` is a source
        }
        _ => None,
    };
    Ok(to.map(|to| (input, to)))
}

/// Whether a canonical flow is still canonical after `producers` lost
/// consumers and nothing else changed, which is what a requirement
/// retraction does to the operations it keeps (their inputs, kinds and
/// `schemas` stand). Consumer counts are read only by the sole-consumer
/// gates of [`normalize`], so only a producer left with exactly one
/// consumer can unblock a rule: a selection push-down into it, or a merge
/// of adjacent selections or projections. Dedupe cannot be unblocked: a
/// flow canonical without rule alignment stays canonical.
pub fn canonical_after_losing_consumers(flow: &Flow, producers: &[OpId], schemas: &HashMap<OpId, Schema>) -> bool {
    producers.iter().all(|&producer| {
        let &[consumer] = flow.outputs_of(producer) else { return true };
        match (&flow.op(producer).kind, &flow.op(consumer).kind) {
            (OpKind::Selection { .. }, OpKind::Selection { .. })
            | (OpKind::Projection { .. }, OpKind::Projection { .. }) => false,
            (_, OpKind::Selection { .. }) => matches!(plan_selection_move(flow, consumer, Some(schemas)), Ok(None)),
            _ => true,
        }
    })
}

/// A name not yet used by any operation of `flow`: `base` itself, or
/// `base~2`, `base~3`, … on collision.
pub(crate) fn unique_op_name(flow: &Flow, base: &str) -> String {
    if flow.id_by_name(base).is_none() {
        return base.to_string();
    }
    let mut i = 2usize;
    loop {
        let name = format!("{base}~{i}");
        if flow.id_by_name(&name).is_none() {
            return name;
        }
        i += 1;
    }
}

/// Splices `op` onto the (first) edge `from → to`. Edge positions are
/// preserved, so binary input order stays intact.
pub(crate) fn splice_on_edge(flow: &mut Flow, op: OpId, from: OpId, to: OpId) {
    let pos = flow.edge_pos(from, to).expect("the spliced edge exists");
    flow.set_edge(pos, (from, op));
    flow.insert_edge(pos + 1, (op, to));
}

/// Detaches unary `op` from its current position (bridging its input to its
/// consumers) and re-inserts it on the edge `from → to`.
fn move_between(flow: &mut Flow, op: OpId, from: OpId, to: OpId) {
    let op_inputs = flow.inputs_of(op);
    debug_assert_eq!(op_inputs.len(), 1);
    let op_input = op_inputs[0];
    flow.detach(op, Some(op_input));
    splice_on_edge(flow, op, from, to);
}

/// Merges chains `Selection → Selection` into a single selection whose
/// predicate is the conjunction — the canonical form for adjacent filters
/// (their order is semantically irrelevant). Returns merges performed.
pub fn merge_adjacent_selections(flow: &mut Flow) -> usize {
    let mut merged = 0;
    loop {
        let candidate = flow.ops().find_map(|op| {
            let OpKind::Selection { .. } = op.kind else { return None };
            let &input = flow.inputs_of(op.id).first()?;
            let upstream = flow.op(input);
            (matches!(upstream.kind, OpKind::Selection { .. }) && flow.outputs_of(input).len() == 1)
                .then_some((input, op.id))
        });
        match candidate {
            Some((upstream, downstream)) => {
                let up_pred = match &flow.op(upstream).kind {
                    OpKind::Selection { predicate } => predicate.clone(),
                    _ => unreachable!("candidate checked above"),
                };
                let up_reqs = flow.op(upstream).satisfies.clone();
                flow.remove_bridging(upstream);
                let down = flow.op_mut(downstream);
                if let OpKind::Selection { predicate } = &mut down.kind {
                    *predicate = normalize_predicate(&Expr::and(predicate.clone(), up_pred));
                }
                down.satisfies.extend(up_reqs);
                merged += 1;
            }
            None => break,
        }
    }
    merged
}

/// Merges chains `Projection → Projection` into the downstream projection
/// (whose column set is necessarily a subset). Returns merges performed.
pub fn merge_projections(flow: &mut Flow) -> usize {
    let mut merged = 0;
    loop {
        let candidate = flow.ops().find_map(|op| {
            if !matches!(op.kind, OpKind::Projection { .. }) {
                return None;
            }
            let &input = flow.inputs_of(op.id).first()?;
            let upstream = flow.op(input);
            (matches!(upstream.kind, OpKind::Projection { .. }) && flow.outputs_of(input).len() == 1).then_some(input)
        });
        match candidate {
            Some(upstream) => {
                let reqs = flow.op(upstream).satisfies.clone();
                flow.remove_bridging(upstream);
                // The surviving projection inherits the satisfier set.
                merged += 1;
                let _ = reqs; // upstream's requirements are implied downstream
            }
            None => break,
        }
    }
    merged
}

/// Drives selection push-down and projection merging to a fix-point,
/// producing the canonical operation order used for overlap search.
/// Returns the number of rewrites applied.
pub fn normalize(flow: &mut Flow) -> Result<usize, FlowError> {
    let mut rewrites = 0;
    loop {
        let mut moved = false;
        let sel_ids: Vec<OpId> =
            flow.ops().filter(|o| matches!(o.kind, OpKind::Selection { .. })).map(|o| o.id).collect();
        for sel in sel_ids {
            if push_selection_once(flow, sel)? {
                rewrites += 1;
                moved = true;
            }
        }
        let merged = merge_projections(flow) + merge_adjacent_selections(flow);
        rewrites += merged;
        if !moved && merged == 0 {
            break;
        }
    }
    // Canonicalize predicates in place so signatures match textually.
    for op in flow.ops_mut() {
        if let OpKind::Selection { predicate } = &mut op.kind {
            *predicate = normalize_predicate(predicate);
        }
    }
    Ok(rewrites)
}

/// Brings a flow into the *canonical form* integration matches against:
/// rule normalization (when `align_with_rules` is set) followed by
/// common-subflow elimination, after which `(merge_key, inputs)` is unique
/// per operation. One-shot integration re-establishes the form every step;
/// the incremental integrator establishes it once and repairs it on insert.
/// Returns the number of rewrites and merges applied.
pub fn canonicalize(flow: &mut Flow, align_with_rules: bool) -> Result<usize, FlowError> {
    let mut changes = 0;
    if align_with_rules {
        changes += normalize(flow)?;
    }
    changes += dedupe(flow);
    Ok(changes)
}

/// Whether `flow` is already in canonical form, i.e. [`canonicalize`] would
/// leave it bit-identical. Debug/test helper for the incremental
/// integrator's invariant; clones the flow to probe.
pub fn is_canonical(flow: &Flow, align_with_rules: bool) -> bool {
    let mut probe = flow.clone();
    canonicalize(&mut probe, align_with_rules).is_ok() && probe == *flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;
    use crate::ops::{AggSpec, JoinKind};
    use crate::schema::{ColType, Column, Schema};

    fn ds(table: &str, cols: &[(&str, ColType)]) -> OpKind {
        OpKind::Datastore {
            datastore: table.into(),
            schema: Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect()),
        }
    }

    fn li() -> OpKind {
        ds(
            "lineitem",
            &[
                ("l_orderkey", ColType::Integer),
                ("l_extendedprice", ColType::Decimal),
                ("l_discount", ColType::Decimal),
            ],
        )
    }

    fn ord() -> OpKind {
        ds("orders", &[("o_orderkey", ColType::Integer), ("o_totalprice", ColType::Decimal)])
    }

    #[test]
    fn normalize_predicate_sorts_and_dedups_conjuncts() {
        let e = parse_expr("b = 2 AND a > 1 AND b = 2").unwrap();
        assert_eq!(normalize_predicate(&e).to_string(), "a > 1 AND b = 2");
        // A single conjunct is untouched.
        let single = parse_expr("x < 3").unwrap();
        assert_eq!(normalize_predicate(&single), single);
    }

    #[test]
    fn signatures_match_modulo_conjunct_order() {
        let a = OpKind::Selection { predicate: parse_expr("a = 1 AND b = 2").unwrap() };
        let b = OpKind::Selection { predicate: parse_expr("b = 2 AND a = 1").unwrap() };
        assert_eq!(op_signature(&a), op_signature(&b));
        let c = OpKind::Selection { predicate: parse_expr("a = 1").unwrap() };
        assert_ne!(op_signature(&a), op_signature(&c));
    }

    #[test]
    fn signatures_distinguish_projection_sets_not_order() {
        let a = OpKind::Projection { columns: vec!["x".into(), "y".into()] };
        let b = OpKind::Projection { columns: vec!["y".into(), "x".into()] };
        assert_eq!(op_signature(&a), op_signature(&b));
    }

    /// DS → proj → sel → load; normalization moves the selection above the
    /// projection.
    #[test]
    fn selection_pushes_through_projection() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let p = f
            .append(d, "PROJ", OpKind::Projection { columns: vec!["l_orderkey".into(), "l_discount".into()] })
            .unwrap();
        let s = f.append(p, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let n = normalize(&mut f).unwrap();
        assert!(n >= 1);
        f.validate().unwrap();
        // SEL now reads straight from DS.
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "DS");
        let proj_inputs = f.inputs_of(f.id_by_name("PROJ").unwrap());
        assert_eq!(f.op(proj_inputs[0]).name, "SEL");
    }

    #[test]
    fn selection_does_not_cross_derivation_it_depends_on() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let dv = f
            .append(
                d,
                "DERIVE",
                OpKind::Derivation { column: "rev".into(), expr: parse_expr("l_extendedprice * l_discount").unwrap() },
            )
            .unwrap();
        let s = f.append(dv, "SEL", OpKind::Selection { predicate: parse_expr("rev > 10").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        f.validate().unwrap();
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "DERIVE", "filter on derived column must stay downstream");
    }

    #[test]
    fn independent_selection_crosses_derivation() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let dv = f
            .append(
                d,
                "DERIVE",
                OpKind::Derivation { column: "rev".into(), expr: parse_expr("l_extendedprice * l_discount").unwrap() },
            )
            .unwrap();
        let s = f.append(dv, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        f.validate().unwrap();
        let derive_inputs = f.inputs_of(f.id_by_name("DERIVE").unwrap());
        assert_eq!(f.op(derive_inputs[0]).name, "SEL");
    }

    #[test]
    fn selection_routes_into_matching_join_branch() {
        let mut f = Flow::new("t");
        let l = f.add_op("L", li()).unwrap();
        let o = f.add_op("O", ord()).unwrap();
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
        f.connect(o, j).unwrap();
        let s = f.append(j, "SEL", OpKind::Selection { predicate: parse_expr("o_totalprice > 100").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        f.validate().unwrap();
        // The filter sits on the Orders branch now.
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "O");
        // Join keeps its left/right orientation.
        let j_inputs = f.inputs_of(f.id_by_name("J").unwrap());
        assert_eq!(f.op(j_inputs[0]).name, "L");
        assert_eq!(f.op(j_inputs[1]).name, "SEL");
    }

    #[test]
    fn cross_branch_predicate_stays_above_join() {
        let mut f = Flow::new("t");
        let l = f.add_op("L", li()).unwrap();
        let o = f.add_op("O", ord()).unwrap();
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
        f.connect(o, j).unwrap();
        let s = f
            .append(j, "SEL", OpKind::Selection { predicate: parse_expr("l_extendedprice > o_totalprice").unwrap() })
            .unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "J", "predicate spans both branches");
    }

    #[test]
    fn selection_replicates_into_both_union_branches() {
        let mut f = Flow::new("t");
        let a = f.add_op("A", li()).unwrap();
        let b = f.add_op("B", li()).unwrap();
        let u = f.add_op("U", OpKind::Union).unwrap();
        f.connect(a, u).unwrap();
        f.connect(b, u).unwrap();
        let s = f.append(u, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        f.op_mut(s).satisfies.insert("IR1".into());
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        f.validate().unwrap();
        // One filter copy sits on each branch; the original is gone.
        let u = f.id_by_name("U").unwrap();
        let branch_kinds: Vec<_> = f.inputs_of(u).iter().map(|&i| f.op(i).kind.type_name()).collect();
        assert_eq!(branch_kinds, ["Selection", "Selection"], "both branches filtered");
        for &i in f.inputs_of(u) {
            assert!(f.op(i).satisfies.contains("IR1"), "copies keep the satisfier set");
        }
        assert!(f.id_by_name("SEL").is_none(), "original filter removed");
        // The union feeds the loader directly now.
        let load_in = f.inputs_of(f.id_by_name("LOAD").unwrap());
        assert_eq!(f.op(load_in[0]).name, "U");
    }

    #[test]
    fn left_join_blocks_build_side_pushdown() {
        let mut f = Flow::new("t");
        let l = f.add_op("L", li()).unwrap();
        let o = f.add_op("O", ord()).unwrap();
        let j = f
            .add_op(
                "J",
                OpKind::Join {
                    kind: JoinKind::Left,
                    left_on: vec!["l_orderkey".into()],
                    right_on: vec!["o_orderkey".into()],
                },
            )
            .unwrap();
        f.connect(l, j).unwrap();
        f.connect(o, j).unwrap();
        // Predicate reads the build (right) side: it must stay above the
        // left join, which keeps null-extended rows a pushed filter could
        // not drop.
        let s = f.append(j, "SEL", OpKind::Selection { predicate: parse_expr("o_totalprice > 100").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "J", "build-side filter stays above a left join");
        // Probe-side predicates still push through.
        let mut g = Flow::new("t2");
        let l = g.add_op("L", li()).unwrap();
        let o = g.add_op("O", ord()).unwrap();
        let j = g
            .add_op(
                "J",
                OpKind::Join {
                    kind: JoinKind::Left,
                    left_on: vec!["l_orderkey".into()],
                    right_on: vec!["o_orderkey".into()],
                },
            )
            .unwrap();
        g.connect(l, j).unwrap();
        g.connect(o, j).unwrap();
        let s = g.append(j, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        g.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut g).unwrap();
        let sel_inputs = g.inputs_of(g.id_by_name("SEL").unwrap());
        assert_eq!(g.op(sel_inputs[0]).name, "L", "probe-side filter pushes into the left branch");
    }

    #[test]
    fn selection_on_group_by_columns_crosses_aggregation() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let a = f
            .append(
                d,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "total")],
                },
            )
            .unwrap();
        let s = f.append(a, "SEL", OpKind::Selection { predicate: parse_expr("l_orderkey > 5").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        f.validate().unwrap();
        let agg_inputs = f.inputs_of(f.id_by_name("AGG").unwrap());
        assert_eq!(f.op(agg_inputs[0]).name, "SEL");
    }

    #[test]
    fn selection_on_aggregate_output_stays_put() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let a = f
            .append(
                d,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "total")],
                },
            )
            .unwrap();
        let s = f.append(a, "SEL", OpKind::Selection { predicate: parse_expr("total > 100").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "AGG");
    }

    #[test]
    fn shared_intermediate_blocks_pushdown() {
        // DS → PROJ → {SEL → LOAD1, LOAD2}: moving SEL above PROJ would
        // filter LOAD2's data too.
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let p = f
            .append(d, "PROJ", OpKind::Projection { columns: vec!["l_orderkey".into(), "l_discount".into()] })
            .unwrap();
        let s = f.append(p, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        f.append(s, "LOAD1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        f.append(p, "LOAD2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        normalize(&mut f).unwrap();
        f.validate().unwrap();
        let sel_inputs = f.inputs_of(f.id_by_name("SEL").unwrap());
        assert_eq!(f.op(sel_inputs[0]).name, "PROJ", "shared intermediate must not be crossed");
    }

    #[test]
    fn adjacent_projections_merge() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let p1 = f
            .append(
                d,
                "P1",
                OpKind::Projection {
                    columns: vec!["l_orderkey".into(), "l_discount".into(), "l_extendedprice".into()],
                },
            )
            .unwrap();
        let p2 = f.append(p1, "P2", OpKind::Projection { columns: vec!["l_orderkey".into()] }).unwrap();
        f.append(p2, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        assert_eq!(merge_projections(&mut f), 1);
        f.validate().unwrap();
        assert!(f.op_by_name("P1").is_none());
        assert_eq!(f.op_count(), 3);
    }

    #[test]
    fn dedupe_merges_identical_scans_and_widens() {
        // Two scans of the same datastore with different column needs merge
        // into one widened scan; both extraction chains survive.
        let mut f = Flow::new("t");
        let d1 = f.add_op("DS1", ds("lineitem", &[("l_orderkey", ColType::Integer)])).unwrap();
        let d2 = f.add_op("DS2", ds("lineitem", &[("l_discount", ColType::Decimal)])).unwrap();
        let e1 = f.append(d1, "E1", OpKind::Extraction { columns: vec!["l_orderkey".into()] }).unwrap();
        let e2 = f.append(d2, "E2", OpKind::Extraction { columns: vec!["l_discount".into()] }).unwrap();
        f.append(e1, "L1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        f.append(e2, "L2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        let merged = dedupe(&mut f);
        assert_eq!(merged, 2, "the scans merge, then the extractions (same input) merge too");
        f.validate().unwrap();
        // The surviving scan and extraction carry the union of columns.
        match &f.op_by_name("DS1").unwrap().kind {
            OpKind::Datastore { schema, .. } => {
                assert!(schema.has("l_orderkey") && schema.has("l_discount"));
            }
            other => panic!("{other:?}"),
        }
        match &f.op_by_name("E1").unwrap().kind {
            OpKind::Extraction { columns } => assert_eq!(columns.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dedupe_collapses_identical_chains_and_unions_satisfies() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds("lineitem", &[("l_discount", ColType::Decimal)])).unwrap();
        let s1 = f.append(d, "S1", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        let s2 = f.append(d, "S2", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        f.op_mut(s1).satisfies.insert("IR1".into());
        f.op_mut(s2).satisfies.insert("IR2".into());
        let l1 = f.append(s1, "L1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        f.append(s2, "L2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        let merged = dedupe(&mut f);
        assert_eq!(merged, 1);
        f.validate().unwrap();
        let survivor = f.op_by_name("S1").expect("earliest op survives");
        assert!(survivor.satisfies.contains("IR1") && survivor.satisfies.contains("IR2"));
        assert!(f.op_by_name("S2").is_none());
        // Both loaders now consume the survivor.
        assert_eq!(f.inputs_of(l1), f.inputs_of(f.id_by_name("L2").unwrap()));
    }

    /// The definition `dedupe`'s hashing pass must agree with: scan all
    /// pairs in flow order, merge the first duplicate pair, start over.
    fn dedupe_pairwise(flow: &mut Flow) -> usize {
        let mut merged = 0;
        loop {
            let ids: Vec<OpId> = flow.ops().map(|o| o.id).collect();
            let duplicate = |a: OpId, b: OpId| {
                merge_key(&flow.op(a).kind) == merge_key(&flow.op(b).kind) && flow.inputs_of(a) == flow.inputs_of(b)
            };
            let pair = ids
                .iter()
                .enumerate()
                .find_map(|(i, &a)| ids[i + 1..].iter().find(|&&b| duplicate(a, b)).map(|&b| (a, b)));
            let Some((a, b)) = pair else { return merged };
            merge_into(flow, a, b);
            merged += 1;
        }
    }

    #[test]
    fn dedupe_picks_the_merges_a_pairwise_scan_picks() {
        // Three mutually duplicate scans (different widths, so the merge
        // order shows in the survivor's column order), interleaved with two
        // duplicate scans of another table whose first copy comes *later*
        // than the first lineitem scan, each under three mutually duplicate
        // filters; and a second layer that only becomes duplicate once the
        // first has merged.
        for rotate in 0..5 {
            let mut f = Flow::new("t");
            let mut scans = vec![
                ("L1", ds("lineitem", &[("l_orderkey", ColType::Integer), ("l_discount", ColType::Decimal)])),
                ("O1", ds("orders", &[("o_orderkey", ColType::Integer)])),
                ("L2", ds("lineitem", &[("l_discount", ColType::Decimal), ("l_extendedprice", ColType::Decimal)])),
                ("O2", ds("orders", &[("o_totalprice", ColType::Decimal), ("o_orderkey", ColType::Integer)])),
                ("L3", ds("lineitem", &[("l_discount", ColType::Decimal), ("l_orderkey", ColType::Integer)])),
            ];
            scans.rotate_left(rotate);
            for (i, (name, kind)) in scans.into_iter().enumerate() {
                let is_lineitem = name.starts_with('L');
                let scan = f.add_op(name, kind).unwrap();
                f.op_mut(scan).satisfies.insert(format!("IR{i}"));
                let pred = if is_lineitem { "l_discount > 0.05" } else { "o_orderkey > 7" };
                let sel = f
                    .append(scan, format!("SEL_{name}"), OpKind::Selection { predicate: parse_expr(pred).unwrap() })
                    .unwrap();
                let top = f.append(sel, format!("DISTINCT_{name}"), OpKind::Distinct).unwrap();
                f.append(top, format!("LOAD_{name}"), OpKind::Loader { table: format!("t_{name}"), key: vec![] })
                    .unwrap();
            }
            let mut reference = f.clone();
            let expected = dedupe_pairwise(&mut reference);
            assert_eq!(expected, 9, "3 + 3 + 3 merges across the three layers");
            assert_eq!(dedupe(&mut f), expected);
            assert_eq!(f, reference, "same survivors, same widened column order, same edge order (rotation {rotate})");
            f.validate().unwrap();
        }
    }

    #[test]
    fn dedupe_keeps_semantically_different_ops() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds("lineitem", &[("l_discount", ColType::Decimal)])).unwrap();
        let s1 = f.append(d, "S1", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        let s2 = f.append(d, "S2", OpKind::Selection { predicate: parse_expr("l_discount > 0.08").unwrap() }).unwrap();
        f.append(s1, "L1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        f.append(s2, "L2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        assert_eq!(dedupe(&mut f), 0);
        assert_eq!(f.op_count(), 5);
    }

    #[test]
    fn dedupe_does_not_merge_loaders_to_different_tables() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds("lineitem", &[("l_discount", ColType::Decimal)])).unwrap();
        f.append(d, "L1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        f.append(d, "L2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        assert_eq!(dedupe(&mut f), 0);
    }

    #[test]
    fn merge_key_relaxes_only_sources() {
        let a = ds("lineitem", &[("x", ColType::Integer)]);
        let b = ds("lineitem", &[("y", ColType::Decimal)]);
        assert_eq!(merge_key(&a), merge_key(&b), "same datastore, any width");
        assert_ne!(op_signature(&a), op_signature(&b), "strict signature still differs");
        let s1 = OpKind::Selection { predicate: parse_expr("x > 1").unwrap() };
        let s2 = OpKind::Selection { predicate: parse_expr("x > 2").unwrap() };
        assert_ne!(merge_key(&s1), merge_key(&s2));
    }

    #[test]
    fn widen_into_unions_columns() {
        let mut a = ds("lineitem", &[("x", ColType::Integer)]);
        let b = ds("lineitem", &[("y", ColType::Decimal), ("x", ColType::Integer)]);
        assert!(widen_into(&mut a, &b));
        match a {
            OpKind::Datastore { schema, .. } => {
                assert_eq!(schema.names().collect::<Vec<_>>(), ["x", "y"]);
            }
            other => panic!("{other:?}"),
        }
        let mut e1 = OpKind::Extraction { columns: vec!["x".into()] };
        widen_into(&mut e1, &OpKind::Extraction { columns: vec!["y".into(), "x".into()] });
        match e1 {
            OpKind::Extraction { columns } => assert_eq!(columns, ["x", "y"]),
            other => panic!("{other:?}"),
        }
        // Non-source kinds are untouched.
        let mut sel = OpKind::Selection { predicate: parse_expr("x > 1").unwrap() };
        let before = sel.clone();
        assert!(!widen_into(&mut sel, &OpKind::Distinct));
        assert_eq!(sel, before);
    }

    #[test]
    fn adjacent_selections_merge_into_a_conjunction() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let s1 = f.append(d, "S1", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        let s2 =
            f.append(s1, "S2", OpKind::Selection { predicate: parse_expr("l_extendedprice > 1").unwrap() }).unwrap();
        f.append(s2, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        assert_eq!(merge_adjacent_selections(&mut f), 1);
        f.validate().unwrap();
        assert!(f.op_by_name("S1").is_none());
        match &f.op_by_name("S2").unwrap().kind {
            OpKind::Selection { predicate } => {
                let cols = predicate.columns();
                assert!(cols.contains("l_discount") && cols.contains("l_extendedprice"), "{predicate}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn normalization_reaches_fixpoint_on_chains() {
        // Selections behind a projection chain push to the source and merge.
        let mut f = Flow::new("t");
        let d = f.add_op("DS", li()).unwrap();
        let p1 = f
            .append(
                d,
                "P1",
                OpKind::Projection {
                    columns: vec!["l_orderkey".into(), "l_discount".into(), "l_extendedprice".into()],
                },
            )
            .unwrap();
        let s1 = f.append(p1, "S1", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        let p2 = f
            .append(s1, "P2", OpKind::Projection { columns: vec!["l_orderkey".into(), "l_extendedprice".into()] })
            .unwrap();
        let s2 =
            f.append(p2, "S2", OpKind::Selection { predicate: parse_expr("l_extendedprice > 1").unwrap() }).unwrap();
        f.append(s2, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let n = normalize(&mut f).unwrap();
        assert!(n >= 3, "multiple rewrites expected, got {n}");
        f.validate().unwrap();
        // Running again changes nothing: fixpoint reached.
        let again = normalize(&mut f).unwrap();
        assert_eq!(again, 0);
        // One merged selection sits directly under the datastore; the two
        // projections merged as well.
        let selections: Vec<_> = f.ops().filter(|o| matches!(o.kind, OpKind::Selection { .. })).map(|o| o.id).collect();
        assert_eq!(selections.len(), 1, "adjacent selections merged");
        let sel_in = f.inputs_of(selections[0]);
        assert_eq!(f.op(sel_in[0]).name, "DS");
        let projections = f.ops().filter(|o| matches!(o.kind, OpKind::Projection { .. })).count();
        assert_eq!(projections, 1, "projections merged");
    }
}
