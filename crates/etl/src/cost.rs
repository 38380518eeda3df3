//! Configurable cost models over logical ETL flows.
//!
//! The ETL Process Integrator "accounts for the cost of produced ETL flows …
//! by applying configurable cost models that may consider different quality
//! factors of an ETL process (e.g., overall execution time)" (paper §2.3).
//! This module estimates cardinalities through the DAG and derives per-op
//! costs from them; [`EstimatedTime`] is the default quality factor — one
//! weight table, shaped after the columnar engine, that prices the
//! integrator's reports, the optimizer's search and the compiled plan alike
//! — and [`OpCount`] the trivial ablation alternative (experiment E8).
//!
//! Cardinality propagation here is one fold of [`op_cardinality`] over a
//! topological order per call, memoized nowhere — the from-scratch oracle.
//! Whoever prices a flow it goes on to use — the integrator's steps and
//! retractions, the optimizer's moves and commit check, the compiled plan
//! (`quarry_engine::PhysicalPlan`) — derives schemas, cardinalities and cost
//! parts in one pass through [`crate::facts::FlowFacts`], which replays the
//! same transfer function and [`EtlCostModel::op_part`]. Every model
//! exposes an additive per-operation decomposition
//! ([`EtlCostModel::decompose`]) whose parts sum to [`EtlCostModel::cost`] —
//! the invariant the optimizer's incremental cost deltas rest on.

use crate::expr::{BinOp, Expr};
use crate::flow::{Flow, FlowError, OpId};
use crate::ops::OpKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Cardinality state per operation: `(rows, retained)` where `retained` is
/// the product of selectivities applied upstream of (and at) the operation.
pub type CardState = (f64, f64);

/// Row-count statistics for source datastores, plus observed per-operation
/// cardinalities fed back from actual engine runs.
#[derive(Debug, Clone, Default)]
pub struct SourceStats {
    rows: HashMap<String, f64>,
    /// Output cardinalities observed by executing a flow, keyed by operation
    /// name. When present for an operation, [`op_cardinality`] prefers the
    /// observation over its static estimate.
    observed: HashMap<String, f64>,
    /// `(rows_in, rows_out)` pairs observed per operation. For selections
    /// this yields an observed *selectivity* — a ratio that stays valid when
    /// the optimizer moves the filter somewhere its input cardinality
    /// differs, unlike the absolute override.
    observed_io: HashMap<String, (f64, f64)>,
    /// Declared unique column sets per datastore (primary/candidate keys).
    /// The rewrite engine uses them to prove a join's build side matches at
    /// most one row per probe row, the condition under which join reordering
    /// preserves row order bit-for-bit.
    unique_keys: HashMap<String, Vec<Vec<String>>>,
    /// Assumed number of distinct groups per aggregation when nothing better
    /// is known, as a fraction of input rows.
    pub group_fraction: f64,
    /// Rows assumed for a datastore missing from `rows`.
    pub default_rows: f64,
    /// Renewed on every mutation from a process-wide counter, so two
    /// statistics objects with the same generation hold the same tables,
    /// observations and keys (a clone keeps its original's until either
    /// mutates). Whoever caches facts derived from the statistics compares
    /// it ([`SourceStats::generation`]).
    generation: u64,
}

/// Equal tables, observations, keys and defaults. The generation says how a
/// value was reached, not what it holds.
impl PartialEq for SourceStats {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.observed == other.observed
            && self.observed_io == other.observed_io
            && self.unique_keys == other.unique_keys
            && self.group_fraction == other.group_fraction
            && self.default_rows == other.default_rows
    }
}

impl SourceStats {
    pub fn new() -> Self {
        SourceStats { group_fraction: 0.1, default_rows: 1_000.0, ..SourceStats::default() }
    }

    fn touch(&mut self) {
        static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);
        self.generation = NEXT_GENERATION.fetch_add(1, Relaxed);
    }

    /// Identifies the current tables, observations and key declarations: it
    /// grows whenever one of them changes and is never shared by two objects
    /// that differ in them.
    /// The public `group_fraction` and `default_rows` are not covered.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn with_table(mut self, datastore: impl Into<String>, rows: f64) -> Self {
        self.set_table(datastore, rows);
        self
    }

    pub fn set_table(&mut self, datastore: impl Into<String>, rows: f64) {
        self.rows.insert(datastore.into(), rows);
        self.touch();
    }

    pub fn table_rows(&self, datastore: &str) -> f64 {
        self.rows.get(datastore).copied().unwrap_or(self.default_rows)
    }

    /// Declares `cols` a unique (candidate) key of `datastore`.
    pub fn declare_unique(&mut self, datastore: impl Into<String>, cols: Vec<String>) {
        self.unique_keys.entry(datastore.into()).or_default().push(cols);
        self.touch();
    }

    pub fn with_unique(mut self, datastore: impl Into<String>, cols: &[&str]) -> Self {
        self.declare_unique(datastore, cols.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Whether `cols` covers a declared unique key of `datastore` (so the
    /// datastore holds at most one row per `cols` value).
    pub fn datastore_unique_on(&self, datastore: &str, cols: &[String]) -> bool {
        self.unique_keys.get(datastore).is_some_and(|keys| keys.iter().any(|key| key.iter().all(|k| cols.contains(k))))
    }

    /// Records the output cardinality an engine run observed for the
    /// operation named `op` (the lifecycle's `Quarry::observe_run` calls
    /// this for every timed operation that read no rows).
    pub fn observe_op(&mut self, op: impl Into<String>, rows: f64) {
        self.observed.insert(op.into(), rows);
        self.touch();
    }

    /// Records both input and output cardinality for `op`. Besides the
    /// absolute override this yields an observed selectivity for filters,
    /// which generalizes across optimizer rewrites.
    pub fn observe_op_io(&mut self, op: impl Into<String>, rows_in: f64, rows_out: f64) {
        let op = op.into();
        self.observed.insert(op.clone(), rows_out);
        self.observed_io.insert(op, (rows_in, rows_out));
        self.touch();
    }

    /// The observed output cardinality for `op`, if any run recorded one.
    pub fn observed_op(&self, op: &str) -> Option<f64> {
        self.observed.get(op).copied()
    }

    /// The observed selectivity (`rows_out / rows_in`, clamped into [0, 1])
    /// for `op`, when an input/output pair was recorded with a non-empty
    /// input.
    pub fn observed_selectivity(&self, op: &str) -> Option<f64> {
        self.observed_io.get(op).and_then(|&(i, o)| if i > 0.0 { Some((o / i).clamp(0.0, 1.0)) } else { None })
    }

    /// Forgets everything observed about the operation named `op`. The
    /// optimizer calls this when a rewrite changes an operation's inputs:
    /// the recorded absolutes described the old position.
    pub fn forget_op(&mut self, op: &str) {
        let had = self.observed.remove(op).is_some() | self.observed_io.remove(op).is_some();
        if had {
            self.touch();
        }
    }

    /// Drops all per-operation observations (e.g. after the flow is
    /// restructured and old operation names no longer apply).
    pub fn clear_observations(&mut self) {
        self.observed.clear();
        self.observed_io.clear();
        self.touch();
    }

    /// Removes and returns the full observation record for `op` so a
    /// speculative rewrite can restore it on undo. The first slot is the
    /// absolute output cardinality, the second the input/output pair.
    pub(crate) fn take_observation(&mut self, op: &str) -> (Option<f64>, Option<(f64, f64)>) {
        let abs = self.observed.remove(op);
        let io = self.observed_io.remove(op);
        if abs.is_some() || io.is_some() {
            self.touch();
        }
        (abs, io)
    }

    /// Restores an observation record previously removed with
    /// [`take_observation`](Self::take_observation).
    pub(crate) fn put_observation(&mut self, op: &str, record: (Option<f64>, Option<(f64, f64)>)) {
        let mut changed = false;
        if let Some(abs) = record.0 {
            self.observed.insert(op.to_string(), abs);
            changed = true;
        }
        if let Some(io) = record.1 {
            self.observed_io.insert(op.to_string(), io);
            changed = true;
        }
        if changed {
            self.touch();
        }
    }
}

/// Default selectivity of a predicate: a small calculus over comparison kinds
/// (equality is selective, ranges moderate, disjunction additive). Every
/// composed estimate — AND products, OR sums, NOT complements — is clamped
/// back into [0, 1] so no composition can drift outside a probability.
pub fn selectivity(predicate: &Expr) -> f64 {
    let s = match predicate {
        Expr::Binary(BinOp::And, l, r) => (selectivity(l) * selectivity(r)).max(1e-6),
        Expr::Binary(BinOp::Or, l, r) => selectivity(l) + selectivity(r),
        Expr::Binary(BinOp::Eq, _, _) => 0.1,
        Expr::Binary(BinOp::Ne, _, _) => 0.9,
        Expr::Binary(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _, _) => 0.33,
        Expr::Unary(crate::expr::UnOp::Not, e) => 1.0 - selectivity(e),
        Expr::Bool(true) => 1.0,
        Expr::Bool(false) => 0.0,
        _ => 0.5,
    };
    s.clamp(0.0, 1.0)
}

/// One step of cardinality propagation: `(rows, retained)` of an operation
/// from its kind, name and input states. This is *the* transfer function —
/// [`cardinality_state`] folds it over a topological order and the
/// optimizer's incremental re-costing replays it over touched ops only.
pub fn op_cardinality(kind: &OpKind, name: &str, inputs: &[CardState], stats: &SourceStats) -> CardState {
    let (rows, retained) = match kind {
        OpKind::Datastore { datastore, .. } => (stats.table_rows(datastore), 1.0),
        OpKind::Selection { predicate } => match stats.observed_io.get(name) {
            // Observed ratio: scale the estimated input by rows_out/rows_in.
            // Multiplying before dividing keeps the result exact when the
            // estimated input *is* the observed input.
            Some(&(i, o)) if i > 0.0 => {
                let rows = (inputs[0].0 * o / i).clamp(0.0, inputs[0].0);
                let frac = if inputs[0].0 > 0.0 { rows / inputs[0].0 } else { 0.0 };
                (rows, inputs[0].1 * frac)
            }
            _ => {
                let s = selectivity(predicate);
                (inputs[0].0 * s, inputs[0].1 * s)
            }
        },
        OpKind::Join { .. } => {
            let (probe, build) = (inputs[0], inputs[1]);
            ((probe.0 * build.1).max(1.0), probe.1 * build.1)
        }
        OpKind::Aggregation { group_by, .. } => {
            if group_by.is_empty() {
                (1.0, inputs[0].1)
            } else {
                ((inputs[0].0 * stats.group_fraction).max(1.0), inputs[0].1)
            }
        }
        OpKind::Union => (inputs[0].0 + inputs[1].0, (inputs[0].1 + inputs[1].1) / 2.0),
        OpKind::Distinct => (inputs[0].0 * 0.9, inputs[0].1),
        _ => inputs.first().copied().unwrap_or((0.0, 1.0)),
    };
    // An observed cardinality from a real run overrides the estimate;
    // `retained` is rescaled by the same factor so the correction also
    // propagates through downstream joins that scale by this branch.
    // Selections with an observed *ratio* already used it above — applying
    // the absolute on top would double-count and would pin the filter's
    // output to a cardinality measured at a different position.
    if matches!(kind, OpKind::Selection { .. }) && stats.observed_selectivity(name).is_some() {
        return (rows, retained);
    }
    match stats.observed_op(name) {
        Some(observed) if rows > 0.0 => (observed, retained * (observed / rows)),
        Some(observed) => (observed, retained),
        None => (rows, retained),
    }
}

/// A stable fingerprint of a flow's cost-relevant shape: operation ids,
/// names, semantic signatures and the edge list. Two flows with equal
/// fingerprints get identical cardinality estimates under the same stats.
pub fn flow_fingerprint(flow: &Flow) -> u64 {
    let mut h = DefaultHasher::new();
    flow.op_count().hash(&mut h);
    for op in flow.ops() {
        op.id.0.hash(&mut h);
        op.name.hash(&mut h);
        crate::rules::op_signature(&op.kind).hash(&mut h);
    }
    for (f, t) in flow.edges() {
        f.0.hash(&mut h);
        t.0.hash(&mut h);
    }
    h.finish()
}

/// A stable semantic fingerprint of one operation *kind*: the hash of its
/// canonical signature. Names and positions are excluded — two ops with the
/// same fingerprint compute the same function of their inputs. Observation
/// routing uses this to detect that a name now denotes a different operation
/// (after an optimizer commit rewrote the flow).
pub fn op_fingerprint(kind: &OpKind) -> u64 {
    let mut h = DefaultHasher::new();
    crate::rules::op_signature(kind).hash(&mut h);
    h.finish()
}

/// Full `(rows, retained)` state for every operation of a flow: one fold of
/// [`op_cardinality`] over a topological order.
///
/// Each operation tracks `(rows, retained)` where `retained` is the product
/// of selectivities applied upstream. Joins are treated as key/foreign-key
/// joins (the DW case): the output follows the probing (left) side, scaled
/// by the *build* side's retained fraction — so a filter pushed into either
/// branch correctly shrinks the join output.
pub fn cardinality_state(flow: &Flow, stats: &SourceStats) -> Result<HashMap<OpId, CardState>, FlowError> {
    let order = flow.topo_order()?;
    let mut state: HashMap<OpId, CardState> = HashMap::with_capacity(order.len());
    for id in order {
        let inputs: Vec<CardState> = flow.inputs_of(id).iter().map(|i| state[i]).collect();
        let op = flow.op(id);
        state.insert(id, op_cardinality(&op.kind, &op.name, &inputs, stats));
    }
    Ok(state)
}

/// One operation's share of a flow's cost.
#[derive(Debug, Clone)]
pub struct OpCostPart {
    pub id: OpId,
    pub name: String,
    pub kind: &'static str,
    /// Estimated output rows of the operation.
    pub rows: f64,
    pub cost: f64,
}

/// A quality factor over ETL flows: lower is better.
pub trait EtlCostModel {
    fn name(&self) -> &str;

    /// Cost of the whole flow given source statistics.
    fn cost(&self, flow: &Flow, stats: &SourceStats) -> Result<f64, FlowError>;

    /// Additive per-operation decomposition of [`cost`](Self::cost): when
    /// `Some`, the parts sum to the total (±ε) and the model supports
    /// incremental re-costing — re-evaluate only the operations a rewrite
    /// touched. `None` means the model is holistic.
    fn decompose(&self, _flow: &Flow, _stats: &SourceStats) -> Result<Option<Vec<OpCostPart>>, FlowError> {
        Ok(None)
    }

    /// The cost [`decompose`](Self::decompose) gives one operation, when it
    /// follows from the operation alone: its kind, the rows each input
    /// delivers, and the rows and columns it puts out. `Some` lets a caller
    /// that keeps those facts current re-cost only the operations an edit
    /// reached ([`crate::facts::FlowFacts`]); `None` means a part needs more
    /// of the flow than that.
    fn op_part(&self, _kind: &OpKind, _input_rows: &[f64], _out_rows: f64, _out_cols: usize) -> Option<f64> {
        None
    }
}

/// The paper's demonstrated ETL quality factor: estimated overall execution
/// time. The estimate is Σ over operations of (rows processed × class
/// weight) × (1 + a per-column surcharge × output width), with cardinalities
/// propagated from the sources. One weight table prices every flow — the
/// integrator's reports, the optimizer's search and the compiled plan's cone
/// costs — so the cost a step reports is the cost the optimizer minimises.
///
/// The weights follow the columnar engine: projections are zero-copy column
/// picks, filters emit selection vectors and derivations run vectorized, so
/// streaming operations cost far less per row than the hash-building joins
/// and aggregations that dominate. Width matters in a columnar plane — every
/// extra column is another vector to touch — which is what makes projection
/// pruning a profitable rewrite instead of pure overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimatedTime;

// Per-row weights of the operation classes.
const SCAN: f64 = 0.2;
const FILTER: f64 = 0.15;
const PROJECT: f64 = 0.02;
const DERIVE: f64 = 0.2;
const JOIN_BUILD: f64 = 2.0;
const JOIN_PROBE: f64 = 0.8;
const AGGREGATE: f64 = 1.5;
const SORT: f64 = 3.0;
const LOAD: f64 = 0.6;
const KEY_GEN: f64 = 0.8;
// Per-column surcharge: every operation's cost is scaled by
// `1 + PER_COLUMN × output width`.
const PER_COLUMN: f64 = 0.04;

impl EstimatedTime {
    pub fn new() -> Self {
        EstimatedTime
    }

    /// Cost of one operation from its kind, per-input cardinalities, output
    /// cardinality and output width. Pure in its arguments — the optimizer
    /// re-evaluates exactly this for the operations a rewrite touches.
    pub fn op_cost(&self, kind: &OpKind, input_rows: &[f64], out_rows: f64, out_cols: usize) -> f64 {
        let in_rows: f64 = input_rows.iter().sum();
        let base = match kind {
            OpKind::Datastore { .. } => out_rows * SCAN,
            OpKind::Extraction { .. } => in_rows * PROJECT,
            OpKind::Selection { .. } => in_rows * FILTER,
            OpKind::Projection { .. } => in_rows * PROJECT,
            OpKind::Derivation { .. } => in_rows * DERIVE,
            OpKind::Join { .. } => input_rows[1] * JOIN_BUILD + input_rows[0] * JOIN_PROBE,
            OpKind::Aggregation { .. } => in_rows * AGGREGATE,
            OpKind::Union => in_rows * PROJECT,
            OpKind::Distinct => in_rows * AGGREGATE,
            OpKind::Sort { .. } => in_rows * SORT * (in_rows.max(2.0)).log2(),
            OpKind::SurrogateKey { .. } => in_rows * KEY_GEN,
            OpKind::Loader { .. } => in_rows * LOAD,
        };
        base * (1.0 + PER_COLUMN * out_cols as f64)
    }

    /// The from-scratch decomposition: one fold of [`op_cardinality`] and
    /// one schema propagation over the whole flow. This is the oracle the
    /// kept facts ([`crate::facts::FlowFacts`]) are audited against.
    fn parts(&self, flow: &Flow, stats: &SourceStats) -> Result<Vec<OpCostPart>, FlowError> {
        let cards = cardinality_state(flow, stats)?;
        let widths = flow.schemas()?;
        let mut parts = Vec::with_capacity(flow.op_count());
        for op in flow.ops() {
            let input_rows: Vec<f64> = flow.inputs_of(op.id).iter().map(|i| cards[i].0).collect();
            parts.push(OpCostPart {
                id: op.id,
                name: op.name.clone(),
                kind: op.kind.type_name(),
                rows: cards[&op.id].0,
                cost: self.op_cost(&op.kind, &input_rows, cards[&op.id].0, widths[&op.id].len()),
            });
        }
        Ok(parts)
    }
}

impl EtlCostModel for EstimatedTime {
    fn name(&self) -> &str {
        "estimated-execution-time"
    }

    fn cost(&self, flow: &Flow, stats: &SourceStats) -> Result<f64, FlowError> {
        Ok(self.parts(flow, stats)?.iter().map(|p| p.cost).sum())
    }

    fn decompose(&self, flow: &Flow, stats: &SourceStats) -> Result<Option<Vec<OpCostPart>>, FlowError> {
        Ok(Some(self.parts(flow, stats)?))
    }

    fn op_part(&self, kind: &OpKind, input_rows: &[f64], out_rows: f64, out_cols: usize) -> Option<f64> {
        Some(self.op_cost(kind, input_rows, out_rows, out_cols))
    }
}

/// Trivial model: the number of operations. Useful as an ablation and for
/// minimizing flow footprint rather than runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCount;

impl EtlCostModel for OpCount {
    fn name(&self) -> &str {
        "operation-count"
    }

    fn cost(&self, flow: &Flow, _stats: &SourceStats) -> Result<f64, FlowError> {
        Ok(flow.op_count() as f64)
    }

    fn decompose(&self, flow: &Flow, stats: &SourceStats) -> Result<Option<Vec<OpCostPart>>, FlowError> {
        let cards = cardinality_state(flow, stats)?;
        Ok(Some(
            flow.ops()
                .map(|op| OpCostPart {
                    id: op.id,
                    name: op.name.clone(),
                    kind: op.kind.type_name(),
                    rows: cards[&op.id].0,
                    cost: 1.0,
                })
                .collect(),
        ))
    }

    fn op_part(&self, _kind: &OpKind, _input_rows: &[f64], _out_rows: f64, _out_cols: usize) -> Option<f64> {
        Some(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;
    use crate::ops::{AggSpec, JoinKind};
    use crate::schema::{ColType, Column, Schema};

    fn li() -> OpKind {
        OpKind::Datastore {
            datastore: "lineitem".into(),
            schema: Schema::new(vec![
                Column::new("l_orderkey", ColType::Integer),
                Column::new("l_extendedprice", ColType::Decimal),
                Column::new("l_discount", ColType::Decimal),
            ]),
        }
    }

    fn stats() -> SourceStats {
        SourceStats::new().with_table("lineitem", 60_000.0).with_table("orders", 15_000.0)
    }

    /// The `rows` half of [`cardinality_state`].
    fn rows_of(flow: &Flow, stats: &SourceStats) -> HashMap<OpId, f64> {
        cardinality_state(flow, stats).unwrap().into_iter().map(|(id, (rows, _))| (id, rows)).collect()
    }

    fn pipeline() -> Flow {
        let mut f = Flow::new("p");
        let d = f.add_op("DS", li()).unwrap();
        let s = f.append(d, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        let a = f
            .append(
                s,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "rev")],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn selectivity_calculus() {
        assert_eq!(selectivity(&parse_expr("a = 1").unwrap()), 0.1);
        let and = selectivity(&parse_expr("a = 1 AND b = 2").unwrap());
        assert!((and - 0.01).abs() < 1e-9);
        let or = selectivity(&parse_expr("a = 1 OR b = 2").unwrap());
        assert!((or - 0.2).abs() < 1e-9);
        assert!(selectivity(&parse_expr("NOT (a = 1)").unwrap()) > 0.8);
        assert_eq!(selectivity(&Expr::Bool(true)), 1.0);
    }

    #[test]
    fn composed_selectivities_stay_in_unit_interval() {
        // Wide disjunctions saturate at 1 instead of overflowing.
        let wide = parse_expr("a <> 1 OR b <> 2 OR c <> 3").unwrap();
        assert_eq!(selectivity(&wide), 1.0);
        // And their negation floors at 0 instead of going negative.
        let neg = Expr::Unary(crate::expr::UnOp::Not, Box::new(wide));
        assert_eq!(selectivity(&neg), 0.0);
        // NOT of a saturated NOT stays clamped too.
        let double = Expr::Unary(crate::expr::UnOp::Not, Box::new(neg));
        assert_eq!(selectivity(&double), 1.0);
    }

    #[test]
    fn observed_selectivity_beats_static_estimate() {
        let f = pipeline();
        let mut s = stats();
        let sel = f.id_by_name("SEL").unwrap();
        // A run saw the filter keep 1% of 50k rows; the ratio generalizes to
        // the estimated 60k input rather than pinning the output to 500.
        s.observe_op_io("SEL", 50_000.0, 500.0);
        let cards = rows_of(&f, &s);
        assert!((cards[&sel] - 60_000.0 * 0.01).abs() < 1.0, "ratio applied to estimated input: {}", cards[&sel]);
        assert_eq!(s.observed_selectivity("SEL"), Some(0.01));
        // Degenerate observations (empty input) fall back to the static path.
        s.observe_op_io("SEL", 0.0, 0.0);
        assert_eq!(s.observed_selectivity("SEL"), None);
    }

    #[test]
    fn cardinalities_propagate() {
        let f = pipeline();
        let cards = rows_of(&f, &stats());
        let sel = f.id_by_name("SEL").unwrap();
        assert!((cards[&sel] - 60_000.0 * 0.33).abs() < 1.0);
        let agg = f.id_by_name("AGG").unwrap();
        assert!(cards[&agg] < cards[&sel]);
    }

    #[test]
    fn statistics_generation_tracks_mutations() {
        let f = pipeline();
        let s = stats();
        let g0 = s.generation();
        let first = cardinality_state(&f, &s).unwrap();
        assert_eq!(cardinality_state(&f, &s).unwrap(), first);
        assert_eq!(s.generation(), g0, "reads do not invalidate");
        // Any stats mutation moves the generation.
        let mut s = s;
        s.observe_op("SEL", 10.0);
        assert!(s.generation() > g0);
        let third = cardinality_state(&f, &s).unwrap();
        let sel = f.id_by_name("SEL").unwrap();
        assert_eq!(third[&sel].0, 10.0);
        s.clear_observations();
        let fourth = cardinality_state(&f, &s).unwrap();
        assert!((fourth[&sel].0 - 60_000.0 * 0.33).abs() < 1.0);
    }

    #[test]
    fn fingerprint_tracks_shape_and_names() {
        let f = pipeline();
        let fp = flow_fingerprint(&f);
        assert_eq!(fp, flow_fingerprint(&f.clone()), "clone has the same shape");
        let mut renamed = f.clone();
        let sel = renamed.id_by_name("SEL").unwrap();
        renamed.rename_op(sel, "SEL2").unwrap();
        assert_ne!(fp, flow_fingerprint(&renamed), "names participate (observations key on them)");
    }

    #[test]
    fn unknown_table_uses_default_rows() {
        let f = pipeline();
        let mut s = SourceStats::new();
        s.default_rows = 500.0;
        let cards = rows_of(&f, &s);
        assert_eq!(cards[&f.id_by_name("DS").unwrap()], 500.0);
    }

    #[test]
    fn declared_unique_keys_are_queryable() {
        let s = stats().with_unique("orders", &["o_orderkey"]);
        assert!(s.datastore_unique_on("orders", &["o_orderkey".into()]));
        assert!(s.datastore_unique_on("orders", &["o_orderkey".into(), "o_totalprice".into()]), "superset covers");
        assert!(!s.datastore_unique_on("orders", &["o_totalprice".into()]));
        assert!(!s.datastore_unique_on("lineitem", &["l_orderkey".into()]), "undeclared datastore");
    }

    #[test]
    fn estimated_time_decreases_with_earlier_filters() {
        // filter-then-aggregate must be cheaper than aggregate-then-filter
        // (on group keys) because the aggregate sees fewer rows.
        let cheap = pipeline();
        let mut expensive = Flow::new("p2");
        let d = expensive.add_op("DS", li()).unwrap();
        let a = expensive
            .append(
                d,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into(), "l_discount".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "rev")],
                },
            )
            .unwrap();
        let s = expensive
            .append(a, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() })
            .unwrap();
        expensive.append(s, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();

        let m = EstimatedTime::new();
        let c1 = m.cost(&cheap, &stats()).unwrap();
        let c2 = m.cost(&expensive, &stats()).unwrap();
        assert!(c1 < c2, "filter-early {c1} should beat filter-late {c2}");
    }

    #[test]
    fn shared_flow_costs_less_than_two_copies() {
        // One source feeding two loaders vs. two whole pipelines: the
        // integrated form scans once.
        let mut shared = Flow::new("shared");
        let d = shared.add_op("DS", li()).unwrap();
        let s =
            shared.append(d, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
        shared.append(s, "LOAD1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        shared.append(s, "LOAD2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();

        let single = {
            let mut f = Flow::new("single");
            let d = f.add_op("DS", li()).unwrap();
            let s =
                f.append(d, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() }).unwrap();
            f.append(s, "LOAD1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
            f
        };
        let m = EstimatedTime::new();
        let shared_cost = m.cost(&shared, &stats()).unwrap();
        let two_copies = 2.0 * m.cost(&single, &stats()).unwrap();
        assert!(shared_cost < two_copies, "{shared_cost} !< {two_copies}");
    }

    #[test]
    fn join_cost_uses_build_and_probe_sides() {
        let mut f = Flow::new("j");
        let l = f.add_op("L", li()).unwrap();
        let o = f
            .add_op(
                "O",
                OpKind::Datastore {
                    datastore: "orders".into(),
                    schema: Schema::new(vec![Column::new("o_orderkey", ColType::Integer)]),
                },
            )
            .unwrap();
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
        f.append(j, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let cost = EstimatedTime::new().cost(&f, &stats()).unwrap();
        assert!(cost > 0.0);
        let cards = rows_of(&f, &stats());
        assert_eq!(cards[&j], 60_000.0, "FK join keeps probe-side cardinality");
    }

    #[test]
    fn observed_cardinalities_override_estimates() {
        let f = pipeline();
        let mut s = stats();
        let cards = rows_of(&f, &s);
        let sel = f.id_by_name("SEL").unwrap();
        assert!((cards[&sel] - 60_000.0 * 0.33).abs() < 1.0, "static estimate first");
        // A run observed the filter keeping almost nothing.
        s.observe_op("SEL", 120.0);
        let cards = rows_of(&f, &s);
        assert_eq!(cards[&sel], 120.0, "observation wins");
        let agg = f.id_by_name("AGG").unwrap();
        assert!(cards[&agg] <= 120.0 * s.group_fraction + 1.0, "correction propagates downstream");
        s.clear_observations();
        let cards = rows_of(&f, &s);
        assert!((cards[&sel] - 60_000.0 * 0.33).abs() < 1.0, "cleared observations restore estimates");
    }

    #[test]
    fn forget_op_drops_one_observation() {
        let mut s = stats();
        s.observe_op_io("SEL", 1000.0, 10.0);
        s.observe_op("AGG", 5.0);
        s.forget_op("SEL");
        assert_eq!(s.observed_op("SEL"), None);
        assert_eq!(s.observed_selectivity("SEL"), None);
        assert_eq!(s.observed_op("AGG"), Some(5.0), "other observations survive");
    }

    #[test]
    fn decompose_parts_sum_to_cost() {
        let (model, f, s) = (EstimatedTime::new(), pipeline(), stats());
        let total = model.cost(&f, &s).unwrap();
        let parts = model.decompose(&f, &s).unwrap().expect("estimated time decomposes");
        assert_eq!(parts.len(), f.op_count());
        let sum: f64 = parts.iter().map(|p| p.cost).sum();
        assert!((sum - total).abs() <= 1e-9 * total.max(1.0), "{sum} != {total}");
        let f = pipeline();
        let parts = OpCount.decompose(&f, &stats()).unwrap().unwrap();
        assert_eq!(parts.iter().map(|p| p.cost).sum::<f64>(), OpCount.cost(&f, &stats()).unwrap());
    }

    #[test]
    fn op_count_model_counts() {
        let f = pipeline();
        assert_eq!(OpCount.cost(&f, &stats()).unwrap(), 4.0);
        assert_eq!(OpCount.name(), "operation-count");
        assert_eq!(EstimatedTime::new().name(), "estimated-execution-time");
    }

    #[test]
    fn op_fingerprint_tracks_semantics_not_identity() {
        let a = OpKind::Selection { predicate: parse_expr("x > 1").unwrap() };
        let b = OpKind::Selection { predicate: parse_expr("x > 1").unwrap() };
        let c = OpKind::Selection { predicate: parse_expr("x > 2").unwrap() };
        assert_eq!(op_fingerprint(&a), op_fingerprint(&b));
        assert_ne!(op_fingerprint(&a), op_fingerprint(&c));
    }
}
