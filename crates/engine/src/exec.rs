//! The flow executor: runs a validated logical flow against a catalog.
//!
//! The executor is morsel-driven: every operator splits its input into
//! fixed-size morsels ([`MORSEL_ROWS`]) and processes them on the shared
//! worker pool ([`crate::pool`]), concatenating per-morsel results in morsel
//! order. Because the morsel structure is a function of input length alone —
//! never of the thread count — serial and parallel runs produce bit-identical
//! output, including the floating-point accumulation order of aggregates and
//! the insertion order of group keys.
//!
//! The data plane is columnar: relations hold `Arc`-shared typed columns
//! ([`crate::column::Column`]), so projections and pass-through operators are
//! pointer bumps, selections produce selection vectors that gather once, and
//! expressions evaluate column-at-a-time per morsel
//! ([`crate::vector::eval_vector`]). Join and group-by keys are encoded to
//! fixed-width words ([`crate::keys`]) whenever the key types allow, so the
//! hash tables hash machine words instead of cloning `Value` rows.
//!
//! Expressions are compiled once per operator ([`CompiledExpr`]) before any
//! row is touched, so the hot loops do positional column access instead of
//! name hashing.
//!
//! Operators exchange [`Batch`]es, not relations: a batch is either a
//! materialized relation or a *late* relation — shared source columns plus a
//! deferred selection vector per column ([`LateCol`]). Selections, joins,
//! projections, and derivations stay late, composing their selection vectors
//! instead of gathering, so a filter→project→join chain gathers each payload
//! column exactly once, at the operator that actually consumes it (or at the
//! loader). Each `LateCol` memoizes its gather, so a column consumed twice
//! still gathers once.
//!
//! Joins and grouped aggregations radix-partition their keys on a
//! multiplicative hash ([`crate::keys::radix_of`]): every morsel scatters its
//! rows into [`radix_partition_count`] buckets, and the per-partition tables build and
//! merge in parallel with no synchronization, since a key lives in exactly
//! one partition. The partition count is a pure function of the build-side
//! length — never the thread count — so output order stays bit-identical to
//! a serial run.

use crate::catalog::Catalog;
use crate::column::Bitmap;
use crate::column::{contiguous_run, Column as Col, ColumnBuilder, ColumnData, NULL_IDX};
use crate::eval::{truthy, EvalError};
use crate::keys::{
    key_group_ids, plan_group_keys, plan_join_keys, with_packed_key, FastMap, GroupKeyPlan, JoinKeyPlan, SideKeys,
};
use crate::pool;
use crate::relation::{Relation, Row};
use crate::stats;
use crate::value::Value;
use crate::vector::{collect_used, eval_vector, RowSel, Vek};
use quarry_etl::{AggFn, AggSpec, ColType, CompiledExpr, Expr, FlowError, JoinKind, OpKind, Schema, UnboundColumn};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Rows per morsel. Fixed (not derived from the thread count) so that the
/// same input always decomposes identically and results are reproducible
/// under any parallelism.
pub const MORSEL_ROWS: usize = 4096;

/// Hard cap on radix partitions per join/aggregation build. Partition tables
/// build in parallel, so more partitions than the machine has cores mostly
/// buys scatter overhead.
pub const MAX_RADIX_PARTITIONS: usize = 64;

/// The radix partition count for a build side of `build_len` rows: one
/// partition per morsel of build data, a power of two, capped at
/// [`MAX_RADIX_PARTITIONS`]. Small builds (under two morsels) keep a single
/// table — the scatter would cost more than it saves. A pure function of the
/// input length, never the thread count, so partitioned runs stay
/// bit-identical to serial ones.
pub(crate) fn radix_partition_count(build_len: usize) -> usize {
    if build_len < 2 * MORSEL_ROWS {
        1
    } else {
        (build_len / MORSEL_ROWS).next_power_of_two().min(MAX_RADIX_PARTITIONS)
    }
}

/// Errors raised during execution.
#[derive(Debug)]
pub enum EngineError {
    Flow(FlowError),
    Eval {
        op: String,
        error: EvalError,
    },
    UnknownTable(String),
    /// A datastore asks for a column the catalog table does not have.
    SourceSchemaMismatch {
        table: String,
        column: String,
    },
    LoadSchemaMismatch {
        table: String,
        detail: String,
    },
    /// An operator input too long for the `u32` row indices of selection
    /// vectors.
    RowCapacity {
        rows: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Flow(e) => write!(f, "{e}"),
            EngineError::Eval { op, error } => write!(f, "evaluating `{op}`: {error}"),
            EngineError::UnknownTable(t) => write!(f, "unknown source table `{t}`"),
            EngineError::SourceSchemaMismatch { table, column } => {
                write!(f, "source table `{table}` has no column `{column}`")
            }
            EngineError::LoadSchemaMismatch { table, detail } => {
                write!(f, "loading into `{table}`: {detail}")
            }
            EngineError::RowCapacity { rows } => {
                write!(f, "relation of {rows} rows exceeds the u32 row-index capacity")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FlowError> for EngineError {
    fn from(e: FlowError) -> Self {
        EngineError::Flow(e)
    }
}

/// A column whose gather is deferred: the source column plus an optional
/// selection vector ([`NULL_IDX`] entries become NULL). The gather runs at
/// most once — `done` memoizes it — so a column consumed by two downstream
/// operators still materializes a single time.
pub(crate) struct LateCol {
    col: Arc<Col>,
    sel: Option<Arc<Vec<u32>>>,
    done: OnceLock<Arc<Col>>,
}

impl LateCol {
    fn direct(col: Arc<Col>) -> Arc<LateCol> {
        Arc::new(LateCol { col, sel: None, done: OnceLock::new() })
    }

    fn deferred(col: Arc<Col>, sel: Arc<Vec<u32>>) -> Arc<LateCol> {
        Arc::new(LateCol { col, sel: Some(sel), done: OnceLock::new() })
    }

    /// Materializes (memoized). A selection that covers the whole source in
    /// order is a pointer bump.
    fn get(&self) -> Arc<Col> {
        self.done
            .get_or_init(|| match &self.sel {
                None => Arc::clone(&self.col),
                Some(sel) => match contiguous_run(sel) {
                    Some(rg) if rg.start == 0 && rg.end == self.col.len() => Arc::clone(&self.col),
                    _ => Arc::new(self.col.gather(sel)),
                },
            })
            .clone()
    }
}

/// A relation whose columns are [`LateCol`]s: the schema and row count are
/// known, but per-column gathers wait for a consumer.
pub(crate) struct LazyRel {
    schema: Schema,
    len: usize,
    cols: Vec<Arc<LateCol>>,
}

/// What operators exchange: either a materialized relation or a late one.
/// Cloning is a pointer bump either way.
#[derive(Clone)]
pub(crate) enum Batch {
    Rel(Arc<Relation>),
    Lazy(Arc<LazyRel>),
}

impl Batch {
    fn lazy(schema: Schema, len: usize, cols: Vec<Arc<LateCol>>) -> Batch {
        Batch::Lazy(Arc::new(LazyRel { schema, len, cols }))
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Batch::Rel(r) => r.len(),
            Batch::Lazy(lz) => lz.len,
        }
    }

    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Batch::Rel(r) => &r.schema,
            Batch::Lazy(lz) => &lz.schema,
        }
    }

    fn col(&self, name: &str) -> usize {
        self.schema().index_of(name).expect("validated before execution")
    }

    /// Every column as a [`LateCol`], aligned with the schema. For a
    /// materialized relation these are fresh no-op wrappers; for a lazy one
    /// they are the shared columns themselves (preserving memoized gathers).
    fn late_cols(&self) -> Vec<Arc<LateCol>> {
        match self {
            Batch::Rel(r) => r.columns().iter().map(|c| LateCol::direct(Arc::clone(c))).collect(),
            Batch::Lazy(lz) => lz.cols.clone(),
        }
    }

    /// Materializes exactly the columns an operator reads, in parallel,
    /// leaving the rest untouched. The returned vector is schema-aligned;
    /// slots outside `used` hold an empty placeholder that the caller's
    /// compiled expressions never index.
    fn cols_for(&self, used: &[usize]) -> Vec<Arc<Col>> {
        match self {
            Batch::Rel(r) => r.columns().to_vec(),
            Batch::Lazy(lz) => {
                let got = pool::run_indexed(used.len(), |k| lz.cols[used[k]].get());
                let mut out = vec![placeholder_col(); lz.cols.len()];
                for (c, &idx) in got.into_iter().zip(used) {
                    out[idx] = c;
                }
                out
            }
        }
    }

    /// Materializes every column (in parallel) into a relation.
    pub(crate) fn materialize(&self) -> Arc<Relation> {
        match self {
            Batch::Rel(r) => Arc::clone(r),
            Batch::Lazy(lz) => {
                let cols = pool::run_indexed(lz.cols.len(), |i| lz.cols[i].get());
                Arc::new(Relation::from_columns(lz.schema.clone(), cols))
            }
        }
    }

    /// Applies a selection vector *lazily*: no column gathers, only
    /// selection-vector composition. This is what fuses filter→project
    /// chains — the rows survive as indices until something consumes them.
    fn select(&self, kept: Vec<u32>) -> Batch {
        let kept = Arc::new(kept);
        match self {
            Batch::Rel(r) => {
                let cols = r.columns().iter().map(|c| LateCol::deferred(Arc::clone(c), Arc::clone(&kept))).collect();
                Batch::lazy(r.schema.clone(), kept.len(), cols)
            }
            Batch::Lazy(lz) => Batch::lazy(lz.schema.clone(), kept.len(), compose_cols(&lz.cols, &kept)),
        }
    }
}

/// Shared zero-length stand-in for unread column slots (see
/// [`Batch::cols_for`]).
fn placeholder_col() -> Arc<Col> {
    static EMPTY: OnceLock<Arc<Col>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Col::new(ColumnData::Int(Vec::new()), None))))
}

/// `outer ∘ inner`: row `k` of the result is `inner[outer[k]]`. A
/// [`NULL_IDX`] in `outer` (a left join's unmatched pad) stays NULL.
fn compose_sel(inner: &[u32], outer: &[u32]) -> Vec<u32> {
    outer.iter().map(|&k| if k == NULL_IDX { NULL_IDX } else { inner[k as usize] }).collect()
}

/// Pushes a new selection under existing late columns. Columns sharing one
/// inner selection vector (the common case: all survivors of one filter)
/// share the composed vector too, computed once. A column whose gather
/// already ran composes from the materialized column instead — never redo
/// work the memo already paid for.
fn compose_cols(cols: &[Arc<LateCol>], outer: &Arc<Vec<u32>>) -> Vec<Arc<LateCol>> {
    let mut composed: HashMap<usize, Arc<Vec<u32>>> = HashMap::new();
    cols.iter()
        .map(|lc| {
            if let Some(done) = lc.done.get() {
                return LateCol::deferred(Arc::clone(done), Arc::clone(outer));
            }
            match &lc.sel {
                None => LateCol::deferred(Arc::clone(&lc.col), Arc::clone(outer)),
                Some(inner) => {
                    let sel = Arc::clone(
                        composed
                            .entry(Arc::as_ptr(inner) as usize)
                            .or_insert_with(|| Arc::new(compose_sel(inner, outer))),
                    );
                    LateCol::deferred(Arc::clone(&lc.col), sel)
                }
            }
        })
        .collect()
}

/// The column indices an operator reads: `extra` (key/group columns) plus
/// every column referenced by `exprs`, sorted and deduplicated.
fn used_columns(exprs: &[&CompiledExpr], extra: &[usize]) -> Vec<usize> {
    let mut used: Vec<usize> = extra.to_vec();
    for e in exprs {
        collect_used(e, &mut used);
    }
    used.sort_unstable();
    used.dedup();
    used
}

/// The morsel decomposition of `len` rows: contiguous ranges of at most
/// [`MORSEL_ROWS`] rows, in order. Empty input has no morsels.
pub(crate) fn morsel_ranges(len: usize) -> Vec<Range<usize>> {
    (0..len).step_by(MORSEL_ROWS).map(|start| start..len.min(start + MORSEL_ROWS)).collect()
}

/// Applies `f` to every morsel of `0..len` on the worker pool and returns
/// the per-morsel results in morsel order.
pub(crate) fn per_morsel<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = morsel_ranges(len);
    pool::run_indexed(ranges.len(), |i| f(ranges[i].clone()))
}

/// Concatenates per-morsel chunks in morsel order.
pub(crate) fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut c in chunks {
        out.append(&mut c);
    }
    out
}

/// Concatenates fallible per-morsel chunks in morsel order; the first error
/// in morsel order wins, which is deterministic for any thread count.
pub(crate) fn try_concat<T>(chunks: Vec<Result<Vec<T>, EvalError>>) -> Result<Vec<T>, EvalError> {
    let mut out = Vec::new();
    for c in chunks {
        let mut c = c?;
        out.append(&mut c);
    }
    Ok(out)
}

/// Binds an operator's expression against its input schema, once, before
/// any row is processed. Unknown columns surface here instead of on the
/// first evaluated row.
pub(crate) fn compile(expr: &Expr, schema: &Schema, op: &str) -> Result<CompiledExpr, EngineError> {
    CompiledExpr::compile(expr, schema)
        .map_err(|UnboundColumn(c)| EngineError::Eval { op: op.to_string(), error: EvalError::UnknownColumn(c) })
}

/// Gathers every column at the same selection vector, in parallel over
/// columns. [`NULL_IDX`] entries become NULL in every column.
fn gather_all(cols: &[Arc<Col>], indices: &[u32]) -> Vec<Arc<Col>> {
    pool::run_indexed(cols.len(), |i| Arc::new(cols[i].gather(indices)))
}

/// Row positions are carried as `u32` selection vectors (with `u32::MAX`
/// reserved as [`NULL_IDX`]); relations beyond that are out of scope for an
/// in-memory engine and are refused before any index is narrowed.
pub(crate) fn check_row_capacity(len: usize) -> Result<(), EngineError> {
    if len < u32::MAX as usize {
        Ok(())
    } else {
        Err(EngineError::RowCapacity { rows: len })
    }
}

/// Reads one source: the catalog table projected onto the declared
/// extraction schema. Zero rows copied — a schema that is the table's own
/// layout hands out the table itself, anything else shares its columns
/// (catalog tables may carry more, e.g. FKs).
pub(crate) fn read_source(catalog: &Catalog, datastore: &str, schema: &Schema) -> Result<Batch, EngineError> {
    let table = catalog.get_shared(datastore).ok_or_else(|| EngineError::UnknownTable(datastore.to_string()))?;
    if *schema == table.schema {
        return Ok(Batch::Rel(table));
    }
    let columns: Vec<Arc<Col>> = schema
        .columns
        .iter()
        .map(|c| {
            table.schema.index_of(&c.name).map(|i| Arc::clone(table.column(i))).ok_or_else(|| {
                EngineError::SourceSchemaMismatch { table: datastore.to_string(), column: c.name.clone() }
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Batch::Rel(Arc::new(Relation::from_columns(schema.clone(), columns))))
}

/// Executes one operation that is a function of its inputs alone: everything
/// but sources ([`read_source`]) and loaders ([`crate::schedule`]). `schema`
/// is the output schema the plan propagated for it.
///
/// Returns a [`Batch`] so that pass-through operations — an extraction or
/// projection that keeps every column in place, a selection that keeps every
/// row — can share their input instead of copying, and so that row-dropping
/// operators can stay late instead of gathering.
pub(crate) fn execute_pure(name: &str, kind: &OpKind, schema: &Schema, inputs: &[Batch]) -> Result<Batch, EngineError> {
    let eval_err = |e: EvalError| EngineError::Eval { op: name.to_string(), error: e };
    match kind {
        OpKind::Extraction { columns } | OpKind::Projection { columns } => {
            let input = &inputs[0];
            let indices: Vec<usize> = columns.iter().map(|c| input.col(c)).collect();
            if indices.len() == input.schema().len() && indices.iter().enumerate().all(|(pos, &i)| pos == i) {
                // Keeps every column in place: the output IS the input.
                return Ok(input.clone());
            }
            match input {
                Batch::Rel(r) => {
                    let picked = indices.iter().map(|&i| Arc::clone(r.column(i))).collect();
                    Ok(Batch::Rel(Arc::new(Relation::from_columns(schema.clone(), picked))))
                }
                // A late input stays late: dropped columns simply never
                // gather. Shared `LateCol`s keep their memoized gathers.
                Batch::Lazy(lz) => {
                    let picked = indices.iter().map(|&i| Arc::clone(&lz.cols[i])).collect();
                    Ok(Batch::lazy(schema.clone(), lz.len, picked))
                }
            }
        }
        OpKind::Selection { predicate } => {
            let input = &inputs[0];
            check_row_capacity(input.len())?;
            let predicate = compile(predicate, input.schema(), name)?;
            // Materialize only the columns the predicate reads; payload
            // columns wait behind the (composed) selection vector.
            let cols = input.cols_for(&used_columns(&[&predicate], &[]));
            let cols = cols.as_slice();
            // Each morsel evaluates the predicate column-at-a-time and
            // produces a selection vector of absolute row indices.
            let chunks: Vec<Result<Vec<u32>, EvalError>> = per_morsel(input.len(), |rg| {
                let start = rg.start;
                let n = rg.len();
                let vek = eval_vector(&predicate, cols, &RowSel::Range(rg))?;
                let mut keep = Vec::new();
                match &vek {
                    Vek::Const(v) => {
                        if truthy(v) {
                            keep.extend((start..start + n).map(|i| i as u32));
                        }
                    }
                    Vek::Col(c) => match (c.data(), c.validity()) {
                        (ColumnData::Bool(bits), None) => {
                            for (k, &b) in bits.iter().enumerate() {
                                if b {
                                    keep.push((start + k) as u32);
                                }
                            }
                        }
                        (ColumnData::Bool(bits), Some(bm)) => {
                            for (k, &b) in bits.iter().enumerate() {
                                if b && bm.get(k) {
                                    keep.push((start + k) as u32);
                                }
                            }
                        }
                        _ => {
                            for k in 0..n {
                                if truthy(&c.value(k)) {
                                    keep.push((start + k) as u32);
                                }
                            }
                        }
                    },
                }
                Ok(keep)
            });
            let kept = try_concat(chunks).map_err(eval_err)?;
            if kept.len() == input.len() {
                // Every row survives: the output IS the input.
                return Ok(input.clone());
            }
            // No gather: survivors ride along as a selection vector. A
            // following filter/projection composes with it, so chains touch
            // each payload column exactly once.
            Ok(input.select(kept))
        }
        OpKind::Derivation { column: _, expr } => {
            let input = &inputs[0];
            let expr = compile(expr, input.schema(), name)?;
            let cols = input.cols_for(&used_columns(&[&expr], &[]));
            let cols = cols.as_slice();
            let parts: Vec<Result<Col, EvalError>> = per_morsel(input.len(), |rg| {
                let n = rg.len();
                Ok(eval_vector(&expr, cols, &RowSel::Range(rg))?.into_column(n))
            });
            let mut evaluated = Vec::with_capacity(parts.len());
            for p in parts {
                evaluated.push(p.map_err(eval_err)?);
            }
            let ty = schema.columns.last().expect("derivation appends a column").ty;
            let derived = Col::concat(&evaluated.iter().collect::<Vec<_>>(), ty);
            // Output = all input columns (still late) + the one new column.
            let mut columns = input.late_cols();
            columns.push(LateCol::direct(Arc::new(derived)));
            Ok(Batch::lazy(schema.clone(), input.len(), columns))
        }
        OpKind::Join { kind: jk, left_on, right_on } => {
            check_row_capacity(inputs[0].len().max(inputs[1].len()))?;
            Ok(hash_join(&inputs[0], &inputs[1], left_on, right_on, *jk))
        }
        OpKind::Aggregation { group_by, aggregates } => {
            let member = AggMember { name, aggregates, schema, input: &inputs[0] };
            execute_aggregations(group_by, &[member]).pop().expect("one result per member")
        }
        OpKind::Union => {
            let (l, r) = (&inputs[0].materialize(), &inputs[1].materialize());
            // Align the right input positionally by column name; same-layout
            // inputs (the common case) concatenate representation-to-
            // representation without value round-trips.
            let indices: Vec<usize> = l.schema.names().map(|n| r.col(n)).collect();
            let columns: Vec<Arc<Col>> = l
                .schema
                .columns
                .iter()
                .enumerate()
                .map(|(i, sc)| Arc::new(Col::concat(&[l.column(i).as_ref(), r.column(indices[i]).as_ref()], sc.ty)))
                .collect();
            Ok(Batch::Rel(Arc::new(Relation::from_columns(l.schema.clone(), columns))))
        }
        OpKind::Distinct => {
            // Row-wise dedup reads every column: materialize up front.
            let input = inputs[0].materialize();
            check_row_capacity(input.len())?;
            let cols: Vec<&Col> = input.columns().iter().map(Arc::as_ref).collect();
            let (ids, groups) = key_group_ids(&cols, input.len());
            if groups == input.len() {
                return Ok(Batch::Rel(input));
            }
            // A row survives when it opens its group: ids count up from zero.
            let mut kept: Vec<u32> = Vec::with_capacity(groups);
            for (i, &g) in ids.iter().enumerate() {
                if g as usize == kept.len() {
                    kept.push(i as u32);
                }
            }
            Ok(Batch::Rel(Arc::new(Relation::from_columns(input.schema.clone(), gather_all(input.columns(), &kept)))))
        }
        OpKind::Sort { columns } => {
            // The output permutes every row anyway; materialize and gather.
            let input = inputs[0].materialize();
            check_row_capacity(input.len())?;
            let indices: Vec<usize> = columns.iter().map(|c| input.col(c)).collect();
            // Materialize the sort-key columns once; the (stable) sort then
            // permutes 4-byte indices and compares values positionally,
            // never touching the non-key columns until the final gather.
            let keys: Vec<Vec<Value>> = indices
                .iter()
                .map(|&i| {
                    let c = input.column(i);
                    (0..c.len()).map(|r| c.value(r)).collect()
                })
                .collect();
            let mut order: Vec<u32> = (0..input.len() as u32).collect();
            order.sort_by(|&a, &b| {
                for k in &keys {
                    let c = k[a as usize].total_cmp(&k[b as usize]);
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(Batch::Rel(Arc::new(Relation::from_columns(input.schema.clone(), gather_all(input.columns(), &order)))))
        }
        OpKind::SurrogateKey { natural, output: _ } => {
            let input = &inputs[0];
            let indices: Vec<usize> = natural.iter().map(|c| input.col(c)).collect();
            // Only the natural-key columns materialize; the payload stays
            // late behind the appended key column.
            let cols = input.cols_for(&used_columns(&[], &indices));
            let chunks: Vec<Vec<i64>> = per_morsel(input.len(), |rg| {
                rg.map(|i| {
                    // Content-addressed surrogate (FNV-1a over the natural
                    // key): the same natural key yields the same surrogate
                    // in *any* flow, so fact FKs computed in the fact
                    // pipeline match dimension keys computed in dimension
                    // pipelines. The display bytes stream straight from the
                    // columns into the hash — no row materialization.
                    let mut fnv = FnvWriter::new();
                    for &c in &indices {
                        cols[c].write_display(i, &mut fnv).expect("hash writer never fails");
                        fnv.sep();
                    }
                    fnv.finish()
                })
                .collect()
            });
            let mut columns = input.late_cols();
            columns.push(LateCol::direct(Arc::new(Col::new(ColumnData::Int(concat(chunks)), None))));
            Ok(Batch::lazy(schema.clone(), input.len(), columns))
        }
        OpKind::Datastore { .. } | OpKind::Loader { .. } => {
            unreachable!("sources and loaders are executed by the scheduler")
        }
    }
}

/// Executes aggregations that group by `group_by` over row-aligned inputs
/// — a [`crate::FusedGroup`]'s members, or one aggregation alone — as one
/// keyed pass ([`hash_aggregate`]). One result per member, in member order;
/// an evaluation error names its member.
pub(crate) fn execute_aggregations(group_by: &[String], members: &[AggMember]) -> Vec<Result<Batch, EngineError>> {
    let rows = members[0].input.len();
    if check_row_capacity(rows).is_err() {
        return members.iter().map(|_| Err(EngineError::RowCapacity { rows })).collect();
    }
    (hash_aggregate(group_by, members).into_iter().zip(members))
        .map(|(out, member)| {
            out.map(|r| Batch::Rel(Arc::new(r)))
                .map_err(|error| EngineError::Eval { op: member.name.to_string(), error })
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Targets of the upserts on this thread that grouped their keys (the hash path).
    static KEY_GROUPINGS: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Upsert-merges `input` into the catalog table `table` keyed on `key`:
/// the target schema takes the union of columns (old rows padded with NULL),
/// and input rows overwrite/fill the columns they carry for matching keys
/// (the last old row carrying a key takes the match; within the batch the
/// last write wins) or append, in first-seen order, when no old row matches.
///
/// The merge plan is a selection vector over `old ++ input`, so every
/// carried column rebuilds as one typed concatenation and one gather, never
/// a `Value` per cell. It comes one of two ways:
///
/// - a *sorted* key — one NULL-free `Int` column, strictly increasing on the
///   input and on a populated target — merges the two key slices in one pass
///   ([`merge_sorted_keys`]), hashing nothing;
/// - any other key is grouped once over `old ++ input` ([`key_group_ids`]):
///   encoded words give the same per-column equality as `Value` rows — NULL
///   equals NULL, the concatenation unifies the two sides' dictionaries —
///   and only a `Mixed` key column (an `Int`-keyed table receiving `Float`
///   keys, say) falls back to `Value`-row keys.
///
/// `distinct` — the plan proved the input's keys pairwise distinct
/// ([`crate::PlanNode::distinct`]) — lets a load into an empty table take the
/// identity plan the grouping would have arrived at without hashing a row.
/// A load that rewrites every row in place (the plan sends slot *s* to input
/// row *s*) shares the input's columns. A rejected load leaves the table as
/// it was.
pub(crate) fn upsert(
    catalog: &mut Catalog,
    table: &str,
    input: &Relation,
    key: &[String],
    distinct: bool,
) -> Result<(), String> {
    if !catalog.contains(table) {
        // Create empty, then run the merge below: the input itself may
        // carry several rows per key (e.g. a fact-grain recomputation), and
        // the table must end up deduplicated by key either way.
        catalog.put(table.to_string(), Relation::new(input.schema.clone()));
    }
    let existing = catalog.get_mut(table).expect("created above");
    // Widen the schema to the union; check types of shared columns.
    let mut widened = Vec::new();
    for c in &input.schema.columns {
        match existing.schema.column(&c.name) {
            Some(prev) if prev.ty != c.ty => {
                return Err(format!("column `{}` is {} in the target but {} in the input", c.name, prev.ty, c.ty));
            }
            Some(_) => {}
            None => widened.push(c.clone()),
        }
    }
    if let Some(k) = key.iter().find(|k| input.schema.index_of(k).is_none()) {
        let side = if existing.schema.index_of(k).is_some() { "input" } else { "target" };
        return Err(format!("upsert key `{k}` missing from {side}"));
    }
    let old_len = existing.nrows;
    let total = old_len + input.len();
    let merged = sorted_int_key(input, key).and_then(|new| {
        let old = if old_len == 0 { &[][..] } else { sorted_int_key(existing, key)? };
        Some(merge_sorted_keys(old, new))
    });
    existing.schema.columns.extend(widened);
    // Target position → input column carrying it. Widened positions have no
    // old column yet: their old rows are NULL.
    let input_of: Vec<Option<usize>> = existing.schema.names().map(|n| input.schema.index_of(n)).collect();
    let stacked = |tp: usize, ic: usize| -> Arc<Col> {
        if old_len == 0 {
            return Arc::clone(&input.columns()[ic]);
        }
        let ty = existing.schema.columns[tp].ty;
        let old = existing.columns.get(tp).cloned().unwrap_or_else(|| Arc::new(Col::nulls(ty, old_len)));
        Arc::new(Col::concat(&[old.as_ref(), input.columns()[ic].as_ref()], ty))
    };
    let plan: Option<Vec<u32>> = match merged {
        Some(plan) => plan,
        None if distinct && old_len == 0 => None,
        None => {
            #[cfg(test)]
            KEY_GROUPINGS.with(|g| g.borrow_mut().push(table.to_string()));
            let key_cols: Vec<Arc<Col>> = key
                .iter()
                .map(|k| {
                    let tp = existing.schema.index_of(k).expect("the widened target has every input column");
                    stacked(tp, input_of[tp].expect("the input carries every key"))
                })
                .collect();
            let (ids, groups) = key_group_ids(&key_cols.iter().map(Arc::as_ref).collect::<Vec<_>>(), total);
            grouped_plan(&ids, old_len, groups)
        }
    };
    let new_len = plan.as_ref().map_or(total, Vec::len);
    let overwrite = plan.as_deref().and_then(contiguous_run) == Some(old_len..total);
    // Columns the input does not carry keep their values (appended slots
    // pad with NULL); columns it does carry gather through the plan, or are
    // the input's own when it overwrites every row.
    let columns: Vec<Arc<Col>> = (0..existing.schema.len())
        .map(|tp| match (input_of[tp], &plan) {
            (Some(ic), _) if overwrite => Arc::clone(&input.columns()[ic]),
            (None, _) if new_len == old_len => Arc::clone(&existing.columns[tp]),
            (None, _) => {
                let ty = existing.schema.columns[tp].ty;
                Arc::new(Col::concat(&[existing.columns[tp].as_ref(), &Col::nulls(ty, new_len - old_len)], ty))
            }
            (Some(ic), None) => stacked(tp, ic),
            (Some(ic), Some(plan)) => Arc::new(stacked(tp, ic).gather(plan)),
        })
        .collect();
    existing.columns = columns;
    existing.nrows = new_len;
    Ok(())
}

/// The key's values when `key` is one `Int` column without NULLs whose
/// values strictly increase down `rel` — so no two rows share a key.
fn sorted_int_key<'a>(rel: &'a Relation, key: &[String]) -> Option<&'a [i64]> {
    let [k] = key else { return None };
    let col = rel.columns.get(rel.schema.index_of(k)?)?;
    match col.data() {
        ColumnData::Int(v) if col.validity().is_none() && v.windows(2).all(|w| w[0] < w[1]) => Some(v),
        _ => None,
    }
}

/// The merge plan from `old ++ new`'s key groups ([`key_group_ids`]): per
/// output slot, the row it takes. A key's slot is the last old row carrying
/// it, else the slot its first input row appends; its last input row wins.
/// `None` is the identity — every key distinct (the common first load): the
/// merged columns are the stacked ones, shared rather than copied.
fn grouped_plan(ids: &[u32], old_len: usize, groups: usize) -> Option<Vec<u32>> {
    if groups == ids.len() {
        return None;
    }
    let mut slot_of: Vec<u32> = vec![NULL_IDX; groups];
    for (slot, &g) in ids[..old_len].iter().enumerate() {
        slot_of[g as usize] = slot as u32;
    }
    let mut plan: Vec<u32> = (0..old_len as u32).collect();
    for (i, &g) in ids[old_len..].iter().enumerate() {
        let slot = &mut slot_of[g as usize];
        if *slot == NULL_IDX {
            *slot = plan.len() as u32;
            plan.push(NULL_IDX);
        }
        plan[*slot as usize] = (old_len + i) as u32;
    }
    Some(plan)
}

/// [`grouped_plan`] of two strictly increasing key slices by one two-pointer
/// pass, hashing nothing: a target row whose key the input carries takes
/// that input row, and the other input rows append in input order — with
/// both sides distinct, exactly what the grouping plans.
fn merge_sorted_keys(old: &[i64], new: &[i64]) -> Option<Vec<u32>> {
    if old.is_empty() {
        return None;
    }
    let mut plan: Vec<u32> = (0..old.len() as u32).collect();
    let mut at = 0;
    for (i, k) in new.iter().enumerate() {
        while old.get(at).is_some_and(|o| o < k) {
            at += 1;
        }
        let row = (old.len() + i) as u32;
        match old.get(at) {
            Some(o) if o == k => plan[at] = row,
            _ => plan.push(row),
        }
    }
    (plan.len() < old.len() + new.len()).then_some(plan)
}

/// Streaming FNV-1a over display bytes — the surrogate-key hash. Shared by
/// [`surrogate_of`] (row values) and the columnar `SurrogateKey` operator
/// (which streams straight from column storage).
pub(crate) struct FnvWriter(u64);

impl FnvWriter {
    pub(crate) fn new() -> Self {
        FnvWriter(0xcbf29ce484222325)
    }

    /// Separator between key parts so `("ab","c") != ("a","bc")`.
    pub(crate) fn sep(&mut self) {
        self.0 ^= 0x1f;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    pub(crate) fn finish(&self) -> i64 {
        (self.0 & 0x7fff_ffff_ffff_ffff) as i64
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// Deterministic surrogate key: FNV-1a over the display forms of the natural
/// key values, masked positive. Stable across flows and runs.
pub fn surrogate_of<'a>(values: impl Iterator<Item = &'a Value>) -> i64 {
    let mut fnv = FnvWriter::new();
    for v in values {
        use std::fmt::Write;
        write!(fnv, "{v}").expect("hash writer never fails");
        fnv.sep();
    }
    fnv.finish()
}

/// Hash join over columnar inputs. Keys are planned once ([`plan_join_keys`]):
/// fixed-width word keys when the key column types allow (the fast path —
/// the hash tables then hash `u64`/`u128` instead of cloning `Value` rows),
/// `Value`-row keys when a `Mixed` column forces it, and a no-op when some
/// key column pair can never match.
///
/// Only the key columns materialize here. The output is late: both sides'
/// payload columns carry the matched index pairs as deferred selections, so
/// a downstream filter or projection composes before anything gathers.
fn hash_join(left: &Batch, right: &Batch, left_on: &[String], right_on: &[String], kind: JoinKind) -> Batch {
    let l_idx: Vec<usize> = left_on.iter().map(|c| left.col(c)).collect();
    let r_idx: Vec<usize> = right_on.iter().map(|c| right.col(c)).collect();
    // Same-name equi-joined key columns are kept once (left copy), matching
    // the logical schema propagation.
    let kept = quarry_etl::join_kept_right_indices(right.schema(), left_on, right_on);
    let mut schema = left.schema().clone();
    schema.columns.extend(kept.iter().map(|&i| right.schema().columns[i].clone()));

    let l_cols = left.cols_for(&used_columns(&[], &l_idx));
    let r_cols = right.cols_for(&used_columns(&[], &r_idx));
    let l_keys: Vec<&Col> = l_idx.iter().map(|&c| l_cols[c].as_ref()).collect();
    let r_keys: Vec<&Col> = r_idx.iter().map(|&c| r_cols[c].as_ref()).collect();
    let (l_out, r_out) = match plan_join_keys(&l_keys, left.len(), &r_keys, right.len()) {
        JoinKeyPlan::Never => {
            if kind == JoinKind::Left {
                ((0..left.len() as u32).collect(), vec![NULL_IDX; left.len()])
            } else {
                (Vec::new(), Vec::new())
            }
        }
        JoinKeyPlan::Values => {
            // Value-row keys don't hash cheaply enough to be worth a
            // partition pass; build one table.
            stats::record_join_partitions(1);
            join_core(
                left.len(),
                right.len(),
                kind,
                1,
                |_: &Row| 0,
                |i| {
                    let key: Row = l_idx.iter().map(|&c| l_cols[c].value(i)).collect();
                    (!key.iter().any(Value::is_null)).then_some(key)
                },
                |i| {
                    let key: Row = r_idx.iter().map(|&c| r_cols[c].value(i)).collect();
                    (!key.iter().any(Value::is_null)).then_some(key)
                },
            )
        }
        JoinKeyPlan::Encoded { left: lk, right: rk } => {
            let npart = radix_partition_count(right.len());
            if let Some(out) = (lk.width == 1).then(|| dense_join(&lk, &rk, kind)).flatten() {
                stats::record_join_partitions(1);
                out
            } else {
                stats::record_join_partitions(npart);
                with_packed_key!(lk.width, npart, |pack, part| join_core(
                    left.len(),
                    right.len(),
                    kind,
                    npart,
                    part,
                    |i| lk.ok[i].then(|| pack(lk.row(i))),
                    |i| rk.ok[i].then(|| pack(rk.row(i))),
                ))
            }
        }
    };
    let len = l_out.len();
    let (l_sel, r_sel) = (Arc::new(l_out), Arc::new(r_out));
    let mut cols = compose_cols(&left.late_cols(), &l_sel);
    let right_late = right.late_cols();
    let kept_late: Vec<Arc<LateCol>> = kept.iter().map(|&i| Arc::clone(&right_late[i])).collect();
    cols.extend(compose_cols(&kept_late, &r_sel));
    Batch::lazy(schema, len, cols)
}

/// Cap on the dense build array — past this the chain heads no longer fit
/// hot cache and the hash path wins back.
const DENSE_JOIN_MAX: usize = 1 << 21;

/// Single-word equi-join against a *dense* build side: when the build keys
/// span a small range (TPC-H-style foreign keys — consecutive integers — or
/// dictionary codes, which are dense by construction), the hash table
/// degrades to an array of chain heads indexed by `key - min`, and every
/// probe is one range check plus one load instead of a hash. Build rows
/// link in ascending order within each chain (the reverse-order build
/// pushes to the head), so the emitted pairs are bit-identical to
/// [`join_core`]'s serial table. Returns `None` when the key range is too
/// sparse for the array to pay off — surrogate-hash keys land there.
fn dense_join(lk: &SideKeys, rk: &SideKeys, kind: JoinKind) -> Option<(Vec<u32>, Vec<u32>)> {
    let right_len = rk.ok.len();
    let (mut min, mut max, mut any) = (u64::MAX, 0u64, false);
    for i in 0..right_len {
        if rk.ok[i] {
            min = min.min(rk.words[i]);
            max = max.max(rk.words[i]);
            any = true;
        }
    }
    if !any {
        return None;
    }
    let size = (max - min) as usize + 1;
    if size > DENSE_JOIN_MAX || size > (right_len * 8).max(1024) {
        return None;
    }
    let mut heads = vec![NULL_IDX; size];
    let mut next = vec![NULL_IDX; right_len];
    for i in (0..right_len).rev() {
        if rk.ok[i] {
            let s = (rk.words[i] - min) as usize;
            next[i] = heads[s];
            heads[s] = i as u32;
        }
    }
    let chunks: Vec<(Vec<u32>, Vec<u32>)> = per_morsel(lk.ok.len(), |rg| {
        // A morsel of an FK join typically emits about one pair per probe
        // row; reserving that up front skips the doubling reallocations.
        let mut l_out = Vec::with_capacity(rg.len());
        let mut r_out = Vec::with_capacity(rg.len());
        for i in rg {
            let d = lk.words[i].wrapping_sub(min);
            let mut m = if lk.ok[i] && d < size as u64 { heads[d as usize] } else { NULL_IDX };
            if m == NULL_IDX {
                if kind == JoinKind::Left {
                    l_out.push(i as u32);
                    r_out.push(NULL_IDX);
                }
                continue;
            }
            while m != NULL_IDX {
                l_out.push(i as u32);
                r_out.push(m);
                m = next[m as usize];
            }
        }
        (l_out, r_out)
    });
    let total: usize = chunks.iter().map(|(l, _)| l.len()).sum();
    let mut l_out = Vec::with_capacity(total);
    let mut r_out = Vec::with_capacity(total);
    for (mut l, mut r) in chunks {
        l_out.append(&mut l);
        r_out.append(&mut r);
    }
    Some((l_out, r_out))
}

/// The join skeleton, generic over the key type. `lkey`/`rkey` return `None`
/// for rows whose key can never match (NULL slots, probe strings missing
/// from the build dictionary); with a left join those rows pad with
/// [`NULL_IDX`].
///
/// Builds on the right side, probes with the left (FK joins probe the big
/// side in DW flows). The build is radix-partitioned on `part` (a pure
/// function of the key): each morsel scatters its keyed rows into `npart`
/// buckets, the buckets transpose to partition-major, and each partition
/// builds its own table from its buckets in morsel order — in parallel,
/// with no synchronization, since a key lives in exactly one partition.
/// Within each key the match list stays in ascending row order, exactly
/// what a serial build produces. The probe walks the left side per morsel
/// in original order, routing each key to its partition's table, so the
/// emitted `(left row, right row)` pairs concatenate bit-identically to a
/// single-table probe.
fn join_core<K, P, L, R>(
    left_len: usize,
    right_len: usize,
    kind: JoinKind,
    npart: usize,
    part: P,
    lkey: L,
    rkey: R,
) -> (Vec<u32>, Vec<u32>)
where
    K: Hash + Eq + Send + Sync,
    P: Fn(&K) -> usize + Sync,
    L: Fn(usize) -> Option<K> + Sync,
    R: Fn(usize) -> Option<K> + Sync,
{
    // One partition's build entries, one inner Vec per source morsel.
    type Buckets<K> = Vec<Vec<(K, u32)>>;
    // Build, pass 1: per-morsel scatter into partition buckets.
    let scattered: Vec<Buckets<K>> = per_morsel(right_len, |rg| {
        let mut buckets: Buckets<K> = (0..npart).map(|_| Vec::new()).collect();
        for i in rg {
            if let Some(k) = rkey(i) {
                let p = part(&k);
                buckets[p].push((k, i as u32));
            }
        }
        buckets
    });
    // Transpose morsel-major → partition-major. Pure moves, no clones.
    let mut by_part: Vec<Buckets<K>> = (0..npart).map(|_| Vec::with_capacity(scattered.len())).collect();
    for morsel in scattered {
        for (p, bucket) in morsel.into_iter().enumerate() {
            by_part[p].push(bucket);
        }
    }
    // Build, pass 2: per-partition tables in parallel. The mutexes only
    // hand ownership of a partition's buckets to the one job that takes
    // them — they are never contended.
    let slots: Vec<Mutex<Buckets<K>>> = by_part.into_iter().map(Mutex::new).collect();
    let tables: Vec<FastMap<K, Vec<u32>>> = pool::run_indexed(npart, |p| {
        let buckets = std::mem::take(&mut *slots[p].lock().expect("bucket mutex never poisons"));
        let mut m: FastMap<K, Vec<u32>> = FastMap::default();
        for bucket in buckets {
            for (k, i) in bucket {
                m.entry(k).or_default().push(i);
            }
        }
        m
    });
    // Probe per morsel in original order, partition computed on the fly.
    let chunks: Vec<(Vec<u32>, Vec<u32>)> = per_morsel(left_len, |rg| {
        let mut l_out = Vec::with_capacity(rg.len());
        let mut r_out = Vec::with_capacity(rg.len());
        for i in rg {
            match lkey(i).and_then(|k| tables[part(&k)].get(&k)) {
                Some(ms) => {
                    for &m in ms {
                        l_out.push(i as u32);
                        r_out.push(m);
                    }
                }
                None => {
                    if kind == JoinKind::Left {
                        l_out.push(i as u32);
                        r_out.push(NULL_IDX);
                    }
                }
            }
        }
        (l_out, r_out)
    });
    let total: usize = chunks.iter().map(|(l, _)| l.len()).sum();
    let mut l_out = Vec::with_capacity(total);
    let mut r_out = Vec::with_capacity(total);
    for (mut l, mut r) in chunks {
        l_out.append(&mut l);
        r_out.append(&mut r);
    }
    (l_out, r_out)
}

/// One group's accumulator for one measure, as a value: the row engine's
/// whole aggregation state, and in the columnar engine only what a
/// [`Lane::States`] lane holds.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Sum(f64, bool),
    Avg(f64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Count(u64),
}

impl AggState {
    /// The accumulator of `f` that has folded nothing.
    pub(crate) fn fresh(f: AggFn) -> AggState {
        match f {
            AggFn::Sum => AggState::Sum(0.0, false),
            AggFn::Avg => AggState::Avg(0.0, 0),
            AggFn::Min => AggState::Min(None),
            AggFn::Max => AggState::Max(None),
            AggFn::Count => AggState::Count(0),
        }
    }
}

/// The functions `aggregates` name. Both engines propagate schemas
/// (`flow.schemas()`) before running any operator, and that rejects every
/// name [`AggSpec::agg_fn`] does not know — an unknown name here is a bug in
/// this program, not an input.
pub(crate) fn agg_fns(aggregates: &[AggSpec]) -> Vec<AggFn> {
    aggregates.iter().map(|a| a.agg_fn().expect("schema propagation rejects unknown aggregate names")).collect()
}

/// The numeric view of a measure vector whose `SUM`/`AVG` fold runs
/// column-at-a-time as plain `f64` adds.
enum NumSrc<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
    Const(f64),
}

/// The flat view of `vek`, if it has one: a numeric vector (with its
/// validity) or a numeric constant. Non-numeric vectors, whose accumulation
/// must surface a type error per row, and `Mixed` columns have none.
fn numeric_source(vek: &Vek) -> Option<(NumSrc<'_>, Option<&Bitmap>)> {
    match vek {
        Vek::Const(Value::Int(v)) => Some((NumSrc::Const(*v as f64), None)),
        Vek::Const(Value::Float(v)) => Some((NumSrc::Const(*v), None)),
        Vek::Col(c) => match c.data() {
            ColumnData::Float(v) => Some((NumSrc::F(v), c.validity())),
            ColumnData::Int(v) => Some((NumSrc::I(v), c.validity())),
            _ => None,
        },
        _ => None,
    }
}

/// Folds one evaluated measure value into an accumulator.
pub(crate) fn accumulate(state: &mut AggState, v: Value) -> Result<(), EvalError> {
    match state {
        AggState::Count(n) => *n += 1,
        _ if v.is_null() => {}
        AggState::Sum(acc, any) => {
            *acc += v.as_f64().ok_or_else(|| EvalError::Type(format!("SUM of `{v}`")))?;
            *any = true;
        }
        AggState::Avg(acc, n) => {
            *acc += v.as_f64().ok_or_else(|| EvalError::Type(format!("AVERAGE of `{v}`")))?;
            *n += 1;
        }
        AggState::Min(cur) => {
            if cur.as_ref().is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less) {
                *cur = Some(v);
            }
        }
        AggState::Max(cur) => {
            if cur.as_ref().is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater) {
                *cur = Some(v);
            }
        }
    }
    Ok(())
}

/// Merges a later morsel's accumulator into an earlier one. Ties keep the
/// earlier value, matching the row-order semantics of a serial fold.
pub(crate) fn merge_state(into: &mut AggState, from: AggState) {
    match (into, from) {
        (AggState::Sum(acc, any), AggState::Sum(acc2, any2)) => {
            *acc += acc2;
            *any |= any2;
        }
        (AggState::Avg(acc, n), AggState::Avg(acc2, n2)) => {
            *acc += acc2;
            *n += n2;
        }
        (AggState::Min(cur), AggState::Min(other)) => {
            if let Some(v) = other {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less) {
                    *cur = Some(v);
                }
            }
        }
        (AggState::Max(cur), AggState::Max(other)) => {
            if let Some(v) = other {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater) {
                    *cur = Some(v);
                }
            }
        }
        (AggState::Count(n), AggState::Count(m)) => *n += m,
        _ => unreachable!("morsel accumulators always align by aggregate spec"),
    }
}

/// The final value of one accumulator.
pub(crate) fn finalize_state(state: AggState) -> Value {
    match state {
        AggState::Sum(acc, any) => {
            if any {
                Value::Float(acc)
            } else {
                Value::Null
            }
        }
        AggState::Avg(acc, n) => {
            if n > 0 {
                Value::Float(acc / n as f64)
            } else {
                Value::Null
            }
        }
        AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        AggState::Count(n) => Value::Int(n as i64),
    }
}

/// One measure's accumulators for a table of groups, indexed by group id:
/// the aggregation state is these flat vectors from the hash probe to the
/// output column, with no object per group. The kind follows the function.
enum Lane {
    /// `SUM`/`AVG`: the running sum and the number of non-NULL inputs in it.
    Num { acc: Vec<f64>, cnt: Vec<u64> },
    /// `COUNT`.
    Count(Vec<u64>),
    /// `MIN`/`MAX`, which keep `Value`s.
    States(Vec<AggState>),
}

/// Folds one evaluated measure over a morsel into a lane of `groups`
/// accumulators, `gids[off]` being the group of the morsel's `off`-th row.
/// `SUM`/`AVG` over a numeric vector add in row order from `0.0` — the adds
/// [`accumulate`] makes, in its order, so the sums carry the same bits;
/// over anything else they go through [`accumulate`] itself.
fn fold_lane(f: AggFn, vek: &Vek, gids: &[u32], groups: usize) -> Result<Lane, EvalError> {
    if f == AggFn::Count {
        let mut n = vec![0u64; groups];
        gids.iter().for_each(|&g| n[g as usize] += 1);
        return Ok(Lane::Count(n));
    }
    let flat = if matches!(f, AggFn::Sum | AggFn::Avg) { numeric_source(vek) } else { None };
    let Some((src, validity)) = flat else {
        let mut states = vec![AggState::fresh(f); groups];
        for (off, &g) in gids.iter().enumerate() {
            accumulate(&mut states[g as usize], vek.value(off))?;
        }
        let num = |s: &AggState| match *s {
            AggState::Sum(acc, any) => (acc, u64::from(any)),
            AggState::Avg(acc, n) => (acc, n),
            _ => unreachable!("SUM and AVG fold into their own states"),
        };
        return Ok(match f {
            AggFn::Sum | AggFn::Avg => {
                let (acc, cnt) = states.iter().map(num).unzip();
                Lane::Num { acc, cnt }
            }
            _ => Lane::States(states),
        });
    };
    let (mut acc, mut cnt) = (vec![0.0f64; groups], vec![0u64; groups]);
    let mut add = |off: usize, x: f64| {
        if validity.is_none_or(|bm| bm.get(off)) {
            acc[gids[off] as usize] += x;
            cnt[gids[off] as usize] += 1;
        }
    };
    match src {
        NumSrc::F(vs) => vs.iter().enumerate().for_each(|(off, &x)| add(off, x)),
        NumSrc::I(vs) => vs.iter().enumerate().for_each(|(off, &x)| add(off, x as f64)),
        NumSrc::Const(c) => (0..gids.len()).for_each(|off| add(off, c)),
    }
    Ok(Lane::Num { acc, cnt })
}

/// Merges `from[j]` into `into[slots[j]]`. A slot one past the end is a group
/// seen for the first time: its partial moves in as it is; any other slot
/// `+=`s it.
fn absorb_flat<T: Copy + std::ops::AddAssign>(into: &mut Vec<T>, from: &[T], slots: &[u32]) {
    for (&x, &s) in from.iter().zip(slots) {
        match into.get_mut(s as usize) {
            Some(y) => *y += x,
            None => into.push(x),
        }
    }
}

impl Lane {
    /// An empty lane of `f`'s kind with room for `n` groups.
    fn with_capacity(f: AggFn, n: usize) -> Lane {
        match f {
            AggFn::Sum | AggFn::Avg => Lane::Num { acc: Vec::with_capacity(n), cnt: Vec::with_capacity(n) },
            AggFn::Count => Lane::Count(Vec::with_capacity(n)),
            AggFn::Min | AggFn::Max => Lane::States(Vec::with_capacity(n)),
        }
    }

    /// Merges the groups at `run` of a morsel's lane into slots `slots` of
    /// this one (see [`absorb_flat`]).
    fn absorb(&mut self, from: &Lane, run: Range<usize>, slots: &[u32]) {
        match (self, from) {
            (Lane::Num { acc, cnt }, Lane::Num { acc: from_acc, cnt: from_cnt }) => {
                absorb_flat(acc, &from_acc[run.clone()], slots);
                absorb_flat(cnt, &from_cnt[run], slots);
            }
            (Lane::Count(n), Lane::Count(from_n)) => absorb_flat(n, &from_n[run], slots),
            (Lane::States(states), Lane::States(from_states)) => {
                for (from, &s) in from_states[run].iter().cloned().zip(slots) {
                    match states.get_mut(s as usize) {
                        Some(into) => merge_state(into, from),
                        None => states.push(from),
                    }
                }
            }
            _ => unreachable!("a measure's lane kind follows its function"),
        }
    }

    /// Appends another partition's merged lane.
    fn append(&mut self, other: Lane) {
        match (self, other) {
            (Lane::Num { acc, cnt }, Lane::Num { acc: mut a, cnt: mut c }) => {
                acc.append(&mut a);
                cnt.append(&mut c);
            }
            (Lane::Count(n), Lane::Count(mut m)) => n.append(&mut m),
            (Lane::States(s), Lane::States(mut t)) => s.append(&mut t),
            _ => unreachable!("a measure's lane kind follows its function"),
        }
    }

    /// The output column: group `perm[k]`'s final value at row `k`. Flat
    /// lanes build typed data plus a validity bitmap from the counts, in the
    /// representation a [`ColumnBuilder`] fed the finalized values picks:
    /// validity dropped when every group has a value, an all-NULL column
    /// typed after the declared `ty`.
    fn into_column(self, perm: &[u32], f: AggFn, ty: ColType) -> Col {
        match self {
            Lane::Num { acc, cnt } => {
                let valid = perm.iter().filter(|&&g| cnt[g as usize] > 0).count();
                if valid == 0 {
                    return Col::nulls(ty, perm.len());
                }
                let value = |&g: &u32| match (f, cnt[g as usize]) {
                    (AggFn::Avg, n @ 1..) => acc[g as usize] / n as f64,
                    _ => acc[g as usize],
                };
                let validity = (valid < perm.len()).then(|| {
                    let mut bm = Bitmap::new();
                    perm.iter().for_each(|&g| bm.push(cnt[g as usize] > 0));
                    bm
                });
                Col::new(ColumnData::Float(perm.iter().map(value).collect()), validity)
            }
            Lane::Count(n) => Col::new(ColumnData::Int(perm.iter().map(|&g| n[g as usize] as i64).collect()), None),
            Lane::States(states) => {
                let mut b = ColumnBuilder::new(ty);
                perm.iter().for_each(|&g| b.push(finalize_state(states[g as usize].clone())));
                b.finish()
            }
        }
    }
}

/// One morsel's aggregation result, struct-of-arrays over its local groups
/// laid out as partition-contiguous runs: radix partition `p` owns positions
/// `starts[p]..starts[p + 1]` of `keys`, `firsts` (each group's first-seen
/// row) and every lane, in first-seen order within the run. `lanes` holds
/// one entry per member of the pass: its lanes, or the error its measures
/// raised on this morsel.
struct LocalAgg<K> {
    keys: Vec<K>,
    firsts: Vec<u32>,
    starts: Vec<u32>,
    lanes: Vec<Result<Vec<Lane>, EvalError>>,
}

impl<K> LocalAgg<K> {
    fn run(&self, p: usize) -> Range<usize> {
        self.starts[p] as usize..self.starts[p + 1] as usize
    }
}

/// One member's measures in a keyed pass: compiled against its own input,
/// whose columns `cols` holds (schema-aligned, see [`Batch::cols_for`]).
struct Measures {
    cols: Vec<Arc<Col>>,
    exprs: Vec<CompiledExpr>,
    fns: Vec<AggFn>,
}

/// A keyed pass's groups: `firsts` in first-seen (ascending) order, and for
/// output row `k` the id `perm[k]` the accumulators have in every member's
/// `lanes` — or the first error, in morsel order, that member's measures
/// raised.
struct Grouped {
    firsts: Vec<u32>,
    perm: Vec<u32>,
    lanes: Vec<Result<Vec<Lane>, EvalError>>,
}

/// The aggregation skeleton, generic over the group-key type: two-phase
/// parallel aggregation over flat accumulator lanes ([`Lane`]), allocating
/// per morsel and per partition, never per group. The rows are keyed once
/// for every member of the pass; each member's measures fold into lanes of
/// their own against the same group ids.
///
/// Phase 1, per morsel: one hash probe per row resolves it to a local
/// group; the local groups are then ranked by the key's radix partition (a
/// stable counting sort) and the rows' group ids re-ranked with them. Each
/// member's measures then evaluate column-at-a-time and fold
/// ([`fold_lane`]), so keys, first-seen rows and every lane come out as
/// partition-contiguous runs ([`LocalAgg`]). Phase 2, per partition, in
/// parallel: a table pre-sized from the partition's entry count streams each
/// morsel's run in morsel order ([`Lane::absorb`]) — slices in, no gather —
/// keeping each key's earliest first-seen row, and the merged partitions land
/// in exactly sized arrays. A key lives in one partition and a row opens at
/// most one group, so scattering the merged groups over their first-seen
/// rows and reading the rows back in order restores global first-occurrence
/// order without comparing groups.
///
/// Sums are per-morsel partials folded in row order from `0.0`, combined in
/// morsel order: a pure function of the morsel structure and the key values,
/// identical at any thread count and to the row engine's. A member whose
/// measures fail keeps the first failure in morsel order (within a morsel
/// evaluation errors surface measure-major rather than row-major — still
/// deterministic) and drops out of phase 2; the other members are unaffected.
fn agg_core<K, P, F>(len: usize, members: &[Result<Measures, EvalError>], npart: usize, part: P, keyf: F) -> Grouped
where
    K: Hash + Eq + Clone + Send + Sync,
    P: Fn(&K) -> usize + Sync,
    F: Fn(usize) -> K + Sync,
{
    let mut locals: Vec<LocalAgg<K>> = per_morsel(len, |rg| {
        let sel = RowSel::Range(rg.clone());
        let mut index: FastMap<K, u32> = FastMap::with_capacity_and_hasher(rg.len(), Default::default());
        // Per local group in first-seen order: its first row and partition.
        let mut seen: Vec<(u32, u32)> = Vec::new();
        let mut gids: Vec<u32> = rg
            .map(|i| match index.entry(keyf(i)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    seen.push((i as u32, part(e.key()) as u32));
                    *e.insert(seen.len() as u32 - 1)
                }
            })
            .collect();
        let mut starts = vec![0u32; npart + 1];
        for &(_, p) in &seen {
            starts[p as usize + 1] += 1;
        }
        for p in 0..npart {
            starts[p + 1] += starts[p];
        }
        let mut cursor = starts.clone();
        let mut rank = vec![0u32; seen.len()];
        let mut firsts = vec![0u32; seen.len()];
        for (g, &(first, p)) in seen.iter().enumerate() {
            rank[g] = cursor[p as usize];
            firsts[rank[g] as usize] = first;
            cursor[p as usize] += 1;
        }
        gids.iter_mut().for_each(|g| *g = rank[*g as usize]);
        let keys = firsts.iter().map(|&first| keyf(first as usize)).collect();
        let lanes = members
            .iter()
            .map(|m| {
                let Ok(m) = m else { return Ok(Vec::new()) };
                let veks: Vec<Vek> = m.exprs.iter().map(|e| eval_vector(e, &m.cols, &sel)).collect::<Result<_, _>>()?;
                m.fns.iter().zip(&veks).map(|(&f, vek)| fold_lane(f, vek, &gids, firsts.len())).collect()
            })
            .collect();
        LocalAgg { keys, firsts, starts, lanes }
    });
    // Per member, the first error in morsel order wins — deterministic under
    // any thread count.
    let mut failed: Vec<Option<EvalError>> = members.iter().map(|m| m.as_ref().err().cloned()).collect();
    for local in &mut locals {
        for (lanes, failed) in local.lanes.iter_mut().zip(&mut failed) {
            if let (Err(e), None) = (&lanes, &failed) {
                *failed = Some(e.clone());
            }
            if failed.is_some() {
                *lanes = Ok(Vec::new());
            }
        }
    }
    let fresh = |n: usize| -> Vec<Vec<Lane>> {
        (members.iter().zip(&failed))
            .map(|(m, failed)| match (m, failed) {
                (Ok(m), None) => m.fns.iter().map(|&f| Lane::with_capacity(f, n)).collect(),
                _ => Vec::new(),
            })
            .collect()
    };
    let merged: Vec<(Vec<u32>, Vec<Vec<Lane>>)> = pool::run_indexed(npart, |p| {
        let entries = locals.iter().map(|l| l.run(p).len()).sum();
        let mut index: FastMap<K, u32> = FastMap::with_capacity_and_hasher(entries, Default::default());
        let mut firsts: Vec<u32> = Vec::with_capacity(entries);
        let mut lanes = fresh(entries);
        let mut slots: Vec<u32> = Vec::new();
        for local in &locals {
            let run = local.run(p);
            slots.clear();
            slots.extend(local.keys[run.clone()].iter().zip(&local.firsts[run.clone()]).map(|(k, &first)| {
                *index.entry(k.clone()).or_insert_with(|| {
                    firsts.push(first);
                    firsts.len() as u32 - 1
                })
            }));
            for (into, from) in lanes.iter_mut().zip(&local.lanes) {
                let from = from.as_ref().expect("failed members were emptied above");
                into.iter_mut().zip(from).for_each(|(into, from)| into.absorb(from, run.clone(), &slots));
            }
        }
        (firsts, lanes)
    });
    // The morsels' arrays are the memory the exact-size ones below reuse.
    drop(locals);
    let groups = merged.iter().map(|(firsts, _)| firsts.len()).sum();
    let mut firsts: Vec<u32> = Vec::with_capacity(groups);
    let mut lanes = fresh(groups);
    for (mut more_firsts, more_lanes) in merged {
        firsts.append(&mut more_firsts);
        for (lanes, more) in lanes.iter_mut().zip(more_lanes) {
            lanes.iter_mut().zip(more).for_each(|(lane, more)| lane.append(more));
        }
    }
    let mut group_at = vec![NULL_IDX; len];
    for (g, &first) in firsts.iter().enumerate() {
        group_at[first as usize] = g as u32;
    }
    let (firsts, perm) =
        group_at.iter().enumerate().filter(|(_, &g)| g != NULL_IDX).map(|(row, &g)| (row as u32, g)).unzip();
    let lanes = lanes.into_iter().zip(failed).map(|(lanes, failed)| failed.map_or(Ok(lanes), Err)).collect();
    Grouped { firsts, perm, lanes }
}

/// One aggregation of a keyed pass ([`hash_aggregate`]): its name, its
/// measures, its output schema and its own input.
pub(crate) struct AggMember<'a> {
    pub(crate) name: &'a str,
    pub(crate) aggregates: &'a [AggSpec],
    pub(crate) schema: &'a Schema,
    pub(crate) input: &'a Batch,
}

/// Columnar grouped aggregation of every member in one keyed pass: the
/// members group by `group_by` over row-aligned inputs (a
/// [`crate::FusedGroup`], or one aggregation alone), so the keys come from the
/// first member's input. Group keys are planned once ([`plan_group_keys`])
/// into fixed-width words unless a `Mixed` column forces `Value`-row keys,
/// and aggregate radix-partitioned ([`agg_core`]). The group columns gather
/// once at each group's first-seen row (word equality coincides with value
/// equality within every encoded column) and every member's output shares
/// them; the aggregate columns build straight from the member's lanes
/// ([`Lane::into_column`]). Only the group and measure columns materialize
/// from a late input. One result per member, in member order.
fn hash_aggregate(group_by: &[String], members: &[AggMember]) -> Vec<Result<Relation, EvalError>> {
    let lead = members[0].input;
    let len = lead.len();
    let g_idx: Vec<usize> = group_by.iter().map(|c| lead.col(c)).collect();
    // Bind every member's measure expressions and aggregate functions once,
    // up front; the first member's columns carry the group columns too.
    let measures: Vec<Result<Measures, EvalError>> = (members.iter().enumerate())
        .map(|(m, member)| {
            let exprs: Vec<CompiledExpr> = (member.aggregates.iter())
                .map(|a| {
                    CompiledExpr::compile(&a.input, member.input.schema())
                        .map_err(|UnboundColumn(c)| EvalError::UnknownColumn(c))
                })
                .collect::<Result<_, _>>()?;
            let keys: &[usize] = if m == 0 { &g_idx } else { &[] };
            let cols = member.input.cols_for(&used_columns(&exprs.iter().collect::<Vec<_>>(), keys));
            Ok(Measures { cols, exprs, fns: agg_fns(member.aggregates) })
        })
        .collect();
    let unbound;
    let cols: &[Arc<Col>] = match &measures[0] {
        Ok(lead) => &lead.cols,
        Err(_) => {
            unbound = lead.cols_for(&g_idx);
            &unbound
        }
    };

    let mut grouped = if g_idx.is_empty() {
        agg_core(len, &measures, 1, |_: &()| 0, |_| ())
    } else {
        let g_cols: Vec<&Col> = g_idx.iter().map(|&c| cols[c].as_ref()).collect();
        match plan_group_keys(&g_cols, len) {
            GroupKeyPlan::Values => {
                let keyf = |i: usize| -> Row { g_idx.iter().map(|&c| cols[c].value(i)).collect() };
                agg_core(len, &measures, 1, |_: &Row| 0, keyf)
            }
            GroupKeyPlan::Encoded(sk) => {
                let npart = radix_partition_count(len);
                with_packed_key!(sk.width, npart, |pack, part| agg_core(len, &measures, npart, part, |i| pack(
                    sk.row(i)
                )))
            }
        }
    };
    if grouped.perm.is_empty() && group_by.is_empty() {
        // A global aggregation over zero rows still yields one row of
        // neutral values, matching SQL semantics: one group that folded
        // nothing. (Its first-seen row is unused: no group columns gather.)
        for (lanes, m) in grouped.lanes.iter_mut().zip(&measures) {
            if let (Ok(_), Ok(m)) = (&lanes, m) {
                *lanes = m.fns.iter().map(|&f| fold_lane(f, &Vek::Const(Value::Null), &[], 1)).collect();
            }
        }
        (grouped.firsts, grouped.perm) = (vec![0], vec![0]);
    }
    let Grouped { firsts, perm, lanes } = grouped;
    let group_cols: Vec<Arc<Col>> = g_idx.iter().map(|&c| Arc::new(cols[c].gather(&firsts))).collect();
    (lanes.into_iter().zip(members))
        .map(|(lanes, member)| {
            let mut columns = group_cols.clone();
            for ((lane, f), sc) in
                lanes?.into_iter().zip(agg_fns(member.aggregates)).zip(&member.schema.columns[group_by.len()..])
            {
                columns.push(Arc::new(lane.into_column(&perm, f, sc.ty)));
            }
            Ok(Relation::from_columns(member.schema.clone(), columns))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Engine, RunReport};
    use quarry_etl::{parse_expr, ColType, Column, Flow, Schema};
    use std::time::Duration;

    fn li_schema() -> Schema {
        Schema::new(vec![
            Column::new("l_orderkey", ColType::Integer),
            Column::new("l_extendedprice", ColType::Decimal),
            Column::new("l_discount", ColType::Decimal),
        ])
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.put(
            "lineitem",
            Relation::with_rows(
                li_schema(),
                vec![
                    vec![Value::Int(1), Value::Float(100.0), Value::Float(0.05)],
                    vec![Value::Int(1), Value::Float(200.0), Value::Float(0.00)],
                    vec![Value::Int(2), Value::Float(50.0), Value::Float(0.10)],
                ],
            ),
        );
        c.put(
            "orders",
            Relation::with_rows(
                Schema::new(vec![Column::new("o_orderkey", ColType::Integer), Column::new("o_status", ColType::Text)]),
                vec![vec![Value::Int(1), Value::Str("O".into())], vec![Value::Int(3), Value::Str("F".into())]],
            ),
        );
        c
    }

    fn ds_lineitem() -> OpKind {
        OpKind::Datastore { datastore: "lineitem".into(), schema: li_schema() }
    }

    #[test]
    fn scan_filter_aggregate_load() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        let s = f.append(d, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        let a = f
            .append(
                s,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new(
                        "SUM",
                        parse_expr("l_extendedprice * (1 - l_discount)").unwrap(),
                        "rev",
                    )],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "fact".into(), key: vec![] }).unwrap();

        let mut engine = Engine::new(catalog());
        let report = engine.run(&f).unwrap();
        assert_eq!(report.rows_loaded("fact"), 2);
        let fact = engine.catalog.get("fact").unwrap();
        assert_eq!(fact.len(), 2);
        let rev = fact.column_values("rev");
        assert_eq!(rev[0], Value::Float(95.0));
        assert_eq!(rev[1], Value::Float(45.0));
        assert!(report.total >= Duration::ZERO);
        assert_eq!(report.timings.len(), 4);

        // The run's measured cardinalities feed back into the cost model.
        let mut stats = engine.catalog.statistics();
        for t in &report.timings {
            match t.rows_in {
                0 => stats.observe_op(&t.op, t.rows_out as f64),
                rows_in => stats.observe_op_io(&t.op, rows_in as f64, t.rows_out as f64),
            }
        }
        let sel_rows = report.timings.iter().find(|t| t.op == "SEL").unwrap().rows_out;
        assert_eq!(stats.observed_op("SEL"), Some(sel_rows as f64));
        let cards = quarry_etl::cost::cardinality_state(&f, &stats).unwrap();
        assert_eq!(cards[&s].0, sel_rows as f64, "estimator now uses the observed filter cardinality");
    }

    /// Runs `f` on the engine and on the row-at-a-time reference from the
    /// same catalog and asserts every loaded table is bit-identical.
    fn run_against_row_reference(catalog: Catalog, f: &Flow, tables: &[&str]) -> (Engine, RunReport) {
        let mut reference = crate::RowEngine::from_catalog(&catalog);
        reference.run(f).unwrap();
        let mut engine = Engine::new(catalog);
        let report = engine.run(f).unwrap();
        for t in tables {
            assert_eq!(&reference.table(t).unwrap(), engine.catalog.get(t).unwrap(), "table `{t}` differs");
        }
        (engine, report)
    }

    #[test]
    fn sibling_branches_match_the_row_reference() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        let s1 =
            f.append(d, "SEL1", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        let s2 =
            f.append(d, "SEL2", OpKind::Selection { predicate: parse_expr("l_extendedprice > 60").unwrap() }).unwrap();
        let a1 = f
            .append(
                s1,
                "AGG1",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "rev")],
                },
            )
            .unwrap();
        let a2 = f
            .append(
                s2,
                "AGG2",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("COUNT", parse_expr("1").unwrap(), "n")],
                },
            )
            .unwrap();
        f.append(a1, "L1", OpKind::Loader { table: "out1".into(), key: vec![] }).unwrap();
        f.append(a2, "L2", OpKind::Loader { table: "out2".into(), key: vec![] }).unwrap();

        let (_, report) = run_against_row_reference(catalog(), &f, &["out1", "out2"]);
        assert_eq!(report.timings.len(), f.op_count());
        assert_eq!(report.loaded.len(), 2);
    }

    #[test]
    fn run_surfaces_errors() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", OpKind::Datastore { datastore: "ghost".into(), schema: li_schema() }).unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        assert!(matches!(engine.run(&f), Err(EngineError::UnknownTable(_))));
    }

    #[test]
    fn row_capacity_overflow_is_a_typed_error() {
        let limit = u32::MAX as usize; // `NULL_IDX` itself is not a row index
        assert!(check_row_capacity(limit - 1).is_ok());
        match check_row_capacity(limit) {
            Err(e @ EngineError::RowCapacity { rows }) => {
                assert_eq!(rows, limit);
                assert!(e.to_string().contains("u32 row-index capacity"), "{e}");
            }
            other => panic!("expected RowCapacity, got {other:?}"),
        }
    }

    #[test]
    fn datastore_projects_catalog_columns() {
        // Extraction schema narrower than the stored table works.
        let mut f = Flow::new("t");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: Schema::new(vec![Column::new("l_discount", ColType::Decimal)]),
                },
            )
            .unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        assert_eq!(engine.catalog.get("out").unwrap().schema.len(), 1);
    }

    #[test]
    fn missing_table_and_column_errors() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", OpKind::Datastore { datastore: "ghost".into(), schema: li_schema() }).unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        assert!(matches!(engine.run(&f), Err(EngineError::UnknownTable(t)) if t == "ghost"));

        let mut f2 = Flow::new("t2");
        let d2 = f2
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: Schema::new(vec![Column::new("nope", ColType::Integer)]),
                },
            )
            .unwrap();
        f2.append(d2, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine2 = Engine::new(catalog());
        assert!(matches!(engine2.run(&f2), Err(EngineError::SourceSchemaMismatch { .. })));
    }

    #[test]
    fn inner_and_left_join() {
        for (kind, expected) in [(JoinKind::Inner, 2usize), (JoinKind::Left, 3usize)] {
            let mut f = Flow::new("t");
            let l = f.add_op("L", ds_lineitem()).unwrap();
            let o = f
                .add_op(
                    "O",
                    OpKind::Datastore {
                        datastore: "orders".into(),
                        schema: Schema::new(vec![
                            Column::new("o_orderkey", ColType::Integer),
                            Column::new("o_status", ColType::Text),
                        ]),
                    },
                )
                .unwrap();
            let j = f
                .add_op(
                    "J",
                    OpKind::Join { kind, left_on: vec!["l_orderkey".into()], right_on: vec!["o_orderkey".into()] },
                )
                .unwrap();
            f.connect(l, j).unwrap();
            f.connect(o, j).unwrap();
            f.append(j, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
            let mut engine = Engine::new(catalog());
            engine.run(&f).unwrap();
            assert_eq!(engine.catalog.get("out").unwrap().len(), expected, "{kind:?}");
        }
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let mut f = Flow::new("t");
        let l = f.add_op("L", ds_lineitem()).unwrap();
        let o = f
            .add_op(
                "O",
                OpKind::Datastore {
                    datastore: "orders".into(),
                    schema: Schema::new(vec![
                        Column::new("o_orderkey", ColType::Integer),
                        Column::new("o_status", ColType::Text),
                    ]),
                },
            )
            .unwrap();
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
        f.append(j, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        let unmatched: Vec<Row> = out.iter_rows().filter(|r| r[0] == Value::Int(2)).collect();
        assert_eq!(unmatched.len(), 1);
        assert!(unmatched[0][3].is_null() && unmatched[0][4].is_null());
    }

    #[test]
    fn aggregation_functions() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        let a = f
            .append(
                d,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec![],
                    aggregates: vec![
                        AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "s"),
                        AggSpec::new("AVERAGE", parse_expr("l_extendedprice").unwrap(), "a"),
                        AggSpec::new("MIN", parse_expr("l_extendedprice").unwrap(), "lo"),
                        AggSpec::new("MAX", parse_expr("l_extendedprice").unwrap(), "hi"),
                        AggSpec::new("COUNT", parse_expr("1").unwrap(), "n"),
                    ],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        assert_eq!(out.len(), 1);
        let r = out.row(0);
        assert_eq!(r[0], Value::Float(350.0));
        assert_eq!(r[1], Value::Float(350.0 / 3.0));
        assert_eq!(r[2], Value::Float(50.0));
        assert_eq!(r[3], Value::Float(200.0));
        assert_eq!(r[4], Value::Int(3));
    }

    #[test]
    fn global_aggregate_of_empty_input_yields_neutral_row() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        let s = f.append(d, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 9").unwrap() }).unwrap();
        let a = f
            .append(
                s,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec![],
                    aggregates: vec![
                        AggSpec::new("COUNT", parse_expr("1").unwrap(), "n"),
                        AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "s"),
                    ],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn surrogate_keys_are_deterministic_per_natural_key() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        let k = f
            .append(d, "SK", OpKind::SurrogateKey { natural: vec!["l_orderkey".into()], output: "sk".into() })
            .unwrap();
        f.append(k, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        let sk = out.column_values("sk");
        assert_eq!(sk[0], sk[1], "same natural key, same surrogate");
        assert_ne!(sk[0], sk[2], "different natural key, different surrogate");
        // Cross-flow stability: the same key hashed anywhere matches.
        assert_eq!(sk[0], Value::Int(surrogate_of([Value::Int(1)].iter())));
    }

    #[test]
    fn surrogate_hash_separates_key_parts() {
        let a = surrogate_of([Value::Str("ab".into()), Value::Str("c".into())].iter());
        let b = surrogate_of([Value::Str("a".into()), Value::Str("bc".into())].iter());
        assert_ne!(a, b);
        assert!(a >= 0 && b >= 0);
    }

    #[test]
    fn union_aligns_columns_by_name() {
        let mut f = Flow::new("t");
        let a = f.add_op("A", ds_lineitem()).unwrap();
        let b = f.add_op("B", ds_lineitem()).unwrap();
        let u = f.add_op("U", OpKind::Union).unwrap();
        f.connect(a, u).unwrap();
        f.connect(b, u).unwrap();
        f.append(u, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        assert_eq!(engine.catalog.get("out").unwrap().len(), 6);
    }

    #[test]
    fn union_rejects_permuted_columns_statically() {
        // Static validation requires union inputs to share one column
        // layout, which is what makes the executor's verbatim-copy fast
        // path safe: a permuted right input never reaches execution.
        let ab = Schema::new(vec![Column::new("a", ColType::Integer), Column::new("b", ColType::Text)]);
        let ba = Schema::new(vec![Column::new("b", ColType::Text), Column::new("a", ColType::Integer)]);
        let mut f = Flow::new("t");
        let l = f.add_op("L", OpKind::Datastore { datastore: "left".into(), schema: ab }).unwrap();
        let r = f.add_op("R", OpKind::Datastore { datastore: "right".into(), schema: ba }).unwrap();
        let u = f.add_op("U", OpKind::Union).unwrap();
        f.connect(l, u).unwrap();
        f.connect(r, u).unwrap();
        assert!(matches!(f.schemas(), Err(FlowError::InvalidOp { .. })));
    }

    #[test]
    fn sort_and_distinct() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        let p = f.append(d, "P", OpKind::Projection { columns: vec!["l_orderkey".into()] }).unwrap();
        let dd = f.append(p, "D", OpKind::Distinct).unwrap();
        let s = f.append(dd, "S", OpKind::Sort { columns: vec!["l_orderkey".into()] }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        // Rows with equal sort keys keep their input order (the sort
        // permutes indices but must stay stable).
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::new("k", ColType::Integer), Column::new("tag", ColType::Text)]);
        c.put(
            "t",
            Relation::with_rows(
                schema.clone(),
                vec![
                    vec![Value::Int(2), Value::Str("first-2".into())],
                    vec![Value::Int(1), Value::Str("first-1".into())],
                    vec![Value::Int(2), Value::Str("second-2".into())],
                    vec![Value::Int(1), Value::Str("second-1".into())],
                ],
            ),
        );
        let mut f = Flow::new("x");
        let d = f.add_op("DS", OpKind::Datastore { datastore: "t".into(), schema }).unwrap();
        let s = f.append(d, "S", OpKind::Sort { columns: vec!["k".into()] }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(c);
        engine.run(&f).unwrap();
        let tags = engine.catalog.get("out").unwrap().column_values("tag");
        assert_eq!(
            tags,
            [
                Value::Str("first-1".into()),
                Value::Str("second-1".into()),
                Value::Str("first-2".into()),
                Value::Str("second-2".into()),
            ]
        );
    }

    #[test]
    fn loader_appends_to_existing_table_and_checks_schema() {
        let mut f = Flow::new("t");
        let d = f.add_op("DS", ds_lineitem()).unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "sink".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(catalog());
        engine.run(&f).unwrap();
        engine.run(&f).unwrap();
        assert_eq!(engine.catalog.get("sink").unwrap().len(), 6, "two runs append");

        // Pre-created with a different schema → load error.
        let mut engine2 = Engine::new(catalog());
        engine2.catalog.create_table("sink", Schema::new(vec![Column::new("x", ColType::Integer)]));
        assert!(matches!(engine2.run(&f), Err(EngineError::LoadSchemaMismatch { .. })));
    }

    #[test]
    fn join_with_empty_build_side() {
        let mut c = catalog();
        c.put("orders", Relation::new(c.get("orders").unwrap().schema.clone()));
        let mut f = Flow::new("t");
        let l = f.add_op("L", ds_lineitem()).unwrap();
        let o = f
            .add_op(
                "O",
                OpKind::Datastore {
                    datastore: "orders".into(),
                    schema: Schema::new(vec![
                        Column::new("o_orderkey", ColType::Integer),
                        Column::new("o_status", ColType::Text),
                    ]),
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
        f.append(j, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(c);
        engine.run(&f).unwrap();
        assert_eq!(engine.catalog.get("out").unwrap().len(), 0, "inner join with empty build side is empty");
    }

    #[test]
    fn null_group_keys_form_their_own_group() {
        let mut c = Catalog::new();
        c.put(
            "t",
            Relation::with_rows(
                Schema::new(vec![Column::new("g", ColType::Integer), Column::new("v", ColType::Decimal)]),
                vec![
                    vec![Value::Null, Value::Float(1.0)],
                    vec![Value::Null, Value::Float(2.0)],
                    vec![Value::Int(1), Value::Float(3.0)],
                ],
            ),
        );
        let mut f = Flow::new("x");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "t".into(),
                    schema: Schema::new(vec![Column::new("g", ColType::Integer), Column::new("v", ColType::Decimal)]),
                },
            )
            .unwrap();
        let a = f
            .append(
                d,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["g".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("v").unwrap(), "s")],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(c);
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        assert_eq!(out.len(), 2, "NULL keys group together");
        let null_group = out.iter_rows().find(|r| r[0].is_null()).expect("null group exists");
        assert_eq!(null_group[1], Value::Float(3.0));
    }

    #[test]
    fn upsert_first_load_dedupes_by_key() {
        let mut c = Catalog::new();
        c.put(
            "t",
            Relation::with_rows(
                Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Decimal)]),
                vec![
                    vec![Value::Int(1), Value::Float(1.0)],
                    vec![Value::Int(1), Value::Float(2.0)],
                    vec![Value::Int(2), Value::Float(3.0)],
                ],
            ),
        );
        let mut f = Flow::new("x");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "t".into(),
                    schema: Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Decimal)]),
                },
            )
            .unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "out".into(), key: vec!["k".into()] }).unwrap();
        let mut engine = Engine::new(c);
        engine.run(&f).unwrap();
        let out = engine.catalog.get("out").unwrap();
        assert_eq!(out.len(), 2, "duplicate keys in the very first load collapse");
        // Last write wins within the batch.
        let k1 = out.iter_rows().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(k1[1], Value::Float(2.0));
    }

    /// `facts(a, b, v)`: `n` rows, `(a, b)` unique per row, `a` recurring.
    fn fact_rows(n: i64) -> Catalog {
        let schema = Schema::new(vec![
            Column::new("a", ColType::Integer),
            Column::new("b", ColType::Integer),
            Column::new("v", ColType::Decimal),
        ]);
        let rows = (0..n).map(|i| vec![Value::Int(i % 7), Value::Int(i / 7), Value::Float(i as f64)]).collect();
        let mut c = Catalog::new();
        c.put("facts", Relation::with_rows(schema, rows));
        c
    }

    /// `facts → SUM(v) BY group_by → steps… → upsert into out ON key`.
    fn grouped_upsert(c: &Catalog, group_by: &[&str], steps: Vec<OpKind>, key: &[&str]) -> Flow {
        let names = |cols: &[&str]| cols.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        let mut f = Flow::new("grouped_upsert");
        let schema = c.get("facts").unwrap().schema.clone();
        let mut at = f.add_op("DS", OpKind::Datastore { datastore: "facts".into(), schema }).unwrap();
        let aggregates = vec![AggSpec::new("SUM", parse_expr("v").unwrap(), "total")];
        at = f.append(at, "AGG", OpKind::Aggregation { group_by: names(group_by), aggregates }).unwrap();
        for (i, step) in steps.into_iter().enumerate() {
            at = f.append(at, format!("STEP{i}"), step).unwrap();
        }
        f.append(at, "LOAD", OpKind::Loader { table: "out".into(), key: names(key) }).unwrap();
        f.validate().expect("valid");
        f
    }

    /// The targets of the upserts that grouped their keys while `run` ran.
    fn grouped_during(run: impl FnOnce()) -> Vec<String> {
        let before = KEY_GROUPINGS.with(|g| g.borrow().len());
        run();
        KEY_GROUPINGS.with(|g| g.borrow()[before..].to_vec())
    }

    /// Runs `f` on `engine` and returns how many upserts grouped their keys;
    /// `out` must equal the row engine's, run from the same catalog.
    fn key_groupings(engine: &mut Engine, f: &Flow) -> usize {
        let mut reference = crate::RowEngine::from_catalog(&engine.catalog);
        reference.run(f).unwrap();
        let grouped = grouped_during(|| {
            engine.run(f).unwrap();
        });
        assert_eq!(&reference.table("out").unwrap(), engine.catalog.get("out").unwrap());
        grouped.len()
    }

    #[test]
    fn keyed_load_merge_plans_equal_the_grouped_plans() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let grouped = |old: &[i64], new: &[i64]| {
            let stacked = Col::new(ColumnData::Int([old, new].concat()), None);
            let (ids, groups) = key_group_ids(&[&stacked], old.len() + new.len());
            grouped_plan(&ids, old.len(), groups)
        };
        let every = |keys: &[i64], step: usize| keys.iter().step_by(step).copied().collect::<Vec<_>>();
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |n: usize, lo: i64, hi: i64| {
                let mut keys: Vec<i64> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            };
            let (base, other) = (draw(300, -500, 500), draw(300, -500, 500));
            let mut extremes = draw(60, i64::MIN, i64::MAX);
            extremes.extend([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]);
            extremes.sort_unstable();
            extremes.dedup();
            let cases = [
                ("identical", base.clone(), base.clone()),
                ("subset", base.clone(), every(&base, 3)),
                ("superset", every(&base, 2), base.clone()),
                ("disjoint", base.iter().map(|k| 2 * k).collect(), base.iter().map(|k| 2 * k + 1).collect()),
                ("interleaved", base.clone(), other),
                ("extremes", extremes.clone(), every(&extremes, 2)),
                ("empty input", base.clone(), vec![]),
                ("empty target", vec![], base.clone()),
            ];
            for (shape, old, new) in cases {
                assert_eq!(merge_sorted_keys(&old, &new), grouped(&old, &new), "{shape}, seed {seed}");
            }
        }
    }

    /// Upserts `src(k, v)` into `dim(k, w)` on `k` — `dim` absent, or holding
    /// one row per `target` key — and returns the targets whose loads grouped
    /// their keys with the engine. `dim` must equal the row engine's.
    fn load_keys(target: Option<&[Value]>, input: &[Value]) -> (Vec<String>, Engine) {
        let table = |payload: &str, keys: &[Value]| {
            let schema = Schema::new(vec![Column::new("k", ColType::Integer), Column::new(payload, ColType::Decimal)]);
            let rows = keys.iter().enumerate().map(|(i, k)| vec![k.clone(), Value::Float(i as f64)]).collect();
            Relation::with_rows(schema, rows)
        };
        let mut c = Catalog::new();
        c.put("src", table("v", input));
        if let Some(target) = target {
            c.put("dim", table("w", target));
        }
        let mut f = Flow::new("keyed");
        let schema = c.get("src").unwrap().schema.clone();
        let d = f.add_op("DS", OpKind::Datastore { datastore: "src".into(), schema }).unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "dim".into(), key: vec!["k".into()] }).unwrap();
        let mut reference = crate::RowEngine::from_catalog(&c);
        reference.run(&f).unwrap();
        let mut engine = Engine::new(c);
        let grouped = grouped_during(|| {
            engine.run(&f).unwrap();
        });
        assert_eq!(&reference.table("dim").unwrap(), engine.catalog.get("dim").unwrap(), "{target:?} ← {input:?}");
        (grouped, engine)
    }

    #[test]
    fn keyed_load_merges_exactly_when_both_keys_are_sorted() {
        let ints = |keys: &[i64]| keys.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        let sorted = ints(&[-7, 0, 3, 9, 12]);
        for target in [None, Some(vec![]), Some(ints(&[0, 9, 40])), Some(sorted.clone())] {
            assert!(load_keys(target.as_deref(), &sorted).0.is_empty(), "{target:?}");
        }
        let mut nullable = sorted.clone();
        nullable[2] = Value::Null;
        let floats = vec![Value::Float(0.0), Value::Float(3.0)];
        // Scattered like content-addressed surrogates: the load the merge leaves to the hash.
        let scattered: Vec<Value> =
            (0..64u64).map(|i| Value::Int((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) as i64)).collect();
        for input in [ints(&[0, 3, 3, 9]), ints(&[9, 3, 0]), nullable, floats, scattered.clone()] {
            assert_eq!(load_keys(Some(&sorted), &input).0, ["dim"], "{input:?}");
        }
        for target in [ints(&[9, 3, 0]), ints(&[0, 0, 3]), scattered.clone()] {
            assert_eq!(load_keys(Some(&target), &sorted).0, ["dim"], "{target:?}");
        }
        assert_eq!(load_keys(Some(&scattered), &scattered).0, ["dim"]);
        assert_eq!(load_keys(None, &ints(&[3, 0])).0, ["dim"]);

        // Same keys again: every row overwritten, the input's columns shared
        // and the widened `v` never padded.
        let (_, engine) = load_keys(Some(&sorted), &sorted);
        let (dim, src) = (engine.catalog.get("dim").unwrap(), engine.catalog.get("src").unwrap());
        assert_eq!(dim.schema.names().collect::<Vec<_>>(), ["k", "w", "v"]);
        assert!(Arc::ptr_eq(dim.column(0), src.column(0)) && Arc::ptr_eq(dim.column(2), src.column(1)));
    }

    /// The low-overlap family's conformed dimensions — several loaders
    /// upserting into one table, a first load into an absent table and later
    /// ones into a loaded one — keep their sorted keys through extraction,
    /// renames and joins, so no dimension load hashes a key, in the first run
    /// or in a second run into the loaded warehouse.
    #[test]
    fn keyed_load_of_conformed_dimensions_never_groups_keys() {
        let catalog = crate::tpch::generate(0.01, 42);
        let mut q = quarry::Quarry::tpch();
        for r in quarry_bench::requirement_family(8) {
            q.add_requirement(r).expect("integrates");
        }
        let flow = q.unified().1.clone();
        let mut dim_loads: Vec<&str> = (flow.ops())
            .filter_map(|op| match &op.kind {
                OpKind::Loader { table, key } if !key.is_empty() && !table.starts_with("fact") => Some(table.as_str()),
                _ => None,
            })
            .collect();
        let loads = dim_loads.len();
        dim_loads.sort_unstable();
        dim_loads.dedup();
        assert!(loads > dim_loads.len(), "some dimension is loaded twice: {dim_loads:?}");
        let mut reference = crate::RowEngine::from_catalog(&catalog);
        let mut engine = Engine::new(catalog);
        for run in ["first", "second"] {
            reference.run(&flow).unwrap();
            let grouped = grouped_during(|| {
                engine.run(&flow).unwrap();
            });
            let dims: Vec<&String> = grouped.iter().filter(|t| dim_loads.contains(&t.as_str())).collect();
            assert!(dims.is_empty(), "{run} run: {dims:?} grouped their keys");
            for t in &dim_loads {
                assert_eq!(&reference.table(t).unwrap(), engine.catalog.get(t).unwrap(), "{run} run: `{t}`");
            }
        }
    }

    #[test]
    fn plan_proven_distinct_first_loads_skip_the_key_grouping() {
        let c = fact_rows(3 * MORSEL_ROWS as i64 + 5);
        let f = grouped_upsert(&c, &["a", "b"], vec![], &["a", "b"]);
        let mut fresh = Engine::new(c.clone());
        assert_eq!(key_groupings(&mut fresh, &f), 0, "absent target: the identity plan, no hashing");
        let loaded = fresh.catalog.get("out").unwrap().clone();
        assert_eq!(loaded.len(), 3 * MORSEL_ROWS + 5);

        // Same flow, target pre-created empty (fast) vs holding one row (the
        // first group's key, so it merges in place): identical tables.
        let mut empty = Engine::new(c.clone());
        empty.catalog.put("out", Relation::new(loaded.schema.clone()));
        assert_eq!(key_groupings(&mut empty, &f), 0);
        assert_eq!(empty.catalog.get("out").unwrap(), &loaded);
        let mut held = Engine::new(c.clone());
        let stale = vec![Value::Int(0), Value::Int(0), Value::Float(-1.0)];
        held.catalog.put("out", Relation::with_rows(loaded.schema.clone(), vec![stale]));
        assert_eq!(key_groupings(&mut held, &f), 1, "a non-empty target takes the general path");
        assert_eq!(held.catalog.get("out").unwrap(), &loaded);

        // A second load finds the table populated.
        assert_eq!(key_groupings(&mut fresh, &f), 1);
        assert_eq!(fresh.catalog.get("out").unwrap(), &loaded);
    }

    #[test]
    fn only_a_key_covering_the_group_columns_proves_distinctness() {
        let c = fact_rows(2 * MORSEL_ROWS as i64 + 11);
        // key ⊊ group_by: rows repeat `a`, the load must still dedupe.
        let narrow = grouped_upsert(&c, &["a", "b"], vec![], &["a"]);
        let mut engine = Engine::new(c.clone());
        assert_eq!(key_groupings(&mut engine, &narrow), 1);
        assert_eq!(engine.catalog.get("out").unwrap().len(), 7);
        // key ⊋ group_by, and a global aggregation (nothing to cover).
        let wide = grouped_upsert(&c, &["a"], vec![], &["total", "a"]);
        assert_eq!(key_groupings(&mut Engine::new(c.clone()), &wide), 0);
        let global = grouped_upsert(&c, &[], vec![], &["total"]);
        assert_eq!(key_groupings(&mut Engine::new(c.clone()), &global), 1);
    }

    #[test]
    fn distinctness_survives_only_steps_that_keep_the_group_columns() {
        let c = fact_rows(2 * MORSEL_ROWS as i64 + 11);
        let cols = |cols: &[&str]| OpKind::Projection { columns: cols.iter().map(|c| c.to_string()).collect() };
        let derive =
            |column: &str, expr: &str| OpKind::Derivation { column: column.into(), expr: parse_expr(expr).unwrap() };
        let kept = vec![
            OpKind::Selection { predicate: parse_expr("b > 3").unwrap() },
            derive("twice", "total * 2"),
            cols(&["b", "twice", "a"]),
            OpKind::Sort { columns: vec!["twice".into()] },
        ];
        let f = grouped_upsert(&c, &["a", "b"], kept, &["a", "b"]);
        assert_eq!(key_groupings(&mut Engine::new(c.clone()), &f), 0);
        // `b` dropped and re-derived under its name: rows now repeat `(a, b)`.
        let remade = vec![cols(&["a", "total"]), derive("b", "a * 0")];
        let f = grouped_upsert(&c, &["a", "b"], remade, &["a", "b"]);
        let mut engine = Engine::new(c.clone());
        assert_eq!(key_groupings(&mut engine, &f), 1);
        assert_eq!(engine.catalog.get("out").unwrap().len(), 7);
        // A step the walk does not follow proves nothing either.
        let f = grouped_upsert(&c, &["a", "b"], vec![OpKind::Distinct], &["a", "b"]);
        assert_eq!(key_groupings(&mut Engine::new(c), &f), 1);
    }

    #[test]
    fn a_cache_served_aggregation_still_proves_distinctness() {
        let c = fact_rows(2 * MORSEL_ROWS as i64 + 11);
        let f = grouped_upsert(&c, &["a", "b"], vec![], &["a", "b"]);
        let cache = Arc::new(crate::cache::ResultCache::new(true, 1 << 26));
        let mut loaded = Vec::new();
        for served in [false, true] {
            let mut engine = Engine::new(c.clone());
            engine.set_result_cache(Arc::clone(&cache), 1, HashMap::new());
            assert_eq!(key_groupings(&mut engine, &f), 0);
            assert_eq!(cache.stats().hits > 0, served, "the second run's aggregation comes from the cache");
            loaded.push(engine.catalog.get("out").unwrap().clone());
        }
        assert_eq!(loaded[0], loaded[1]);
    }

    #[test]
    fn upsert_widens_schema_and_pads_old_rows() {
        let schema_a = Schema::new(vec![Column::new("k", ColType::Integer), Column::new("a", ColType::Decimal)]);
        let schema_b = Schema::new(vec![Column::new("k", ColType::Integer), Column::new("b", ColType::Text)]);
        let mut c = Catalog::new();
        c.put("src_a", Relation::with_rows(schema_a.clone(), vec![vec![Value::Int(1), Value::Float(9.0)]]));
        c.put(
            "src_b",
            Relation::with_rows(
                schema_b.clone(),
                vec![vec![Value::Int(1), Value::Str("x".into())], vec![Value::Int(2), Value::Str("y".into())]],
            ),
        );
        let mut engine = Engine::new(c);
        for (src, schema) in [("src_a", schema_a), ("src_b", schema_b)] {
            let mut f = Flow::new("x");
            let d = f.add_op("DS", OpKind::Datastore { datastore: src.into(), schema }).unwrap();
            f.append(d, "LOAD", OpKind::Loader { table: "dim".into(), key: vec!["k".into()] }).unwrap();
            engine.run(&f).unwrap();
        }
        let dim = engine.catalog.get("dim").unwrap();
        assert_eq!(dim.schema.names().collect::<Vec<_>>(), ["k", "a", "b"]);
        assert_eq!(dim.len(), 2);
        let k1 = dim.iter_rows().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(k1[1], Value::Float(9.0), "existing column kept");
        assert_eq!(k1[2], Value::Str("x".into()), "new column filled");
        let k2 = dim.iter_rows().find(|r| r[0] == Value::Int(2)).unwrap();
        assert!(k2[1].is_null(), "missing column padded with NULL");
    }

    #[test]
    fn upsert_rejects_type_conflicts() {
        let mut c = Catalog::new();
        c.put(
            "src",
            Relation::with_rows(Schema::new(vec![Column::new("k", ColType::Integer)]), vec![vec![Value::Int(1)]]),
        );
        let mut engine = Engine::new(c);
        engine.catalog.put("dim", Relation::new(Schema::new(vec![Column::new("k", ColType::Text)])));
        let mut f = Flow::new("x");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "src".into(),
                    schema: Schema::new(vec![Column::new("k", ColType::Integer)]),
                },
            )
            .unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "dim".into(), key: vec!["k".into()] }).unwrap();
        assert!(matches!(engine.run(&f), Err(EngineError::LoadSchemaMismatch { .. })));
    }

    #[test]
    fn runtime_eval_errors_carry_op_name() {
        // Dirty data: the column is declared Date but a row carries text.
        // Static validation passes; YEAR() fails at runtime on that row.
        let mut c = Catalog::new();
        c.put(
            "t",
            Relation::with_rows(
                Schema::new(vec![Column::new("d", ColType::Date)]),
                vec![vec![Value::Str("not-a-date".into())]], // dirty data
            ),
        );
        let mut f = Flow::new("x");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore { datastore: "t".into(), schema: Schema::new(vec![Column::new("d", ColType::Date)]) },
            )
            .unwrap();
        let s = f.append(d, "SEL", OpKind::Selection { predicate: parse_expr("YEAR(d) >= 1995").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        let mut engine = Engine::new(c);
        match engine.run(&f) {
            Err(EngineError::Eval { op, .. }) => assert_eq!(op, "SEL"),
            other => panic!("expected eval error, got {other:?}"),
        }
    }

    /// A catalog with one `big` table spanning several morsels and a small
    /// `orders`-like side table for joins.
    fn multi_morsel_catalog(rows: usize) -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("k", ColType::Integer),
            Column::new("grp", ColType::Integer),
            Column::new("v", ColType::Decimal),
        ]);
        let data: Vec<Row> =
            (0..rows).map(|i| vec![Value::Int(i as i64), Value::Int((i % 7) as i64), Value::Float(i as f64)]).collect();
        c.put("big", Relation::with_rows(schema, data));
        c.put(
            "side",
            Relation::with_rows(
                Schema::new(vec![Column::new("s_grp", ColType::Integer), Column::new("s_name", ColType::Text)]),
                (0..5).map(|g| vec![Value::Int(g), Value::Str(format!("g{g}"))]).collect(),
            ),
        );
        c
    }

    fn multi_morsel_flow() -> Flow {
        let mut f = Flow::new("mm");
        let big = f
            .add_op(
                "BIG",
                OpKind::Datastore {
                    datastore: "big".into(),
                    schema: Schema::new(vec![
                        Column::new("k", ColType::Integer),
                        Column::new("grp", ColType::Integer),
                        Column::new("v", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let side = f
            .add_op(
                "SIDE",
                OpKind::Datastore {
                    datastore: "side".into(),
                    schema: Schema::new(vec![
                        Column::new("s_grp", ColType::Integer),
                        Column::new("s_name", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let sel = f
            .append(big, "SEL", OpKind::Selection { predicate: parse_expr("v >= 10 AND k <> 4999").unwrap() })
            .unwrap();
        let j = f
            .add_op(
                "J",
                OpKind::Join { kind: JoinKind::Left, left_on: vec!["grp".into()], right_on: vec!["s_grp".into()] },
            )
            .unwrap();
        f.connect(sel, j).unwrap();
        f.connect(side, j).unwrap();
        let a = f
            .append(
                j,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["grp".into()],
                    aggregates: vec![
                        AggSpec::new("SUM", parse_expr("v").unwrap(), "s"),
                        AggSpec::new("COUNT", parse_expr("1").unwrap(), "n"),
                        AggSpec::new("MIN", parse_expr("v").unwrap(), "lo"),
                        AggSpec::new("MAX", parse_expr("v").unwrap(), "hi"),
                    ],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn multi_morsel_runs_are_bit_identical_to_the_row_reference() {
        // An input spanning several morsels (MORSEL_ROWS + change) through
        // selection, join, and grouped aggregation: the morsel-parallel
        // executor and the row-at-a-time reference must agree *exactly* —
        // same row order, same floats.
        let rows = MORSEL_ROWS * 2 + 137;
        let (engine, _) = run_against_row_reference(multi_morsel_catalog(rows), &multi_morsel_flow(), &["out"]);
        // Group keys surface in first-occurrence order: the selection keeps
        // k >= 10 first, so groups start at 10 % 7 = 3 and wrap around.
        let keys = engine.catalog.get("out").unwrap().column_values("grp");
        assert_eq!(keys, [3, 4, 5, 6, 0, 1, 2].map(Value::Int).to_vec());
    }

    #[test]
    fn empty_input_through_every_operator() {
        let (engine, _) = run_against_row_reference(multi_morsel_catalog(0), &multi_morsel_flow(), &["out"]);
        assert!(engine.catalog.get("out").unwrap().is_empty(), "grouped aggregate of nothing is empty");
    }

    #[test]
    fn timings_measure_op_work_not_barrier_wait() {
        // One more expensive sibling than the pool has lanes, and a trivial
        // projection positioned behind them all: every sibling is ready the
        // moment the source is read, so the projection sits in the ready set
        // until a lane has finished an expensive one. `started` shows the
        // wait, `elapsed` must not contain it.
        let mut c = multi_morsel_catalog(MORSEL_ROWS * 4);
        let tiny_schema = Schema::new(vec![Column::new("x", ColType::Integer)]);
        c.put("tiny", Relation::with_rows(tiny_schema.clone(), (1..4).map(|x| vec![Value::Int(x)]).collect()));
        let big_schema = c.get("big").unwrap().schema.clone();
        let mut f = Flow::new("t");
        let big = f.add_op("BIG", OpKind::Datastore { datastore: "big".into(), schema: big_schema }).unwrap();
        let tiny = f.add_op("TINY", OpKind::Datastore { datastore: "tiny".into(), schema: tiny_schema }).unwrap();
        let predicate = "ABS(v * 3 - k) + v * v - v * v + ABS(v) - ABS(v) >= 0 AND CONCAT(grp, '-', k) <> 'x'";
        let expensive: Vec<String> = (0..=pool::threads()).map(|i| format!("EXPENSIVE_{i}")).collect();
        for (i, name) in expensive.iter().enumerate() {
            let s = f.append(big, name, OpKind::Selection { predicate: parse_expr(predicate).unwrap() }).unwrap();
            f.append(s, format!("L{i}"), OpKind::Loader { table: format!("o{i}"), key: vec![] }).unwrap();
        }
        let cheap = f.append(tiny, "CHEAP", OpKind::Projection { columns: vec!["x".into()] }).unwrap();
        f.append(cheap, "L_cheap", OpKind::Loader { table: "o_cheap".into(), key: vec![] }).unwrap();
        let report = Engine::new(c).run(&f).unwrap();
        let timing = |name: &str| report.timings.iter().find(|t| t.op == name).unwrap();
        let cheap = timing("CHEAP");
        let first_lane_free = expensive.iter().map(|e| timing(e).started + timing(e).elapsed).min().unwrap();
        assert!(cheap.started >= first_lane_free, "CHEAP started at {:?}, before a lane was free", cheap.started);
        let fastest = expensive.iter().map(|e| timing(e).elapsed).min().unwrap();
        assert!(
            cheap.elapsed.as_micros() < fastest.as_micros().max(1) / 2,
            "3-row projection's elapsed ({:?}) looks padded with its wait behind a {}-row selection ({fastest:?})",
            cheap.elapsed,
            MORSEL_ROWS * 4
        );
    }

    #[test]
    fn selection_errors_pick_the_first_morsel_deterministically() {
        // Dirty rows in morsels 0 and 2: whichever thread finishes first,
        // the reported error must come from the earliest morsel.
        let rows = MORSEL_ROWS * 3;
        let schema = Schema::new(vec![Column::new("d", ColType::Date)]);
        let dirty_catalog = || {
            let mut c = Catalog::new();
            let mut data: Vec<Row> = (0..rows).map(|_| vec![Value::date(1995, 6, 17)]).collect();
            data[10] = vec![Value::Str("bad-early".into())];
            data[MORSEL_ROWS * 2 + 5] = vec![Value::Str("bad-late".into())];
            c.put("t", Relation::with_rows(schema.clone(), data));
            c
        };
        let mut f = Flow::new("x");
        let d = f.add_op("DS", OpKind::Datastore { datastore: "t".into(), schema: schema.clone() }).unwrap();
        let s = f.append(d, "SEL", OpKind::Selection { predicate: parse_expr("YEAR(d) >= 1995").unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        for _ in 0..4 {
            let mut engine = Engine::new(dirty_catalog());
            match engine.run(&f) {
                Err(EngineError::Eval { error: EvalError::Type(m), .. }) => {
                    assert!(m.contains("bad-early"), "expected earliest morsel's error, got `{m}`")
                }
                other => panic!("expected type error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sibling_errors_surface_in_job_order() {
        // Two operators of one level both fail; whichever worker finishes
        // first, the run reports the one that comes first in the flow.
        let schema = Schema::new(vec![Column::new("d", ColType::Date)]);
        let mut data: Vec<Row> = (0..MORSEL_ROWS * 2).map(|_| vec![Value::date(1995, 6, 17)]).collect();
        data[3] = vec![Value::Str("bad".into())];
        let mut f = Flow::new("x");
        let d = f.add_op("DS", OpKind::Datastore { datastore: "t".into(), schema: schema.clone() }).unwrap();
        for (name, predicate) in [("SEL_a", "YEAR(d) >= 1995"), ("SEL_b", "MONTH(d) >= 1")] {
            let s = f.append(d, name, OpKind::Selection { predicate: parse_expr(predicate).unwrap() }).unwrap();
            f.append(s, format!("LOAD_{name}"), OpKind::Loader { table: name.into(), key: vec![] }).unwrap();
        }
        for _ in 0..4 {
            let mut c = Catalog::new();
            c.put("t", Relation::with_rows(schema.clone(), data.clone()));
            match Engine::new(c).run(&f) {
                Err(EngineError::Eval { op, .. }) => assert_eq!(op, "SEL_a"),
                other => panic!("expected SEL_a's evaluation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn projection_and_selection_share_columns_zero_copy() {
        let c = catalog();
        let lineitem = c.get_shared("lineitem").unwrap();
        // Projection of a subset: the output column IS the input column.
        let out = execute_pure(
            "P",
            &OpKind::Projection { columns: vec!["l_discount".into()] },
            &lineitem.schema.project(&["l_discount".to_string()]).unwrap(),
            &[Batch::Rel(Arc::clone(&lineitem))],
        )
        .unwrap();
        let Batch::Rel(out) = out else { panic!("projection of a materialized input stays materialized") };
        assert!(Arc::ptr_eq(out.column(0), lineitem.column(2)), "projection shares the picked column");
        // An all-true selection returns the input relation itself.
        let out = execute_pure(
            "S",
            &OpKind::Selection { predicate: parse_expr("l_extendedprice > 0").unwrap() },
            &lineitem.schema,
            &[Batch::Rel(Arc::clone(&lineitem))],
        )
        .unwrap();
        let Batch::Rel(out) = out else { panic!("all-true selection stays materialized") };
        assert!(Arc::ptr_eq(&out, &lineitem), "all-true selection is a pass-through");
    }

    #[test]
    fn filtered_join_composes_selections_and_gathers_payload_once() {
        // A row-dropping selection, a projection, and a join all stay late;
        // only materializing the final batch gathers the payload column —
        // and doing it twice reuses the memoized gather.
        let c = catalog();
        let lineitem = Batch::Rel(c.get_shared("lineitem").unwrap());
        let orders = Batch::Rel(c.get_shared("orders").unwrap());
        let sel = execute_pure(
            "S",
            &OpKind::Selection { predicate: parse_expr("l_extendedprice < 150").unwrap() },
            &li_schema(),
            &[lineitem],
        )
        .unwrap();
        assert!(matches!(sel, Batch::Lazy(_)), "row-dropping selection stays late");
        let joined = hash_join(&sel, &orders, &["l_orderkey".into()], &["o_orderkey".into()], JoinKind::Inner);
        let Batch::Lazy(lz) = &joined else { panic!("join output stays late") };
        assert!(lz.cols.iter().all(|lc| lc.done.get().is_none()), "no payload gathered before a consumer asks");
        let once = joined.materialize();
        let twice = joined.materialize();
        assert!(Arc::ptr_eq(once.column(1), twice.column(1)), "second materialization reuses the memoized gather");
        assert_eq!(
            once.to_rows(),
            vec![vec![Value::Int(1), Value::Float(100.0), Value::Float(0.05), Value::Int(1), Value::Str("O".into()),]]
        );
    }

    #[test]
    fn radix_partition_count_is_a_pure_function_of_length() {
        assert_eq!(radix_partition_count(0), 1);
        assert_eq!(radix_partition_count(MORSEL_ROWS * 2 - 1), 1);
        assert_eq!(radix_partition_count(MORSEL_ROWS * 2), 2);
        assert_eq!(radix_partition_count(MORSEL_ROWS * 5), 8, "rounds up to a power of two");
        assert_eq!(radix_partition_count(usize::MAX / 2), MAX_RADIX_PARTITIONS);
    }

    #[test]
    fn join_with_dirty_mixed_keys_falls_back_to_value_semantics() {
        // Left key column is Mixed (dirty data); the join must fall back to
        // Value-row keys and still honour cross-type Int/Float equality.
        let left = Relation::with_rows(
            Schema::new(vec![Column::new("k", ColType::Integer)]),
            vec![vec![Value::Int(2)], vec![Value::Str("x".into())], vec![Value::Null]],
        );
        let right = Relation::with_rows(
            Schema::new(vec![Column::new("rk", ColType::Decimal)]),
            vec![vec![Value::Float(2.0)], vec![Value::Float(3.0)]],
        );
        let out = hash_join(
            &Batch::Rel(Arc::new(left)),
            &Batch::Rel(Arc::new(right)),
            &["k".into()],
            &["rk".into()],
            JoinKind::Inner,
        );
        assert_eq!(out.materialize().to_rows(), vec![vec![Value::Int(2), Value::Float(2.0)]]);
    }

    #[test]
    fn string_joins_translate_across_dictionaries() {
        // Left and right dictionaries assign different codes to the same
        // strings; the probe side must translate into build-side codes.
        let left = Relation::with_rows(
            Schema::new(vec![Column::new("s", ColType::Text)]),
            vec![vec![Value::Str("a".into())], vec![Value::Str("b".into())], vec![Value::Str("zzz".into())]],
        );
        let right = Relation::with_rows(
            Schema::new(vec![Column::new("rs", ColType::Text), Column::new("tag", ColType::Integer)]),
            vec![vec![Value::Str("b".into()), Value::Int(1)], vec![Value::Str("a".into()), Value::Int(2)]],
        );
        let out = hash_join(
            &Batch::Rel(Arc::new(left)),
            &Batch::Rel(Arc::new(right)),
            &["s".into()],
            &["rs".into()],
            JoinKind::Inner,
        );
        assert_eq!(
            out.materialize().to_rows(),
            vec![
                vec![Value::Str("a".into()), Value::Str("a".into()), Value::Int(2)],
                vec![Value::Str("b".into()), Value::Str("b".into()), Value::Int(1)],
            ]
        );
    }
}
