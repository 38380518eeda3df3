//! The retired row-at-a-time executor, preserved as a reference.
//!
//! [`RowEngine`] is the engine's previous data plane: relations stored as
//! `Vec<Row>`, operators cloning `Value`s row by row, hash tables keyed on
//! `Value` rows. It is the independent answer the columnar engine is checked
//! against, never a speed baseline:
//!
//! 1. **Equivalence.** The columnar engine must be bit-identical to this one
//!    at any thread count; `serial_parallel_equivalence` (and a few engine
//!    unit tests) run both over randomized and generated flows and compare
//!    outputs exactly.
//! 2. **The benchmark's set-up oracle.** The lifecycle benchmark runs each
//!    workload's unified flow through both engines on its small catalog
//!    before timing anything, and every loaded table must agree.
//!
//! The executor here mirrors the old serial driver: operators run one after
//! another in topological order, each still morsel-parallel internally, so
//! float accumulation order matches the columnar engine's by construction.

use crate::catalog::Catalog;
use crate::eval::{eval_compiled, truthy, EvalError};
use crate::exec::{
    accumulate, agg_fns, compile, concat, finalize_state, merge_state, per_morsel, surrogate_of, try_concat, AggState,
    EngineError,
};
use crate::relation::{Relation, Row};
use crate::schedule::{OpTiming, RunReport};
use crate::value::Value;
use quarry_etl::{AggSpec, CompiledExpr, Flow, JoinKind, OpId, OpKind, Schema, UnboundColumn};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A row-major relation: the baseline storage layout.
#[derive(Debug, Clone, Default)]
pub struct RowRel {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl RowRel {
    fn new(schema: Schema) -> Self {
        RowRel { schema, rows: Vec::new() }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn col(&self, name: &str) -> usize {
        self.schema.index_of(name).unwrap_or_else(|| panic!("column `{name}` missing from {}", self.schema))
    }
}

/// The row-at-a-time execution engine. Owns its own row-major table store;
/// build one from a columnar [`Catalog`] with [`RowEngine::from_catalog`]
/// (the conversion happens up front, outside any timed region).
#[derive(Debug, Default)]
pub struct RowEngine {
    tables: BTreeMap<String, Arc<RowRel>>,
}

impl RowEngine {
    /// Materializes every catalog table into row-major storage.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let tables = catalog
            .table_names()
            .map(|name| {
                let t = catalog.get(name).expect("name comes from the catalog");
                (name.to_string(), Arc::new(RowRel { schema: t.schema.clone(), rows: t.to_rows() }))
            })
            .collect();
        RowEngine { tables }
    }

    /// One table, converted back to a columnar [`Relation`] for comparison
    /// against the columnar engine's output.
    pub fn table(&self, name: &str) -> Option<Relation> {
        self.tables.get(name).map(|t| Relation::with_rows(t.schema.clone(), t.rows.clone()))
    }

    /// All table names, sorted (the store is a BTreeMap).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Executes a flow serially over row-major storage, mirroring the
    /// columnar [`crate::Engine::run`] driver (same validation, same report
    /// shape, same morsel decomposition inside each operator).
    pub fn run(&mut self, flow: &Flow) -> Result<RunReport, EngineError> {
        let order = flow.topo_order()?;
        flow.schemas()?;
        let start = Instant::now();
        let mut results: HashMap<OpId, Arc<RowRel>> = HashMap::with_capacity(order.len());
        // Edges out of each result not yet followed: a result is dropped
        // after its last consumer ran, and one nothing consumes is not kept.
        let mut unread: HashMap<OpId, usize> = order.iter().map(|&id| (id, flow.outputs_of(id).len())).collect();
        let mut report = RunReport::default();
        for id in order {
            let op = flow.op(id);
            let inputs: Vec<Arc<RowRel>> = flow.inputs_of(id).iter().map(|i| Arc::clone(&results[i])).collect();
            for i in flow.inputs_of(id) {
                if let Some(left) = unread.get_mut(i) {
                    *left -= 1;
                    if *left == 0 {
                        results.remove(i);
                    }
                }
            }
            let rows_in = inputs.iter().map(|r| r.len()).sum();
            let t0 = Instant::now();
            let out: Arc<RowRel> = match &op.kind {
                OpKind::Loader { table, key } => {
                    self.load(table, key, &inputs[0], &mut report)?;
                    Arc::clone(&inputs[0])
                }
                pure => self.execute_pure(&op.name, pure, &inputs)?,
            };
            let elapsed = t0.elapsed();
            report.rows_processed += out.len();
            report.timings.push(OpTiming {
                op: op.name.clone(),
                kind: op.kind.type_name(),
                rows_in,
                rows_out: out.len(),
                started: t0.duration_since(start),
                elapsed,
                worker: 0,
            });
            if !flow.outputs_of(id).is_empty() {
                results.insert(id, out);
            }
        }
        report.total = start.elapsed();
        Ok(report)
    }

    fn load(
        &mut self,
        table: &str,
        key: &[String],
        input: &Arc<RowRel>,
        report: &mut RunReport,
    ) -> Result<(), EngineError> {
        if key.is_empty() {
            match self.tables.get_mut(table) {
                Some(existing) => {
                    let existing = Arc::make_mut(existing);
                    if existing.schema.names().collect::<Vec<_>>() != input.schema.names().collect::<Vec<_>>() {
                        return Err(EngineError::LoadSchemaMismatch {
                            table: table.to_string(),
                            detail: format!("target is {}, input is {}", existing.schema, input.schema),
                        });
                    }
                    existing.rows.extend(input.rows.iter().cloned());
                }
                None => {
                    self.tables.insert(table.to_string(), Arc::clone(input));
                }
            }
        } else {
            self.upsert(table, input, key)
                .map_err(|detail| EngineError::LoadSchemaMismatch { table: table.to_string(), detail })?;
        }
        report.loaded.push((table.to_string(), input.len()));
        Ok(())
    }

    fn execute_pure(&self, name: &str, kind: &OpKind, inputs: &[Arc<RowRel>]) -> Result<Arc<RowRel>, EngineError> {
        let eval_err = |e: EvalError| EngineError::Eval { op: name.to_string(), error: e };
        match kind {
            OpKind::Datastore { datastore, schema } => {
                let table =
                    self.tables.get(datastore).cloned().ok_or_else(|| EngineError::UnknownTable(datastore.clone()))?;
                if *schema == table.schema {
                    return Ok(table);
                }
                let indices: Vec<usize> = schema
                    .columns
                    .iter()
                    .map(|c| {
                        table.schema.index_of(&c.name).ok_or_else(|| EngineError::SourceSchemaMismatch {
                            table: datastore.clone(),
                            column: c.name.clone(),
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let chunks = per_morsel(table.len(), |rg| {
                    table.rows[rg].iter().map(|r| indices.iter().map(|&i| r[i].clone()).collect()).collect()
                });
                Ok(Arc::new(RowRel { schema: schema.clone(), rows: concat(chunks) }))
            }
            OpKind::Extraction { columns } | OpKind::Projection { columns } => {
                let input = &inputs[0];
                let indices: Vec<usize> = columns.iter().map(|c| input.col(c)).collect();
                if indices.len() == input.schema.len() && indices.iter().enumerate().all(|(pos, &i)| pos == i) {
                    return Ok(Arc::clone(input));
                }
                let schema = input.schema.project(columns).expect("validated");
                let chunks = per_morsel(input.len(), |rg| {
                    input.rows[rg].iter().map(|r| indices.iter().map(|&i| r[i].clone()).collect()).collect()
                });
                Ok(Arc::new(RowRel { schema, rows: concat(chunks) }))
            }
            OpKind::Selection { predicate } => {
                let input = &inputs[0];
                let predicate = compile(predicate, &input.schema, name)?;
                let chunks = per_morsel(input.len(), |rg| {
                    let mut keep = Vec::new();
                    for r in &input.rows[rg] {
                        if truthy(&eval_compiled(&predicate, r)?) {
                            keep.push(r.clone());
                        }
                    }
                    Ok(keep)
                });
                Ok(Arc::new(RowRel { schema: input.schema.clone(), rows: try_concat(chunks).map_err(eval_err)? }))
            }
            OpKind::Derivation { column: _, expr } => {
                let input = &inputs[0];
                let schema = kind.output_schema(name, std::slice::from_ref(&input.schema))?;
                let expr = compile(expr, &input.schema, name)?;
                let chunks = per_morsel(input.len(), |rg| {
                    let mut out = Vec::with_capacity(rg.len());
                    for r in &input.rows[rg] {
                        let v = eval_compiled(&expr, r)?;
                        let mut row = Vec::with_capacity(r.len() + 1);
                        row.extend_from_slice(r);
                        row.push(v);
                        out.push(row);
                    }
                    Ok(out)
                });
                Ok(Arc::new(RowRel { schema, rows: try_concat(chunks).map_err(eval_err)? }))
            }
            OpKind::Join { kind: jk, left_on, right_on } => {
                Ok(Arc::new(row_hash_join(&inputs[0], &inputs[1], left_on, right_on, *jk)))
            }
            OpKind::Aggregation { group_by, aggregates } => {
                row_hash_aggregate(&inputs[0], group_by, aggregates, name).map(Arc::new).map_err(eval_err)
            }
            OpKind::Union => {
                let mut rows = inputs[0].rows.clone();
                let indices: Vec<usize> = inputs[0].schema.names().map(|n| inputs[1].col(n)).collect();
                if indices.iter().enumerate().all(|(pos, &i)| pos == i) {
                    rows.extend(inputs[1].rows.iter().cloned());
                } else {
                    rows.extend(inputs[1].rows.iter().map(|r| indices.iter().map(|&i| r[i].clone()).collect::<Row>()));
                }
                Ok(Arc::new(RowRel { schema: inputs[0].schema.clone(), rows }))
            }
            OpKind::Distinct => {
                let input = &inputs[0];
                let mut seen = std::collections::HashSet::with_capacity(input.len());
                let mut rows = Vec::new();
                for r in &input.rows {
                    if seen.insert(r) {
                        rows.push(r.clone());
                    }
                }
                Ok(Arc::new(RowRel { schema: input.schema.clone(), rows }))
            }
            OpKind::Sort { columns } => {
                let input = &inputs[0];
                let indices: Vec<usize> = columns.iter().map(|c| input.col(c)).collect();
                let mut order: Vec<usize> = (0..input.len()).collect();
                order.sort_by(|&a, &b| {
                    for &i in &indices {
                        let c = input.rows[a][i].total_cmp(&input.rows[b][i]);
                        if c != std::cmp::Ordering::Equal {
                            return c;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                let rows = order.into_iter().map(|i| input.rows[i].clone()).collect();
                Ok(Arc::new(RowRel { schema: input.schema.clone(), rows }))
            }
            OpKind::SurrogateKey { natural, output: _ } => {
                let input = &inputs[0];
                let schema = kind.output_schema(name, std::slice::from_ref(&input.schema))?;
                let indices: Vec<usize> = natural.iter().map(|c| input.col(c)).collect();
                let chunks = per_morsel(input.len(), |rg| {
                    input.rows[rg]
                        .iter()
                        .map(|r| {
                            let sk = surrogate_of(indices.iter().map(|&i| &r[i]));
                            let mut row = r.clone();
                            row.push(Value::Int(sk));
                            row
                        })
                        .collect()
                });
                Ok(Arc::new(RowRel { schema, rows: concat(chunks) }))
            }
            OpKind::Loader { .. } => unreachable!("loaders are executed by RowEngine::load"),
        }
    }

    /// Upsert-merge with in-place row mutation — the baseline's original
    /// formulation of what the columnar engine expresses as a merge plan.
    fn upsert(&mut self, table: &str, input: &RowRel, key: &[String]) -> Result<(), String> {
        if !self.tables.contains_key(table) {
            self.tables.insert(table.to_string(), Arc::new(RowRel::new(input.schema.clone())));
        }
        let existing = Arc::make_mut(self.tables.get_mut(table).expect("created above"));
        for c in &input.schema.columns {
            match existing.schema.column(&c.name) {
                Some(prev) if prev.ty != c.ty => {
                    return Err(format!("column `{}` is {} in the target but {} in the input", c.name, prev.ty, c.ty));
                }
                Some(_) => {}
                None => {
                    existing.schema.columns.push(c.clone());
                    for row in &mut existing.rows {
                        row.push(Value::Null);
                    }
                }
            }
        }
        let key_idx_target: Vec<usize> = key
            .iter()
            .map(|k| existing.schema.index_of(k).ok_or_else(|| format!("upsert key `{k}` missing from target")))
            .collect::<Result<_, _>>()?;
        let key_idx_input: Vec<usize> = key
            .iter()
            .map(|k| input.schema.index_of(k).ok_or_else(|| format!("upsert key `{k}` missing from input")))
            .collect::<Result<_, _>>()?;
        let mut index: HashMap<Row, usize> = existing
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| (key_idx_target.iter().map(|&c| r[c].clone()).collect::<Row>(), i))
            .collect();
        let positions: Vec<usize> =
            input.schema.columns.iter().map(|c| existing.schema.index_of(&c.name).expect("widened above")).collect();
        let width = existing.schema.len();
        for r in &input.rows {
            let k: Row = key_idx_input.iter().map(|&c| r[c].clone()).collect();
            match index.get(&k) {
                Some(&slot) => {
                    for (v, &pos) in r.iter().zip(&positions) {
                        existing.rows[slot][pos] = v.clone();
                    }
                }
                None => {
                    let mut row = vec![Value::Null; width];
                    for (v, &pos) in r.iter().zip(&positions) {
                        row[pos] = v.clone();
                    }
                    index.insert(k, existing.rows.len());
                    existing.rows.push(row);
                }
            }
        }
        Ok(())
    }
}

/// Row-at-a-time hash join: build and probe tables keyed on cloned `Value`
/// rows, morsel-partitioned exactly like the columnar join so the output
/// row order matches it bit for bit.
fn row_hash_join(left: &RowRel, right: &RowRel, left_on: &[String], right_on: &[String], kind: JoinKind) -> RowRel {
    let l_idx: Vec<usize> = left_on.iter().map(|c| left.col(c)).collect();
    let r_idx: Vec<usize> = right_on.iter().map(|c| right.col(c)).collect();
    let parts: Vec<HashMap<Row, Vec<usize>>> = per_morsel(right.len(), |rg| {
        let mut m: HashMap<Row, Vec<usize>> = HashMap::new();
        for i in rg {
            let r = &right.rows[i];
            let key: Row = r_idx.iter().map(|&c| r[c].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never match
            }
            m.entry(key).or_default().push(i);
        }
        m
    });
    let mut build: HashMap<Row, Vec<usize>> = HashMap::with_capacity(right.len());
    for part in parts {
        for (k, mut ids) in part {
            build.entry(k).or_default().append(&mut ids);
        }
    }
    let kept = quarry_etl::join_kept_right_indices(&right.schema, left_on, right_on);
    let mut schema = left.schema.clone();
    schema.columns.extend(kept.iter().map(|&i| right.schema.columns[i].clone()));
    let out_width = schema.len();
    let chunks = per_morsel(left.len(), |rg| {
        let mut out = Vec::new();
        let mut key: Row = Vec::with_capacity(l_idx.len());
        for l in &left.rows[rg] {
            key.clear();
            key.extend(l_idx.iter().map(|&c| l[c].clone()));
            let matches = if key.iter().any(Value::is_null) { None } else { build.get(key.as_slice()) };
            match matches {
                Some(ms) => {
                    for &m in ms {
                        let mut row = Vec::with_capacity(out_width);
                        row.extend_from_slice(l);
                        row.extend(kept.iter().map(|&i| right.rows[m][i].clone()));
                        out.push(row);
                    }
                }
                None => {
                    if kind == JoinKind::Left {
                        let mut row = Vec::with_capacity(out_width);
                        row.extend_from_slice(l);
                        row.extend(std::iter::repeat_n(Value::Null, kept.len()));
                        out.push(row);
                    }
                }
            }
        }
        out
    });
    RowRel { schema, rows: concat(chunks) }
}

/// One morsel's insertion-ordered aggregation table.
type LocalAggTable = Vec<(Row, Vec<AggState>)>;

/// Row-at-a-time two-phase aggregation: group keys are cloned `Value` rows,
/// measures evaluate per row; the morsel structure matches the columnar
/// engine's, so accumulation order — and therefore every float — agrees.
fn row_hash_aggregate(
    input: &RowRel,
    group_by: &[String],
    aggregates: &[AggSpec],
    op_name: &str,
) -> Result<RowRel, EvalError> {
    let schema = OpKind::Aggregation { group_by: group_by.to_vec(), aggregates: aggregates.to_vec() }
        .output_schema(op_name, std::slice::from_ref(&input.schema))
        .expect("validated before execution");
    let g_idx: Vec<usize> = group_by.iter().map(|c| input.col(c)).collect();
    let measures: Vec<CompiledExpr> = aggregates
        .iter()
        .map(|a| CompiledExpr::compile(&a.input, &input.schema).map_err(|UnboundColumn(c)| EvalError::UnknownColumn(c)))
        .collect::<Result<_, _>>()?;
    let fresh_states: Vec<AggState> = agg_fns(aggregates).into_iter().map(AggState::fresh).collect();

    let locals: Vec<Result<LocalAggTable, EvalError>> = per_morsel(input.len(), |rg| {
        let mut index: HashMap<Row, usize> = HashMap::new();
        let mut groups: LocalAggTable = Vec::new();
        let mut key: Row = Vec::with_capacity(g_idx.len());
        for r in &input.rows[rg] {
            key.clear();
            key.extend(g_idx.iter().map(|&c| r[c].clone()));
            let slot = match index.get(key.as_slice()) {
                Some(&s) => s,
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key.clone(), fresh_states.clone()));
                    groups.len() - 1
                }
            };
            for (state, m) in groups[slot].1.iter_mut().zip(&measures) {
                accumulate(state, eval_compiled(m, r)?)?;
            }
        }
        Ok(groups)
    });

    let mut index: HashMap<Row, usize> = HashMap::new();
    let mut groups: Vec<(Row, Vec<AggState>)> = Vec::new();
    for local in locals {
        for (key, states) in local? {
            match index.get(&key) {
                Some(&slot) => {
                    for (into, from) in groups[slot].1.iter_mut().zip(states) {
                        merge_state(into, from);
                    }
                }
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, states));
                }
            }
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.push((Vec::new(), fresh_states));
    }
    let rows = groups
        .into_iter()
        .map(|(mut key, states)| {
            for state in states {
                key.push(finalize_state(state));
            }
            key
        })
        .collect();
    Ok(RowRel { schema, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Engine;
    use quarry_etl::{parse_expr, ColType, Column};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.put(
            "lineitem",
            Relation::with_rows(
                Schema::new(vec![
                    Column::new("l_orderkey", ColType::Integer),
                    Column::new("l_extendedprice", ColType::Decimal),
                    Column::new("l_discount", ColType::Decimal),
                    Column::new("l_shipmode", ColType::Text),
                ]),
                (0..9000)
                    .map(|i| {
                        vec![
                            Value::Int(i % 700),
                            Value::Float(i as f64),
                            Value::Float((i % 10) as f64 / 100.0),
                            Value::Str(format!("MODE{}", i % 3)),
                        ]
                    })
                    .collect(),
            ),
        );
        c.put(
            "orders",
            Relation::with_rows(
                Schema::new(vec![Column::new("o_orderkey", ColType::Integer), Column::new("o_status", ColType::Text)]),
                (0..500).map(|i| vec![Value::Int(i), Value::Str(format!("S{}", i % 4))]).collect(),
            ),
        );
        c
    }

    fn flow() -> Flow {
        let mut f = Flow::new("t");
        let l = f
            .add_op(
                "L",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: Schema::new(vec![
                        Column::new("l_orderkey", ColType::Integer),
                        Column::new("l_extendedprice", ColType::Decimal),
                        Column::new("l_discount", ColType::Decimal),
                        Column::new("l_shipmode", ColType::Text),
                    ]),
                },
            )
            .unwrap();
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
        let s = f.append(l, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.02").unwrap() }).unwrap();
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
        f.connect(s, j).unwrap();
        f.connect(o, j).unwrap();
        let k = f
            .append(j, "SK", OpKind::SurrogateKey { natural: vec!["l_orderkey".into()], output: "sk".into() })
            .unwrap();
        let a = f
            .append(
                k,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["l_shipmode".into(), "o_status".into()],
                    aggregates: vec![
                        AggSpec::new("SUM", parse_expr("l_extendedprice * (1 - l_discount)").unwrap(), "rev"),
                        AggSpec::new("COUNT", parse_expr("1").unwrap(), "n"),
                        AggSpec::new("MIN", parse_expr("sk").unwrap(), "sk_lo"),
                    ],
                },
            )
            .unwrap();
        f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn row_engine_is_bit_identical_to_columnar_engine() {
        let c = catalog();
        let mut row = RowEngine::from_catalog(&c);
        let mut columnar = Engine::new(c);
        let f = flow();
        let rr = row.run(&f).unwrap();
        let cr = columnar.run(&f).unwrap();
        assert_eq!(rr.rows_loaded("out"), cr.rows_loaded("out"));
        assert_eq!(rr.rows_processed, cr.rows_processed);
        let a = row.table("out").unwrap();
        let b = columnar.catalog.get("out").unwrap();
        assert_eq!(&a, b, "row and columnar engines must produce identical relations");
    }

    #[test]
    fn row_engine_upsert_matches_columnar_upsert() {
        let mut c = Catalog::new();
        c.put(
            "src",
            Relation::with_rows(
                Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Decimal)]),
                (0..200).map(|i| vec![Value::Int(i % 60), Value::Float(i as f64)]).collect(),
            ),
        );
        let mut f = Flow::new("x");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "src".into(),
                    schema: Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Decimal)]),
                },
            )
            .unwrap();
        f.append(d, "LOAD", OpKind::Loader { table: "dim".into(), key: vec!["k".into()] }).unwrap();
        let mut row = RowEngine::from_catalog(&c);
        let mut columnar = Engine::new(c);
        row.run(&f).unwrap();
        row.run(&f).unwrap();
        columnar.run(&f).unwrap();
        columnar.run(&f).unwrap();
        assert_eq!(&row.table("dim").unwrap(), columnar.catalog.get("dim").unwrap());
    }
}
