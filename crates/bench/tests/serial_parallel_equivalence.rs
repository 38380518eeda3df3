//! Engine equivalence suite.
//!
//! [`Engine::run`] must load warehouses bit-identical to the retired
//! [`RowEngine`] reference — same relations in the same row order, same
//! floats, same surrogate keys, same loaded records in load order, same
//! per-operation row counts — at 1, 2, and 8 threads. Covered: every flow
//! family the `etl_execution` benchmark exercises, the Figure 3/4 fixture
//! flows, randomized flows over TPC-H and synthetic schemas, empty-input and
//! single-morsel edge cases, all-NULL columns, dictionary overflow to plain
//! strings, a hand-built flow whose loaders make load order visible, the
//! aggregation state layouts (fact-grain and recurring groups, NULL group
//! keys, every function over every input representation, order-sensitive
//! sums, errors, every shape of partition run), second loads into a
//! populated table, keyed loads of aggregation outputs and of every shape of
//! target and input keys the loader's sorted merge must tell apart from the
//! key grouping (`keyed_load_*`), and the shapes a
//! dependency-driven scheduler could get wrong (`scheduler_*`: deep chains
//! beside wide fan-outs, diamonds, self-unions, loaders of every kind into
//! shared tables at different depths, seeded random DAGs, cache-served flows,
//! a late cache offer retired after its consumers took their inputs, outputs
//! dropped at their last claim, failures, flow errors that must stop a run
//! before its first operator (`scheduler_flow_error_*`), and a stress run
//! under a watchdog), and sibling aggregations run as one keyed pass
//! (`fused_*`: the demo and wide flows, and a pass whose members fail).

use quarry::Quarry;
use quarry_bench::{at_width, figure3_pair, high_overlap_family, requirement_family};
use quarry_engine::{
    pool, tpch, Catalog, Engine, EngineError, EvalError, PhysicalPlan, Relation, ResultCache, RowEngine, RunReport,
    Value, MORSEL_ROWS,
};
use quarry_etl::{parse_expr, AggSpec, ColType, Column, Flow, FlowError, JoinKind, OpId, OpKind, Schema};
use quarry_formats::Requirement;
use std::sync::Arc;
use std::time::Duration;

/// Small enough to keep debug-mode runs quick, large enough that lineitem
/// spans several morsels.
const SF: f64 = 0.002;

fn unified_of(family: Vec<Requirement>) -> Flow {
    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    q.unified().1.clone()
}

fn partials_of(family: &[Requirement]) -> Vec<Flow> {
    let probe = Quarry::tpch();
    family.iter().map(|r| probe.interpret(r).expect("valid").etl).collect()
}

fn sorted_table_names(c: &Catalog) -> Vec<String> {
    let mut names: Vec<String> = c.table_names().map(str::to_string).collect();
    names.sort();
    names
}

/// `(op, rows in, rows out)` of every executed operation, by name: the
/// engines record operations in different (both valid) execution orders.
fn op_counts(report: &RunReport) -> Vec<(String, usize, usize)> {
    let mut counts: Vec<_> = report.timings.iter().map(|t| (t.op.clone(), t.rows_in, t.rows_out)).collect();
    counts.sort();
    counts
}

/// Runs `flows` on the row-at-a-time reference and on [`Engine::run`] at 1,
/// 2, and 8 threads from the same starting catalog, and asserts every
/// warehouse equals the reference exactly: same table set, `==` relations,
/// same loaded records in load order, same per-operation row counts.
fn assert_equivalent(catalog: &Catalog, flows: &[&Flow]) {
    assert_equivalent_at(catalog, flows, &[1, 2, 8]);
}

/// [`assert_equivalent`] at the given thread counts. The order of
/// `report.timings` is the columnar engine's own (the row engine records in
/// another, equally valid one), so it is compared across the widths.
fn assert_equivalent_at(catalog: &Catalog, flows: &[&Flow], widths: &[usize]) {
    let mut row = RowEngine::from_catalog(catalog);
    let mut row_loaded = Vec::new();
    let mut row_counts = Vec::new();
    for f in flows {
        let r = row.run(f).expect("row run");
        row_counts.extend(op_counts(&r));
        row_loaded.extend(r.loaded);
    }
    let names: Vec<String> = row.table_names().map(str::to_string).collect();
    let mut timing_order: Option<Vec<String>> = None;
    for &threads in widths {
        let mut col = Engine::new(catalog.clone());
        let reports: Vec<RunReport> =
            at_width(threads, || flows.iter().map(|f| col.run(f).expect("columnar run")).collect());
        let col_counts: Vec<_> = reports.iter().flat_map(op_counts).collect();
        let col_loaded: Vec<_> = reports.iter().flat_map(|r| r.loaded.clone()).collect();
        let order: Vec<String> = reports.iter().flat_map(|r| r.timings.iter().map(|t| t.op.clone())).collect();
        assert_eq!(row_counts, col_counts, "per-operation row counts differ at {threads} threads");
        assert_eq!(row_loaded, col_loaded, "loaded (table, rows) records differ at {threads} threads");
        assert_eq!(
            timing_order.get_or_insert_with(|| order.clone()),
            &order,
            "timings order moved at {threads} threads"
        );
        assert_eq!(names, sorted_table_names(&col.catalog), "table sets differ at {threads} threads");
        for t in &names {
            assert_eq!(
                &row.table(t).unwrap(),
                col.catalog.get(t).unwrap(),
                "table `{t}` differs from the row engine at {threads} threads"
            );
        }
    }
}

/// The same tables, all emptied: every operator sees zero rows.
fn emptied(catalog: &Catalog) -> Catalog {
    let mut c = catalog.clone();
    for name in sorted_table_names(catalog) {
        c.get_mut(&name).unwrap().clear();
    }
    c
}

#[test]
fn high_overlap_unified_flows_agree() {
    let catalog = tpch::generate(SF, 42);
    for n in [2, 4, 8] {
        let unified = unified_of(high_overlap_family(n));
        assert_equivalent(&catalog, &[&unified]);
    }
}

#[test]
fn high_overlap_separate_flows_agree() {
    let catalog = tpch::generate(SF, 42);
    let partials = partials_of(&high_overlap_family(4));
    assert_equivalent(&catalog, &partials.iter().collect::<Vec<_>>());
}

#[test]
fn low_overlap_unified_flows_agree() {
    let catalog = tpch::generate(SF, 42);
    for n in [2, 4, 8] {
        let unified = unified_of(requirement_family(n));
        assert_equivalent(&catalog, &[&unified]);
    }
}

#[test]
fn low_overlap_separate_flows_agree() {
    let catalog = tpch::generate(SF, 42);
    let partials = partials_of(&requirement_family(3));
    assert_equivalent(&catalog, &partials.iter().collect::<Vec<_>>());
}

#[test]
fn figure3_fixture_flows_agree() {
    let catalog = tpch::generate(SF, 42);
    let (a, b) = figure3_pair();
    let unified = unified_of(vec![a.clone(), b.clone()]);
    assert_equivalent(&catalog, &[&unified]);
    let partials = partials_of(&[a, b]);
    assert_equivalent(&catalog, &partials.iter().collect::<Vec<_>>());
}

#[test]
fn figure4_fixture_flow_agrees() {
    let catalog = tpch::generate(SF, 42);
    let probe = Quarry::tpch();
    let design = probe.interpret(&quarry_formats::xrq::figure4_requirement()).expect("valid");
    assert_equivalent(&catalog, &[&design.etl]);
}

#[test]
fn empty_inputs_agree() {
    let catalog = emptied(&tpch::generate(SF, 42));
    let unified = unified_of(high_overlap_family(4));
    assert_equivalent(&catalog, &[&unified]);
    for seed in 0..4u64 {
        assert_equivalent(&catalog, &[&random_flow(seed)]);
    }
}

#[test]
fn single_morsel_inputs_agree() {
    // Scale factor small enough that every source fits in one morsel.
    let catalog = tpch::generate(0.0002, 7);
    assert!(
        sorted_table_names(&catalog).iter().all(|t| catalog.get(t).unwrap().len() <= MORSEL_ROWS),
        "fixture outgrew a single morsel"
    );
    let unified = unified_of(high_overlap_family(8));
    assert_equivalent(&catalog, &[&unified]);
}

/// Tiny deterministic PRNG so the "randomized" flows are reproducible.
struct Lcg(u64);

impl Lcg {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A randomized-but-valid flow over the TPC-H schema: lineitem, optionally
/// joined with orders, through a random stack of selections/derivations,
/// ending in a random terminal (aggregation, surrogate key + sort, or
/// projection + distinct) and a loader (append or upsert).
fn random_flow(seed: u64) -> Flow {
    let mut rng = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let mut f = Flow::new(format!("rand{seed}"));
    let li = f
        .add_op(
            "LI",
            OpKind::Datastore { datastore: "lineitem".into(), schema: tpch::table_schema("lineitem").unwrap() },
        )
        .unwrap();
    let joined = rng.pick(2) == 0;
    let mut tip = li;
    if joined {
        let o = f
            .add_op(
                "ORD",
                OpKind::Datastore { datastore: "orders".into(), schema: tpch::table_schema("orders").unwrap() },
            )
            .unwrap();
        let kind = if rng.pick(2) == 0 { JoinKind::Inner } else { JoinKind::Left };
        let j = f
            .add_op("J", OpKind::Join { kind, left_on: vec!["l_orderkey".into()], right_on: vec!["o_orderkey".into()] })
            .unwrap();
        f.connect(tip, j).unwrap();
        f.connect(o, j).unwrap();
        tip = j;
    }
    let predicates = [
        "l_discount > 0.04",
        "l_quantity <= 25",
        "l_shipmode = 'AIR' OR l_discount < 0.02",
        "l_extendedprice * (1 - l_discount) > 1000",
        "NOT (l_returnflag = 'R')",
    ];
    let derivations =
        ["l_extendedprice * (1 - l_discount)", "l_extendedprice * (1 + l_tax)", "l_quantity * l_discount"];
    for step in 0..1 + rng.pick(3) {
        tip = if rng.pick(2) == 0 {
            let p = predicates[rng.pick(predicates.len())];
            f.append(tip, format!("SEL{step}"), OpKind::Selection { predicate: parse_expr(p).unwrap() }).unwrap()
        } else {
            let d = derivations[rng.pick(derivations.len())];
            f.append(
                tip,
                format!("DRV{step}"),
                OpKind::Derivation { column: format!("d{step}"), expr: parse_expr(d).unwrap() },
            )
            .unwrap()
        };
    }
    match rng.pick(3) {
        0 => {
            let mut group_choices: Vec<Vec<String>> =
                vec![vec!["l_returnflag".into(), "l_linestatus".into()], vec!["l_shipmode".into()], vec![]];
            if joined {
                group_choices.push(vec!["o_orderpriority".into()]);
            }
            let group_by = group_choices[rng.pick(group_choices.len())].clone();
            let mut aggregates = vec![
                AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "rev"),
                AggSpec::new("COUNT", parse_expr("1").unwrap(), "cnt"),
            ];
            aggregates.push(match rng.pick(3) {
                0 => AggSpec::new("AVG", parse_expr("l_discount").unwrap(), "avg_disc"),
                1 => AggSpec::new("MIN", parse_expr("l_shipdate").unwrap(), "first_ship"),
                _ => AggSpec::new("MAX", parse_expr("l_quantity").unwrap(), "max_qty"),
            });
            let a = f.append(tip, "AGG", OpKind::Aggregation { group_by: group_by.clone(), aggregates }).unwrap();
            let key = if !group_by.is_empty() && rng.pick(2) == 0 { group_by } else { vec![] };
            f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key }).unwrap();
        }
        1 => {
            let k = f
                .append(
                    tip,
                    "SK",
                    OpKind::SurrogateKey {
                        natural: vec!["l_orderkey".into(), "l_linenumber".into()],
                        output: "line_sk".into(),
                    },
                )
                .unwrap();
            let s = f
                .append(tip, "SORT", OpKind::Sort { columns: vec!["l_shipmode".into(), "l_orderkey".into()] })
                .unwrap();
            // Two sinks off the same stack: one keyed by the surrogate.
            f.append(k, "LOADK", OpKind::Loader { table: "keyed".into(), key: vec!["line_sk".into()] }).unwrap();
            f.append(s, "LOADS", OpKind::Loader { table: "sorted".into(), key: vec![] }).unwrap();
        }
        _ => {
            let cols: Vec<String> = if joined {
                vec!["l_orderkey".into(), "l_shipmode".into(), "o_orderpriority".into()]
            } else {
                vec!["l_orderkey".into(), "l_shipmode".into(), "l_returnflag".into()]
            };
            let p = f.append(tip, "PRJ", OpKind::Projection { columns: cols }).unwrap();
            let d = f.append(p, "DST", OpKind::Distinct).unwrap();
            f.append(d, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        }
    }
    f.validate().expect("random flow is valid");
    f
}

#[test]
fn randomized_tpch_flows_agree() {
    let catalog = tpch::generate(SF, 42);
    for seed in 0..8u64 {
        assert_equivalent(&catalog, &[&random_flow(seed)]);
    }
}

/// A synthetic two-table catalog whose `s` and `x` columns are entirely
/// NULL, with NULLs sprinkled into the join/group key as well.
fn all_null_catalog() -> Catalog {
    let mut c = Catalog::new();
    let n = 3 * MORSEL_ROWS + 17; // several morsels plus a ragged tail
    c.put(
        "facts",
        Relation::with_rows(
            Schema::new(vec![
                Column::new("k", ColType::Integer),
                Column::new("s", ColType::Text),
                Column::new("x", ColType::Decimal),
            ]),
            (0..n)
                .map(|i| {
                    let k = if i % 5 == 0 { Value::Null } else { Value::Int((i % 97) as i64) };
                    vec![k, Value::Null, Value::Null]
                })
                .collect(),
        ),
    );
    c.put(
        "dims",
        Relation::with_rows(
            Schema::new(vec![Column::new("k", ColType::Integer), Column::new("label", ColType::Text)]),
            (0..97).map(|i| vec![Value::Int(i), Value::Str(format!("L{i}"))]).collect(),
        ),
    );
    c
}

#[test]
fn all_null_columns_agree() {
    let catalog = all_null_catalog();
    let mut f = Flow::new("nulls");
    let facts = f
        .add_op(
            "F",
            OpKind::Datastore {
                datastore: "facts".into(),
                schema: Schema::new(vec![
                    Column::new("k", ColType::Integer),
                    Column::new("s", ColType::Text),
                    Column::new("x", ColType::Decimal),
                ]),
            },
        )
        .unwrap();
    let dims = f
        .add_op(
            "D",
            OpKind::Datastore {
                datastore: "dims".into(),
                schema: Schema::new(vec![Column::new("k", ColType::Integer), Column::new("label", ColType::Text)]),
            },
        )
        .unwrap();
    // NULL join keys never match; NULL group keys form one group; COUNT
    // counts NULL measures while MIN/MAX of all-NULL input stays NULL.
    let j = f
        .add_op("J", OpKind::Join { kind: JoinKind::Left, left_on: vec!["k".into()], right_on: vec!["k".into()] })
        .unwrap();
    f.connect(facts, j).unwrap();
    f.connect(dims, j).unwrap();
    let srt = f.append(j, "SORT", OpKind::Sort { columns: vec!["s".into(), "k".into()] }).unwrap();
    let agg = f
        .append(
            srt,
            "AGG",
            OpKind::Aggregation {
                group_by: vec!["s".into(), "label".into()],
                aggregates: vec![
                    AggSpec::new("COUNT", parse_expr("x").unwrap(), "cnt"),
                    AggSpec::new("MIN", parse_expr("x").unwrap(), "lo"),
                    AggSpec::new("MAX", parse_expr("s").unwrap(), "hi"),
                ],
            },
        )
        .unwrap();
    f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);
}

#[test]
fn dictionary_overflow_agrees() {
    // More distinct strings than the dictionary holds (2^16), forcing the
    // builder to fall back to plain string storage mid-build.
    let n = (1 << 16) + 4096;
    let mut c = Catalog::new();
    c.put(
        "wide",
        Relation::with_rows(
            Schema::new(vec![Column::new("tag", ColType::Text), Column::new("v", ColType::Integer)]),
            (0..n).map(|i| vec![Value::Str(format!("tag-{i:06}")), Value::Int((i % 327) as i64)]).collect(),
        ),
    );
    let mut f = Flow::new("overflow");
    let w = f
        .add_op(
            "W",
            OpKind::Datastore {
                datastore: "wide".into(),
                schema: Schema::new(vec![Column::new("tag", ColType::Text), Column::new("v", ColType::Integer)]),
            },
        )
        .unwrap();
    let sel = f.append(w, "SEL", OpKind::Selection { predicate: parse_expr("v < 300").unwrap() }).unwrap();
    let agg = f
        .append(
            sel,
            "AGG",
            OpKind::Aggregation {
                group_by: vec!["tag".into()],
                aggregates: vec![AggSpec::new("SUM", parse_expr("v").unwrap(), "total")],
            },
        )
        .unwrap();
    f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec!["tag".into()] }).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&c, &[&f]);
}

/// Join followed by a filter on a *build-side* payload column: the late-
/// materialized join output must compose its selection with the downstream
/// filter and still gather exactly the rows the row engine keeps.
#[test]
fn join_then_build_side_filter_agrees() {
    let catalog = tpch::generate(SF, 42);
    let mut f = Flow::new("build_filter");
    let li = f
        .add_op(
            "LI",
            OpKind::Datastore { datastore: "lineitem".into(), schema: tpch::table_schema("lineitem").unwrap() },
        )
        .unwrap();
    let o = f
        .add_op("ORD", OpKind::Datastore { datastore: "orders".into(), schema: tpch::table_schema("orders").unwrap() })
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
    f.connect(li, j).unwrap();
    f.connect(o, j).unwrap();
    let sel =
        f.append(j, "SEL", OpKind::Selection { predicate: parse_expr("o_totalprice > 150000").unwrap() }).unwrap();
    let p = f
        .append(
            sel,
            "PRJ",
            OpKind::Projection { columns: vec!["l_orderkey".into(), "l_extendedprice".into(), "o_totalprice".into()] },
        )
        .unwrap();
    f.append(p, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);
}

/// An empty probe side over a populated build side: inner joins produce
/// nothing, left joins produce nothing, and neither engine may differ on
/// schemas or loaded counts.
#[test]
fn empty_probe_side_agrees() {
    let mut catalog = tpch::generate(SF, 42);
    catalog.get_mut("lineitem").unwrap().clear();
    for kind in [JoinKind::Inner, JoinKind::Left] {
        let mut f = Flow::new("empty_probe");
        let li = f
            .add_op(
                "LI",
                OpKind::Datastore { datastore: "lineitem".into(), schema: tpch::table_schema("lineitem").unwrap() },
            )
            .unwrap();
        let o = f
            .add_op(
                "ORD",
                OpKind::Datastore { datastore: "orders".into(), schema: tpch::table_schema("orders").unwrap() },
            )
            .unwrap();
        let j = f
            .add_op("J", OpKind::Join { kind, left_on: vec!["l_orderkey".into()], right_on: vec!["o_orderkey".into()] })
            .unwrap();
        f.connect(li, j).unwrap();
        f.connect(o, j).unwrap();
        let sel =
            f.append(j, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() }).unwrap();
        f.append(sel, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f.validate().expect("valid");
        assert_equivalent(&catalog, &[&f]);
    }
}

/// A join whose string key column overflows the dictionary (> 2^16 distinct
/// values) on both sides, with the build side spanning enough morsels to
/// engage radix partitioning.
#[test]
fn dictionary_overflow_join_keys_agree() {
    let n = (1 << 16) + 4096;
    let mut c = Catalog::new();
    c.put(
        "probe",
        Relation::with_rows(
            Schema::new(vec![Column::new("tag", ColType::Text), Column::new("v", ColType::Integer)]),
            (0..n).map(|i| vec![Value::Str(format!("tag-{:06}", (i * 7) % n)), Value::Int(i as i64)]).collect(),
        ),
    );
    c.put(
        "build",
        Relation::with_rows(
            Schema::new(vec![Column::new("rtag", ColType::Text), Column::new("w", ColType::Integer)]),
            (0..n).map(|i| vec![Value::Str(format!("tag-{i:06}")), Value::Int((i % 511) as i64)]).collect(),
        ),
    );
    let mut f = Flow::new("overflow_join");
    let p = f
        .add_op(
            "P",
            OpKind::Datastore {
                datastore: "probe".into(),
                schema: Schema::new(vec![Column::new("tag", ColType::Text), Column::new("v", ColType::Integer)]),
            },
        )
        .unwrap();
    let b = f
        .add_op(
            "B",
            OpKind::Datastore {
                datastore: "build".into(),
                schema: Schema::new(vec![Column::new("rtag", ColType::Text), Column::new("w", ColType::Integer)]),
            },
        )
        .unwrap();
    let j = f
        .add_op("J", OpKind::Join { kind: JoinKind::Inner, left_on: vec!["tag".into()], right_on: vec!["rtag".into()] })
        .unwrap();
    f.connect(p, j).unwrap();
    f.connect(b, j).unwrap();
    let sel = f.append(j, "SEL", OpKind::Selection { predicate: parse_expr("w < 500").unwrap() }).unwrap();
    let agg = f
        .append(
            sel,
            "AGG",
            OpKind::Aggregation {
                group_by: vec![],
                aggregates: vec![
                    AggSpec::new("SUM", parse_expr("v").unwrap(), "total"),
                    AggSpec::new("COUNT", parse_expr("1").unwrap(), "cnt"),
                ],
            },
        )
        .unwrap();
    f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&c, &[&f]);
}

/// A join key column that is entirely NULL on the probe side: no probe row
/// may ever match, so inner joins are empty and left joins pad every
/// build-side column with NULL.
#[test]
fn all_null_join_key_column_agrees() {
    let mut c = Catalog::new();
    let n = 3 * MORSEL_ROWS + 17;
    c.put(
        "facts",
        Relation::with_rows(
            Schema::new(vec![Column::new("k", ColType::Integer), Column::new("x", ColType::Decimal)]),
            (0..n).map(|i| vec![Value::Null, Value::Float(i as f64)]).collect(),
        ),
    );
    c.put(
        "dims",
        Relation::with_rows(
            Schema::new(vec![Column::new("k", ColType::Integer), Column::new("label", ColType::Text)]),
            (0..97).map(|i| vec![Value::Int(i), Value::Str(format!("L{i}"))]).collect(),
        ),
    );
    for kind in [JoinKind::Inner, JoinKind::Left] {
        let mut f = Flow::new("null_keys");
        let facts = f
            .add_op(
                "F",
                OpKind::Datastore {
                    datastore: "facts".into(),
                    schema: Schema::new(vec![Column::new("k", ColType::Integer), Column::new("x", ColType::Decimal)]),
                },
            )
            .unwrap();
        let dims = f
            .add_op(
                "D",
                OpKind::Datastore {
                    datastore: "dims".into(),
                    schema: Schema::new(vec![Column::new("k", ColType::Integer), Column::new("label", ColType::Text)]),
                },
            )
            .unwrap();
        let j = f.add_op("J", OpKind::Join { kind, left_on: vec!["k".into()], right_on: vec!["k".into()] }).unwrap();
        f.connect(facts, j).unwrap();
        f.connect(dims, j).unwrap();
        f.append(j, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f.validate().expect("valid");
        assert_equivalent(&c, &[&f]);
    }
}

/// Loader order is the one thing a scheduler could change in the data:
/// appends into one table from different dependency depths concatenate in
/// load order, and upserts of one key from different depths keep the last
/// write. The deepest branches are added first, so only a level-monotone
/// schedule loads shallow before deep.
#[test]
fn loaders_at_different_depths_apply_in_topological_order() {
    let schema = Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Decimal)]);
    let n = 2 * MORSEL_ROWS + 37;
    let mut catalog = Catalog::new();
    catalog.put(
        "src",
        Relation::with_rows(
            schema.clone(),
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Float(i as f64)]).collect(),
        ),
    );
    let tag = |t: &str| OpKind::Derivation { column: "tag".into(), expr: parse_expr(&format!("'{t}'")).unwrap() };
    let append = || OpKind::Loader { table: "log".into(), key: vec![] };
    let upsert = || OpKind::Loader { table: "dim".into(), key: vec!["k".into()] };

    let mut f = Flow::new("loader_order");
    let src = f.add_op("SRC", OpKind::Datastore { datastore: "src".into(), schema }).unwrap();
    // Depth 3 append, depth 3 upsert, depth 2 append, depth 2 upsert, depth 1 append.
    let deep = f.append(src, "SEL_deep1", sel("k >= 100")).unwrap();
    let deep = f.append(deep, "SEL_deep2", sel("k < 200")).unwrap();
    f.append(deep, "APPEND_deep", append()).unwrap();
    let late = f.append(src, "SEL_late", sel("k < 50")).unwrap();
    let late = f.append(late, "TAG_late", tag("late")).unwrap();
    f.append(late, "UPSERT_late", upsert()).unwrap();
    let mid = f.append(src, "SEL_mid", sel("k < 10")).unwrap();
    f.append(mid, "APPEND_mid", append()).unwrap();
    let early = f.append(src, "TAG_early", tag("early")).unwrap();
    f.append(early, "UPSERT_early", upsert()).unwrap();
    f.append(src, "APPEND_shallow", append()).unwrap();
    f.validate().expect("valid");

    assert_equivalent(&catalog, &[&f]);

    let mut engine = Engine::new(catalog);
    let report = engine.run(&f).expect("runs");
    let loaded: Vec<(&str, usize)> = report.loaded.iter().map(|(t, rows)| (t.as_str(), *rows)).collect();
    assert_eq!(loaded, [("log", n), ("log", 10), ("dim", n), ("log", 100), ("dim", 50)]);
    let log_keys = engine.catalog.get("log").unwrap().column_values("k");
    let expected: Vec<Value> = (0..n as i64).chain(0..10).chain(100..200).map(Value::Int).collect();
    assert_eq!(log_keys, expected, "appends concatenate shallow → deep");
    let tags = engine.catalog.get("dim").unwrap().column_values("tag");
    assert!(tags[..50].iter().all(|t| *t == Value::Str("late".into())), "the deeper upsert wins its keys");
    assert!(tags[50..].iter().all(|t| *t == Value::Str("early".into())));
}

fn schema_of(cols: &[(&str, ColType)]) -> Schema {
    Schema::new(cols.iter().map(|(name, ty)| Column::new(*name, *ty)).collect())
}

/// A catalog datastore reading every column of `table`.
fn scan(f: &mut Flow, name: &str, catalog: &Catalog, table: &str) -> OpId {
    let schema = catalog.get(table).expect("table exists").schema.clone();
    f.add_op(name, OpKind::Datastore { datastore: table.into(), schema }).unwrap()
}

fn agg(group_by: &[&str], aggregates: &[(&str, &str, &str)]) -> OpKind {
    OpKind::Aggregation {
        group_by: group_by.iter().map(|g| g.to_string()).collect(),
        aggregates: aggregates
            .iter()
            .map(|(f, input, out)| AggSpec::new(*f, parse_expr(input).unwrap(), *out))
            .collect(),
    }
}

fn load(table: &str, key: &[&str]) -> OpKind {
    OpKind::Loader { table: table.into(), key: key.iter().map(|k| k.to_string()).collect() }
}

/// Every row its own group under a two-column key, and groups that come
/// back in non-adjacent morsels (and land in different radix partitions):
/// four morsels, so the aggregation partitions four ways.
#[test]
fn fact_grain_and_recurring_groups_agree() {
    let n = 3 * MORSEL_ROWS + 17;
    let mut catalog = Catalog::new();
    catalog.put(
        "facts",
        Relation::with_rows(
            schema_of(&[
                ("a", ColType::Integer),
                ("b", ColType::Integer),
                ("g", ColType::Integer),
                ("h", ColType::Integer),
                ("v", ColType::Decimal),
            ]),
            (0..n as i64)
                .map(|i| {
                    // `(g, h)` groups skip the second morsel entirely.
                    let g = if i as usize / MORSEL_ROWS == 1 { 100_000 + i } else { i % 257 };
                    vec![
                        Value::Int(i / 64),
                        Value::Int(i % 64),
                        Value::Int(g),
                        Value::Int(i % 3),
                        Value::Float(i as f64 / 8.0),
                    ]
                })
                .collect(),
        ),
    );
    let mut f = Flow::new("fact_grain");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let measures = [("SUM", "v", "total"), ("COUNT", "1", "cnt"), ("AVERAGE", "v", "mean")];
    let unique = f.append(src, "AGG_unique", agg(&["a", "b"], &measures)).unwrap();
    f.append(unique, "LOAD_unique", load("unique", &[])).unwrap();
    let recurring = f.append(src, "AGG_recurring", agg(&["g", "h"], &measures)).unwrap();
    f.append(recurring, "LOAD_recurring", load("recurring", &[])).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);

    let mut engine = Engine::new(catalog);
    engine.run(&f).expect("runs");
    assert_eq!(engine.catalog.get("unique").unwrap().len(), n, "one group per row");
    assert_eq!(engine.catalog.get("recurring").unwrap().len(), 257 * 3 + MORSEL_ROWS);
}

/// Every shape a morsel's partition runs take, merged and loaded at 1, 4 and
/// 8 threads: one row per group under two `Int` keys (every run a run of new
/// groups), 10 000 groups scattered so that no morsel reduces them, a group
/// that skips the middle morsel, `-0.0` / `0.0` / NULL float keys, and a
/// single group (every partition but one empty). The measures cover all three
/// lane kinds, over floats whose sum depends on the order of the adds. Most
/// loads are keyed on what the aggregation grouped by — the load the plan
/// proves distinct — one on fewer columns (it must still dedupe) and one on
/// more; running the flow twice loads into the populated tables.
#[test]
fn partition_runs_and_keyed_loads_of_their_output_agree() {
    let n = 3 * MORSEL_ROWS + 29;
    let mut catalog = Catalog::new();
    catalog.put(
        "facts",
        Relation::with_rows(
            schema_of(&[
                ("a", ColType::Integer),
                ("b", ColType::Integer),
                ("scattered", ColType::Integer),
                ("skipping", ColType::Integer),
                ("zero", ColType::Decimal),
                ("one", ColType::Integer),
                ("v", ColType::Decimal),
            ]),
            (0..n as i64)
                .map(|i| {
                    let skipping = if i as usize / MORSEL_ROWS == 1 { 1000 + i % 5 } else { i % 3 };
                    let zero = [Value::Float(-0.0), Value::Float(0.0), Value::Null, Value::Float(1.5)];
                    let v = [1e16, 1.0, -1e16, 0.5][i as usize % 4] * (i % 7 + 1) as f64;
                    vec![
                        Value::Int(i / 64),
                        Value::Int(i % 64),
                        Value::Int(i * 7919 % 10_000),
                        Value::Int(skipping),
                        zero[i as usize % 4].clone(),
                        Value::Int(7),
                        Value::Float(v),
                    ]
                })
                .collect(),
        ),
    );
    let measures = [
        ("SUM", "v", "total"),
        ("AVERAGE", "v", "mean"),
        ("COUNT", "1", "cnt"),
        ("MIN", "v", "lo"),
        ("MAX", "b", "hi"),
    ];
    let mut f = Flow::new("partition_runs");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let cases: [(&str, &[&str], &[&str]); 8] = [
        ("unique", &["a", "b"], &["a", "b"]),
        ("unique_narrow", &["a", "b"], &["a"]),
        ("scattered", &["scattered"], &["scattered"]),
        ("scattered_wide", &["scattered"], &["cnt", "scattered"]),
        ("skipping", &["skipping"], &["skipping"]),
        ("zero", &["zero"], &["zero"]),
        ("zero_a", &["zero", "a"], &[]),
        ("one", &["one"], &["one"]),
    ];
    for (name, group_by, key) in cases {
        let a = f.append(src, format!("AGG_{name}"), agg(group_by, &measures)).unwrap();
        f.append(a, format!("LOAD_{name}"), load(name, key)).unwrap();
    }
    f.validate().expect("valid");
    assert_equivalent_at(&catalog, &[&f], &[1, 4, 8]);
    assert_equivalent_at(&catalog, &[&f, &f], &[1, 4, 8]);

    let mut engine = Engine::new(catalog);
    engine.run(&f).expect("runs");
    let rows = |t: &str| engine.catalog.get(t).unwrap().len();
    assert_eq!(rows("unique"), n, "one group per row");
    assert_eq!(rows("unique_narrow"), n.div_ceil(64), "deduped on `a` alone");
    assert_eq!(rows("scattered"), 10_000);
    assert_eq!(rows("skipping"), 3 + 5);
    assert_eq!(rows("zero"), 4, "-0.0, 0.0, NULL and 1.5 are four groups");
    assert_eq!(rows("one"), 1);
}

/// Group keys with and without the null-mask word: a non-null column alone,
/// a nullable column, an all-NULL column, and their combinations.
#[test]
fn null_group_columns_agree() {
    let n = 2 * MORSEL_ROWS + 301;
    let mut catalog = Catalog::new();
    catalog.put(
        "facts",
        Relation::with_rows(
            schema_of(&[
                ("dense", ColType::Integer),
                ("holes", ColType::Integer),
                ("void", ColType::Text),
                ("v", ColType::Integer),
            ]),
            (0..n as i64)
                .map(|i| {
                    let holes = if i % 5 == 0 { Value::Null } else { Value::Int(i % 11) };
                    vec![Value::Int(i % 13), holes, Value::Null, Value::Int(i)]
                })
                .collect(),
        ),
    );
    let mut f = Flow::new("null_groups");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let measures = [("SUM", "v", "total"), ("COUNT", "1", "cnt"), ("MIN", "holes", "lo")];
    for (i, group_by) in
        [&["dense"][..], &["holes"], &["void"], &["holes", "dense"], &["void", "holes"]].into_iter().enumerate()
    {
        let a = f.append(src, format!("AGG{i}"), agg(group_by, &measures)).unwrap();
        f.append(a, format!("LOAD{i}"), load(&format!("out{i}"), &[])).unwrap();
    }
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);
}

/// One aggregation carrying all five functions over every input
/// representation — Int, Float, nullable, constants, strings, a `Mixed`
/// column, and an expression whose per-morsel result is typed in one morsel
/// and `Mixed` in the next — so flat lanes and `Value` lanes meet in one
/// operator and in one measure. Grouped and global.
#[test]
fn every_function_over_every_input_agrees() {
    let n = 2 * MORSEL_ROWS + 99;
    let mut catalog = Catalog::new();
    catalog.put(
        "facts",
        Relation::with_rows(
            schema_of(&[
                ("k", ColType::Integer),
                ("i", ColType::Integer),
                ("x", ColType::Decimal),
                ("nx", ColType::Decimal),
                ("s", ColType::Text),
                ("m", ColType::Integer),
            ]),
            (0..n as i64)
                .map(|i| {
                    let nx = if i % 7 == 0 { Value::Null } else { Value::Float(i as f64 * 0.5) };
                    // Integers through the first morsel, then floats mixed in.
                    let m = if i as usize >= MORSEL_ROWS && i % 3 == 0 {
                        Value::Float(i as f64 + 0.25)
                    } else {
                        Value::Int(i)
                    };
                    vec![
                        Value::Int(i % 37),
                        Value::Int(i - 5000),
                        Value::Float(i as f64 / 3.0),
                        nx,
                        Value::Str(format!("s{:03}", i % 211)),
                        m,
                    ]
                })
                .collect(),
        ),
    );
    let measures = [
        ("SUM", "i", "sum_i"),
        ("SUM", "x", "sum_x"),
        ("SUM", "nx", "sum_nx"),
        ("SUM", "2", "sum_const"),
        ("SUM", "m", "sum_m"),
        ("SUM", "m + 0", "sum_m_expr"),
        ("AVERAGE", "i", "avg_i"),
        ("AVERAGE", "nx", "avg_nx"),
        ("AVG", "1.5", "avg_const"),
        ("AVERAGE", "m", "avg_m"),
        ("COUNT", "1", "cnt"),
        ("COUNT", "nx", "cnt_nx"),
        ("MIN", "i", "min_i"),
        ("MIN", "nx", "min_nx"),
        ("MIN", "s", "min_s"),
        ("MIN", "m", "min_m"),
        ("MAX", "x", "max_x"),
        ("MAX", "s", "max_s"),
        ("MAX", "m + 0", "max_m_expr"),
    ];
    let mut f = Flow::new("all_functions");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let grouped = f.append(src, "AGG_grouped", agg(&["k"], &measures)).unwrap();
    f.append(grouped, "LOAD_grouped", load("grouped", &[])).unwrap();
    let global = f.append(src, "AGG_global", agg(&[], &measures)).unwrap();
    f.append(global, "LOAD_global", load("global", &[])).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);
}

/// Sums whose bits depend on the order of the adds: `1e16, 1.0, -1e16, 1.0`
/// is `1.0` added left to right inside one morsel, and `0.0` when a morsel
/// boundary splits it into the partials `1e16` and `-1e16` — so the bits
/// pin the fold order (row order from `0.0` per morsel, partials in morsel
/// order). Plus a `-0.0`-only group and a NaN group. `Relation` equality
/// compares floats by `to_bits`.
#[test]
fn order_sensitive_sums_keep_their_bits() {
    let n = 2 * MORSEL_ROWS + 100;
    let mut rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(0), Value::Float(i as f64 * 0.1)]).collect();
    let cancelling = [1e16, 1.0, -1e16, 1.0];
    for (at, key) in [(10, 1), (MORSEL_ROWS - 2, 2)] {
        for (off, v) in cancelling.iter().enumerate() {
            rows[at + off] = vec![Value::Int(key), Value::Float(*v)];
        }
    }
    for at in [50, MORSEL_ROWS + 50, 2 * MORSEL_ROWS + 50] {
        rows[at] = vec![Value::Int(3), Value::Float(-0.0)];
        rows[at + 1] = vec![Value::Int(4), Value::Float(f64::NAN)];
        rows[at + 2] = vec![Value::Int(4), Value::Float(at as f64)];
    }
    let mut catalog = Catalog::new();
    catalog.put("facts", Relation::with_rows(schema_of(&[("k", ColType::Integer), ("v", ColType::Decimal)]), rows));
    let mut f = Flow::new("float_order");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let a = f.append(src, "AGG", agg(&["k"], &[("SUM", "v", "total"), ("AVERAGE", "v", "mean")])).unwrap();
    f.append(a, "LOAD", load("out", &[])).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);

    let mut engine = Engine::new(catalog);
    engine.run(&f).expect("runs");
    let out = engine.catalog.get("out").unwrap();
    let total_of = |key: i64| {
        let at = out.column_values("k").iter().position(|k| *k == Value::Int(key)).expect("group exists");
        match out.column_values("total")[at] {
            Value::Float(x) => x,
            ref other => panic!("SUM is a float, got {other:?}"),
        }
    };
    assert_eq!(total_of(1).to_bits(), 1.0f64.to_bits(), "one morsel: added left to right");
    assert_eq!(total_of(2).to_bits(), 0.0f64.to_bits(), "split across morsels: the partials cancel");
    assert_eq!(total_of(3).to_bits(), 0.0f64.to_bits(), "a sum starts from +0.0");
    assert!(total_of(4).is_nan());
}

/// A global aggregate over zero rows still loads one row of neutral values.
#[test]
fn global_aggregate_of_zero_rows_agrees() {
    let mut catalog = Catalog::new();
    catalog.put("facts", Relation::new(schema_of(&[("v", ColType::Decimal), ("s", ColType::Text)])));
    let mut f = Flow::new("empty_global");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let measures = [
        ("SUM", "v", "total"),
        ("AVERAGE", "v", "mean"),
        ("COUNT", "1", "cnt"),
        ("MIN", "s", "lo"),
        ("MAX", "v", "hi"),
    ];
    let a = f.append(src, "AGG", agg(&[], &measures)).unwrap();
    f.append(a, "LOAD", load("out", &[])).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);

    let mut engine = Engine::new(catalog);
    engine.run(&f).expect("runs");
    let row = engine.catalog.get("out").unwrap().row(0);
    assert_eq!(row, [Value::Null, Value::Null, Value::Int(0), Value::Null, Value::Null]);
}

/// A measure that fails to accumulate in the second and in the third morsel
/// reports the second morsel's failure, at any thread count, and the same
/// one the row engine reports.
#[test]
fn aggregation_errors_surface_in_morsel_order() {
    let n = 3 * MORSEL_ROWS;
    let mut catalog = Catalog::new();
    catalog.put(
        "facts",
        Relation::with_rows(
            schema_of(&[("k", ColType::Integer), ("dirty", ColType::Integer)]),
            (0..n)
                .map(|i| {
                    let dirty = match i {
                        i if i == MORSEL_ROWS + 7 => Value::Str("second-morsel".into()),
                        i if i == 2 * MORSEL_ROWS + 3 => Value::Str("third-morsel".into()),
                        i => Value::Int(i as i64),
                    };
                    vec![Value::Int((i % 19) as i64), dirty]
                })
                .collect(),
        ),
    );
    let mut f = Flow::new("agg_error");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    let a = f.append(src, "AGG", agg(&["k"], &[("COUNT", "1", "cnt"), ("SUM", "dirty", "total")])).unwrap();
    f.append(a, "LOAD", load("out", &[])).unwrap();
    f.validate().expect("valid");

    let expected = RowEngine::from_catalog(&catalog).run(&f).expect_err("row engine fails").to_string();
    assert!(expected.contains("second-morsel"), "{expected}");
    for threads in [1usize, 2, 8] {
        let err = at_width(threads, || Engine::new(catalog.clone()).run(&f)).expect_err("columnar engine fails");
        assert_eq!(err.to_string(), expected, "at {threads} threads");
    }
}

/// Three upsert loaders at different depths into one table: within-batch
/// duplicate keys and NULL key cells on the first load; overlapping keys,
/// NULL keys again and a column the table lacks on the second; disjoint
/// keys and fewer columns than the table has on the third.
#[test]
fn upserts_at_different_depths_into_one_table_agree() {
    let n = 2 * MORSEL_ROWS + 37;
    let wide = schema_of(&[("k", ColType::Integer), ("v", ColType::Decimal), ("s", ColType::Text)]);
    let mut catalog = Catalog::new();
    catalog.put(
        "src",
        Relation::with_rows(
            wide,
            (0..n as i64)
                .map(|i| {
                    let k = if i % 97 == 0 { Value::Null } else { Value::Int(i % 5000) };
                    vec![k, Value::Float(i as f64), Value::Str(format!("s{}", i % 400))]
                })
                .collect(),
        ),
    );
    catalog.put(
        "late",
        Relation::with_rows(
            schema_of(&[("k", ColType::Integer), ("v", ColType::Decimal)]),
            (0..3000i64).map(|i| vec![Value::Int(4000 + i % 2500), Value::Float(-(i as f64))]).collect(),
        ),
    );
    let mut f = Flow::new("three_upserts");
    let src = scan(&mut f, "SRC", &catalog, "src");
    let late = scan(&mut f, "LATE", &catalog, "late");
    // Deepest first, so only a level-ordered schedule loads shallow → deep.
    let deep = f.append(late, "SEL_deep1", sel("k >= 4500")).unwrap();
    let deep = f.append(deep, "SEL_deep2", sel("v < 0 - 10")).unwrap();
    f.append(deep, "UPSERT_deep", load("dim", &["k"])).unwrap();
    let mid = f
        .append(src, "TAG_mid", OpKind::Derivation { column: "tag".into(), expr: parse_expr("v * 2").unwrap() })
        .unwrap();
    f.append(mid, "UPSERT_mid", load("dim", &["k"])).unwrap();
    f.append(src, "UPSERT_shallow", load("dim", &["k"])).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);
    // And again into the table those loads left behind.
    assert_equivalent(&catalog, &[&f, &f]);

    let mut engine = Engine::new(catalog);
    engine.run(&f).expect("runs");
    let dim = engine.catalog.get("dim").unwrap();
    let mut keys: std::collections::BTreeSet<Option<i64>> =
        (0..n as i64).map(|i| (i % 97 != 0).then_some(i % 5000)).collect();
    keys.extend((4500..6500).map(Some));
    assert_eq!(dim.len(), keys.len(), "one row per distinct key, NULL included");
    assert_eq!(dim.schema.names().collect::<Vec<_>>(), ["k", "v", "s", "tag"]);
}

/// Second loads into a table the catalog already holds, keyed on strings:
/// the table's dictionary and the input's differ (each was built on its
/// own), and in the second round the input's key column has overflowed the
/// dictionary into plain strings.
#[test]
fn string_keyed_second_loads_agree() {
    let schema = schema_of(&[("name", ColType::Text), ("v", ColType::Integer)]);
    for distinct in [3000usize, (1 << 16) + 500] {
        let mut catalog = Catalog::new();
        catalog.put(
            "dim",
            Relation::with_rows(
                schema.clone(),
                // Reverse order: the same string gets a different code on each side.
                (0..2000i64).rev().map(|i| vec![Value::Str(format!("n{:06}", i * 2)), Value::Int(-i)]).collect(),
            ),
        );
        catalog.put(
            "src",
            Relation::with_rows(
                schema.clone(),
                (0..distinct as i64 + 700)
                    .map(|i| {
                        let name =
                            if i % 501 == 0 { Value::Null } else { Value::Str(format!("n{:06}", i % distinct as i64)) };
                        vec![name, Value::Int(i)]
                    })
                    .collect(),
            ),
        );
        let mut f = Flow::new("string_keys");
        let src = scan(&mut f, "SRC", &catalog, "src");
        f.append(src, "UPSERT", load("dim", &["name"])).unwrap();
        f.validate().expect("valid");
        assert_equivalent(&catalog, &[&f]);
    }
}

/// An `Int`-keyed table receiving `Float` keys: the stacked key column is
/// `Mixed`, the `Value`-row fallback matches `5.0` to `5`, and `6.5` opens a
/// new row. The input lacks a column the table has (`label`) and carries
/// one the table lacks (`w`).
#[test]
fn float_keys_into_an_int_keyed_table_agree() {
    let mut catalog = Catalog::new();
    catalog.put(
        "dim",
        Relation::with_rows(
            schema_of(&[("k", ColType::Integer), ("label", ColType::Text)]),
            (0..10i64).map(|i| vec![Value::Int(i), Value::Str(format!("L{i}"))]).collect(),
        ),
    );
    catalog.put(
        "src",
        Relation::with_rows(
            schema_of(&[("k", ColType::Integer), ("w", ColType::Decimal)]),
            vec![
                vec![Value::Float(5.0), Value::Float(50.0)],
                vec![Value::Float(6.5), Value::Float(65.0)],
                vec![Value::Null, Value::Float(0.0)],
                vec![Value::Float(5.0), Value::Float(55.0)],
            ],
        ),
    );
    let mut f = Flow::new("float_keys");
    let src = scan(&mut f, "SRC", &catalog, "src");
    f.append(src, "UPSERT", load("dim", &["k"])).unwrap();
    f.validate().expect("valid");
    assert_equivalent(&catalog, &[&f]);

    let mut engine = Engine::new(catalog);
    engine.run(&f).expect("runs");
    let dim = engine.catalog.get("dim").unwrap();
    assert_eq!(dim.len(), 12, "ten old rows, 6.5 and the NULL key appended");
    assert_eq!(dim.row(5), [Value::Float(5.0), Value::Str("L5".into()), Value::Float(55.0)], "last write wins");
    assert_eq!(dim.row(10), [Value::Float(6.5), Value::Null, Value::Float(65.0)]);
}

/// Target and input keys of one keyed load per shape the loader's merge
/// plan must get right, seeded: a `None` target is an absent table, a `None`
/// key a NULL. Sorted shapes take the merge, the others the key grouping.
#[allow(clippy::type_complexity)]
fn keyed_load_shapes(seed: u64) -> Vec<(&'static str, Option<Vec<Option<i64>>>, Vec<Option<i64>>)> {
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(11));
    let mut draw = |n: usize, lo: i64, span: usize| {
        let mut keys: Vec<i64> = (0..n).map(|_| lo + rng.pick(span) as i64).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    };
    let (base, other) = (draw(400, -300, 2000), draw(400, -300, 2000));
    let stride = draw(40, 1, 9)[0] as usize + 1;
    let keys = |keys: &[i64]| keys.iter().copied().map(Some).collect::<Vec<_>>();
    let every = |step: usize| keys(&base.iter().step_by(step).copied().collect::<Vec<_>>());
    let all = keys(&base);
    let shifted = |f: fn(i64) -> i64| base.iter().map(|&k| Some(f(k))).collect::<Vec<_>>();
    let twice: Vec<Option<i64>> = all.iter().flat_map(|&k| [k; 2]).step_by(3).collect();
    let holes: Vec<Option<i64>> = all.iter().enumerate().map(|(i, &k)| k.filter(|_| i % stride != 0)).collect();
    let reversed: Vec<Option<i64>> = all.iter().rev().copied().collect();
    let shuffled: Vec<Option<i64>> = (0..all.len()).map(|i| all[i * 7919 % all.len()]).collect();
    let extremes = [i64::MIN, i64::MIN + 1, -1_000_000, -1, 0, 1, i64::MAX - 1, i64::MAX];
    vec![
        ("identical", Some(all.clone()), all.clone()),
        ("subset", Some(all.clone()), every(stride)),
        ("superset", Some(every(stride)), all.clone()),
        ("disjoint", Some(shifted(|k| 2 * k)), shifted(|k| 2 * k + 1)),
        ("disjoint_after", Some(all.clone()), shifted(|k| k + 10_000)),
        ("interleaved", Some(all.clone()), keys(&other)),
        ("duplicate_inputs", Some(all.clone()), twice.clone()),
        ("duplicate_targets", Some(twice), all.clone()),
        ("null_inputs", Some(all.clone()), holes.clone()),
        ("null_targets", Some(holes), all.clone()),
        ("descending_input", Some(all.clone()), reversed.clone()),
        ("descending_target", Some(reversed), all.clone()),
        ("unsorted_input", Some(all.clone()), shuffled.clone()),
        ("unsorted_target", Some(shuffled.clone()), all.clone()),
        ("extremes", Some(keys(&extremes)), keys(&[i64::MIN, -1, 2, i64::MAX])),
        ("empty_input", Some(all.clone()), vec![]),
        ("empty_target", Some(vec![]), all.clone()),
        ("absent_target", None, all.clone()),
        ("absent_target_unsorted", None, shuffled),
    ]
}

/// Keyed loads of every shape in [`keyed_load_shapes`], each under two
/// layouts — the input carrying the target's columns, and the input carrying
/// one column fewer and one the target lacks (so the schema widens) — loaded
/// once and twice, at 1, 2, 4 and 8 threads: every table equals the row
/// engine's.
#[test]
fn keyed_load_shapes_agree() {
    let narrow = schema_of(&[("k", ColType::Integer), ("a", ColType::Decimal), ("b", ColType::Text)]);
    let widening = schema_of(&[("k", ColType::Integer), ("b", ColType::Text), ("c", ColType::Integer)]);
    let key = |k: &Option<i64>| k.map_or(Value::Null, Value::Int);
    for seed in 0..3 {
        for (shape, target, input) in keyed_load_shapes(seed) {
            for widens in [false, true] {
                let mut catalog = Catalog::new();
                if let Some(target) = &target {
                    let rows = (target.iter().enumerate())
                        .map(|(i, k)| vec![key(k), Value::Float(i as f64 / 4.0), Value::Str(format!("t{i}"))])
                        .collect();
                    catalog.put("dim", Relation::with_rows(narrow.clone(), rows));
                }
                let rows = (input.iter().enumerate())
                    .map(|(i, k)| match widens {
                        false => vec![key(k), Value::Float(i as f64), Value::Str(format!("i{i}"))],
                        true => vec![key(k), Value::Str(format!("i{i}")), Value::Int(i as i64)],
                    })
                    .collect();
                catalog.put("src", Relation::with_rows(if widens { &widening } else { &narrow }.clone(), rows));
                let mut f = Flow::new(format!("keyed_{shape}"));
                let src = scan(&mut f, "SRC", &catalog, "src");
                f.append(src, "UPSERT", load("dim", &["k"])).unwrap();
                f.validate().expect("valid");
                assert_equivalent_at(&catalog, &[&f], &WIDTHS);
                assert_equivalent_at(&catalog, &[&f, &f], &WIDTHS);
            }
        }
    }
}

#[test]
fn lifecycle_facade_is_thread_width_independent() {
    let catalog = tpch::generate(0.001, 42);
    let q = quarry_bench::quarry_with(4);
    let (one_engine, one_report) = at_width(1, || q.run_etl(catalog.clone())).expect("1-thread run");
    let (wide_engine, wide_report) = at_width(4, || q.run_etl(catalog)).expect("4-thread run");
    assert_eq!(one_report.loaded, wide_report.loaded);
    for t in sorted_table_names(&one_engine.catalog) {
        assert_eq!(one_engine.catalog.get(&t).unwrap(), wide_engine.catalog.get(&t).unwrap(), "table `{t}` differs");
    }
}

// ---- scheduler shapes ---------------------------------------------------------

/// `src(k, g, v)`: `k` unique, `g` in 13 groups, `v` a float per row.
fn dag_catalog(rows: usize) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.put(
        "src",
        Relation::with_rows(
            schema_of(&[("k", ColType::Integer), ("g", ColType::Integer), ("v", ColType::Decimal)]),
            (0..rows as i64).map(|i| vec![Value::Int(i), Value::Int(i % 13), Value::Float(i as f64 / 4.0)]).collect(),
        ),
    );
    catalog
}

fn sel(predicate: &str) -> OpKind {
    OpKind::Selection { predicate: parse_expr(predicate).unwrap() }
}

fn derive(column: &str, expr: &str) -> OpKind {
    OpKind::Derivation { column: column.into(), expr: parse_expr(expr).unwrap() }
}

fn project(columns: &[&str]) -> OpKind {
    OpKind::Projection { columns: columns.iter().map(|c| c.to_string()).collect() }
}

/// A two-input operation over `a` and `b` — which may be the same operation:
/// a consumer then waits on two edges from one producer.
fn binary(f: &mut Flow, name: String, kind: OpKind, a: OpId, b: OpId) -> OpId {
    let id = f.add_op(name.clone(), kind).unwrap();
    f.connect(a, id).unwrap();
    if a == b {
        // `connect` refuses a second edge between two operations; the
        // rewrite rules get one by bridging a step away, and so does this.
        let step = f.append(b, format!("{name}_step"), OpKind::Distinct).unwrap();
        f.connect(step, id).unwrap();
        f.remove_bridging(step);
    } else {
        f.connect(b, id).unwrap();
    }
    id
}

const SUMS: [(&str, &str, &str); 2] = [("SUM", "v", "total"), ("COUNT", "1", "cnt")];

/// A seeded random DAG over `src`: `steps` operations, each on a stream
/// picked at random among all built so far (so depths and fan-outs vary
/// freely), every stream keeping the `(k, g, v)` layout — selections, sorts,
/// distincts, unions (of a stream with itself too) and joins against a
/// filtered, re-derived copy of the source. Every stream nothing reads, and
/// one in four of the others, ends in a loader: appends into one `log`,
/// upserts into one `dim`, grouped sums appended to or upserted into shared
/// tables — all order-sensitive across depths.
fn random_dag(seed: u64, steps: usize) -> Flow {
    let mut rng = Lcg(seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(7));
    let mut f = Flow::new(format!("dag{seed}"));
    let src = f
        .add_op(
            "SRC",
            OpKind::Datastore {
                datastore: "src".into(),
                schema: schema_of(&[("k", ColType::Integer), ("g", ColType::Integer), ("v", ColType::Decimal)]),
            },
        )
        .unwrap();
    let predicates = ["k >= 100", "g < 9", "v * 2 > k / 4", "NOT (g = 3)", "k < 6000 OR g = 1"];
    let mut streams = vec![src];
    let mut unions = 0;
    for step in 0..steps {
        let a = streams[rng.pick(streams.len())];
        let next = match rng.pick(7) {
            0 if unions < 3 => {
                unions += 1;
                let b = streams[rng.pick(streams.len())];
                binary(&mut f, format!("UNION{step}"), OpKind::Union, a, b)
            }
            1 => f.append(a, format!("SORT{step}"), OpKind::Sort { columns: vec!["g".into(), "k".into()] }).unwrap(),
            2 => f.append(a, format!("DISTINCT{step}"), OpKind::Distinct).unwrap(),
            3 => {
                let side = f.append(src, format!("SIDE{step}"), sel(predicates[rng.pick(predicates.len())])).unwrap();
                let side = f.append(side, format!("SIDE_W{step}"), derive("w", "v * 2")).unwrap();
                let side = f.append(side, format!("SIDE_P{step}"), project(&["k", "w"])).unwrap();
                let kind = if rng.pick(2) == 0 { JoinKind::Inner } else { JoinKind::Left };
                let join = OpKind::Join { kind, left_on: vec!["k".into()], right_on: vec!["k".into()] };
                let joined = binary(&mut f, format!("JOIN{step}"), join, a, side);
                f.append(joined, format!("JOIN_P{step}"), project(&["k", "g", "v"])).unwrap()
            }
            _ => f.append(a, format!("SEL{step}"), sel(predicates[rng.pick(predicates.len())])).unwrap(),
        };
        streams.push(next);
    }
    for (i, &stream) in streams.iter().enumerate() {
        if !f.outputs_of(stream).is_empty() && rng.pick(4) != 0 {
            continue;
        }
        match rng.pick(4) {
            0 => f.append(stream, format!("APPEND{i}"), load("log", &[])).unwrap(),
            1 => f.append(stream, format!("UPSERT{i}"), load("dim", &["k"])).unwrap(),
            shared => {
                let sums = f.append(stream, format!("AGG{i}"), agg(&["g"], &SUMS)).unwrap();
                let key: &[&str] = if shared == 2 { &[] } else { &["g"] };
                f.append(sums, format!("LOAD_AGG{i}"), load(if shared == 2 { "sums_log" } else { "sums" }, key))
                    .unwrap()
            }
        };
    }
    f.validate().expect("random DAG is valid");
    f
}

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn scheduler_random_dags_agree() {
    let catalog = dag_catalog(2 * MORSEL_ROWS + 37);
    for seed in 0..10u64 {
        assert_equivalent_at(&catalog, &[&random_dag(seed, 12 + seed as usize)], &WIDTHS);
    }
    // Sub-morsel inputs: operators finish faster than threads wake up.
    let tiny = dag_catalog(90);
    for seed in 10..16u64 {
        assert_equivalent_at(&tiny, &[&random_dag(seed, 24)], &WIDTHS);
    }
}

/// A 12-deep chain whose every link is positioned behind a whole level of an
/// 8-wide fan-out: the chain is the critical path, the fan-out the filler,
/// and nine appends into one table make any reordering of loaders visible.
#[test]
fn scheduler_deep_chain_beside_a_wide_fan_out_agrees() {
    let catalog = dag_catalog(2 * MORSEL_ROWS + 37);
    let mut f = Flow::new("chain_and_fan");
    let src = scan(&mut f, "SRC", &catalog, "src");
    let mut tip = src;
    for depth in 0..12 {
        tip = if depth % 2 == 0 {
            f.append(tip, format!("CHAIN_SEL{depth}"), sel(&format!("k >= {}", depth * 10))).unwrap()
        } else {
            f.append(tip, format!("CHAIN_SORT{depth}"), OpKind::Sort { columns: vec!["g".into(), "k".into()] }).unwrap()
        };
    }
    f.append(tip, "APPEND_chain", load("log", &[])).unwrap();
    for branch in 0..8 {
        let b = f.append(src, format!("FAN_SEL{branch}"), sel(&format!("g = {branch}"))).unwrap();
        let b = f.append(b, format!("FAN_SORT{branch}"), OpKind::Sort { columns: vec!["v".into()] }).unwrap();
        f.append(b, format!("APPEND_fan{branch}"), load("log", &[])).unwrap();
    }
    f.validate().expect("valid");
    assert_equivalent_at(&catalog, &[&f], &WIDTHS);
}

/// Diamonds (one producer, two paths, one consumer — through a union and
/// through a join), a self-union (two edges from one producer: the consumer
/// must count edges, not producers) and a union of a stream with its own
/// descendant.
#[test]
fn scheduler_diamonds_and_self_unions_agree() {
    let catalog = dag_catalog(2 * MORSEL_ROWS + 37);
    let mut f = Flow::new("diamonds");
    let src = scan(&mut f, "SRC", &catalog, "src");
    let low = f.append(src, "SEL_low", sel("k < 3000")).unwrap();
    let high = f.append(src, "SEL_high", sel("k >= 2500")).unwrap();
    let both = binary(&mut f, "UNION_diamond".into(), OpKind::Union, low, high);
    let twice = binary(&mut f, "UNION_self".into(), OpKind::Union, both, both);
    let own_child = f.append(twice, "SEL_child", sel("g < 4")).unwrap();
    let with_child = binary(&mut f, "UNION_child".into(), OpKind::Union, twice, own_child);
    let sums = f.append(with_child, "AGG", agg(&["g"], &SUMS)).unwrap();
    f.append(sums, "UPSERT_sums", load("sums", &["g"])).unwrap();
    f.append(with_child, "APPEND_all", load("log", &[])).unwrap();
    let side = f.append(high, "SIDE_W", derive("w", "v + 1")).unwrap();
    let side = f.append(side, "SIDE_P", project(&["k", "w"])).unwrap();
    let join = OpKind::Join { kind: JoinKind::Left, left_on: vec!["k".into()], right_on: vec!["k".into()] };
    let joined = binary(&mut f, "JOIN_diamond".into(), join, src, side);
    f.append(joined, "UPSERT_joined", load("joined", &["k"])).unwrap();
    f.validate().expect("valid");
    assert_equivalent_at(&catalog, &[&f], &WIDTHS);
    assert_equivalent_at(&catalog, &[&f, &f], &WIDTHS);
}

/// Appends and upserts into *one* table from four depths, deepest branches
/// first in the flow: rows an append adds are rows a deeper upsert matches.
#[test]
fn scheduler_appends_and_upserts_into_one_table_agree() {
    let catalog = dag_catalog(2 * MORSEL_ROWS + 37);
    let mut f = Flow::new("one_table");
    let src = scan(&mut f, "SRC", &catalog, "src");
    let deep = f.append(src, "SEL_deep1", sel("k < 500")).unwrap();
    let deep = f.append(deep, "SEL_deep2", sel("g < 6")).unwrap();
    let deep = f.append(deep, "SORT_deep", OpKind::Sort { columns: vec!["v".into()] }).unwrap();
    f.append(deep, "UPSERT_deep", load("t", &["k"])).unwrap();
    let mid = f.append(src, "SEL_mid1", sel("k >= 300")).unwrap();
    let mid = f.append(mid, "SEL_mid2", sel("k < 900")).unwrap();
    f.append(mid, "APPEND_mid", load("t", &[])).unwrap();
    let shallow = f.append(src, "SEL_shallow", sel("k < 400")).unwrap();
    f.append(shallow, "UPSERT_shallow", load("t", &["k"])).unwrap();
    f.append(src, "APPEND_first", load("t", &[])).unwrap();
    f.validate().expect("valid");
    assert_equivalent_at(&catalog, &[&f], &WIDTHS);
    assert_equivalent_at(&catalog, &[&f, &f], &WIDTHS);
}

fn cached_engine(catalog: &Catalog, cache: &Arc<ResultCache>) -> Engine {
    let mut engine = Engine::new(catalog.clone());
    engine.set_result_cache(Arc::clone(cache), 0, Default::default());
    engine
}

/// A run the cache answers except for one branch: the executing operators
/// start from cache-served inputs, and the loaders of both kinds interleave.
#[test]
fn scheduler_all_cache_hits_but_one_branch_agrees() {
    let catalog = dag_catalog(2 * MORSEL_ROWS + 37);
    let base = random_dag(4, 18);
    let mut extended = base.clone();
    let src = extended.id_by_name("SRC").unwrap();
    let fresh = extended.append(src, "FRESH_SEL", sel("v > 1000")).unwrap();
    let fresh = extended.append(fresh, "FRESH_AGG", agg(&["g"], &SUMS)).unwrap();
    extended.append(fresh, "FRESH_LOAD", load("fresh", &[])).unwrap();
    extended.validate().expect("valid");

    let mut row = RowEngine::from_catalog(&catalog);
    let row_loaded = row.run(&extended).expect("row run").loaded;
    let mut timing_order: Option<Vec<String>> = None;
    for threads in WIDTHS {
        let cache = Arc::new(ResultCache::new(true, 256 << 20));
        let (engine, report) = at_width(threads, || {
            // Three passes: late results are admitted from the second miss on.
            for _ in 0..3 {
                cached_engine(&catalog, &cache).run(&base).expect("warming run");
            }
            let mut engine = cached_engine(&catalog, &cache);
            let report = engine.run(&extended).expect("mostly cache-served run");
            (engine, report)
        });
        let served = report.timings.iter().filter(|t| t.rows_in == 0 && t.kind != "Datastore").count();
        assert!(served > 0, "the warmed cache serves the base flow's results at {threads} threads");
        assert!(report.timings.iter().any(|t| t.op == "FRESH_AGG" && t.rows_in > 0), "the new branch executes");
        assert_eq!(row_loaded, report.loaded, "loaded records differ at {threads} threads");
        let order: Vec<String> = report.timings.iter().map(|t| t.op.clone()).collect();
        assert_eq!(
            timing_order.get_or_insert_with(|| order.clone()),
            &order,
            "timings order moved at {threads} threads"
        );
        for t in row.table_names() {
            assert_eq!(&row.table(t).unwrap(), engine.catalog.get(t).unwrap(), "table `{t}` at {threads} threads");
        }
    }
}

/// Cache admission is a function of the flow: under a budget several times
/// below the working set — every admission decided by what was admitted and
/// evicted before it — the counters after a cold and after a second run are
/// the same at every width, and the resident bytes never exceed the budget.
#[test]
fn scheduler_cache_admission_is_width_independent() {
    let catalog = tpch::generate(0.01, 42);
    let unified = unified_of(requirement_family(8));
    let mut per_width = Vec::new();
    for threads in [1usize, 2, 8] {
        let cache = Arc::new(ResultCache::new(true, 1 << 20));
        let after_each_run: Vec<_> = at_width(threads, || {
            (0..2)
                .map(|_| {
                    cached_engine(&catalog, &cache).run(&unified).expect("runs");
                    let s = cache.stats();
                    assert!(s.bytes <= 1 << 20, "resident bytes over the budget at {threads} threads: {s:?}");
                    (s.inserts, s.rejects, s.evictions, s.entries, s.bytes, s.hits, s.misses)
                })
                .collect()
        });
        per_width.push((threads, after_each_run));
    }
    let (_, reference) = &per_width[0];
    assert!(reference[1].2 > 0, "the budget must force evictions for this to test anything: {reference:?}");
    for (threads, stats) in &per_width {
        assert_eq!(
            stats, reference,
            "(inserts, rejects, evictions, entries, bytes, hits, misses) at {threads} threads"
        );
    }
}

/// A cacheable late batch whose consumers all claim it before its offer
/// retires: `LATE` (a selection, so a late batch) is positioned after `SLOW`
/// (a fact-grain aggregation) and finishes long before it, so with a second
/// thread its two consumers take their inputs while its offer still waits
/// behind `SLOW`'s; the offer then holds the last claim. `big` is rebuilt
/// before every run, so `SLOW` never hits, while `LATE` is admitted at its
/// second miss, the second run. Under an 8 MiB budget the cache's counters
/// after each run are the same at every width, and the values this flow has
/// always produced.
#[test]
fn scheduler_late_offer_behind_its_consumers_is_width_independent() {
    let base = dag_catalog(8 * MORSEL_ROWS);
    let with_fresh_big = || {
        let mut catalog = base.clone();
        catalog.put("big", dag_catalog(8 * MORSEL_ROWS).get("src").unwrap().clone());
        catalog
    };
    let mut f = Flow::new("late_offer");
    let big = scan(&mut f, "BIG", &with_fresh_big(), "big");
    let src = scan(&mut f, "SRC", &base, "src");
    let slow = f.append(big, "SLOW", agg(&["k"], &SUMS)).unwrap();
    let late = f.append(src, "LATE", sel("g < 9")).unwrap();
    f.append(slow, "LOAD_slow", load("slow", &[])).unwrap();
    let wide = f.append(late, "WIDE", derive("w", "v * 2")).unwrap();
    f.append(wide, "LOAD_wide", load("wide", &[])).unwrap();
    let narrow = f.append(late, "NARROW", project(&["k", "g"])).unwrap();
    f.append(narrow, "LOAD_narrow", load("narrow", &["k"])).unwrap();
    f.validate().expect("valid");
    let mut row = RowEngine::from_catalog(&with_fresh_big());
    row.run(&f).expect("row run");
    for threads in [1usize, 2, 8] {
        let cache = Arc::new(ResultCache::new(true, 8 << 20));
        let after_each_run: Vec<_> = at_width(threads, || {
            (0..2)
                .map(|_| {
                    let mut engine = cached_engine(&with_fresh_big(), &cache);
                    engine.run(&f).expect("runs");
                    for t in row.table_names() {
                        assert_eq!(
                            &row.table(t).unwrap(),
                            engine.catalog.get(t).unwrap(),
                            "`{t}` at {threads} threads"
                        );
                    }
                    let s = cache.stats();
                    (s.inserts, s.rejects, s.evictions, s.entries, s.bytes, s.hits, s.misses)
                })
                .collect()
        });
        assert_eq!(
            after_each_run,
            [(1, 0, 0, 1, 786_624, 0, 2), (3, 0, 0, 3, 2_117_952, 0, 4)],
            "(inserts, rejects, evictions, entries, bytes, hits, misses) at {threads} threads"
        );
    }
}

/// Each output is dropped at its last claim: a 30-operation chain holds at
/// most two outputs at once at every width.
#[test]
fn scheduler_a_chain_holds_at_most_two_outputs() {
    let catalog = dag_catalog(2 * MORSEL_ROWS + 37);
    let mut f = Flow::new("chain");
    let mut tip = scan(&mut f, "SRC", &catalog, "src");
    for depth in 0..28 {
        tip = if depth % 2 == 0 {
            f.append(tip, format!("SEL{depth}"), sel(&format!("k >= {depth}"))).unwrap()
        } else {
            f.append(tip, format!("SORT{depth}"), OpKind::Sort { columns: vec!["g".into(), "k".into()] }).unwrap()
        };
    }
    f.append(tip, "APPEND", load("log", &[])).unwrap();
    f.validate().expect("valid");
    assert_equivalent_at(&catalog, &[&f], &WIDTHS);
    for threads in WIDTHS {
        let report = at_width(threads, || Engine::new(catalog.clone()).run(&f)).expect("runs");
        assert_eq!(report.timings.len(), 30);
        assert!(report.peak_held <= 2, "{} outputs held at once at {threads} threads", report.peak_held);
    }
}

/// The error of a run is the failing operator with the smallest position,
/// not the one that failed first — `SLOW` (level 2) scans three morsels
/// before its last row fails, `FAST` (level 3) fails on its only row — and
/// the catalog is left with exactly the loads positioned before the error:
/// `LOAD_step` (level 2, so behind `SLOW`) has its input long before `SLOW`
/// fails and nothing but `SLOW` before it, yet its turn never comes.
#[test]
fn scheduler_reports_the_error_with_the_smallest_position() {
    let rows = 3 * MORSEL_ROWS;
    let mut catalog = Catalog::new();
    let mut big: Vec<Vec<Value>> = (0..rows).map(|i| vec![Value::date(1995, 6, 17), Value::Int(i as i64)]).collect();
    big[rows - 1][0] = Value::Str("slow".into());
    catalog.put("big", Relation::with_rows(schema_of(&[("d", ColType::Date), ("k", ColType::Integer)]), big));
    catalog.put("tiny", Relation::with_rows(schema_of(&[("d", ColType::Date)]), vec![vec![Value::Str("fast".into())]]));
    let mut f = Flow::new("two_errors");
    let big = scan(&mut f, "BIG", &catalog, "big");
    let tiny = scan(&mut f, "TINY", &catalog, "tiny");
    let pass = f.append(big, "PASS", sel("k >= 0")).unwrap();
    f.append(big, "LOAD_early", load("early", &[])).unwrap();
    let step = f.append(tiny, "STEP", OpKind::Distinct).unwrap();
    let slow = f.append(pass, "SLOW", sel("YEAR(d) >= 1995 AND MONTH(d) >= 1 AND YEAR(d) + MONTH(d) > 0")).unwrap();
    let again = f.append(step, "STEP_again", OpKind::Distinct).unwrap();
    let fast = f.append(again, "FAST", sel("YEAR(d) >= 1995")).unwrap();
    f.append(step, "LOAD_step", load("step", &[])).unwrap();
    f.append(slow, "LOAD_slow", load("slow", &[])).unwrap();
    f.append(fast, "LOAD_fast", load("fast", &[])).unwrap();
    f.validate().expect("valid");
    for threads in [1usize, 2, 8] {
        for _ in 0..8 {
            let mut engine = Engine::new(catalog.clone());
            match at_width(threads, || engine.run(&f)) {
                Err(EngineError::Eval { op, .. }) => assert_eq!(op, "SLOW", "at {threads} threads"),
                other => panic!("expected SLOW's evaluation error at {threads} threads, got {other:?}"),
            }
            assert_eq!(engine.catalog.get("early").map(Relation::len), Some(rows), "at {threads} threads");
            for absent in ["step", "slow", "fast"] {
                assert!(engine.catalog.get(absent).is_none(), "`{absent}` loaded at {threads} threads");
            }
        }
    }
}

/// A loader that fails stops the loaders behind it and none before it: the
/// second of three appends hits a table of another layout while a slow
/// operator positioned before all of them is still running.
#[test]
fn scheduler_failed_load_keeps_earlier_loads_and_stops_later_ones() {
    let mut catalog = dag_catalog(3 * MORSEL_ROWS);
    catalog.put("second", Relation::new(schema_of(&[("other", ColType::Integer)])));
    let mut f = Flow::new("failed_load");
    let src = scan(&mut f, "SRC", &catalog, "src");
    let slow = f.append(src, "SLOW_SORT", OpKind::Sort { columns: vec!["v".into(), "g".into()] }).unwrap();
    f.append(src, "LOAD_first", load("first", &[])).unwrap();
    let two = f.append(src, "SEL_second", sel("k < 10")).unwrap();
    f.append(two, "LOAD_second", load("second", &[])).unwrap();
    let three = f.append(two, "SEL_third", sel("k < 5")).unwrap();
    f.append(three, "LOAD_third", load("third", &[])).unwrap();
    let slow = f.append(slow, "SLOW_SEL", sel("k >= 0")).unwrap();
    let slow = f.append(slow, "SLOW_DISTINCT", OpKind::Distinct).unwrap();
    f.append(slow, "LOAD_slow", load("slow", &[])).unwrap();
    f.validate().expect("valid");
    for threads in [1usize, 2, 8] {
        let mut engine = Engine::new(catalog.clone());
        match at_width(threads, || engine.run(&f)) {
            Err(EngineError::LoadSchemaMismatch { table, .. }) => assert_eq!(table, "second"),
            other => panic!("expected the second load to fail at {threads} threads, got {other:?}"),
        }
        assert_eq!(engine.catalog.get("first").map(Relation::len), Some(3 * MORSEL_ROWS), "at {threads} threads");
        assert!(engine.catalog.get("second").unwrap().is_empty(), "the failed load left its target alone");
        for absent in ["third", "slow"] {
            assert!(engine.catalog.get(absent).is_none(), "`{absent}` loaded after the failure at {threads} threads");
        }
    }
}

/// A flow error stops the run before any operator starts: at every width
/// [`Engine::run`] returns the error `expected` accepts, and the catalog is
/// the one before the run — not even `LOAD_first`, positioned before the
/// flaw, loads.
fn assert_flow_error_stops_the_run(f: &Flow, expected: impl Fn(&FlowError) -> bool) {
    let catalog = dag_catalog(3 * MORSEL_ROWS);
    for threads in [1usize, 2, 8] {
        let mut engine = Engine::new(catalog.clone());
        match at_width(threads, || engine.run(f)) {
            Err(EngineError::Flow(e)) => assert!(expected(&e), "unexpected flow error at {threads} threads: {e:?}"),
            other => panic!("expected a flow error at {threads} threads, got {other:?}"),
        }
        assert!(engine.catalog == catalog, "the catalog changed at {threads} threads");
    }
}

/// `SRC → LOAD_first`, and `SRC → SEL → BAD → LOAD_bad` with `BAD` built by
/// `flaw` from the flow and `SEL`.
fn flawed(flaw: impl FnOnce(&mut Flow, OpId) -> OpId) -> Flow {
    let mut f = Flow::new("flawed");
    let src = scan(&mut f, "SRC", &dag_catalog(1), "src");
    f.append(src, "LOAD_first", load("first", &[])).unwrap();
    let sel = f.append(src, "SEL", sel("k >= 0")).unwrap();
    let bad = flaw(&mut f, sel);
    f.append(bad, "LOAD_bad", load("bad", &[])).unwrap();
    f
}

/// `BAD` is a single-input `kind` over `SEL`; the error must name it.
fn assert_invalid_op_stops_the_run(kind: OpKind) {
    let f = flawed(|f, sel| f.append(sel, "BAD", kind).unwrap());
    assert_flow_error_stops_the_run(&f, |e| matches!(e, FlowError::InvalidOp { op, .. } if op == "BAD"));
}

#[test]
fn scheduler_flow_error_cycle() {
    // `SEL` feeds a loader; `CYCLE ⇄ BAD` reads nothing but itself.
    let f = flawed(|f, sel| {
        f.append(sel, "LOAD_sel", load("sel", &[])).unwrap();
        let cycle = f.add_op("CYCLE", OpKind::Distinct).unwrap();
        let bad = f.append(cycle, "BAD", OpKind::Distinct).unwrap();
        f.connect(bad, cycle).unwrap();
        bad
    });
    assert_flow_error_stops_the_run(&f, |e| *e == FlowError::Cycle);
}

#[test]
fn scheduler_flow_error_arity() {
    let join = OpKind::Join { kind: JoinKind::Inner, left_on: vec!["k".into()], right_on: vec!["k".into()] };
    let f = flawed(|f, sel| f.append(sel, "BAD", join).unwrap());
    assert_flow_error_stops_the_run(&f, |e| matches!(e, FlowError::Arity { op, expected: 2, found: 1 } if op == "BAD"));
}

#[test]
fn scheduler_flow_error_unknown_column_in_a_selection() {
    assert_invalid_op_stops_the_run(sel("missing > 0"));
}

#[test]
fn scheduler_flow_error_unknown_column_in_a_derivation() {
    assert_invalid_op_stops_the_run(derive("d", "missing * 2"));
}

#[test]
fn scheduler_flow_error_unknown_column_in_an_aggregation() {
    assert_invalid_op_stops_the_run(agg(&["g"], &[("SUM", "missing", "total")]));
}

#[test]
fn scheduler_flow_error_unknown_join_key() {
    let f = flawed(|f, sel| {
        let source = f.id_by_name("SRC").unwrap();
        let right = f.append(source, "RIGHT", project(&["k", "v"])).unwrap();
        let join = OpKind::Join { kind: JoinKind::Inner, left_on: vec!["k".into()], right_on: vec!["missing".into()] };
        binary(f, "BAD".into(), join, sel, right)
    });
    assert_flow_error_stops_the_run(&f, |e| matches!(e, FlowError::InvalidOp { op, .. } if op == "BAD"));
}

#[test]
fn scheduler_flow_error_union_layout_mismatch() {
    let f = flawed(|f, sel| {
        let wider = f.append(sel, "WIDER", derive("d", "k * 2")).unwrap();
        binary(f, "BAD".into(), OpKind::Union, sel, wider)
    });
    assert_flow_error_stops_the_run(&f, |e| matches!(e, FlowError::InvalidOp { op, .. } if op == "BAD"));
}

/// A helper that finds nothing ready returns its token: three single-morsel
/// siblings get the run its helper, then every operator runs alone, and the
/// aggregation's morsel regions — the only ones in the flow with more than
/// one job — find the token free and spawn helpers of their own.
#[test]
fn scheduler_helper_returns_its_token_to_a_lone_operator() {
    let mut catalog = dag_catalog(4 * MORSEL_ROWS);
    catalog.put("small", dag_catalog(90).get("src").unwrap().clone());
    let mut f = Flow::new("lone_tail");
    let small = scan(&mut f, "SMALL", &catalog, "small");
    let big = scan(&mut f, "BIG", &catalog, "src");
    let a = f.append(small, "SEL_a", sel("k >= 0")).unwrap();
    let b = f.append(small, "SEL_b", sel("k >= 1")).unwrap();
    let c = f.append(small, "SEL_c", sel("k >= 2")).unwrap();
    let ab = binary(&mut f, "UNION_ab".into(), OpKind::Union, a, b);
    let abc = binary(&mut f, "UNION_abc".into(), OpKind::Union, ab, c);
    let all = binary(&mut f, "UNION_all".into(), OpKind::Union, big, abc);
    let sums = f.append(all, "AGG", agg(&["k"], &SUMS)).unwrap();
    f.append(sums, "LOAD", load("sums", &[])).unwrap();
    f.validate().expect("valid");
    // Engines of concurrently running tests draw on the same budget; an
    // undisturbed run comes soon enough.
    let spawned = (0..200).map(|_| {
        at_width(2, || {
            let before = pool::stats().helpers_spawned;
            Engine::new(catalog.clone()).run(&f).expect("runs");
            pool::stats().helpers_spawned - before
        })
    });
    assert!(
        spawned.into_iter().any(|helpers| helpers >= 2),
        "one run-level helper and no morsel helper: the aggregation never found the token free"
    );
}

/// 240 runs of a 30-operator flow whose operators finish in microseconds, at
/// eight threads on however few cores: every hand-over between threads
/// happens thousands of times. A lost wake-up would hang, so the runs sit
/// under a watchdog that fails instead.
#[test]
fn scheduler_stress_never_loses_a_wake_up() {
    let catalog = dag_catalog(90);
    let flow = random_dag(21, 20);
    assert!(flow.op_count() >= 30, "{} operations", flow.op_count());
    let mut reference = RowEngine::from_catalog(&catalog);
    reference.run(&flow).expect("row run");
    let (finished, watchdog) = std::sync::mpsc::channel();
    at_width(8, || {
        std::thread::spawn(move || {
            for _ in 0..240 {
                let mut engine = Engine::new(catalog.clone());
                engine.run(&flow).expect("runs");
                for t in reference.table_names() {
                    assert_eq!(&reference.table(t).unwrap(), engine.catalog.get(t).unwrap(), "table `{t}`");
                }
            }
            finished.send(()).expect("the test is still waiting");
        });
        watchdog.recv_timeout(Duration::from_secs(120)).expect("240 tiny runs neither hang nor fail");
    });
}

/// The demo's unified flow, greedy and optimized, runs its eight
/// aggregations as one keyed pass — the plan must say so, or this suite
/// would pass without fusion — and the wide flow its two pairs; every
/// warehouse is bit-identical to the row engine's at 1, 2, 4 and 8 threads,
/// with the same per-operation row counts at every width.
#[test]
fn fused_passes_agree_with_the_row_engine_at_every_width() {
    let catalog = tpch::generate(SF, 42);
    for (high, optimized) in [(true, false), (true, true), (false, false), (false, true)] {
        let mut q = Quarry::tpch();
        for r in if high { high_overlap_family(8) } else { requirement_family(8) } {
            q.add_requirement(r).expect("integrates");
        }
        if optimized {
            q.optimize().expect("the search runs");
        }
        let flow = q.unified().1.clone();
        let plan = PhysicalPlan::compile(&flow, &catalog.statistics()).expect("compiles");
        let fused: Vec<usize> = plan.fused_groups().iter().map(|g| g.members.len()).collect();
        let expected: &[usize] = if high { &[8] } else { &[2, 2] };
        assert_eq!(fused, expected, "fused pass sizes (high overlap: {high}, optimized: {optimized})");
        assert_equivalent_at(&catalog, &[&flow], &WIDTHS);
    }
}

/// Four sibling aggregations by `g` over `facts(g, v, dirty)`, behind
/// chains of zero to three derivations (levels 1 to 4, so `LOAD_1` is
/// positioned before `AGG_3`); `bad` names the operation that reads the
/// `dirty` column, which holds a string in the second morsel.
fn four_siblings(bad: &str) -> (Catalog, Flow) {
    let mut catalog = Catalog::new();
    let rows = (0..3 * MORSEL_ROWS as i64).map(|i| {
        let dirty = if i == MORSEL_ROWS as i64 + 7 { Value::Str("second-morsel".into()) } else { Value::Int(i) };
        vec![Value::Int(i % 11), Value::Float(i as f64 / 8.0), dirty]
    });
    let schema = schema_of(&[("g", ColType::Integer), ("v", ColType::Decimal), ("dirty", ColType::Integer)]);
    catalog.put("facts", Relation::with_rows(schema, rows.collect()));
    let input = |name: &str, fine: &'static str| if name == bad { "dirty * 2" } else { fine };
    let mut f = Flow::new("four_siblings");
    let src = scan(&mut f, "SRC", &catalog, "facts");
    for (i, depth) in [0, 1, 2, 3].into_iter().enumerate() {
        let mut at = src;
        for step in 0..depth {
            let name = format!("D_{}{}", i + 1, ["a", "b", "c"][step]);
            at = f.append(at, &name, derive(&format!("m{step}"), input(&name, "v + 1"))).unwrap();
        }
        let name = format!("AGG_{}", i + 1);
        let a = f.append(at, &name, agg(&["g"], &[("SUM", input(&name, "v"), "total"), ("COUNT", "1", "n")])).unwrap();
        f.append(a, format!("LOAD_{}", i + 1), load(&format!("t{}", i + 1), &["g"])).unwrap();
    }
    f.validate().expect("valid");
    (catalog, f)
}

/// A fused pass fails as its members would alone, at every width: a measure
/// failing in the third of four members returns that member's evaluation
/// error and leaves loaded only `LOAD_1`, positioned before it (as the
/// unfused engine did); a derivation failing in the fourth member's chain
/// stops the run before any load, while the pass runs the one member
/// positioned before the failure instead of waiting for the fourth.
#[test]
fn fused_pass_failures_are_width_independent() {
    let (catalog, f) = four_siblings("");
    let plan = PhysicalPlan::compile(&f, &catalog.statistics()).expect("compiles");
    let groups: Vec<Vec<&str>> = (plan.fused_groups().iter())
        .map(|g| g.members.iter().map(|&m| plan.nodes()[m].op.name.as_str()).collect())
        .collect();
    assert_eq!(groups, [["AGG_1", "AGG_2", "AGG_3", "AGG_4"]]);
    assert_equivalent_at(&catalog, &[&f], &WIDTHS);
    for (bad, tables) in [("AGG_3", &["facts", "t1"][..]), ("D_4b", &["facts"][..])] {
        let (catalog, f) = four_siblings(bad);
        for threads in WIDTHS {
            let mut engine = Engine::new(catalog.clone());
            match at_width(threads, || engine.run(&f)) {
                Err(EngineError::Eval { op, error: EvalError::Type(_) }) => assert_eq!(op, bad, "at {threads} threads"),
                other => panic!("expected `{bad}` to fail at {threads} threads, got {other:?}"),
            }
            assert_eq!(sorted_table_names(&engine.catalog), tables, "`{bad}` failing at {threads} threads");
        }
    }
}
