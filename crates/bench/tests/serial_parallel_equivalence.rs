//! Engine equivalence suite.
//!
//! [`Engine::run`] must load warehouses bit-identical to the retired
//! [`RowEngine`] reference — same relations in the same row order, same
//! floats, same surrogate keys, same loaded records in load order, same
//! per-operation row counts — at 1, 2, and 8 threads. Covered: every flow
//! family the `etl_execution` benchmark exercises, the Figure 3/4 fixture
//! flows, randomized flows over TPC-H and synthetic schemas, empty-input and
//! single-morsel edge cases, all-NULL columns, dictionary overflow to plain
//! strings, and a hand-built flow whose loaders make load order visible.

use quarry::Quarry;
use quarry_bench::{figure3_pair, high_overlap_family, requirement_family};
use quarry_engine::{tpch, Catalog, Engine, Relation, RowEngine, RunReport, Value, MORSEL_ROWS};
use quarry_etl::{parse_expr, AggSpec, Flow, JoinKind, OpKind};
use quarry_formats::Requirement;

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
    let mut row = RowEngine::from_catalog(catalog);
    let mut row_loaded = Vec::new();
    let mut row_counts = Vec::new();
    for f in flows {
        let r = row.run(f).expect("row run");
        row_counts.extend(op_counts(&r));
        row_loaded.extend(r.loaded);
    }
    let names: Vec<String> = row.table_names().map(str::to_string).collect();
    for threads in [1usize, 2, 8] {
        quarry_engine::pool::set_threads(threads);
        let mut col = Engine::new(catalog.clone());
        let mut col_loaded = Vec::new();
        let mut col_counts = Vec::new();
        for f in flows {
            let r = col.run(f).expect("columnar run");
            col_counts.extend(op_counts(&r));
            col_loaded.extend(r.loaded);
        }
        assert_eq!(row_counts, col_counts, "per-operation row counts differ at {threads} threads");
        assert_eq!(row_loaded, col_loaded, "loaded (table, rows) records differ at {threads} threads");
        assert_eq!(names, sorted_table_names(&col.catalog), "table sets differ at {threads} threads");
        for t in &names {
            assert_eq!(
                &row.table(t).unwrap(),
                col.catalog.get(t).unwrap(),
                "table `{t}` differs from the row engine at {threads} threads"
            );
        }
    }
    quarry_engine::pool::set_threads(0); // restore auto-detection
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
    use quarry_etl::{ColType, Column, Schema};
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
    use quarry_etl::{ColType, Column, Schema};
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
    use quarry_etl::{ColType, Column, Schema};
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
    use quarry_etl::{ColType, Column, Schema};
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
    use quarry_etl::{ColType, Column, Schema};
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
    use quarry_etl::{ColType, Column, Schema};
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
    let sel = |p: &str| OpKind::Selection { predicate: parse_expr(p).unwrap() };
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

#[test]
fn lifecycle_facade_is_thread_width_independent() {
    let catalog = tpch::generate(0.001, 42);
    let q = quarry_bench::quarry_with(4);
    quarry_engine::pool::set_threads(1);
    let (one_engine, one_report) = q.run_etl(catalog.clone()).expect("1-thread run");
    quarry_engine::pool::set_threads(4);
    let (wide_engine, wide_report) = q.run_etl(catalog).expect("4-thread run");
    quarry_engine::pool::set_threads(0); // restore auto-detection
    assert_eq!(one_report.loaded, wide_report.loaded);
    for t in sorted_table_names(&one_engine.catalog) {
        assert_eq!(one_engine.catalog.get(&t).unwrap(), wide_engine.catalog.get(&t).unwrap(), "table `{t}` differs");
    }
}
