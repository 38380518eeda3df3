//! Experiment E7 — the demo's headline measured claim (§3): "reduced overall
//! execution time for integrated ETL processes". Executes the consolidated
//! unified flow vs the N separate partial flows on generated TPC-H data and
//! reports the wall-clock gap. E7b sweeps the morsel-parallel executor over
//! pinned thread counts, and the `aggregate_cardinality` series prices one
//! grouped `SUM` per input row as the rows-per-group ratio falls to 1, beside
//! the second upsert load of a dimension table.

use criterion::{BenchmarkId, Criterion};
use quarry::Quarry;
use quarry_bench::requirement_family;
use quarry_engine::{tpch, Catalog, Engine, Relation, RelationBuilder, Value};
use quarry_etl::{parse_expr, AggSpec, ColType, Column, Flow, OpKind, Schema};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn run_flows(catalog: &quarry_engine::Catalog, flows: &[&Flow]) -> Duration {
    let mut engine = Engine::new(catalog.clone());
    let t0 = Instant::now();
    for f in flows {
        engine.run(f).expect("flow executes");
    }
    t0.elapsed()
}

/// Best-of-three wall clock: one-shot numbers on a shared machine carry
/// multi-x scheduling noise, the minimum is the honest capability figure.
fn best_of_3(mut measure: impl FnMut() -> Duration) -> Duration {
    (0..3).map(|_| measure()).min().expect("three samples")
}

fn series_for(label: &str, families: impl Fn(usize) -> Vec<quarry_formats::Requirement>) {
    println!("\n# E7 ({label}): integrated vs separate ETL execution (wall clock)");
    println!("{:>6} {:>4} {:>14} {:>14} {:>8}", "sf", "N", "integrated", "separate", "speedup");
    for sf in [0.005f64, 0.01] {
        let catalog = tpch::generate(sf, 42);
        for n in [2usize, 4, 8] {
            let family = families(n);
            let probe = Quarry::tpch();
            let partials: Vec<Flow> = family.iter().map(|r| probe.interpret(r).expect("valid").etl).collect();
            let mut q = Quarry::tpch();
            for r in family {
                q.add_requirement(r).expect("integrates");
            }
            let unified = q.unified().1.clone();

            let integrated = best_of_3(|| run_flows(&catalog, &[&unified]));
            let separate = best_of_3(|| run_flows(&catalog, &partials.iter().collect::<Vec<_>>()));
            println!(
                "{:>6} {:>4} {:>14?} {:>14?} {:>7.2}x",
                sf,
                n,
                integrated,
                separate,
                separate.as_secs_f64() / integrated.as_secs_f64()
            );
        }
    }
}

fn thread_scaling_series() {
    // The morsel-parallel executor on the headline workload (high overlap,
    // sf=0.01, N=8), swept over pinned worker counts. Results are
    // bit-identical at every width (asserted by the equivalence suite);
    // only the wall clock moves.
    println!("\n# E7b: thread scaling — morsel-parallel executor, high overlap, sf=0.01, N=8");
    println!("{:>8} {:>14} {:>8}", "threads", "integrated", "speedup");
    let catalog = tpch::generate(0.01, 42);
    let mut q = Quarry::tpch();
    for r in quarry_bench::high_overlap_family(8) {
        q.add_requirement(r).expect("integrates");
    }
    let unified = q.unified().1.clone();
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        quarry_engine::pool::set_threads(threads);
        let best = best_of_3(|| {
            let mut engine = Engine::new(catalog.clone());
            let t0 = Instant::now();
            engine.run(&unified).expect("runs");
            t0.elapsed()
        });
        let baseline = *base.get_or_insert(best);
        println!("{:>8} {:>14?} {:>7.2}x", threads, best, baseline.as_secs_f64() / best.as_secs_f64());
    }
    quarry_engine::pool::set_threads(0); // restore auto-detection
}

/// `rows` rows in one table, loaded by one flow; `datastore → tail → LOAD`.
fn single_table_flow(table: &str, schema: &Schema, tail: Option<OpKind>, key: &[&str]) -> Flow {
    let mut f = Flow::new(table);
    let mut last =
        f.add_op("SRC", OpKind::Datastore { datastore: table.into(), schema: schema.clone() }).expect("adds");
    if let Some(kind) = tail {
        last = f.append(last, "AGG", kind).expect("appends");
    }
    let key = key.iter().map(|k| k.to_string()).collect();
    f.append(last, "LOAD", OpKind::Loader { table: "out".into(), key }).expect("appends");
    f.validate().expect("valid");
    f
}

/// The fastest `elapsed` of the operator named `op` over `reps` calls of
/// `run`, in nanoseconds per input row of that operator.
fn op_ns_per_row(reps: usize, op: &str, mut run: impl FnMut() -> quarry_engine::RunReport) -> (f64, usize) {
    let timing = |r: &quarry_engine::RunReport| r.timings.iter().find(|t| t.op == op).expect("op ran").clone();
    let best = (0..reps).map(|_| timing(&run())).min_by_key(|t| t.elapsed).expect("at least one rep");
    (best.elapsed.as_secs_f64() * 1e9 / best.rows_in as f64, best.rows_out)
}

/// What one grouped `SUM` costs per input row as groups shrink to a row
/// each — the fact-grain aggregations of the low-overlap family, which group
/// by two surrogate keys — and what the second upsert load of a dimension
/// table costs per row (every key already present, the lifecycle's
/// `LOADER_dim_orders'`), with scattered keys and with sorted ones. 300 k and
/// 75 k rows, the sizes those operators see at sf = 0.05.
fn aggregate_cardinality_series(reps: usize) {
    const ROWS: usize = 300_000;
    const DIM_ROWS: usize = 75_000;
    println!("\n# aggregate_cardinality: one SUM over a two-column integer key, {ROWS} rows; second-load upsert");
    println!("{:>28} {:>8} {:>9} {:>8}", "case", "rows", "rows-out", "ns/row");
    let schema = Schema::new(vec![
        Column::new("k1", ColType::Integer),
        Column::new("k2", ColType::Integer),
        Column::new("v", ColType::Decimal),
    ]);
    for rows_per_group in [1usize, 30, 600] {
        let groups = ROWS / rows_per_group;
        let mut b = RelationBuilder::new(schema.clone());
        for i in 0..ROWS {
            // Scatter each group's rows over the table and spread the key
            // words like content-addressed surrogates.
            let g = (i * 7919) % groups;
            let k1 = ((g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) as i64;
            b.push_row(vec![Value::Int(k1), Value::Int(g as i64), Value::Float(i as f64 * 0.25)]);
        }
        let mut catalog = Catalog::new();
        catalog.put("facts", b.finish());
        let agg = OpKind::Aggregation {
            group_by: vec!["k1".into(), "k2".into()],
            aggregates: vec![AggSpec::new("SUM", parse_expr("v").expect("parses"), "total")],
        };
        let flow = single_table_flow("facts", &schema, Some(agg), &[]);
        let (ns_per_row, rows_out) =
            op_ns_per_row(reps, "AGG", || Engine::new(catalog.clone()).run(&flow).expect("runs"));
        let case = format!("sum_{rows_per_group}_rows_per_group");
        println!("{case:>28} {ROWS:>8} {rows_out:>9} {ns_per_row:>8.1}");
    }
    let dim_schema = Schema::new(vec![
        Column::new("k", ColType::Integer),
        Column::new("price", ColType::Decimal),
        Column::new("status", ColType::Text),
        Column::new("clerk", ColType::Text),
        Column::new("day", ColType::Date),
    ]);
    // Both sides of the loader's plan choice: keys scattered like
    // content-addressed surrogates are grouped by hash; keys that rise down
    // the table, as extracted dimension keys do, merge in one pass.
    let scattered = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) as i64;
    for (case, key) in
        [("upsert_second_load", scattered as fn(usize) -> i64), ("upsert_second_load_sorted", |i| i as i64)]
    {
        let mut catalog = Catalog::new();
        catalog.put(
            "orders",
            Relation::with_rows(
                dim_schema.clone(),
                (0..DIM_ROWS)
                    .map(|i| {
                        vec![
                            Value::Int(key(i)),
                            Value::Float(i as f64 * 1.5),
                            Value::Str(["F", "O", "P"][i % 3].into()),
                            Value::Str(format!("Clerk#{:05}", i % 1000)),
                            Value::Date(8000 + (i % 2400) as i32),
                        ]
                    })
                    .collect(),
            ),
        );
        let flow = single_table_flow("orders", &dim_schema, None, &["k"]);
        let (ns_per_row, rows_out) = op_ns_per_row(reps, "LOAD", || {
            let mut engine = Engine::new(catalog.clone());
            engine.run(&flow).expect("first load");
            engine.run(&flow).expect("second load")
        });
        println!("{case:>28} {DIM_ROWS:>8} {rows_out:>9} {ns_per_row:>8.1}");
    }
}

fn print_series() {
    // The paper's demo scenario is the high-overlap case: evolving
    // requirements over the same analytical contexts. The low-overlap sweep
    // is the honest counterpoint: with little shared work, consolidation
    // cannot win wall-clock (it saves design effort, not cycles).
    series_for("high overlap — the demo scenario", quarry_bench::high_overlap_family);
    series_for("low overlap — counterpoint", requirement_family);
    thread_scaling_series();
    aggregate_cardinality_series(5);
}

fn bench(c: &mut Criterion) {
    let catalog = tpch::generate(0.005, 42);
    let family = quarry_bench::high_overlap_family(4);
    let probe = Quarry::tpch();
    let partials: Vec<Flow> = family.iter().map(|r| probe.interpret(r).expect("valid").etl).collect();
    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    let unified = q.unified().1.clone();

    let mut group = c.benchmark_group("etl_execution_sf0.005_n4");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("integrated"), &unified, |b, unified| {
        b.iter(|| black_box(run_flows(&catalog, &[unified])));
    });
    group.bench_with_input(BenchmarkId::from_parameter("separate"), &partials, |b, partials| {
        b.iter(|| black_box(run_flows(&catalog, &partials.iter().collect::<Vec<_>>())));
    });
    group.finish();

    // Raw engine throughput on a single generated flow.
    c.bench_function("engine_run_figure4_sf0.005", |b| {
        let design = probe.interpret(&quarry_formats::xrq::figure4_requirement()).expect("valid");
        b.iter(|| black_box(run_flows(&catalog, &[&design.etl])));
    });

    // The consolidated flow pinned to one thread vs the machine's width.
    let mut group = c.benchmark_group("engine_parallelism_n4");
    group.sample_size(10);
    for (label, threads) in [("1-thread", 1), ("all-threads", 0)] {
        quarry_engine::pool::set_threads(threads);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut engine = Engine::new(catalog.clone());
                black_box(engine.run(&unified).expect("runs"))
            });
        });
    }
    group.finish();
}

fn main() {
    // The printed comparison series are measurement runs; `--test` (the CI
    // bench smoke) only proves the harness still executes.
    // The cardinality series still runs there, once: it is the only
    // harness over the high-cardinality aggregation and second-load upsert.
    if criterion::is_test_mode() {
        aggregate_cardinality_series(1);
    } else {
        print_series();
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench(&mut criterion);
    criterion.final_summary();
}
