//! Experiment E5: Design Deployer throughput — PostgreSQL DDL and Pentaho
//! PDI KTR generation, swept over unified-design size.

use criterion::{BenchmarkId, Criterion};
use quarry_bench::quarry_with;
use quarry_deployer::{pdi, postgres};
use std::hint::black_box;

fn print_series() {
    println!("\n# E5: deployment artifact generation");
    println!("{:>4} {:>10} {:>10} {:>12} {:>12}", "N", "sql-bytes", "ktr-bytes", "sql-time", "ktr-time");
    for n in [1usize, 4, 16, 32] {
        let q = quarry_with(n);
        let (md, etl) = q.unified();
        let t0 = std::time::Instant::now();
        let sql = postgres::generate_ddl(md, "demo");
        let t_sql = t0.elapsed();
        let t1 = std::time::Instant::now();
        let ktr = pdi::generate_ktr(etl, "demo").expect("the unified flow validates");
        let t_ktr = t1.elapsed();
        println!("{:>4} {:>10} {:>10} {:>12?} {:>12?}", n, sql.len(), ktr.len(), t_sql, t_ktr);
    }
}

fn bench(c: &mut Criterion) {
    let mut ddl = c.benchmark_group("deploy_postgres_ddl");
    for n in [1usize, 8, 32] {
        let q = quarry_with(n);
        let md = q.unified().0.clone();
        ddl.bench_with_input(BenchmarkId::from_parameter(n), &md, |b, md| {
            b.iter(|| black_box(postgres::generate_ddl(md, "demo")));
        });
    }
    ddl.finish();

    let mut ktr = c.benchmark_group("deploy_pdi_ktr");
    for n in [1usize, 8, 32] {
        let q = quarry_with(n);
        let etl = q.unified().1.clone();
        ktr.bench_with_input(BenchmarkId::from_parameter(n), &etl, |b, etl| {
            b.iter(|| black_box(pdi::generate_ktr(etl, "demo").expect("the unified flow validates")));
        });
    }
    ktr.finish();

    // The full platform round (validation + both artifacts + repository
    // bookkeeping).
    let q = quarry_with(8);
    c.bench_function("deploy_full_platform_n8", |b| {
        b.iter(|| black_box(q.deploy("postgres-pdi").expect("deploys")));
    });
}

fn main() {
    // The printed comparison series are measurement runs; `--test` (the CI
    // bench smoke) only proves the harness still executes.
    if !criterion::is_test_mode() {
        print_series();
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench(&mut criterion);
    criterion.final_summary();
}
