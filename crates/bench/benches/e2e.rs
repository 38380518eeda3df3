//! Experiment E1 (Figure 1) + E10: end-to-end lifecycle latency per stage,
//! swept over the number of requirements, plus removal cost.

use criterion::{BenchmarkId, Criterion};
use quarry_bench::{quarry_with, requirement_family};
use std::hint::black_box;
use std::time::Instant;

/// Prints the per-stage latency series EXPERIMENTS.md records.
fn print_series() {
    println!("\n# E1: end-to-end lifecycle, per-stage wall time");
    println!("{:>4} {:>12} {:>12} {:>12} {:>10} {:>10}", "N", "interpret", "integrate", "deploy", "md-ops", "etl-ops");
    for n in [1usize, 2, 4, 8, 16, 32] {
        let family = requirement_family(n);
        let q = quarry::Quarry::tpch();
        let t0 = Instant::now();
        let partials: Vec<_> = family.iter().map(|r| q.interpret(r).expect("valid")).collect();
        let interpret = t0.elapsed();
        drop(partials);

        let t1 = Instant::now();
        let q = quarry_with(n);
        let integrate = t1.elapsed().saturating_sub(interpret);

        let t2 = Instant::now();
        let artifacts = q.deploy("postgres-pdi").expect("deploys");
        let deploy = t2.elapsed();
        let (md, etl) = q.unified();
        println!(
            "{:>4} {:>12?} {:>12?} {:>12?} {:>10} {:>10}",
            n,
            interpret,
            integrate,
            deploy,
            md.size().0 + md.size().1,
            etl.op_count()
        );
        drop(artifacts);
    }
}

fn bench_lifecycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e_add_requirements");
    group.sample_size(10);
    for n in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(quarry_with(n)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e2e_remove_requirement");
    group.sample_size(10);
    for n in [4usize, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || quarry_with(n),
                |mut q| {
                    q.remove_requirement("IR0").expect("exists");
                    black_box(q)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn main() {
    // The printed series is a measurement run; `--test` (the CI bench smoke)
    // only proves the harness still executes.
    if !criterion::is_test_mode() {
        print_series();
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench_lifecycle(&mut criterion);
    criterion.final_summary();
}
