//! Experiment E8: ETL Process Integrator — consolidation latency, reuse
//! found, and the equivalence-rule-alignment ablation (§2.3: "aligns the
//! order of ETL operations by applying generic equivalence rules").

use criterion::{BenchmarkId, Criterion, Throughput};
use quarry::Quarry;
use quarry_bench::{high_overlap_family, requirement_family};
use quarry_etl::cost::{EstimatedTime, SourceStats};
use quarry_etl::rewrite::{Move, RewriteState};
use quarry_etl::{Flow, OpId};
use quarry_formats::Requirement;
use quarry_integrator::etl::{integrate_etl, EtlIntegrationOptions};
use std::hint::black_box;

fn stats() -> SourceStats {
    quarry::QuarryConfig::tpch(0.01).stats
}

/// "Authors the same flows differently": every second partial is put into
/// canonical (normalized) form up front, the others keep the interpreter's
/// authored order. Semantically identical designs in mixed shapes — exactly
/// the situation the paper's rule alignment exists for.
fn mixed_authoring(partials: &[Flow]) -> Vec<Flow> {
    partials
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut f = p.clone();
            if i % 2 == 0 {
                quarry_etl::rules::normalize(&mut f).expect("rules apply");
            }
            f
        })
        .collect()
}

fn print_series() {
    // The crisp alignment scenario: the *same* requirement authored two ways
    // — the interpreter's raw order (selections late, after the joins) vs
    // canonical order (selections pushed to the sources). This is the
    // paper's interoperability case: partial designs plugged in from
    // external tools arrive in arbitrary operation order (§2.2), and only
    // the equivalence rules expose that they equal what Quarry already has.
    println!("\n# E8: same design, different authoring — reuse with/without rule alignment");
    println!("{:>6} {:>6} {:>10} {:>10}", "IR", "ops", "reuse-on", "reuse-off");
    let s = stats();
    let probe = Quarry::tpch();
    for (i, req) in requirement_family(8).into_iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        // Requirements with slicers have movable selections.
        let raw = probe.interpret(&req).expect("valid").etl;
        let mut canonical = raw.clone();
        quarry_etl::rules::normalize(&mut canonical).expect("rules apply");
        let mut results = [0usize; 2];
        for (j, align) in [true, false].into_iter().enumerate() {
            let r = integrate_etl(
                &raw,
                &canonical,
                &EstimatedTime::new(),
                &s,
                EtlIntegrationOptions { align_with_rules: align },
            )
            .expect("integrates");
            results[j] = r.report.reused_ops;
        }
        println!("{:>6} {:>6} {:>10} {:>10}", format!("IR{i}"), raw.op_count(), results[0], results[1]);
    }

    println!("\n# E8b: consolidation across a mixed-authoring family");
    println!("{:>4} {:>10} {:>10} {:>12} {:>12}", "N", "reuse-on", "reuse-off", "cost-on", "cost-off");
    for n in [2usize, 4, 8, 16] {
        let family = requirement_family(n);
        let partials: Vec<Flow> =
            mixed_authoring(&family.iter().map(|r| probe.interpret(r).expect("valid").etl).collect::<Vec<_>>());
        let mut reuse = [0usize; 2];
        let mut cost = [0.0f64; 2];
        for (i, align) in [true, false].into_iter().enumerate() {
            let mut unified = Flow::new("unified");
            let mut reused = 0;
            for p in &partials {
                let r = integrate_etl(
                    &unified,
                    p,
                    &EstimatedTime::new(),
                    &s,
                    EtlIntegrationOptions { align_with_rules: align },
                )
                .expect("integrates");
                reused += r.report.reused_ops;
                cost[i] = r.report.cost;
                unified = r.flow;
            }
            reuse[i] = reused;
        }
        println!("{:>4} {:>10} {:>10} {:>12.0} {:>12.0}", n, reuse[0], reuse[1], cost[0], cost[1]);
    }
}

fn bench(c: &mut Criterion) {
    let s = stats();
    let probe = Quarry::tpch();
    let partials: Vec<Flow> = mixed_authoring(
        &requirement_family(8).iter().map(|r| probe.interpret(r).expect("valid").etl).collect::<Vec<_>>(),
    );

    let mut group = c.benchmark_group("etl_integrate_8_requirements");
    group.sample_size(10);
    for align in [true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if align { "rules-on" } else { "rules-off" }),
            &align,
            |b, &align| {
                b.iter(|| {
                    let mut unified = Flow::new("unified");
                    for p in &partials {
                        let r = integrate_etl(
                            &unified,
                            p,
                            &EstimatedTime::new(),
                            &s,
                            EtlIntegrationOptions { align_with_rules: align },
                        )
                        .expect("integrates");
                        unified = r.flow;
                    }
                    black_box(unified)
                });
            },
        );
    }
    group.finish();

    // Normalization alone (the alignment machinery).
    c.bench_function("etl_normalize_flow", |b| {
        b.iter_batched(
            || partials[0].clone(),
            |mut f| {
                quarry_etl::rules::normalize(&mut f).expect("rules apply");
                black_box(f)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

/// Proposals timed per sample: one apply + undo is a few microseconds, far
/// too close to the clock's resolution to time alone.
const STEP_REPS: u64 = 256;

/// The optimizer's per-proposal cost against flow size: for every move kind,
/// `STEP_REPS` × (`apply` + `undo`) of one legal move on the unified flow of
/// a requirement family — the paper's demo scenario (high overlap, N = 8, 44
/// operations) and the low-overlap family at N = 8 (87 operations) and
/// N = 64 (270). A move costs what it touches, and what it touches is the
/// rewired operations plus everything downstream whose schema changes, so
/// each kind is timed on its legal candidate with the *fewest operations
/// downstream*: that holds the touched region roughly constant across the
/// three flows and leaves flow size as the variable. A local move (swap /
/// assoc / hoist / prune) should then cost the same at N = 64 as at
/// N = 8; `merge-duplicates` is one hashing pass over the flow and is timed
/// on its common outcome, "no duplicates".
fn bench_optimizer_step(c: &mut Criterion) {
    /// A move's kind and the operation whose downstream cone it can reach.
    fn kind_and_anchor(mv: &Move) -> (&'static str, Option<OpId>) {
        match *mv {
            Move::HoistSelection { sel } => ("hoist", Some(sel)),
            Move::SwapJoins { upper } => ("swap", Some(upper)),
            Move::AssocJoins { upper } => ("assoc", Some(upper)),
            Move::UnassocJoins { upper } => ("unassoc", Some(upper)),
            Move::PruneColumns { to, .. } => ("prune", Some(to)),
            Move::RemoveProjection { proj } => ("remove-projection", Some(proj)),
            Move::MergeDuplicates => ("merge-duplicates", None),
        }
    }
    let families: [(&str, Vec<Requirement>); 3] = [
        ("high-overlap/N=8", high_overlap_family(8)),
        ("low-overlap/N=8", requirement_family(8)),
        ("low-overlap/N=64", requirement_family(64)),
    ];
    let mut group = c.benchmark_group("optimizer_step");
    group.throughput(Throughput::Elements(STEP_REPS));
    for (family, requirements) in families {
        let mut q = Quarry::tpch();
        for r in requirements {
            q.add_requirement(r).expect("the family integrates");
        }
        let mut st = RewriteState::new(q.unified().1.clone(), q.config().stats.clone()).expect("valid flow");
        let ops = st.flow().op_count();
        // Each kind's move is kept applied after it is timed, which is what
        // makes its inverse (unassoc after assoc, remove-projection after
        // prune) legal in turn.
        // (`merge-duplicates` goes first: the canonical flow has none.)
        for kind in ["merge-duplicates", "swap", "assoc", "unassoc", "hoist", "prune", "remove-projection"] {
            let mut of_kind = st.candidate_moves();
            of_kind.retain(|mv| kind_and_anchor(mv).0 == kind);
            of_kind.retain(|mv| kind == "merge-duplicates" || st.apply(mv).map(|undo| st.undo(undo)).is_ok());
            let reach = |mv: &Move| kind_and_anchor(mv).1.map_or(0, |anchor| st.flow().downstream_of(anchor).len());
            let Some(mv) = of_kind.iter().copied().min_by_key(reach) else { continue };
            group.bench_function(format!("{kind}/{family}/{ops}-ops/{}-downstream", reach(&mv)), |b| {
                b.iter(|| {
                    for _ in 0..STEP_REPS {
                        if let Ok(undo) = st.apply(black_box(&mv)) {
                            st.undo(undo);
                        }
                    }
                })
            });
            // Keeping the move is best effort: it only widens what the
            // kinds timed after it can find.
            let _ = st.apply(&mv);
        }
    }
    group.finish();
}

fn main() {
    // The printed comparison series are measurement runs; `--test` (the CI
    // bench smoke) only proves the harness still executes.
    if !criterion::is_test_mode() {
        print_series();
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench(&mut criterion);
    bench_optimizer_step(&mut criterion);
    criterion.final_summary();
}
