//! Prints what each piece of one design step costs on a finished design —
//! the design-step sibling of `op_timings`, and the drill-down for the
//! lifecycle benchmark's `design-session` (`--family low --n 64`).
//!
//! ```text
//! cargo run --release -p quarry-bench --example step_timings -- \
//!     [--family high|low] [--n 8|32|64]
//! ```
//!
//! The step is the last `add` of the family: requirement N integrated into
//! the design of the N − 1 before it. Every line is the fastest of 30
//! repetitions: rendering each document of the step (with bytes and MB/s),
//! the whole-flow work a step used to do (`flow.clone`, `validate`, `cost`),
//! the two integrator steps under a maintained `ConsolidationState`, and the
//! repository puts of the step's five documents.
//!
//! A `change` block then times the benchmark's change on the finished
//! design (requirement N − 5 with its dimensions reversed and its slicer
//! dropped): the ETL half of the retraction with the index kept and without
//! one (after `invalidate()`, as after a rollback: one fresh `FlowFacts`
//! derivation of the retracted flow), beside the whole-flow `validate` and
//! `cost` that derivation replaces, and retraction plus re-add `etl_step`
//! once with the index kept through `ConsolidationState::retract` and once
//! after `invalidate()`, which rebuilds canonical form, index and facts.
//! Then the design is optimized as the lifecycle's `optimize` does (an
//! `optimize` line: moves proposed and accepted, the committed flow's size,
//! its modeled gain and the search's wall time), and the change is timed on the committed flow twice: with the index built beside
//! the facts the commit handed over (`ConsolidationState::adopt`), and after
//! `invalidate()` instead, which rebuilds. Last, `Quarry::change_requirement`
//! itself is timed on a durable instance in a temp dir, optimized, with
//! whether the unified xLM version each change logs is stored whole (a
//! re-anchor) or as a delta.

use quarry::{Quarry, QuarryConfig};
use quarry_deployer::pdi;
use quarry_etl::cost::SourceStats;
use quarry_etl::Flow;
use quarry_formats::{xlm, xmd, Requirement};
use quarry_integrator::optimize::optimize_flow;
use quarry_integrator::state::ConsolidationState;
use quarry_md::MdSchema;
use quarry_repository::{ArtifactKind, Repository};
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPS: usize = 30;

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: step_timings [--family high|low] [--n <usize>]");
    std::process::exit(2)
}

/// Fastest of [`REPS`] runs of `work` on a fresh `setup()` each.
fn fastest<S, T>(mut setup: impl FnMut() -> S, mut work: impl FnMut(S) -> T) -> Duration {
    (0..REPS)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = work(input);
            let elapsed = t.elapsed();
            black_box(out);
            elapsed
        })
        .min()
        .unwrap_or_default()
}

fn line(piece: &str, time: Duration, note: &str) {
    println!("{piece:<28} {:>10.1} µs  {note}", time.as_secs_f64() * 1e6);
}

fn render(piece: &str, mut doc: impl FnMut() -> String) {
    let bytes = doc().len();
    let time = fastest(|| (), |()| doc());
    line(piece, time, &format!("{bytes:>8} bytes {:>7.0} MB/s", bytes as f64 / time.as_secs_f64() / 1e6));
}

fn main() {
    let (mut high, mut n) = (false, 64usize);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match (flag.as_str(), value.as_str()) {
            ("--family", "high") => high = true,
            ("--family", "low") => high = false,
            ("--n", v) => n = v.parse().unwrap_or_else(|_| usage(&format!("bad value `{v}` for --n"))),
            _ => usage(&format!("unknown argument `{flag} {value}`")),
        }
    }
    if n == 0 {
        usage("--n must be at least 1");
    }
    let family = if high { quarry_bench::high_overlap_family(n) } else { quarry_bench::requirement_family(n) };
    let q = Quarry::tpch();
    let cfg = q.config();
    let partials: Vec<_> = family.iter().map(|r| q.interpret(r).expect("the family is MD-compliant")).collect();
    let (last_req, last) = (&family[n - 1], &partials[n - 1]);

    // The design before the last add, under a maintained state, with the
    // documents a durable session would have stored so far.
    let repo = Repository::new();
    let put = |kind, key: &str, doc: &str| {
        repo.put_artifact(kind, key, doc).expect("in-memory put");
    };
    let mut state = ConsolidationState::new();
    let (mut md, mut etl) = (MdSchema::new("unified"), Flow::new("unified"));
    for p in &partials[..n - 1] {
        md = state.md_step(&md, &p.md, cfg.md_cost.as_ref()).expect("MD step").schema;
        state.etl_step(&mut etl, &p.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options).expect("ETL step");
        put(ArtifactKind::MdSchema, "unified", &xmd::to_string(&md));
        put(ArtifactKind::EtlFlow, "unified", &xlm::to_string(&etl));
    }
    let (md_before, etl_before, state_before) = (md.clone(), etl.clone(), state.clone());

    let md_time = fastest(
        || state_before.clone(),
        |mut s| s.md_step(&md_before, &last.md, cfg.md_cost.as_ref()).expect("MD step"),
    );
    let etl_time = fastest(
        || (state_before.clone(), etl_before.clone()),
        |(mut s, mut flow)| {
            let report =
                s.etl_step(&mut flow, &last.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options).expect("ETL step");
            (s, flow, report)
        },
    );
    md = state.md_step(&md, &last.md, cfg.md_cost.as_ref()).expect("MD step").schema;
    let report =
        state.etl_step(&mut etl, &last.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options).expect("ETL step");

    println!(
        "{} overlap, N={n}: the last add brings {} ops ({} reused, {} added) to a {}-op flow; fastest of {REPS}",
        if high { "high" } else { "low" },
        report.reused_ops + report.added_ops,
        report.reused_ops,
        report.added_ops,
        etl.op_count(),
    );
    render("render xRQ", || last_req.to_string_pretty());
    render("render partial xMD", || xmd::to_string(&last.md));
    render("render partial xLM", || xlm::to_string(&last.etl));
    render("render unified xMD", || xmd::to_string(&md));
    render("render unified xLM", || xlm::to_string(&etl));
    render("render unified KTR", || pdi::generate_ktr(&etl, "demo").expect("the unified flow validates"));
    line("flow.clone", fastest(|| (), |()| etl.clone()), "");
    line("flow.validate", fastest(|| (), |()| etl.validate()), "");
    line("etl_cost.cost", fastest(|| (), |()| cfg.etl_cost.cost(&etl, &cfg.stats)), "");
    line("md_step", md_time, "");
    let recomputed = state.etl_facts().map_or(0, |f| f.recomputed());
    line("etl_step", etl_time, &format!("schema and cost part re-derived for {recomputed} of {} ops", etl.op_count()));

    // The step's five documents in the lifecycle's order: the unified ones
    // become deltas against the versions stored above, the partials deltas
    // against the unified ones just put. Re-putting the previous unified
    // versions and taking fresh partial keys between repetitions keeps every
    // timed put a real one-step delta.
    let id = &last_req.id;
    let docs = [
        (ArtifactKind::Requirement, id.clone(), last_req.to_string_pretty()),
        (ArtifactKind::MdSchema, "unified".to_string(), xmd::to_string(&md)),
        (ArtifactKind::EtlFlow, "unified".to_string(), xlm::to_string(&etl)),
        (ArtifactKind::MdSchema, format!("partial-{id}"), xmd::to_string(&last.md)),
        (ArtifactKind::EtlFlow, format!("partial-{id}"), xlm::to_string(&last.etl)),
    ];
    let (prev_md, prev_etl) = (xmd::to_string(&md_before), xlm::to_string(&etl_before));
    let mut rep = 0;
    let puts = fastest(
        || {
            put(ArtifactKind::MdSchema, "unified", &prev_md);
            put(ArtifactKind::EtlFlow, "unified", &prev_etl);
            rep += 1;
            rep
        },
        |rep| {
            for (i, (kind, key, doc)) in docs.iter().enumerate() {
                match i {
                    0..=2 => put(*kind, key, doc),
                    _ => put(*kind, &format!("{key}/{rep}"), doc),
                }
            }
        },
    );
    let bytes: usize = docs.iter().map(|(_, _, d)| d.len()).sum();
    line("puts (5 documents)", puts, &format!("{bytes:>8} bytes, in-memory repository"));

    if n < 6 {
        return;
    }
    let mut changed_req = family[n - 6].clone();
    changed_req.dimensions.reverse();
    changed_req.slicers.clear();
    let (id, changed) = (&changed_req.id, q.interpret(&changed_req).expect("the changed requirement is MD-compliant"));
    let mut retracted = etl.clone();
    let mut kept = state.clone();
    kept.retract(&mut retracted, id, cfg.etl_cost.as_ref(), &cfg.stats).expect("the retraction validates");
    println!(
        "change {id}: the retraction leaves {} of {} ops, index {}",
        retracted.op_count(),
        etl.op_count(),
        if kept.etl_index_ready() { "kept" } else { "dropped (a canonical rule fires)" }
    );
    let retract_under = |stats: &SourceStats, (mut s, mut flow): (ConsolidationState, Flow)| {
        let cost = s.retract(&mut flow, id, cfg.etl_cost.as_ref(), stats).expect("the retraction validates");
        (s, flow, cost)
    };
    let retract = |input| retract_under(&cfg.stats, input);
    line(
        "retract (kept index)",
        fastest(|| (state.clone(), etl.clone()), retract),
        "validates and costs through the kept facts",
    );
    let invalidated = || {
        let mut s = state.clone();
        s.invalidate();
        (s, etl.clone())
    };
    line("retract (no index)", fastest(invalidated, retract), "validates and costs through fresh facts");
    line("retracted flow.validate", fastest(|| (), |()| retracted.validate()), "");
    line("retracted etl_cost.cost", fastest(|| (), |()| cfg.etl_cost.cost(&retracted, &cfg.stats)), "");
    let change_under = |stats: &SourceStats, input| {
        let (mut s, mut flow, _) = retract_under(stats, input);
        let report =
            s.etl_step(&mut flow, &changed.etl, cfg.etl_cost.as_ref(), stats, cfg.etl_options).expect("ETL step");
        (s, flow, report)
    };
    let change = |input| change_under(&cfg.stats, input);
    line("change (kept index)", fastest(|| (state.clone(), etl.clone()), change), "retract + etl_step");
    line("change (after rollback)", fastest(invalidated, change), "invalidate + retract + etl_step");

    // The lifecycle's optimize step on the finished design.
    let (mut optimized, mut stats) = (etl.clone(), cfg.stats.clone());
    let (opt, facts) = optimize_flow(&mut optimized, &mut stats, cfg.optimizer.budget_ms).expect("the search runs");
    println!(
        "optimize: {} proposed, {} accepted, {} {} ops at {:.1} % less modeled cost in {:.1} ms",
        opt.proposed,
        opt.accepted,
        if opt.applied { "committed" } else { "no commit," },
        optimized.op_count(),
        opt.improvement() * 100.0,
        opt.wall_ms
    );
    let Some(facts) = facts else {
        println!("optimize: nothing handed over");
        durable_change(&family, &changed_req);
        return;
    };
    let mut committed = state.clone();
    committed.adopt(&optimized, facts);
    let handed = fastest(|| (committed.clone(), optimized.clone()), |input| change_under(&stats, input));
    line("change (after commit)", handed, "retract + etl_step on the handed-over index");
    let dropped = || {
        let mut s = committed.clone();
        s.invalidate();
        (s, optimized.clone())
    };
    line(
        "change (commit, invalidated)",
        fastest(dropped, |input| change_under(&stats, input)),
        "invalidate + retract + etl_step",
    );
    durable_change(&family, &changed_req);
}

/// How many versions of the unified xLM are stored as deltas.
fn unified_xlm_deltas(q: &Quarry) -> usize {
    let storage = q.repository().with_store(|s| s.artifact_storage()).expect("the store materializes");
    storage.iter().find(|a| a.kind == ArtifactKind::EtlFlow && a.key == "unified").map_or(0, |a| a.deltas)
}

/// The lifecycle's own change on a durable instance (a fresh directory under
/// the system temp dir) holding the whole family, after `optimize`: retract,
/// re-add and one logged persist of the unified design. The first change is
/// the benchmark's; the repetitions alternate back and forth between the
/// changed and the original requirement, so the unified chains grow as in a
/// long session.
fn durable_change(family: &[Requirement], changed: &Requirement) {
    let dir = std::env::temp_dir().join(format!("quarry-step-timings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let domain = quarry_ontology::tpch::domain();
    let mut cfg = QuarryConfig::tpch(0.01);
    cfg.repository_dir = Some(dir.clone());
    let mut q = Quarry::try_with_config(domain.ontology, domain.sources, cfg).expect("a fresh directory opens");
    for r in family {
        q.add_requirement(r.clone()).expect("the family is MD-compliant");
    }
    q.optimize().expect("the search runs");
    let original = family.iter().find(|r| r.id == changed.id).expect("the changed requirement is in the family");
    let first_version = q.repository().latest(ArtifactKind::EtlFlow, "unified").expect("persisted").version + 1;
    // Per change: its time, and whether its unified xLM version is whole.
    let mut changes = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let deltas = unified_xlm_deltas(&q);
        let next = if rep % 2 == 0 { changed } else { original };
        let t = Instant::now();
        q.change_requirement(next.clone()).expect("the change integrates");
        let time = t.elapsed();
        changes.push((time, unified_xlm_deltas(&q) == deltas));
    }
    drop(q);
    let _ = std::fs::remove_dir_all(&dir);
    let (first, first_whole) = changes[0];
    let whole = changes.iter().filter(|(_, whole)| *whole).count();
    line(
        "change (durable lifecycle)",
        changes.iter().map(|(time, _)| *time).min().unwrap_or_default(),
        &format!(
            "first {:.1} µs, its unified xLM v{first_version} stored {}; {whole} of {REPS} stored whole",
            first.as_secs_f64() * 1e6,
            if first_whole { "whole" } else { "as a delta" },
        ),
    );
}
