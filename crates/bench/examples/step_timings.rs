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
//! dropped): the ETL half of the retraction with what it validates and
//! costs, and retraction plus re-add `etl_step` once with the index kept
//! through `ConsolidationState::retract` and once after `invalidate()`,
//! which rebuilds canonical form, index and facts.

use quarry::Quarry;
use quarry_deployer::pdi;
use quarry_etl::Flow;
use quarry_formats::{xlm, xmd};
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
    let mut changed = family[n - 6].clone();
    changed.dimensions.reverse();
    changed.slicers.clear();
    let (id, changed) = (&changed.id, q.interpret(&changed).expect("the changed requirement is MD-compliant"));
    let mut retracted = etl.clone();
    let mut kept = state.clone();
    kept.retract(&mut retracted, id, cfg.etl_cost.as_ref(), &cfg.stats).expect("the retraction validates");
    println!(
        "change {id}: the retraction leaves {} of {} ops, index {}",
        retracted.op_count(),
        etl.op_count(),
        if kept.etl_index_ready() { "kept" } else { "dropped (a canonical rule fires)" }
    );
    let retract = |(mut s, mut flow): (ConsolidationState, Flow)| {
        let cost = s.retract(&mut flow, id, cfg.etl_cost.as_ref(), &cfg.stats).expect("the retraction validates");
        (s, flow, cost)
    };
    line(
        "retract (kept index)",
        fastest(|| (state.clone(), etl.clone()), retract),
        "validates and costs through the kept facts",
    );
    line("retracted flow.validate", fastest(|| (), |()| retracted.validate()), "what the rebuilt path validates");
    line("retracted etl_cost.cost", fastest(|| (), |()| cfg.etl_cost.cost(&retracted, &cfg.stats)), "what it costs");
    let re_add = |(mut s, mut flow): (ConsolidationState, Flow)| {
        let report =
            s.etl_step(&mut flow, &changed.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options).expect("ETL step");
        (s, flow, report)
    };
    let kept_change = fastest(
        || (state.clone(), etl.clone()),
        |input| {
            let (s, flow, _) = retract(input);
            re_add((s, flow))
        },
    );
    line("change (kept index)", kept_change, "retract + etl_step");
    let rebuilt_change = fastest(
        || (state.clone(), etl.clone()),
        |(mut s, mut flow)| {
            flow.retract_requirement(id);
            s.invalidate();
            flow.validate().expect("the retracted flow validates");
            cfg.etl_cost.cost(&flow, &cfg.stats).expect("the retracted flow costs");
            re_add((s, flow))
        },
    );
    line("change (rebuilt index)", rebuilt_change, "retract_requirement + invalidate + validate + cost + etl_step");
}
