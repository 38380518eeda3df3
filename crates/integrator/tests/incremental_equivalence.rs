//! Randomized equivalence between the two consolidation paths.
//!
//! The incremental path ([`quarry_integrator::state::ConsolidationState`])
//! keeps the unified ETL flow canonical and matches against a maintained
//! index; the seed path re-derives everything per step with the one-shot
//! [`integrate_md`]/[`integrate_etl`]. Over randomized add/change/remove
//! requirement sequences, both must produce **bit-identical** unified designs
//! (compared structurally *and* on the serialized xMD/xLM text) and identical
//! integration reports.
//!
//! The incremental ETL path also keeps per-operation schemas and cost parts
//! beside its index and re-derives them only where a step reaches; after
//! every step they must equal a from-scratch derivation bit for bit —
//! through widened sources feeding joins, failing steps that roll back
//! through the flow's edit journal, and changed source statistics.
//!
//! Removals and changes retract through the state on the incremental path
//! ([`ConsolidationState::retract`]), which keeps the index and the facts;
//! the seed path retracts the flow and re-derives on the next step. After
//! every retraction the kept facts and index must equal a rebuild, and the
//! reported cost the whole-flow cost, bit for bit.
//!
//! A second check pits the delta scorer against whole-schema costing: every
//! MD step is replayed under an opaque wrapper of the same cost model (no
//! additive decomposition, so the integrator falls back to full scoring) and
//! must choose the same schema for the same cost.

use quarry_etl::cost::{EstimatedTime, EtlCostModel, SourceStats};
use quarry_etl::facts::FlowFacts;
use quarry_etl::{parse_expr, rules, AggSpec, ColType, Column, Flow, JoinKind, OpKind, Schema};
use quarry_formats::{xlm, xmd};
use quarry_integrator::etl::{integrate_etl, EtlIntegrationOptions};
use quarry_integrator::md::integrate_md;
use quarry_integrator::state::{ConsolidationState, ConsolidationStats};
use quarry_integrator::IntegrateError;
use quarry_md::{CostModel, DimLink, Dimension, Fact, Level, MdDataType, MdSchema, Measure, StructuralComplexity};

// ---- deterministic randomness ---------------------------------------------

/// Minimal xorshift64 PRNG — the suite must be reproducible and the workspace
/// has no random-number dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

// ---- partial-design generator ---------------------------------------------

const TABLES: [&str; 3] = ["alpha", "beta", "gamma"];
const CONCEPTS: [&str; 3] = ["Alpha", "Beta", "Gamma"];
/// Small predicate pool per table so distinct requirements overlap often
/// (overlap is where index hits and merge decisions actually happen). All
/// predicates are single-table: cross-branch selections above joins are the
/// one known (and deliberate) divergence of canonical-form maintenance.
const THRESHOLDS: [&str; 3] = ["5", "10", "20"];

fn table_schema(t: &str) -> Schema {
    Schema::new(vec![
        Column::new(format!("{t}_id"), ColType::Integer),
        Column::new(format!("{t}_val"), ColType::Decimal),
        Column::new(format!("{t}_cat"), ColType::Text),
    ])
}

fn gen_etl(rng: &mut Rng, req: &str) -> Flow {
    let t = TABLES[rng.below(TABLES.len())];
    let mut f = Flow::new(format!("partial_{req}"));
    let ds = f.add_op(format!("DS_{t}"), OpKind::Datastore { datastore: t.into(), schema: table_schema(t) }).unwrap();
    let ex = f
        .append(
            ds,
            format!("EX_{t}"),
            OpKind::Extraction { columns: vec![format!("{t}_id"), format!("{t}_val"), format!("{t}_cat")] },
        )
        .unwrap();
    let mut tip = ex;
    let mut tag = t.to_string();
    if rng.chance(70) {
        let th = THRESHOLDS[rng.below(THRESHOLDS.len())];
        tip = f
            .append(
                tip,
                format!("SEL_{t}_{th}"),
                OpKind::Selection { predicate: parse_expr(&format!("{t}_val > {th}")).unwrap() },
            )
            .unwrap();
        tag = format!("{tag}_{th}");
    }
    if rng.chance(40) {
        tip = f
            .append(
                tip,
                format!("AGG_{t}"),
                OpKind::Aggregation {
                    group_by: vec![format!("{t}_cat")],
                    aggregates: vec![AggSpec::new(
                        "SUM",
                        parse_expr(&format!("{t}_val")).unwrap(),
                        format!("{t}_total"),
                    )],
                },
            )
            .unwrap();
        tag = format!("{tag}_agg");
    }
    f.append(tip, format!("LOAD_{tag}"), OpKind::Loader { table: format!("t_{tag}"), key: vec![] }).unwrap();
    f.stamp_requirement(req);
    f
}

/// alpha ⋈ beta on their ids, each side reading a random subset of its
/// table's columns: later requirements widen the datastores and extractions
/// earlier ones put in front of the shared join, and everything downstream
/// of them sees wider rows.
fn gen_join_etl(rng: &mut Rng, req: &str) -> Flow {
    let mut f = Flow::new(format!("partial_{req}"));
    let mut sides = Vec::new();
    for t in ["alpha", "beta"] {
        let mut columns = vec![Column::new(format!("{t}_id"), ColType::Integer)];
        for (extra, ty) in [("val", ColType::Decimal), ("cat", ColType::Text)] {
            if rng.chance(50) {
                columns.push(Column::new(format!("{t}_{extra}"), ty));
            }
        }
        let names = columns.iter().map(|c| c.name.clone()).collect();
        let ds = f
            .add_op(format!("DS_{t}"), OpKind::Datastore { datastore: t.into(), schema: Schema::new(columns) })
            .unwrap();
        sides.push(f.append(ds, format!("EX_{t}"), OpKind::Extraction { columns: names }).unwrap());
    }
    let join =
        OpKind::Join { kind: JoinKind::Inner, left_on: vec!["alpha_id".into()], right_on: vec!["beta_id".into()] };
    let j = f.add_op("JOIN_ab", join).unwrap();
    f.connect(sides[0], j).unwrap();
    f.connect(sides[1], j).unwrap();
    let k = rng.below(3);
    f.append(j, format!("LOAD_ab_{k}"), OpKind::Loader { table: format!("t_ab_{k}"), key: vec![] }).unwrap();
    f.stamp_requirement(req);
    f
}

/// Either shape, so single-table pipelines and the join share sources.
fn gen_mixed_etl(rng: &mut Rng, req: &str) -> Flow {
    if rng.chance(50) {
        gen_join_etl(rng, req)
    } else {
        gen_etl(rng, req)
    }
}

fn gen_md(rng: &mut Rng, req: &str) -> MdSchema {
    let mut s = MdSchema::new(format!("partial_{req}"));
    let concept = CONCEPTS[rng.below(CONCEPTS.len())];
    // Two dimension-name spellings per concept: same spelling pairs by name,
    // different spellings pair by concept — and two partial dims of the same
    // concept exercise the collision-resolution path.
    let spelling = rng.below(2);
    let dim_name = |c: &str, v: usize| if v == 0 { format!("Dim{c}") } else { format!("{c}Axis") };
    let mk_dim = |c: &str, v: usize| {
        Dimension::new(dim_name(c, v), Level::new(c, format!("{c}ID"), MdDataType::Integer).with_concept(c))
    };
    s.dimensions.push(mk_dim(concept, spelling));
    if rng.chance(25) {
        let other = CONCEPTS[rng.below(CONCEPTS.len())];
        if other != concept {
            s.dimensions.push(mk_dim(other, rng.below(2)));
        }
    }
    let fact_concept = CONCEPTS[rng.below(CONCEPTS.len())];
    let mut f =
        Fact::new(if rng.chance(50) { format!("fact_{}", fact_concept.to_lowercase()) } else { format!("f_{req}") });
    f.concept = Some(fact_concept.to_string());
    let m = rng.below(THRESHOLDS.len());
    f.measures.push(Measure::new(format!("total_{m}"), format!("sum(val_{m})")));
    for d in &s.dimensions {
        f.dimensions.push(DimLink::new(&d.name, &d.atomic));
    }
    s.facts.push(f);
    s.stamp_requirement(req);
    s
}

// ---- the two paths ---------------------------------------------------------

/// A cost model that hides its additive decomposition, forcing the integrator
/// onto the whole-schema-costing path.
struct Opaque(StructuralComplexity);

impl CostModel for Opaque {
    fn name(&self) -> &str {
        "opaque structural complexity"
    }

    fn cost(&self, schema: &MdSchema) -> f64 {
        self.0.cost(schema)
    }
}

fn stats() -> SourceStats {
    SourceStats::new().with_table("alpha", 50_000.0).with_table("beta", 8_000.0).with_table("gamma", 1_000.0)
}

/// The schemas and cost parts the state keeps beside its index equal what
/// validating and costing `flow` from scratch derives, bit for bit.
fn assert_facts_exact(state: &ConsolidationState, flow: &Flow, model: &EstimatedTime, stats: &SourceStats, at: &str) {
    let kept = state.etl_facts().expect("a step just ran under the index");
    let mut fresh = FlowFacts::default();
    fresh.refresh(flow, &[], model, stats).expect("the unified flow validates");
    assert_eq!(kept.schemas(), fresh.schemas(), "{at}: kept schemas diverged from a rebuild");
    assert_eq!(kept.schemas(), &flow.schemas().unwrap(), "{at}: kept schemas diverged from propagation");
    let bits = |facts: &FlowFacts| {
        let mut parts: Vec<_> = facts.cost_parts().iter().map(|(id, c)| (*id, c.to_bits())).collect();
        parts.sort_unstable();
        parts
    };
    assert_eq!(bits(kept), bits(&fresh), "{at}: kept cost parts diverged from a rebuild");
    // A clone starts without the memo `cost` would otherwise answer from.
    let parts = model.decompose(flow, &stats.clone()).unwrap().expect("the model is additive");
    let decomposed: Vec<_> = parts.iter().map(|p| (p.id, p.cost.to_bits())).collect();
    assert_eq!(bits(kept), decomposed, "{at}: kept cost parts diverged from decompose");
}

/// Drives one randomized requirement lifecycle down both paths, asserting
/// bit-identical state after every operation.
fn run_equivalence(seed: u64, ops: usize, options: EtlIntegrationOptions) {
    run_equivalence_over(gen_etl, seed, ops, 70, options);
}

/// Returns the incremental path's counters. `add_pct` percent of the steps
/// add (every step does while nothing is active); the rest split evenly
/// between removals and changes.
fn run_equivalence_over(
    gen: fn(&mut Rng, &str) -> Flow,
    seed: u64,
    ops: usize,
    add_pct: usize,
    options: EtlIntegrationOptions,
) -> ConsolidationStats {
    let mut rng = Rng::new(seed);
    let cost = StructuralComplexity::new();
    let etl_cost = EstimatedTime::new();
    let stats = stats();

    // Seed path: re-derive with the one-shot integrators every step.
    let mut seed_md = MdSchema::new("unified");
    let mut seed_etl = Flow::new("unified");
    // Incremental path: maintained consolidation state.
    let mut inc_md = MdSchema::new("unified");
    let mut inc_etl = Flow::new("unified");
    let mut state = ConsolidationState::new();

    let mut active: Vec<String> = Vec::new();
    let mut next_id = 0usize;
    let mut adds = 0usize;

    for step in 0..ops {
        let roll = rng.below(100);
        let retract_pct = add_pct + (100 - add_pct) / 2;
        if active.is_empty() || roll < add_pct {
            // Add a fresh requirement.
            let id = format!("R{next_id}");
            next_id += 1;
            add_both(
                &mut rng,
                gen,
                &id,
                &cost,
                &etl_cost,
                &stats,
                options,
                &mut seed_md,
                &mut seed_etl,
                &mut inc_md,
                &mut inc_etl,
                &mut state,
            );
            active.push(id);
            adds += 1;
        } else {
            // Remove a random active requirement, or change one: retract
            // the old version, integrate a new one (same id).
            let change = roll >= retract_pct;
            let id = if change {
                active[rng.below(active.len())].clone()
            } else {
                active.swap_remove(rng.below(active.len()))
            };
            seed_md.retract_requirement(&id);
            seed_etl.retract_requirement(&id);
            inc_md.retract_requirement(&id);
            let epoch = state.flow_epoch();
            let retracted = state.retract(&mut inc_etl, &id, &etl_cost, &stats).expect("the retraction validates");
            let at = format!("seed {seed} step {step}: retracting {id}");
            assert_eq!(state.flow_epoch(), epoch + 1, "{at}: one epoch per retraction");
            assert_eq!(inc_etl, seed_etl, "{at}: retracted flows diverged");
            let whole = etl_cost.cost(&seed_etl, &stats).unwrap();
            assert_eq!(retracted.to_bits(), whole.to_bits(), "{at}: cost bits diverged from the whole-flow cost");
            if state.etl_index_ready() {
                assert_facts_exact(&state, &inc_etl, &etl_cost, &stats, &at);
                state.audit_etl_index(&inc_etl).unwrap_or_else(|e| panic!("{at}: kept index diverged: {e}"));
            }
            if change {
                add_both(
                    &mut rng,
                    gen,
                    &id,
                    &cost,
                    &etl_cost,
                    &stats,
                    options,
                    &mut seed_md,
                    &mut seed_etl,
                    &mut inc_md,
                    &mut inc_etl,
                    &mut state,
                );
            }
        }

        assert_eq!(seed_md, inc_md, "seed {seed} step {step}: unified MD schemas diverged");
        assert_eq!(seed_etl, inc_etl, "seed {seed} step {step}: unified ETL flows diverged");
        assert_eq!(
            xmd::to_string(&seed_md),
            xmd::to_string(&inc_md),
            "seed {seed} step {step}: xMD serialization diverged"
        );
        assert_eq!(
            xlm::to_string(&seed_etl),
            xlm::to_string(&inc_etl),
            "seed {seed} step {step}: xLM serialization diverged"
        );
    }

    // At least 5/7 of the expected adds: half the steps at 70 %.
    assert!(adds * 700 >= ops * add_pct * 5, "generator sanity: {adds} adds in {ops} steps");
    let s = state.stats();
    assert!(
        s.etl_index_rebuilds < adds as u64,
        "seed {seed}: at least one step must have reused the maintained index \
         ({} rebuilds over {adds} adds)",
        s.etl_index_rebuilds
    );
    seed_etl.validate().expect("final unified flow is well-formed");
    assert!(!seed_md.validate().iter().any(|v| v.kind.is_error()), "final unified schema is sound");
    s
}

#[allow(clippy::too_many_arguments)]
fn add_both(
    rng: &mut Rng,
    gen: fn(&mut Rng, &str) -> Flow,
    id: &str,
    cost: &StructuralComplexity,
    etl_cost: &EstimatedTime,
    stats: &SourceStats,
    options: EtlIntegrationOptions,
    seed_md: &mut MdSchema,
    seed_etl: &mut Flow,
    inc_md: &mut MdSchema,
    inc_etl: &mut Flow,
    state: &mut ConsolidationState,
) {
    let p_md = gen_md(rng, id);
    let p_etl = gen(rng, id);

    let one_md = integrate_md(seed_md, &p_md, cost).expect("seed MD integration");
    let one_etl = integrate_etl(seed_etl, &p_etl, etl_cost, stats, options).expect("seed ETL integration");
    *seed_md = one_md.schema;
    *seed_etl = one_etl.flow;

    // Delta scoring vs whole-schema costing: same choice, same cost.
    let opaque = integrate_md(inc_md, &p_md, &Opaque(StructuralComplexity::new())).expect("opaque MD integration");
    let inc = state.md_step(inc_md, &p_md, cost).expect("incremental MD step");
    assert_eq!(inc.schema, opaque.schema, "req {id}: delta scorer disagrees with whole-schema costing");
    assert_eq!(inc.report, opaque.report, "req {id}: delta/full reports diverged");
    *inc_md = inc.schema;
    let inc_report = state.etl_step(inc_etl, &p_etl, etl_cost, stats, options).expect("incremental ETL step");

    assert_eq!(one_md.report, inc.report, "req {id}: MD reports diverged");
    assert_eq!(one_etl.report, inc_report, "req {id}: ETL reports diverged");
    assert_eq!(one_etl.report.cost.to_bits(), inc_report.cost.to_bits(), "req {id}: ETL cost bits diverged");
    assert_facts_exact(state, inc_etl, etl_cost, stats, &format!("req {id}"));
}

// ---- the suite -------------------------------------------------------------

#[test]
fn randomized_lifecycles_are_bit_identical_across_paths() {
    for seed in [3, 7, 1984] {
        run_equivalence(seed, 30, EtlIntegrationOptions::default());
    }
}

#[test]
fn equivalence_holds_without_rule_alignment() {
    // The E8 ablation flavor: canonical form is dedupe-only.
    run_equivalence(42, 30, EtlIntegrationOptions { align_with_rules: false });
}

#[test]
fn widened_sources_feeding_joins_stay_bit_identical() {
    for seed in [5, 11, 2024] {
        run_equivalence_over(gen_mixed_etl, seed, 30, 70, EtlIntegrationOptions::default());
    }
    run_equivalence_over(gen_mixed_etl, 17, 30, 70, EtlIntegrationOptions { align_with_rules: false });
}

#[test]
fn a_steady_state_step_rederives_only_what_it_reaches() {
    let mut rng = Rng::new(23);
    let (etl_cost, stats, options) = (EstimatedTime::new(), stats(), EtlIntegrationOptions::default());
    let mut etl = Flow::new("unified");
    let mut state = ConsolidationState::new();
    let mut steady = 0;
    for i in 0..40 {
        let partial = gen_mixed_etl(&mut rng, &format!("R{i}"));
        let before: Vec<_> = etl.ops().map(|o| (o.id, o.kind.clone())).collect();
        let ready = state.etl_index_ready();
        state.etl_step(&mut etl, &partial, &etl_cost, &stats, options).unwrap();
        let recomputed = state.etl_facts().unwrap().recomputed();
        if !ready {
            assert_eq!(recomputed, etl.op_count(), "the first step derives everything");
            continue;
        }
        // What the step may reach: the operations it added or widened and
        // everything downstream of them.
        let mut reach = std::collections::BTreeSet::new();
        for op in etl.ops() {
            if before.iter().all(|(id, kind)| *id != op.id || *kind != op.kind) {
                reach.insert(op.id);
                reach.extend(etl.downstream_of(op.id));
            }
        }
        assert!(recomputed <= reach.len(), "step {i}: {recomputed} re-derived, {} reachable", reach.len());
        steady += usize::from(recomputed < etl.op_count());
    }
    assert_eq!(state.stats().etl_index_rebuilds, 1);
    assert!(steady >= 30, "most steps must cost less than the flow ({steady} of 39 did)");
}

#[test]
fn failing_steps_roll_back_through_the_journal_and_statistics_changes_are_noticed() {
    let mut rng = Rng::new(77);
    let etl_cost = EstimatedTime::new();
    let mut stats = stats();
    for options in [EtlIntegrationOptions::default(), EtlIntegrationOptions { align_with_rules: false }] {
        let mut seed_etl = Flow::new("unified");
        let mut etl = Flow::new("unified");
        let mut state = ConsolidationState::new();
        let mut next = 0;
        let mut add = |rng: &mut Rng,
                       stats: &SourceStats,
                       seed_etl: &mut Flow,
                       etl: &mut Flow,
                       state: &mut ConsolidationState| {
            let id = format!("R{next}");
            next += 1;
            let partial = gen_mixed_etl(rng, &id);
            let one = integrate_etl(seed_etl, &partial, &etl_cost, stats, options).unwrap();
            let report = state.etl_step(etl, &partial, &etl_cost, stats, options).unwrap();
            *seed_etl = one.flow;
            assert_eq!(*seed_etl, *etl, "req {id}: flows diverged");
            assert_eq!(one.report, report, "req {id}: reports diverged");
            assert_eq!(one.report.cost.to_bits(), report.cost.to_bits(), "req {id}: cost bits diverged");
            assert_facts_exact(state, etl, &etl_cost, stats, &format!("req {id}"));
        };
        for _ in 0..6 {
            add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);
        }

        // Arity: a join short of an input, behind sources the step widens
        // first. The journal takes the widening back with the copies.
        let mut short = Flow::new("partial_bad");
        let ds = short
            .add_op(
                "DS_gamma",
                OpKind::Datastore {
                    datastore: "gamma".into(),
                    schema: Schema::new(vec![
                        Column::new("gamma_id", ColType::Integer),
                        Column::new("gamma_extra", ColType::Integer),
                    ]),
                },
            )
            .unwrap();
        let ex = short
            .append(ds, "EX_gamma", OpKind::Extraction { columns: vec!["gamma_id".into(), "gamma_extra".into()] })
            .unwrap();
        let join =
            OpKind::Join { kind: JoinKind::Inner, left_on: vec!["gamma_id".into()], right_on: vec!["gamma_id".into()] };
        let j = short.append(ex, "JOIN_half", join).unwrap();
        short.append(j, "LOAD_half", OpKind::Loader { table: "half".into(), key: vec![] }).unwrap();
        short.stamp_requirement("BAD");
        // Make sure gamma's sources are there to be matched and widened.
        while etl.op_by_name("EX_gamma").is_none() {
            add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);
        }
        assert!(state.etl_index_ready(), "the failing step runs under a maintained index");
        let (before, before_text, epoch) = (etl.clone(), xlm::to_string(&etl), state.flow_epoch());
        let one_shot = integrate_etl(&seed_etl, &short, &etl_cost, &stats, options).unwrap_err();
        let stepped = state.etl_step(&mut etl, &short, &etl_cost, &stats, options).unwrap_err();
        assert!(matches!(&stepped, IntegrateError::InvalidResult(r) if r[0].contains("JOIN_half")), "{stepped}");
        assert_eq!(one_shot, stepped, "both paths refuse the partial alike");
        assert_eq!(etl, before, "a failed step leaves the flow bit-identical");
        assert_eq!(xlm::to_string(&etl), before_text);
        assert!(!state.etl_index_ready() && state.etl_facts().is_none(), "index and facts go with a failed step");
        assert_eq!(state.flow_epoch(), epoch + 1);
        add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);

        // Name clash: an operation renamed behind the state's back to the
        // name the next copy will take. Counts are unchanged, so the stale
        // index is used, the copy collides, and the step is rolled back.
        let clash = gen_etl(&mut Rng::new(1), "CLASH");
        let loader = clash.ops().find(|o| o.kind.is_sink()).unwrap().name.clone();
        let mut renamed = clash.clone();
        let sink = renamed.id_by_name(&loader).unwrap();
        let OpKind::Loader { table, .. } = &mut renamed.op_mut(sink).kind else { panic!("sinks are loaders") };
        *table = "t_clash".into();
        let victim = etl.ops().find(|o| o.kind.is_sink()).unwrap().id;
        let (victim_name, mut free) = (etl.op(victim).name.clone(), loader.clone());
        while etl.op_by_name(&free).is_some() {
            free.push('\'');
        }
        etl.rename_op(victim, free.clone()).unwrap();
        renamed.rename_op(sink, free).unwrap();
        let before = etl.clone();
        let stepped = state.etl_step(&mut etl, &renamed, &etl_cost, &stats, options).unwrap_err();
        assert!(matches!(&stepped, IntegrateError::MalformedPartial(m) if m.contains("duplicate")), "{stepped}");
        assert_eq!(etl, before, "a failed step leaves the flow bit-identical");
        assert!(!state.etl_index_ready());
        etl.rename_op(victim, victim_name).unwrap();
        add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);

        // Statistics that change between steps re-derive every cardinality
        // and cost part; the index survives.
        let rebuilds = state.stats().etl_index_rebuilds;
        stats.set_table("alpha", 75_000.0);
        add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);
        assert_eq!(state.etl_facts().unwrap().recomputed(), etl.op_count());
        stats.observe_op("EX_alpha", 123.0);
        add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);
        assert_eq!(state.etl_facts().unwrap().recomputed(), etl.op_count());
        add(&mut rng, &stats, &mut seed_etl, &mut etl, &mut state);
        assert!(state.etl_facts().unwrap().recomputed() < etl.op_count(), "unchanged statistics, touched ops only");
        assert_eq!(state.stats().etl_index_rebuilds, rebuilds, "statistics do not invalidate the index");
    }
}

#[test]
fn long_add_only_sequence_keeps_a_single_index_build() {
    let mut rng = Rng::new(99);
    let cost = StructuralComplexity::new();
    let etl_cost = EstimatedTime::new();
    let stats = stats();
    let options = EtlIntegrationOptions::default();
    let mut md = MdSchema::new("unified");
    let mut etl = Flow::new("unified");
    let mut state = ConsolidationState::new();
    for i in 0..20 {
        let id = format!("R{i}");
        let p_md = gen_md(&mut rng, &id);
        let p_etl = gen_etl(&mut rng, &id);
        md = state.md_step(&md, &p_md, &cost).unwrap().schema;
        state.etl_step(&mut etl, &p_etl, &etl_cost, &stats, options).unwrap();
    }
    let s = state.stats();
    assert_eq!(s.etl_index_rebuilds, 1, "no invalidation → the index is built exactly once");
    assert!(s.etl_index_hits > 0, "overlapping pipelines must hit the index");
    etl.validate().unwrap();
}

#[test]
fn change_heavy_sequences_keep_a_single_index_build() {
    // No operation of these generators is left with a sole consumer that a
    // canonical rule rewrites, so every retraction keeps the index.
    for (seed, gen) in [(31, gen_etl as fn(&mut Rng, &str) -> Flow), (37, gen_mixed_etl), (41, gen_mixed_etl)] {
        let s = run_equivalence_over(gen, seed, 40, 30, EtlIntegrationOptions::default());
        assert_eq!(s.etl_index_rebuilds, 1, "seed {seed}: retractions keep the index");
    }
    let s = run_equivalence_over(gen_mixed_etl, 43, 40, 30, EtlIntegrationOptions { align_with_rules: false });
    assert_eq!(s.etl_index_rebuilds, 1, "without rule alignment no retraction can unblock a rule");
}

#[test]
fn a_retraction_that_unblocks_a_canonical_rule_falls_back_to_a_rebuild() {
    let (etl_cost, stats, options) = (EstimatedTime::new(), stats(), EtlIntegrationOptions::default());
    let selection = |p: &str| OpKind::Selection { predicate: parse_expr(p).unwrap() };
    let projection = |cols: &[&str]| OpKind::Projection { columns: cols.iter().map(|c| c.to_string()).collect() };
    let group_by_cat = OpKind::Aggregation {
        group_by: vec!["alpha_cat".into()],
        aggregates: vec![AggSpec::new("SUM", parse_expr("alpha_val").unwrap(), "alpha_total")],
    };
    // (rule, whether the shared op reads the extraction or the datastore,
    // the shared op, its consumer serving R1 alone). R2's loader is the
    // shared op's other consumer, so the rule is blocked until R2 goes.
    let cases = [
        ("selection push-down", true, group_by_cat, selection("alpha_cat = 'x'")),
        ("adjacent selections", false, selection("alpha_val > 5"), selection("alpha_val > 10")),
        ("adjacent projections", true, projection(&["alpha_id", "alpha_val"]), projection(&["alpha_id"])),
    ];
    for (rule, extracted, shared, consumer) in cases {
        let mut flow = Flow::new("unified");
        let ds = flow
            .add_op("DS_alpha", OpKind::Datastore { datastore: "alpha".into(), schema: table_schema("alpha") })
            .unwrap();
        let columns = vec!["alpha_id".into(), "alpha_val".into(), "alpha_cat".into()];
        let input = if extracted { flow.append(ds, "EX_alpha", OpKind::Extraction { columns }).unwrap() } else { ds };
        let x = flow.append(input, "SHARED", shared).unwrap();
        let c = flow.append(x, "CONSUMER", consumer).unwrap();
        flow.append(c, "LOAD_1", OpKind::Loader { table: "t1".into(), key: vec![] }).unwrap();
        let l2 = flow.append(x, "LOAD_2", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        flow.stamp_requirement("R1");
        for id in flow.upstream_of(l2).into_iter().chain([l2]) {
            flow.op_mut(id).satisfies.insert("R2".into());
        }
        flow.op_mut(l2).satisfies.remove("R1");
        assert!(rules::is_canonical(&flow, true), "{rule}: the shared op blocks the rule");

        let (mut seed_etl, mut etl, mut state) = (flow.clone(), flow, ConsolidationState::new());
        // Requirements on another table, which leave the shared op alone.
        let add = |id: &str, seed_etl: &mut Flow, etl: &mut Flow, state: &mut ConsolidationState| {
            let mut partial = Flow::new(format!("partial_{id}"));
            let ds = partial
                .add_op("DS_gamma", OpKind::Datastore { datastore: "gamma".into(), schema: table_schema("gamma") })
                .unwrap();
            partial.append(ds, format!("LOAD_{id}"), OpKind::Loader { table: format!("t_{id}"), key: vec![] }).unwrap();
            partial.stamp_requirement(id);
            let one = integrate_etl(seed_etl, &partial, &etl_cost, &stats, options).unwrap();
            let report = state.etl_step(etl, &partial, &etl_cost, &stats, options).unwrap();
            *seed_etl = one.flow;
            assert_eq!(*seed_etl, *etl, "{rule}: flows diverged at {id}");
            assert_eq!(xlm::to_string(seed_etl), xlm::to_string(etl), "{rule}: xLM diverged at {id}");
            assert_eq!(one.report, report, "{rule}: reports diverged at {id}");
            assert_facts_exact(state, etl, &etl_cost, &stats, &format!("{rule}: {id}"));
        };
        add("R3", &mut seed_etl, &mut etl, &mut state);

        seed_etl.retract_requirement("R2");
        let epoch = state.flow_epoch();
        let retracted = state.retract(&mut etl, "R2", &etl_cost, &stats).unwrap();
        assert_eq!(etl, seed_etl);
        assert!(!rules::is_canonical(&etl, true), "{rule}: the retraction unblocks the rule");
        assert!(!state.etl_index_ready(), "{rule}: the fallback drops the index");
        assert_eq!(state.flow_epoch(), epoch + 1);
        assert_eq!(retracted.to_bits(), etl_cost.cost(&etl, &stats).unwrap().to_bits());

        add("R4", &mut seed_etl, &mut etl, &mut state);
        assert_eq!(state.stats().etl_index_rebuilds, 2, "{rule}: the step after the fallback rebuilds");
        state.audit_etl_index(&etl).unwrap();
    }
}
