//! Result-cache correctness suite.
//!
//! The cross-run subflow result cache must be invisible in the output: for
//! every flow family — the benchmark's requirement families plus randomized
//! flows over the TPC-H schema — a cache-enabled engine (cold, then warm,
//! serving materialized intermediates) must load bit-identical warehouses to
//! a cache-disabled engine at 1, 4, and 8 threads.

use quarry::Quarry;
use quarry_bench::{at_width, high_overlap_family, requirement_family};
use quarry_engine::{tpch, Catalog, Engine, PhysicalPlan, ResultCache};
use quarry_etl::{parse_expr, AggSpec, Flow, JoinKind, OpKind};
use std::sync::Arc;

const SF: f64 = 0.002;

fn unified_of(family: Vec<quarry_formats::Requirement>) -> Flow {
    let mut q = Quarry::tpch();
    for r in family {
        q.add_requirement(r).expect("integrates");
    }
    q.unified().1.clone()
}

fn sorted_table_names(c: &Catalog) -> Vec<String> {
    let mut names: Vec<String> = c.table_names().map(str::to_string).collect();
    names.sort();
    names
}

/// Runs `flow` without a cache (the baseline), then with a shared cache —
/// one cold pass to populate it and one warm pass that must serve hits —
/// and asserts every loaded table is bit-identical to the baseline at 1, 4,
/// and 8 threads.
fn assert_cache_invisible(catalog: &Catalog, flow: &Flow) {
    let mut baseline = Engine::new(catalog.clone());
    at_width(1, || baseline.run(flow)).expect("baseline run");

    let cache = Arc::new(ResultCache::new(true, 256 << 20));
    let mut modes: Vec<(String, Engine)> = Vec::new();
    // Each width runs cold + warm against the same shared cache, so only
    // the first width's first pass is truly cold.
    for threads in [1usize, 4, 8] {
        for pass in ["cold", "warm"] {
            let mut engine = Engine::new(catalog.clone());
            engine.set_result_cache(Arc::clone(&cache), 0, Default::default());
            at_width(threads, || engine.run(flow)).expect("cached run");
            modes.push((format!("{threads}-thread {pass}"), engine));
        }
    }
    let warm_hits = cache.stats().hits;
    assert!(warm_hits > 0, "warm passes over an identical catalog must serve cache hits for `{}`", flow.name);

    let names = sorted_table_names(&baseline.catalog);
    for (label, engine) in &modes {
        assert_eq!(names, sorted_table_names(&engine.catalog), "table sets differ ({label}, flow `{}`)", flow.name);
        for t in &names {
            assert_eq!(
                baseline.catalog.get(t).unwrap(),
                engine.catalog.get(t).unwrap(),
                "table `{t}` not bit-identical to the cache-off baseline ({label}, flow `{}`)",
                flow.name
            );
        }
    }
}

/// Tiny deterministic PRNG so the "randomized" flows are reproducible.
struct Lcg(u64);

impl Lcg {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A randomized-but-valid flow over the TPC-H schema, biased toward the
/// cacheable shapes (joins, selections, aggregations, distinct): lineitem,
/// optionally joined with orders, a random selection/derivation stack, and a
/// random terminal before the loader.
fn random_flow(seed: u64) -> Flow {
    let mut rng = Lcg(seed.wrapping_add(0x0051_a717));
    let mut f = Flow::new(format!("cached{seed}"));
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
    ];
    for step in 0..1 + rng.pick(3) {
        let p = predicates[rng.pick(predicates.len())];
        tip = f.append(tip, format!("SEL{step}"), OpKind::Selection { predicate: parse_expr(p).unwrap() }).unwrap();
    }
    match rng.pick(3) {
        0 => {
            let group_choices: Vec<Vec<String>> =
                vec![vec!["l_returnflag".into(), "l_linestatus".into()], vec!["l_shipmode".into()], vec![]];
            let group_by = group_choices[rng.pick(group_choices.len())].clone();
            let aggregates = vec![
                AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "rev"),
                AggSpec::new("COUNT", parse_expr("1").unwrap(), "cnt"),
            ];
            let a = f.append(tip, "AGG", OpKind::Aggregation { group_by, aggregates }).unwrap();
            f.append(a, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        }
        1 => {
            let s = f
                .append(tip, "SORT", OpKind::Sort { columns: vec!["l_shipmode".into(), "l_orderkey".into()] })
                .unwrap();
            f.append(s, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
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
fn randomized_flows_cache_on_vs_off() {
    let catalog = tpch::generate(SF, 42);
    for seed in 0..6u64 {
        let flow = random_flow(seed);
        assert_cache_invisible(&catalog, &flow);
    }
}

#[test]
fn high_overlap_unified_flow_cache_on_vs_off() {
    let catalog = tpch::generate(SF, 42);
    let unified = unified_of(high_overlap_family(4));
    assert_cache_invisible(&catalog, &unified);
}

#[test]
fn low_overlap_unified_flow_cache_on_vs_off() {
    let catalog = tpch::generate(SF, 42);
    let unified = unified_of(requirement_family(4));
    assert_cache_invisible(&catalog, &unified);
}

#[test]
fn empty_inputs_cache_on_vs_off() {
    let mut catalog = tpch::generate(SF, 42);
    for name in sorted_table_names(&catalog.clone()) {
        catalog.get_mut(&name).unwrap().clear();
    }
    let unified = unified_of(high_overlap_family(4));
    // Empty intermediates may be rejected by admission (nothing saved), so
    // only bit-identity matters here, not warm hits.
    let mut baseline = Engine::new(catalog.clone());
    baseline.run(&unified).expect("baseline run");
    let cache = Arc::new(ResultCache::new(true, 256 << 20));
    for threads in [1usize, 4, 8] {
        for _pass in 0..2 {
            let mut engine = Engine::new(catalog.clone());
            engine.set_result_cache(Arc::clone(&cache), 0, Default::default());
            at_width(threads, || engine.run(&unified)).expect("cached run");
            for t in sorted_table_names(&baseline.catalog) {
                assert_eq!(
                    baseline.catalog.get(&t).unwrap(),
                    engine.catalog.get(&t).unwrap(),
                    "table `{t}` differs on empty inputs at {threads} threads"
                );
            }
        }
    }
}

/// A fused pass whose members the cache answers in part: the four-requirement
/// demo flow fills the cache, then the eight-requirement flow — the same
/// spine and four more aggregations — finds four of its eight fused
/// members there. Those are served without their cones running (their
/// derivations never execute), the other four run as one pass, and the
/// warehouse is bit-identical to a cache-off run at 1, 4 and 8 threads.
#[test]
fn fused_pass_with_some_members_cache_served_stays_identical() {
    let catalog = tpch::generate(SF, 42);
    let (four, eight) = (unified_of(high_overlap_family(4)), unified_of(high_overlap_family(8)));
    let plan = PhysicalPlan::compile(&eight, &catalog.statistics()).unwrap();
    let members: Vec<&str> = plan.fused_groups()[0].members.iter().map(|&m| plan.nodes()[m].op.name.as_str()).collect();
    assert_eq!(members.len(), 8);
    let mut baseline = Engine::new(catalog.clone());
    baseline.run(&eight).expect("baseline run");
    for threads in [1usize, 4, 8] {
        let cache = Arc::new(ResultCache::new(true, 256 << 20));
        let mut engine = Engine::new(catalog.clone());
        engine.set_result_cache(Arc::clone(&cache), 0, Default::default());
        at_width(threads, || engine.run(&four)).expect("fills the cache");
        let mut engine = Engine::new(catalog.clone());
        engine.set_result_cache(Arc::clone(&cache), 0, Default::default());
        let report = at_width(threads, || engine.run(&eight)).expect("cached run");
        let timing = |name: &str| report.timings.iter().find(|t| t.op == name);
        let (served, ran): (Vec<&str>, Vec<&str>) =
            members.iter().partition(|m| timing(m).is_some_and(|t| t.rows_in == 0 && t.elapsed.is_zero()));
        assert_eq!((served.len(), ran.len()), (4, 4), "served {served:?}, ran {ran:?} at {threads} threads");
        for m in &served {
            let derivation = m.replace("AGGREGATION_", "DERIVE_");
            assert!(timing(&derivation).is_none(), "`{derivation}` ran under a served `{m}` at {threads} threads");
        }
        assert!(ran.iter().all(|m| timing(&m.replace("AGGREGATION_", "DERIVE_")).is_some()));
        for t in sorted_table_names(&baseline.catalog) {
            assert_eq!(
                baseline.catalog.get(&t).unwrap(),
                engine.catalog.get(&t).unwrap(),
                "table `{t}` not bit-identical to the cache-off run at {threads} threads"
            );
        }
    }
}

/// A stale plan epoch must never serve entries admitted under another epoch:
/// warm the cache at epoch 0, then re-plan at epoch 1 — every lookup misses
/// and the output is still identical.
#[test]
fn epoch_change_misses_but_stays_identical() {
    let catalog = tpch::generate(SF, 42);
    let flow = random_flow(1);
    let mut baseline = Engine::new(catalog.clone());
    baseline.run(&flow).expect("baseline run");

    let cache = Arc::new(ResultCache::new(true, 256 << 20));
    for epoch in [0u64, 0, 1] {
        cache.set_flow_epoch(epoch);
        let mut engine = Engine::new(catalog.clone());
        engine.set_result_cache(Arc::clone(&cache), epoch, Default::default());
        engine.run(&flow).expect("cached run");
        for t in sorted_table_names(&baseline.catalog) {
            assert_eq!(baseline.catalog.get(&t).unwrap(), engine.catalog.get(&t).unwrap(), "table `{t}` differs");
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "the repeat at epoch 0 must hit: {stats:?}");
    // The epoch bump purged the old entries; the epoch-1 run found nothing.
    assert!(stats.misses >= stats.hits, "epoch 1 must miss everything: {stats:?}");
}

/// The cache's decisions, pinned: the low-overlap unified flow at sf 0.01
/// under a 1 MiB budget, several times below its working set, run three
/// times against one cache at 1, 2 and 8 threads. The counters after each
/// run are the values the policy (admission on room and, for a late batch,
/// on a second miss; cost-weighted LRU eviction) produced when it was
/// pinned, so a policy change that moves any decision fails here.
#[test]
fn cache_decisions_are_pinned() {
    let catalog = tpch::generate(0.01, 42);
    let unified = unified_of(requirement_family(8));
    for threads in [1usize, 2, 8] {
        let cache = Arc::new(ResultCache::new(true, 1 << 20));
        let after_each_run: Vec<_> = at_width(threads, || {
            (0..3)
                .map(|_| {
                    let mut engine = Engine::new(catalog.clone());
                    engine.set_result_cache(Arc::clone(&cache), 0, Default::default());
                    engine.run(&unified).expect("runs");
                    let s = cache.stats();
                    (s.inserts, s.rejects, s.evictions, s.entries, s.bytes, s.hits, s.misses)
                })
                .collect()
        });
        // On the cold run every lookup misses and every miss is offered; an
        // offer neither inserted nor rejected is a late batch left ungathered.
        let (inserts, rejects, .., misses) = after_each_run[0];
        assert_eq!(misses - inserts - rejects, 16, "late batches gathered on the cold run at {threads} threads");
        assert_eq!(
            after_each_run,
            [(5, 3, 0, 5, 354_992, 0, 24), (8, 10, 3, 5, 354_992, 5, 34), (11, 17, 6, 5, 354_992, 10, 44)],
            "(inserts, rejects, evictions, entries, bytes, hits, misses) at {threads} threads"
        );
    }
}
