//! Shared workload builders for the Quarry benchmark harness.
//!
//! Every bench target regenerates one experiment of DESIGN.md's per-figure /
//! per-scenario index (E1–E10); this crate holds the requirement families
//! and domain builders they share. Bench mains first *print* the experiment's
//! series (the rows EXPERIMENTS.md records), then run the Criterion timing
//! groups.

#![forbid(unsafe_code)]

use quarry::Quarry;
use quarry_etl::Flow;
use quarry_formats::{MeasureSpec, Requirement, Slicer};
use quarry_integrator::etl::integrate_etl;
use quarry_integrator::md::integrate_md;
use quarry_integrator::state::ConsolidationState;
use quarry_md::MdSchema;
use std::hint::black_box;
use std::time::Instant;

/// A compact builder for TPC-H requirements.
pub fn requirement(id: &str, measure: (&str, &str), dims: &[&str], slicer: Option<(&str, &str, &str)>) -> Requirement {
    let mut r = Requirement::new(id);
    r.measures.push(MeasureSpec { id: measure.0.into(), function: measure.1.into() });
    r.dimensions.extend(dims.iter().map(|d| d.to_string()));
    if let Some((concept, op, value)) = slicer {
        r.slicers.push(Slicer { concept: concept.into(), operator: op.into(), value: value.into() });
    }
    r
}

/// A family of `n` distinct, MD-compliant TPC-H requirements with realistic
/// overlap: measures rotate over Lineitem-grain quantities, dimension pairs
/// rotate over shared contexts, every third requirement carries a slicer.
pub fn requirement_family(n: usize) -> Vec<Requirement> {
    let measures = [
        ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
        ("quantity", "Lineitem_l_quantityATRIBUT"),
        ("gross", "Lineitem_l_extendedpriceATRIBUT"),
        ("taxed", "Lineitem_l_extendedpriceATRIBUT * (1 + Lineitem_l_taxATRIBUT)"),
        ("netprofit", "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT"),
    ];
    let dims = [
        "Part_p_nameATRIBUT",
        "Supplier_s_nameATRIBUT",
        "Customer_c_mktsegmentATRIBUT",
        "Orders_o_orderpriorityATRIBUT",
        "Part_p_brandATRIBUT",
        "Nation_n_nameATRIBUT",
    ];
    let slicers = [("Nation_n_nameATRIBUT", "=", "Spain"), ("Lineitem_l_quantityATRIBUT", ">", "10")];
    (0..n)
        .map(|i| {
            let (mname, mexpr) = measures[i % measures.len()];
            let slicer = (i % 3 == 0).then(|| slicers[i % slicers.len()]);
            requirement(
                &format!("IR{i}"),
                (&format!("{mname}_{i}"), mexpr),
                &[dims[i % dims.len()], dims[(i + 2) % dims.len()]],
                slicer,
            )
        })
        .collect()
}

/// A TPC-H Quarry instance with `n` integrated requirements.
pub fn quarry_with(n: usize) -> Quarry {
    let mut q = Quarry::tpch();
    for r in requirement_family(n) {
        q.add_requirement(r).expect("the family is MD-compliant");
    }
    q
}

/// A family of `n` requirements with *high* mutual overlap: identical
/// analysis dimensions and slicer, different measures — the demo's
/// "accommodating changes" shape, where each new requirement reuses almost
/// the whole existing flow (extraction, joins, keys) and adds only its
/// derivation + aggregation + loader.
pub fn high_overlap_family(n: usize) -> Vec<Requirement> {
    let measures = [
        ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
        ("gross", "Lineitem_l_extendedpriceATRIBUT"),
        ("taxed", "Lineitem_l_extendedpriceATRIBUT * (1 + Lineitem_l_taxATRIBUT)"),
        ("quantity", "Lineitem_l_quantityATRIBUT"),
        ("discounted", "Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT"),
        ("volume", "Lineitem_l_quantityATRIBUT * Lineitem_l_extendedpriceATRIBUT"),
        ("net", "Lineitem_l_extendedpriceATRIBUT - Lineitem_l_taxATRIBUT"),
        ("spread", "Lineitem_l_extendedpriceATRIBUT / (1 + Lineitem_l_taxATRIBUT)"),
    ];
    (0..n)
        .map(|i| {
            let (mname, mexpr) = measures[i % measures.len()];
            requirement(
                &format!("IR{i}"),
                (&format!("{mname}_{i}"), mexpr),
                &["Part_p_nameATRIBUT", "Supplier_s_nameATRIBUT"],
                Some(("Nation_n_nameATRIBUT", "=", "Spain")),
            )
        })
        .collect()
}

/// One measured point of the E11 integration-scaling series.
#[derive(Debug, Clone, Copy)]
pub struct IntegrationStepTiming {
    /// The step timed: integrating requirement `n` into a unified design
    /// already holding `n - 1` requirements.
    pub n: usize,
    /// Wall time of the step (MD + ETL) through the maintained
    /// [`ConsolidationState`].
    pub incremental_ms: f64,
    /// Wall time of the same step through the one-shot re-derive
    /// integrators, on the same unified prefix.
    pub rederive_ms: f64,
    /// Unified flow size after the step.
    pub unified_ops: usize,
}

/// Experiment E11: replays `requirement_family(max(points))` through the
/// incremental consolidation path, timing the per-step integrate cost at each
/// requested point — and, at those points only, the one-shot re-derive cost
/// of the *same* step for comparison. Both paths are bit-identical in output
/// (see `incremental_equivalence.rs`), so the timings differ by approach, not
/// by result.
pub fn integration_scaling(points: &[usize]) -> Vec<IntegrationStepTiming> {
    let max = points.iter().copied().max().unwrap_or(0);
    let q = Quarry::tpch();
    let cfg = q.config();
    let partials: Vec<_> =
        requirement_family(max).iter().map(|r| q.interpret(r).expect("family is MD-compliant")).collect();

    let mut state = ConsolidationState::new();
    let mut md = MdSchema::new("unified");
    let mut etl = Flow::new("unified");
    let mut series = Vec::new();
    for (i, p) in partials.iter().enumerate() {
        let n = i + 1;
        let measured = points.contains(&n);
        let rederive_ms = if measured {
            let t = Instant::now();
            let r_md = integrate_md(&md, &p.md, cfg.md_cost.as_ref()).expect("re-derive MD");
            let r_etl =
                integrate_etl(&etl, &p.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options).expect("re-derive ETL");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            black_box((r_md.schema, r_etl.flow));
            ms
        } else {
            0.0
        };
        let t = Instant::now();
        let step = state.md_step(&md, &p.md, cfg.md_cost.as_ref()).expect("incremental MD");
        state.etl_step(&mut etl, &p.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options).expect("incremental ETL");
        md = step.schema;
        let incremental_ms = t.elapsed().as_secs_f64() * 1e3;
        if measured {
            series.push(IntegrationStepTiming { n, incremental_ms, rederive_ms, unified_ops: etl.op_count() });
        }
    }
    series
}

/// One measured point of the E13 row-vs-columnar comparison.
#[derive(Debug, Clone, Copy)]
pub struct EngineComparison {
    pub sf: f64,
    pub n: usize,
    /// Best wall time of the columnar engine on the unified flow, ms.
    pub columnar_ms: f64,
    /// Best wall time of the retired row-at-a-time engine on the same flow
    /// and data, ms.
    pub row_ms: f64,
}

impl EngineComparison {
    pub fn speedup(&self) -> f64 {
        self.row_ms / self.columnar_ms
    }
}

/// Experiment E13: the unified `high_overlap_family(n)` flow at scale factor
/// `sf`, executed by both the columnar [`quarry_engine::Engine`] and
/// the retired [`quarry_engine::RowEngine`], best-of-`reps` each. Catalog
/// cloning and row-major materialization happen outside the timed regions;
/// both engines produce bit-identical warehouses (the equivalence suite
/// asserts this), so the wall clocks differ by data layout only.
pub fn row_vs_columnar(sf: f64, n: usize, reps: usize) -> EngineComparison {
    let catalog = quarry_engine::tpch::generate(sf, 42);
    let mut q = Quarry::tpch();
    for r in high_overlap_family(n) {
        q.add_requirement(r).expect("integrates");
    }
    let unified = q.unified().1.clone();
    let best = |mut measure: Box<dyn FnMut() -> f64>| (0..reps.max(1)).map(|_| measure()).fold(f64::INFINITY, f64::min);
    let columnar_ms = best(Box::new(|| {
        let mut engine = quarry_engine::Engine::new(catalog.clone());
        let t = Instant::now();
        black_box(engine.run(&unified).expect("columnar run"));
        t.elapsed().as_secs_f64() * 1e3
    }));
    let row_ms = best(Box::new(|| {
        let mut engine = quarry_engine::RowEngine::from_catalog(&catalog);
        let t = Instant::now();
        black_box(engine.run(&unified).expect("row run"));
        t.elapsed().as_secs_f64() * 1e3
    }));
    EngineComparison { sf, n, columnar_ms, row_ms }
}

/// One measured point of the E13 join-heavy selectivity sweep.
#[derive(Debug, Clone, Copy)]
pub struct JoinHeavyPoint {
    pub sf: f64,
    /// Approximate selectivity of the post-join filter, percent of join rows.
    pub selectivity_pct: u32,
    /// Best wall time of the columnar engine, ms.
    pub columnar_ms: f64,
    /// Rows surviving the post-join filter (sanity that the selectivity knob
    /// actually selects).
    pub rows_kept: usize,
}

/// Filter thresholds on `o_orderdate`, which the generator draws uniformly
/// over 1992-01-01..1998-08-02 (~2406 days): a `< threshold` predicate keeps
/// approximately the requested percentage of join output rows.
fn orderdate_threshold(selectivity_pct: u32) -> &'static str {
    match selectivity_pct {
        1 => "1992-01-25",
        10 => "1992-08-28",
        _ => "1997-12-05",
    }
}

/// The E13 join-heavy flow: lineitem (probe, 16 payload columns) joined to
/// orders (build, 9 payload columns) on the order key, then a post-join
/// filter on a *build-side* payload column at the requested selectivity, a
/// narrow projection, and a global aggregation. The shape stresses exactly
/// what late materialization optimizes: an eager join would gather all 24
/// payload columns at every matched row before the filter discards most of
/// them.
pub fn join_heavy_flow(selectivity_pct: u32) -> Flow {
    use quarry_etl::{parse_expr, AggSpec, JoinKind, OpKind};
    let mut f = Flow::new("join_heavy");
    let li = f
        .add_op(
            "LINEITEM",
            OpKind::Datastore {
                datastore: "lineitem".into(),
                schema: quarry_engine::tpch::table_schema("lineitem").expect("known table"),
            },
        )
        .expect("fresh flow");
    let ord = f
        .add_op(
            "ORDERS",
            OpKind::Datastore {
                datastore: "orders".into(),
                schema: quarry_engine::tpch::table_schema("orders").expect("known table"),
            },
        )
        .expect("fresh flow");
    let join = f
        .add_op(
            "JOIN",
            OpKind::Join {
                kind: JoinKind::Inner,
                left_on: vec!["l_orderkey".into()],
                right_on: vec!["o_orderkey".into()],
            },
        )
        .expect("join");
    f.connect(li, join).expect("probe input");
    f.connect(ord, join).expect("build input");
    let threshold = orderdate_threshold(selectivity_pct);
    let sel = f
        .append(
            join,
            "SEL",
            OpKind::Selection { predicate: parse_expr(&format!("o_orderdate < '{threshold}'")).unwrap() },
        )
        .expect("filter");
    let proj = f
        .append(
            sel,
            "PROJ",
            OpKind::Projection { columns: vec!["l_extendedprice".into(), "l_discount".into(), "o_totalprice".into()] },
        )
        .expect("project");
    let agg = f
        .append(
            proj,
            "AGG",
            OpKind::Aggregation {
                group_by: vec![],
                aggregates: vec![
                    AggSpec::new("SUM", parse_expr("l_extendedprice * (1 - l_discount)").unwrap(), "revenue"),
                    AggSpec::new("SUM", parse_expr("o_totalprice").unwrap(), "volume"),
                    AggSpec::new("COUNT", parse_expr("1").unwrap(), "n"),
                ],
            },
        )
        .expect("aggregate");
    f.append(agg, "LOAD", OpKind::Loader { table: "join_heavy_out".into(), key: vec![] }).expect("load");
    f
}

/// Experiment E13 (join-heavy leg): the [`join_heavy_flow`] at scale factor
/// `sf` and the given post-join filter selectivity, executed by the
/// columnar engine, best-of-`reps`. Catalog cloning happens outside the
/// timed region.
pub fn join_heavy(sf: f64, selectivity_pct: u32, reps: usize) -> JoinHeavyPoint {
    let catalog = quarry_engine::tpch::generate(sf, 42);
    let flow = join_heavy_flow(selectivity_pct);
    let mut columnar_ms = f64::INFINITY;
    let mut rows_kept = 0;
    for _ in 0..reps.max(1) {
        let mut engine = quarry_engine::Engine::new(catalog.clone());
        let t = Instant::now();
        let report = engine.run(&flow).expect("join-heavy run");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        columnar_ms = columnar_ms.min(ms);
        rows_kept = report.timings.iter().find(|t| t.op == "SEL").map_or(0, |t| t.rows_out);
        black_box(report);
    }
    JoinHeavyPoint { sf, selectivity_pct, columnar_ms, rows_kept }
}

/// How the E15 repository-throughput workload persists its mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepoMode {
    /// In-memory [`quarry_repository::Repository::new`] — the baseline.
    Memory,
    /// Durable with batched fsyncs (the default policy).
    WalBatched,
    /// Durable with an fsync on every append.
    WalAlways,
}

impl RepoMode {
    pub fn as_str(self) -> &'static str {
        match self {
            RepoMode::Memory => "memory",
            RepoMode::WalBatched => "wal-batched",
            RepoMode::WalAlways => "wal-always",
        }
    }
}

/// One measured point of the E15 repository-durability experiment.
#[derive(Debug, Clone, Copy)]
pub struct RepoThroughputPoint {
    pub mode: RepoMode,
    /// Number of `put_artifact` calls in the timed region.
    pub puts: usize,
    /// Best wall time for the whole run, ms.
    pub ms: f64,
    pub puts_per_sec: f64,
}

/// Experiment E15: `puts` versioned `put_artifact` calls against one
/// repository mode, best-of-`reps`. The payloads have the lifecycle's write
/// shape: each of 16 rotating keys holds a design that gains one fact per
/// version, so every put is distinct content a little larger than the
/// version before it (375 versions and ~35 KB per key by the end of 6000
/// puts). Durable modes run in a fresh scratch directory per rep — setup,
/// recovery, and cleanup stay outside the timed region, so the wall clock is
/// what one acknowledged version costs: encoding it against its
/// predecessor, the log append and the fsync policy.
pub fn repository_throughput(mode: RepoMode, puts: usize, reps: usize) -> RepoThroughputPoint {
    use quarry_repository::{ArtifactKind, DurabilityOptions, FsyncPolicy, Repository};
    const KEYS: usize = 16;
    let mut best = f64::INFINITY;
    for rep in 0..reps.max(1) {
        let scratch = std::env::temp_dir().join(format!("quarry-e15-{}-{}-{rep}", mode.as_str(), std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let repo = match mode {
            RepoMode::Memory => Repository::new(),
            RepoMode::WalBatched | RepoMode::WalAlways => {
                std::fs::create_dir_all(&scratch).expect("scratch dir");
                let fsync = if mode == RepoMode::WalAlways { FsyncPolicy::Always } else { FsyncPolicy::Batched };
                Repository::open(&scratch, DurabilityOptions { fsync, ..Default::default() })
                    .expect("open scratch repository")
            }
        };
        let mut designs = vec![String::from("<mdschema>\n"); KEYS];
        let t = Instant::now();
        for i in 0..puts {
            let design = &mut designs[i % KEYS];
            design.push_str(&format!(
                "  <fact name=\"fact_table_{i}\"><measure name=\"m{i}\"/><dim name=\"dim_part\"/></fact>\n"
            ));
            let content = format!("{design}</mdschema>\n");
            let key = format!("design-{}", i % KEYS);
            black_box(repo.put_artifact(ArtifactKind::MdSchema, &key, &content).expect("put"));
        }
        repo.sync().expect("final sync");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        drop(repo);
        let _ = std::fs::remove_dir_all(&scratch);
    }
    RepoThroughputPoint { mode, puts, ms: best, puts_per_sec: puts as f64 / (best / 1e3) }
}

/// The Figure 3 pair: revenue + netprofit over conformed Partsupp/Orders.
pub fn figure3_pair() -> (Requirement, Requirement) {
    (
        requirement(
            "IR1",
            ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
            &["Partsupp_ps_availqtyATRIBUT", "Orders_o_orderdateATRIBUT"],
            None,
        ),
        requirement(
            "IR2",
            ("netprofit", "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT"),
            &["Partsupp_ps_availqtyATRIBUT", "Orders_o_orderdateATRIBUT"],
            None,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_valid_at_every_benchmarked_size() {
        for n in [1, 4, 16, 32] {
            let q = quarry_with(n);
            assert_eq!(q.requirement_ids().len(), n);
            assert!(q.unified().0.is_sound());
            q.unified().1.validate().expect("unified flow validates");
        }
    }

    #[test]
    fn figure3_pair_integrates() {
        let (a, b) = figure3_pair();
        let mut q = Quarry::tpch();
        q.add_requirement(a).expect("IR1");
        q.add_requirement(b).expect("IR2");
    }
}
