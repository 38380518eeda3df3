//! The execution protocol every workload runs (DWEB's model: parameterised
//! inputs, one fixed protocol, one metric set).
//!
//! Load model: closed loop, one client, one process — a designer issuing one
//! request at a time, or one batch ETL run at a time. The engine pool keeps
//! the product default width. Every timed region wraps a single public call
//! (`Catalog::clone` is Arc-cheap and stays inside `run_etl`'s region);
//! building requests, dropping the returned engine and all oracle
//! comparisons stay outside.
//!
//! One pass, on a fresh durable instance (`FsyncPolicy::Batched`):
//!
//! 1. the scripted session, one `service::handle` request at a time;
//! 2. at the checkpoint after the first eight adds: `optimize`,
//!    `deploy("postgres-pdi")`, then the workload's refresh cycles — each
//!    `clear_result_cache` and a cold `run_etl`, the workload's warm runs,
//!    `bump_source_epoch` and the run after it, one more warm run;
//! 3. after the last request: `repository().sync()`, drop, and
//!    `Repository::open` on the same directory.

use crate::oracle::{self, Acknowledged, Fingerprint, InputDigest, Tally};
use crate::report::{op_metric, OP_KINDS};
use crate::stats::{median, percentile};
use crate::trace::{Recorder, SpanId};
use crate::workloads::{script, slicer_nation, Script, Step, Workload, BLOCK};
use quarry::service::{handle, ServiceRequest, ServiceResponse};
use quarry::{Quarry, QuarryConfig, QuarryError};
use quarry_deployer::PlatformRegistry;
use quarry_engine::{tpch, Catalog, RunReport};
use quarry_etl::Flow;
use quarry_formats::Requirement;
use quarry_integrator::state::ConsolidationState;
use quarry_md::MdSchema;
use quarry_repository::{wal_stats, ArtifactKind, DurabilityOptions, FsyncPolicy, Repository, StoreError};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PLATFORM: &str = "postgres-pdi";
/// The source the refresh cycle declares changed.
const REFRESHED_SOURCE: &str = "supplier";
/// Scale factor of the set-up oracle's catalog.
const ORACLE_SF: f64 = 0.01;

// ---- fixture ---------------------------------------------------------------------

/// The generated inputs of one `(workload, seed)`: all the program ever sees.
pub struct Fixture {
    pub w: Workload,
    pub catalog: Catalog,
    pub script: Script,
    pub digest: InputDigest,
    /// `engine.tpch.generate_s`: the catalog generation's share of set-up.
    pub generate_s: f64,
}

fn instance(w: &Workload, dir: Option<&Path>, cache_enabled: bool) -> Result<Quarry, QuarryError> {
    let domain = quarry_ontology::tpch::domain();
    let mut cfg = QuarryConfig::tpch(w.sf);
    cfg.repository_dir = dir.map(Path::to_path_buf);
    cfg.fsync = FsyncPolicy::Batched;
    cfg.cache.enabled = cache_enabled;
    cfg.cache.budget_bytes = w.cache_budget_bytes;
    cfg.optimizer.budget_ms = w.optimizer_budget_ms;
    Quarry::try_with_config(domain.ontology, domain.sources, cfg)
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
}

/// Opens (recovering, if there is anything to recover) a durable repository
/// in the mode the instances use.
fn open_repository(dir: &Path) -> Result<Repository, StoreError> {
    Repository::open(dir, DurabilityOptions { fsync: FsyncPolicy::Batched, ..Default::default() })
}

/// Busy seconds and output rows per operator kind of one run, for the kinds
/// that ran at all.
fn by_kind(report: &RunReport) -> impl Iterator<Item = (&'static str, f64, usize)> + '_ {
    OP_KINDS.into_iter().filter_map(move |kind| {
        let ops = || report.timings.iter().filter(move |o| o.kind == kind);
        ops().next()?;
        Some((kind, ops().map(|o| o.elapsed.as_secs_f64()).sum(), ops().map(|o| o.rows_out).sum()))
    })
}

/// Adds the first [`BLOCK`] requirements of the script (and optimizes, unless
/// `greedy`): the design the checkpoint executes.
fn checkpoint_design(q: &mut Quarry, script: &Script, greedy: bool) -> Result<(), String> {
    for xrq in script.docs.iter().take(BLOCK) {
        if let ServiceResponse::Error(e) = handle(q, ServiceRequest::AddRequirement { xrq: xrq.clone() }) {
            return Err(e);
        }
    }
    if !greedy {
        q.optimize().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Set-up: data generation, fixture build, input digest, and the sf = 0.01
/// oracle (the checkpoint design's unified flow through the row-at-a-time
/// interpreter must equal the columnar warehouse cell for cell). Returns the
/// fixture and the wall time of all of it.
pub fn set_up(w: &Workload, seed: u64, tally: &mut Tally) -> (Fixture, f64) {
    let t0 = Instant::now();
    let catalog = tpch::generate(w.sf, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let script = script(w, slicer_nation(&catalog));
    let all_text: String = script.docs.iter().chain(&script.changes).flat_map(|d| [d.as_str(), "\u{1e}"]).collect();
    let digest = InputDigest { xrq_hash: oracle::hash_str(&all_text), tables: oracle::catalog_fingerprint(&catalog) };

    let small = if w.sf <= ORACLE_SF { catalog.clone() } else { tpch::generate(ORACLE_SF, seed) };
    match instance(w, None, true) {
        Ok(mut q) => match checkpoint_design(&mut q, &script, false) {
            Ok(()) => oracle::row_engine_oracle(&q, &small, tally),
            Err(e) => tally.fail(format!("set-up oracle: the checkpoint design was rejected: {e}")),
        },
        Err(e) => tally.fail(format!("set-up oracle: cannot create an instance: {e}")),
    }
    let fixture = Fixture { w: *w, catalog, script, digest, generate_s };
    (fixture, t0.elapsed().as_secs_f64())
}

// ---- samples ---------------------------------------------------------------------

/// Samples behind the end-to-end metrics: one value per measured pass (per
/// engine run for the execution metrics), so a metric's quartiles show how
/// much the statistic moves from pass to pass.
#[derive(Debug, Default)]
pub struct Samples {
    /// Median `AddRequirement` / `ChangeRequirement` latency of the pass.
    pub add_ms: Vec<f64>,
    pub change_ms: Vec<f64>,
    /// Nearest-rank p95 / p99 / maximum over the pass's service requests of
    /// any type.
    pub step_p95_ms: Vec<f64>,
    pub step_p99_ms: Vec<f64>,
    pub step_max_ms: Vec<f64>,
    pub optimize_s: Vec<f64>,
    pub cold_s: Vec<f64>,
    /// Every warm run of the pass.
    pub warm_s: Vec<f64>,
    pub invalidate_s: Vec<f64>,
    pub session_s: Vec<f64>,
    pub lifecycle_pass_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub wal_ratio: Vec<f64>,
    pub md_complexity: Vec<f64>,
    /// Sum of every timed region of a pass.
    pub pass_s: Vec<f64>,
    pub passes: usize,
    /// `VmHWM` once a fixed number of passes has run.
    pub peak_rss_mb: Option<f64>,
}

/// Per-layer readings, one value per pass and metric.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, Vec<f64>>);

impl Layers {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let a = Instant::now();
    let v = black_box(f());
    (v, a, Instant::now())
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

// ---- the traced pass's replays -----------------------------------------------------

/// State for the traced pass: the span recorder plus what is needed to time
/// each layer's public functions on the same inputs the service request just
/// consumed — a shadow consolidation state kept in step with the instance's,
/// a scratch repository of the same mode, and a platform registry.
pub struct Tracer {
    pub rec: Recorder,
    state: ConsolidationState,
    md: MdSchema,
    etl: Flow,
    scratch: Option<Repository>,
    platforms: PlatformRegistry,
    /// Per-pass accumulators (replayed seconds under `<span name>.busy_s`,
    /// plus counts), drained into [`Layers`] when the pass ends.
    acc: BTreeMap<String, f64>,
    /// Times the shadow flow had to be re-copied from the instance.
    pub resyncs: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            rec: Recorder::new(),
            state: ConsolidationState::new(),
            md: MdSchema::new("unified"),
            etl: Flow::new("unified"),
            scratch: None,
            platforms: PlatformRegistry::with_builtins(),
            acc: BTreeMap::new(),
            resyncs: 0,
        }
    }

    fn begin_pass(&mut self, scratch_dir: &Path, tally: &mut Tally) {
        self.state = ConsolidationState::new();
        self.md = MdSchema::new("unified");
        self.etl = Flow::new("unified");
        self.acc.clear();
        self.scratch = fresh_dir(scratch_dir)
            .map_err(|e| e.to_string())
            .and_then(|()| open_repository(scratch_dir).map_err(|e| e.to_string()))
            .map_err(|e| tally.fail(format!("traced pass: cannot open the scratch repository: {e}")))
            .ok();
    }

    fn add(&mut self, key: &str, v: f64) {
        *self.acc.entry(key.to_string()).or_default() += v;
    }

    /// Replayed time booked so far in this pass.
    fn children_s(&self) -> f64 {
        self.acc.get("children_s").copied().unwrap_or(0.0)
    }

    /// Times `f`, records it as a replayed child `name` of `parent` and
    /// books the time under `<name>.busy_s`.
    fn child<T>(&mut self, parent: SpanId, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let (v, a, b) = timed(|| f(self));
        let s = secs(a, b);
        self.rec.replay(parent, name, s);
        self.add(&format!("{name}.busy_s"), s);
        self.add("children_s", s);
        (v, s)
    }

    /// Copies the instance's unified design when the shadow no longer
    /// mirrors it (after `optimize`, or if a replay ever diverged).
    fn resync(&mut self, q: &Quarry) {
        self.md = q.unified().0.clone();
        self.etl = q.unified().1.clone();
        self.state.invalidate();
    }

    fn check_in_step(&mut self, q: &Quarry) {
        if self.etl.op_count() != q.unified().1.op_count() {
            self.resyncs += 1;
            self.resync(q);
        }
    }

    /// The repository writes one integration step performs: step marker,
    /// requirement + both partials + two links, both unified documents and
    /// the cache-epoch marker.
    fn replay_persist(&mut self, parent: SpanId, id: &str, docs: &[(ArtifactKind, String, &str)]) {
        let Some(repo) = self.scratch.take() else { return };
        self.child(parent, "repository.persist", |_| {
            let _ = repo.record_marker(&format!("step:{id}"));
            for (kind, key, content) in docs {
                let _ = repo.put_artifact(*kind, key, content);
            }
            let _ = repo.link_requirement(id, ArtifactKind::MdSchema, &format!("partial-{id}"));
            let _ = repo.link_requirement(id, ArtifactKind::EtlFlow, &format!("partial-{id}"));
            let _ = repo.record_marker("cache-epoch:0");
        });
        self.scratch = Some(repo);
    }

    /// Replays an `AddRequirement` (or the re-add half of a change).
    fn replay_add(&mut self, q: &Quarry, parent: SpanId, xrq: &str, integrate_key: Option<&str>) {
        let (req, _) = self.child(parent, "formats.xrq_parse", |_| Requirement::parse(xrq));
        self.add("formats.xrq_parse.docs", 1.0);
        let Ok(req) = req else { return };
        let (partial, _) = self.child(parent, "interpreter.interpret", |_| q.interpret(&req));
        self.add("interpreter.interpret.calls", 1.0);
        let Ok(partial) = partial else {
            self.add("interpreter.interpret.failed", 1.0);
            return;
        };
        let cfg = q.config();
        let (md, md_s) =
            self.child(parent, "integrator.md_step", |t| t.state.md_step(&t.md, &partial.md, cfg.md_cost.as_ref()));
        let (etl, etl_s) = self.child(parent, "integrator.etl_step", |t| {
            t.state.etl_step(&mut t.etl, &partial.etl, cfg.etl_cost.as_ref(), &cfg.stats, cfg.etl_options)
        });
        if let Some(key) = integrate_key {
            self.add(key, md_s + etl_s);
        }
        match (md, etl) {
            (Ok(md), Ok(report)) => {
                self.md = md.schema;
                self.add("reused_ops", report.reused_ops as f64);
                self.add("partial_ops", (report.reused_ops + report.added_ops) as f64);
            }
            _ => self.resync(q),
        }
        let (docs, _) = self.child(parent, "formats.design_write", |t| {
            [
                (ArtifactKind::Requirement, req.id.clone(), req.to_string_pretty()),
                (ArtifactKind::MdSchema, format!("partial-{}", req.id), quarry_formats::xmd::to_string(&partial.md)),
                (ArtifactKind::EtlFlow, format!("partial-{}", req.id), quarry_formats::xlm::to_string(&partial.etl)),
                (ArtifactKind::MdSchema, "unified".to_string(), quarry_formats::xmd::to_string(&t.md)),
                (ArtifactKind::EtlFlow, "unified".to_string(), quarry_formats::xlm::to_string(&t.etl)),
            ]
        });
        self.add("formats.design_write.bytes", docs.iter().map(|(_, _, c)| c.len()).sum::<usize>() as f64);
        self.child(parent, "md.validate", |t| t.md.validate().len());
        let docs: Vec<(ArtifactKind, String, &str)> =
            docs.iter().map(|(k, key, c)| (*k, key.clone(), c.as_str())).collect();
        self.replay_persist(parent, &req.id, &docs);
    }

    /// Replays the retraction half of a change or a removal, booking the
    /// retraction itself under `key` as well.
    fn replay_retract(&mut self, parent: SpanId, id: &str, key: &str) {
        let ((), retract_s) = self.child(parent, "integrator.retract", |t| {
            t.md.retract_requirement(id);
            t.etl.retract_requirement(id);
            t.state.invalidate();
        });
        self.add(key, retract_s);
        let (docs, _) = self.child(parent, "formats.design_write", |t| {
            [quarry_formats::xmd::to_string(&t.md), quarry_formats::xlm::to_string(&t.etl)]
        });
        self.add("formats.design_write.bytes", (docs[0].len() + docs[1].len()) as f64);
        let docs = [
            (ArtifactKind::MdSchema, "unified".to_string(), docs[0].as_str()),
            (ArtifactKind::EtlFlow, "unified".to_string(), docs[1].as_str()),
        ];
        self.replay_persist(parent, id, &docs);
    }

    fn replay_deploy(&mut self, parent: SpanId) {
        self.child(parent, "deployer.generate", |t| t.platforms.deploy(PLATFORM, &t.md, &t.etl).is_ok());
    }
}

// ---- one pass ----------------------------------------------------------------------

/// What stays the same across the passes of one run.
pub struct Bench<'a> {
    pub fx: &'a Fixture,
    /// Per-process scratch root (inside the checkout).
    pub scratch: PathBuf,
    pub tally: Tally,
    /// The warehouse every later run of this fixture must reproduce.
    pub reference: Option<Fingerprint>,
    pub pass_no: u32,
}

/// What one pass accumulates before it is folded into [`Samples`].
#[derive(Default)]
struct PassTotals {
    /// Latencies of this pass, by request class and over all requests.
    add_ms: Vec<f64>,
    change_ms: Vec<f64>,
    step_ms: Vec<f64>,
    /// Sum of timed regions so far.
    timed_s: f64,
    session_s: f64,
    first_block_adds_s: f64,
    deploy_busy_s: f64,
    deploy_bytes: f64,
    deploy_files: f64,
    stall_max_ms: f64,
    /// Wall time of the add requests, and of the replays under them.
    add_wall_s: f64,
    add_children_s: f64,
}

struct Pass<'a, 'b> {
    b: &'a mut Bench<'b>,
    tracer: Option<&'a mut Tracer>,
    root: Option<SpanId>,
    s: &'a mut Samples,
    layers: &'a mut Layers,
    t: PassTotals,
}

impl Pass<'_, '_> {
    fn span(&mut self, name: &str, a: Instant, b: Instant) -> Option<SpanId> {
        let (root, pass) = (self.root, self.b.pass_no);
        self.tracer.as_mut().map(|t| t.rec.record(root, pass, name, a, b))
    }

    /// One service request: timed, counted, checked.
    fn request(
        &mut self,
        q: &mut Quarry,
        request: ServiceRequest,
        name: &str,
    ) -> (ServiceResponse, f64, Option<SpanId>) {
        let compactions = wal_stats().compactions;
        let (response, a, b) = timed(|| handle(q, request));
        let s = secs(a, b);
        self.t.timed_s += s;
        self.t.session_s += s;
        self.t.step_ms.push(s * 1e3);
        if wal_stats().compactions > compactions {
            self.t.stall_max_ms = self.t.stall_max_ms.max(s * 1e3);
        }
        let pass = self.b.pass_no;
        self.b
            .tally
            .op(!matches!(response, ServiceResponse::Error(_)), || format!("pass {pass}: {name} failed: {response:?}"));
        let span = self.span(name, a, b);
        (response, s, span)
    }

    fn deployed(&mut self, s: f64, files: &[(String, String)]) {
        self.t.deploy_busy_s += s;
        self.t.deploy_files += files.len() as f64;
        self.t.deploy_bytes += files.iter().map(|(_, c)| c.len()).sum::<usize>() as f64;
    }

    /// One engine run: timed, counted, its warehouse checked against the
    /// reference; the engine is dropped outside the timed region.
    fn run(&mut self, q: &Quarry, name: &str) -> Option<(f64, RunReport, Instant)> {
        let fx = self.b.fx;
        let (result, a, b) = timed(|| q.run_etl(fx.catalog.clone()));
        let s = secs(a, b);
        self.t.timed_s += s;
        let span = self.span(name, a, b);
        let pass = self.b.pass_no;
        match result {
            Ok((engine, report)) => {
                self.b.tally.op(true, String::new);
                oracle::check_warehouse(
                    &mut self.b.reference,
                    &engine,
                    &report,
                    &format!("pass {pass} {name}"),
                    &mut self.b.tally,
                );
                drop(engine);
                if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
                    for (kind, busy_s, rows_out) in by_kind(&report) {
                        let id = t.rec.replay(span, &format!("engine.op.{kind}"), busy_s);
                        t.rec.count(id, "rows_out", rows_out as f64);
                    }
                }
                Some((s, report, b))
            }
            Err(e) => {
                self.b.tally.fail(format!("pass {pass}: {name} failed: {e}"));
                None
            }
        }
    }

    /// Optimize, deploy, and the workload's refresh cycles on the design so
    /// far.
    fn checkpoint(&mut self, q: &mut Quarry, lifecycle_started: Instant) {
        let pass = self.b.pass_no;
        let (report, a, b) = timed(|| q.optimize());
        let optimize_s = secs(a, b);
        self.t.timed_s += optimize_s;
        self.span("integrator.optimize", a, b);
        self.b.tally.op(report.is_ok(), || format!("pass {pass}: optimize failed"));
        self.s.optimize_s.push(optimize_s);
        if let Ok(r) = &report {
            self.layers.put("integrator.optimize.busy_s", optimize_s);
            self.layers.put("integrator.optimize.moves_proposed", r.proposed as f64);
            self.layers.put("integrator.optimize.moves_accepted", r.accepted as f64);
            self.layers.put("integrator.optimize.accept_share", share(r.accepted as f64, r.proposed as f64));
            self.layers.put("integrator.optimize.modeled_gain_share", r.improvement());
        }
        if let Some(t) = self.tracer.as_mut() {
            t.resync(q);
        }

        let (artifacts, a, b) = timed(|| q.deploy(PLATFORM));
        let deploy_s = secs(a, b);
        self.t.timed_s += deploy_s;
        self.span("deployer.deploy", a, b);
        self.b.tally.op(artifacts.is_ok(), || format!("pass {pass}: deploy failed"));
        if let Ok(artifacts) = &artifacts {
            self.deployed(deploy_s, &artifacts.files);
        }

        for cycle in 0..self.b.fx.w.refresh_cycles {
            let cold = self.refresh_cycle(q);
            if let (0, Some((cold_s, ended))) = (cycle, cold) {
                // Requirements in -> populated warehouse ends with the first
                // cold run.
                let lifecycle_wall = secs(lifecycle_started, ended);
                let phases = self.t.first_block_adds_s + optimize_s + deploy_s + cold_s;
                self.s.lifecycle_pass_s.push(phases);
                if self.tracer.is_none() {
                    // Replays run between the requests of a traced pass, so only
                    // an untraced pass's wall compares with the sum of its phases.
                    self.layers.put("core.pass.residual_share", share(lifecycle_wall - phases, lifecycle_wall));
                }
            }
        }
    }

    /// One refresh cycle: `clear_result_cache` and a cold run, the workload's
    /// warm runs, `bump_source_epoch` and the run after it, one more warm
    /// run. Returns the cold run's seconds and the instant it ended.
    fn refresh_cycle(&mut self, q: &mut Quarry) -> Option<(f64, Instant)> {
        let pass = self.b.pass_no;
        let cache_before = q.cache_stats();
        q.clear_result_cache();
        let (pool_before, kernels_before) = (quarry_engine::pool::stats(), quarry_engine::stats::kernel_stats());
        let cold = self.run(q, "engine.run.cold");
        let (pool_after, kernels_after) = (quarry_engine::pool::stats(), quarry_engine::stats::kernel_stats());
        if let Some((cold_s, report, _)) = &cold {
            self.s.cold_s.push(*cold_s);
            let busy: f64 = report.timings.iter().map(|o| o.elapsed.as_secs_f64()).sum();
            // A kind the flow does not use did no work: it reports zeros.
            for kind in OP_KINDS {
                let (_, busy_s, rows_out) = by_kind(report).find(|(k, ..)| *k == kind).unwrap_or((kind, 0.0, 0));
                self.layers.put(op_metric(kind, "busy_s"), busy_s);
                self.layers.put(op_metric(kind, "rows_out"), rows_out as f64);
            }
            self.layers.put("engine.run.rows_processed", report.rows_processed as f64);
            self.layers.put("engine.run.rows_per_s", share(report.rows_processed as f64, *cold_s));
            self.layers.put("engine.run.residual_share", share(cold_s - busy, *cold_s));
            let (vectorized, fallback) = (
                (kernels_after.vectorized - kernels_before.vectorized) as f64,
                (kernels_after.scalar_fallback - kernels_before.scalar_fallback) as f64,
            );
            self.layers.put("engine.kernel.vectorized", vectorized);
            self.layers.put("engine.kernel.scalar_fallback", fallback);
            self.layers.put("engine.kernel.fallback_share", share(fallback, vectorized + fallback));
            self.layers.put("engine.pool.regions", (pool_after.regions - pool_before.regions) as f64);
            self.layers.put("engine.pool.jobs", (pool_after.jobs - pool_before.jobs) as f64);
            self.layers
                .put("engine.pool.helpers_spawned", (pool_after.helpers_spawned - pool_before.helpers_spawned) as f64);
        }
        for _ in 0..self.b.fx.w.warm_runs {
            if let Some((s, ..)) = self.run(q, "engine.run.warm") {
                self.s.warm_s.push(s);
            }
        }
        q.bump_source_epoch(REFRESHED_SOURCE);
        if let Some((s, ..)) = self.run(q, "engine.run.after_invalidate") {
            self.s.invalidate_s.push(s);
        }
        if let Some((s, ..)) = self.run(q, "engine.run.warm") {
            self.s.warm_s.push(s);
        }
        let c = q.cache_stats();
        let (hits, misses) = ((c.hits - cache_before.hits) as f64, (c.misses - cache_before.misses) as f64);
        self.layers.put("engine.cache.hit_share", share(hits, hits + misses));
        self.layers.put("engine.cache.inserts", (c.inserts - cache_before.inserts) as f64);
        self.layers.put("engine.cache.rejects", (c.rejects - cache_before.rejects) as f64);
        self.layers.put("engine.cache.evictions", (c.evictions - cache_before.evictions) as f64);
        self.layers.put("engine.cache.resident_bytes", c.bytes as f64);
        self.layers.put("engine.cache.entries", c.entries as f64);
        self.b.tally.op(c.bytes <= c.budget_bytes, || {
            format!("pass {pass}: {} cached bytes exceed the {} byte budget", c.bytes, c.budget_bytes)
        });
        cold.map(|(s, _, ended)| (s, ended))
    }

    fn session(&mut self, q: &mut Quarry) {
        let fx = self.b.fx;
        let lifecycle_started = Instant::now();
        let mut adds = 0;
        for step in &fx.script.steps {
            match step {
                Step::Add(i) => {
                    let xrq = &fx.script.docs[*i];
                    let (_, s, span) =
                        self.request(q, ServiceRequest::AddRequirement { xrq: xrq.clone() }, "request.add");
                    self.t.add_ms.push(s * 1e3);
                    self.t.add_wall_s += s;
                    adds += 1;
                    if adds <= BLOCK {
                        self.t.first_block_adds_s += s;
                    }
                    if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
                        let before = t.children_s();
                        t.replay_add(q, span, xrq, None);
                        self.t.add_children_s += t.children_s() - before;
                        t.check_in_step(q);
                    }
                }
                Step::Checkpoint => self.checkpoint(q, lifecycle_started),
                Step::Change(i) => {
                    let xrq = &fx.script.changes[*i];
                    let (_, s, span) =
                        self.request(q, ServiceRequest::ChangeRequirement { xrq: xrq.clone() }, "request.change");
                    self.t.change_ms.push(s * 1e3);
                    if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
                        if let Ok(req) = Requirement::parse(xrq) {
                            t.replay_retract(span, &req.id, "integrator.change.busy_s");
                        }
                        t.replay_add(q, span, xrq, Some("integrator.change.busy_s"));
                        t.check_in_step(q);
                    }
                }
                Step::Remove(id) => {
                    let (_, _, span) =
                        self.request(q, ServiceRequest::RemoveRequirement { id: id.clone() }, "request.remove");
                    if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
                        t.replay_retract(span, id, "integrator.remove.busy_s");
                        t.check_in_step(q);
                    }
                }
                Step::Deploy => {
                    let (response, s, span) =
                        self.request(q, ServiceRequest::Deploy { platform: PLATFORM.into() }, "request.deploy");
                    if let ServiceResponse::Artifacts(files) = &response {
                        self.deployed(s, files);
                    }
                    if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
                        t.replay_deploy(span);
                    }
                }
            }
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).filter(|m| m.is_file()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

impl Bench<'_> {
    /// Runs one pass, with the program's own observability on or off.
    /// End-to-end samples go to `samples`, per-layer readings to `layers`;
    /// with a tracer the pass also records spans and replays.
    pub fn pass(
        &mut self,
        observability: bool,
        samples: &mut Samples,
        layers: &mut Layers,
        mut tracer: Option<&mut Tracer>,
    ) {
        self.pass_no += 1;
        let pass_no = self.pass_no;
        let dir = self.scratch.join("repository");
        if let Err(e) = fresh_dir(&dir) {
            self.tally.fail(format!("pass {pass_no}: cannot create {}: {e}", dir.display()));
            return;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.begin_pass(&self.scratch.join("replay-repository"), &mut self.tally);
        }
        let traced = tracer.is_some();
        let fx = self.fx;
        let wal_before = wal_stats();
        let pass_started = Instant::now();
        let mut q = match instance(&fx.w, Some(&dir), true) {
            Ok(q) => q,
            Err(e) => {
                self.tally.fail(format!("pass {pass_no}: cannot create an instance: {e}"));
                return;
            }
        };
        q.set_observability(observability);
        let root = tracer.as_deref_mut().map(|t| t.rec.open(None, pass_no, "pass", pass_started));
        let mut p = Pass {
            b: self,
            tracer: tracer.as_deref_mut(),
            root,
            s: &mut *samples,
            layers: &mut *layers,
            t: PassTotals::default(),
        };
        p.session(&mut q);

        // The hard durability barrier, then restart: everything acknowledged
        // so far must come back from the bytes on disk.
        let (synced, a, b) = timed(|| q.repository().sync());
        let sync_s = secs(a, b);
        p.span("repository.sync", a, b);
        p.b.tally.op(synced.is_ok(), || format!("pass {pass_no}: final sync failed"));
        p.t.timed_s += sync_s;
        p.s.session_s.push(p.t.session_s + sync_s);
        p.s.add_ms.extend(median(&p.t.add_ms));
        p.s.change_ms.extend(median(&p.t.change_ms));
        p.s.step_p95_ms.extend(percentile(&p.t.step_ms, 95.0));
        p.s.step_p99_ms.extend(percentile(&p.t.step_ms, 99.0));
        p.s.step_max_ms.extend(percentile(&p.t.step_ms, 100.0));
        let wal = wal_stats();
        let acknowledged: Acknowledged = oracle::acknowledged(q.repository());
        let md_complexity = q.config().md_cost.cost(q.unified().0);
        p.s.md_complexity.push(md_complexity);
        p.layers.put("md.complexity", md_complexity);
        p.layers.put("md.validate.warnings", q.unified().0.validate().len() as f64);
        p.layers.put("integrator.unified_ops", q.unified().1.op_count() as f64);
        p.layers.put("deployer.deploy.busy_s", p.t.deploy_busy_s);
        p.layers.put("deployer.deploy.bytes", p.t.deploy_bytes);
        p.layers.put("deployer.deploy.files", p.t.deploy_files);
        let appended = (wal.appended_bytes - wal_before.appended_bytes) as f64;
        if !traced {
            // The replays' scratch repository shares the process-wide WAL
            // counters, so only untraced passes read them.
            p.s.wal_ratio.push(appended / fx.script.user_bytes as f64);
            p.layers.put("repository.put.calls", oracle::acknowledged_puts(&acknowledged) as f64);
            p.layers.put("repository.wal.appends", (wal.appends - wal_before.appends) as f64);
            p.layers.put("repository.wal.appended_bytes", appended);
            p.layers.put("repository.wal.fsyncs", (wal.fsyncs - wal_before.fsyncs) as f64);
            p.layers.put("repository.wal.fsync_busy_s", wal.fsync_seconds_sum - wal_before.fsync_seconds_sum);
            p.layers.put("repository.wal.compactions", (wal.compactions - wal_before.compactions) as f64);
            p.layers.put("repository.compaction.stall_max_ms", p.t.stall_max_ms);
            p.layers.put("repository.disk_bytes", dir_bytes(&dir) as f64);
        }
        let (timed_before_recover, add_wall_s, add_children_s) = (p.t.timed_s, p.t.add_wall_s, p.t.add_children_s);
        drop(p);
        drop(q);

        let (reopened, a, b) = timed(|| open_repository(&dir));
        let recover_s = secs(a, b);
        if let Some(t) = tracer.as_deref_mut() {
            t.rec.record(root, pass_no, "repository.recover", a, b);
        }
        match &reopened {
            Ok(repo) => {
                samples.recover_s.push(recover_s);
                oracle::check_recovered(&acknowledged, repo, &mut self.tally);
                layers.put(
                    "repository.recover.replayed_records",
                    repo.recovery_report().map_or(0.0, |r| r.records_replayed as f64),
                );
            }
            Err(e) => self.tally.fail(format!("pass {pass_no}: reopening the repository failed: {e}")),
        }
        drop(reopened);
        samples.pass_s.push(timed_before_recover + recover_s);
        samples.passes += 1;

        if let (Some(t), Some(root)) = (tracer, root) {
            t.rec.close(root, Instant::now());
            t.scratch = None;
            let acc = std::mem::take(&mut t.acc);
            let get = |k: &str| acc.get(k).copied().unwrap_or(0.0);
            for key in [
                "formats.xrq_parse.busy_s",
                "formats.xrq_parse.docs",
                "formats.design_write.busy_s",
                "formats.design_write.bytes",
                "interpreter.interpret.busy_s",
                "interpreter.interpret.calls",
                "interpreter.interpret.failed",
                "integrator.md_step.busy_s",
                "integrator.etl_step.busy_s",
                "integrator.change.busy_s",
                "integrator.remove.busy_s",
            ] {
                layers.put(key, get(key));
            }
            layers.put("integrator.etl_step.reused_ops_share", share(get("reused_ops"), get("partial_ops")));
            // Adds only: their replays cover every layer the request enters.
            layers.put("core.step.residual_share", share(add_wall_s - add_children_s, add_wall_s));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- extra configurations (traced run only) ----------------------------------------

    /// Cold executes of the checkpoint design under the default
    /// configuration, at one pool thread, on a cache-disabled instance and
    /// on the greedy (unoptimized) flow, interleaved `reps` times; every
    /// warehouse must equal the reference. Returns the four samples.
    pub fn cold_variants(&mut self, reps: usize) -> [Vec<f64>; 4] {
        let fx = self.fx;
        let mut out: [Vec<f64>; 4] = Default::default();
        let build = |name: &str, cache: bool, greedy: bool, tally: &mut Tally| -> Option<Quarry> {
            let dir = self.scratch.join(name);
            let built = fresh_dir(&dir)
                .map_err(|e| e.to_string())
                .and_then(|()| instance(&fx.w, Some(&dir), cache).map_err(|e| e.to_string()))
                .and_then(|mut q| checkpoint_design(&mut q, &fx.script, greedy).map(|()| q));
            built.map_err(|e| tally.fail(format!("variant {name}: {e}"))).ok()
        };
        let (Some(default), Some(cache_off), Some(greedy)) = (
            build("variant-default", true, false, &mut self.tally),
            build("variant-cache-off", false, false, &mut self.tally),
            build("variant-greedy", true, true, &mut self.tally),
        ) else {
            return out;
        };
        for _ in 0..reps {
            let runs: [(&Quarry, usize, &str); 4] = [
                (&default, 0, "default"),
                (&default, 1, "1 thread"),
                (&cache_off, 0, "cache disabled"),
                (&greedy, 0, "greedy flow"),
            ];
            for (slot, (q, threads, label)) in runs.into_iter().enumerate() {
                q.clear_result_cache();
                quarry_engine::pool::set_threads(threads);
                let (result, a, b) = timed(|| q.run_etl(fx.catalog.clone()));
                quarry_engine::pool::set_threads(0);
                match result {
                    Ok((engine, report)) => {
                        self.tally.op(true, String::new);
                        oracle::check_warehouse(
                            &mut self.reference,
                            &engine,
                            &report,
                            &format!("variant {label}"),
                            &mut self.tally,
                        );
                        out[slot].push(secs(a, b));
                    }
                    Err(e) => self.tally.fail(format!("variant {label}: run failed: {e}")),
                }
            }
        }
        drop((default, cache_off, greedy));
        for name in ["variant-default", "variant-cache-off", "variant-greedy"] {
            let _ = std::fs::remove_dir_all(self.scratch.join(name));
        }
        out
    }
}
