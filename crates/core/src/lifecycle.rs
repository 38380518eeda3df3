//! The Quarry façade: incremental DW design lifecycle management.

use crate::config::QuarryConfig;
use crate::profile::{ExecutionProfile, KernelDelta};
use quarry_deployer::{DeployError, DeploymentArtifacts, PlatformRegistry};
use quarry_elicitor::{Elicitor, Session};
use quarry_engine::{CacheStats, Catalog, Engine, EngineError, PhysicalPlan, ResultCache, RunReport};
use quarry_etl::cost::{flow_fingerprint, op_fingerprint};
use quarry_etl::{Flow, FlowError};
use quarry_formats::registry::FormatRegistry;
use quarry_formats::{FormatError, Requirement};
use quarry_integrator::etl::EtlIntegrationReport;
use quarry_integrator::md::MdIntegrationReport;
use quarry_integrator::optimize::{optimize_flow, OptimizeReport};
use quarry_integrator::state::{ConsolidationState, ConsolidationStats};
use quarry_integrator::IntegrateError;
use quarry_interpreter::{InterpretError, Interpreter, PartialDesign};
use quarry_md::{MdSchema, MdViolation};
use quarry_obs::flight::{self, EventKind};
use quarry_obs::serve::ObsServer;
use quarry_obs::{Counter, Histogram, HistogramSnapshot, Metric, Obs, Span, SpanNode, Trace};
use quarry_ontology::mappings::SourceRegistry;
use quarry_ontology::Ontology;
use quarry_repository::{ArtifactKind, DocId, DocumentStore, DurabilityOptions, Json, Repository, StoreError};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repository key under which the rolling lifecycle trace is versioned.
pub(crate) const TRACE_KEY: &str = "session";

/// Where the unified-flow epoch is persisted (see
/// [`Quarry::persist_unified`]): one `{"name": "flow-epoch", "epoch": n}`
/// document, updated in place. It is store state, so snapshots carry it and
/// recovery finds it however often the log was compacted; durable recovery
/// fast-forwards the consolidation epoch to it, so a restarted repository
/// never hands the result cache a pre-commit epoch.
const STATE_COLLECTION: &str = "lifecycle";
const FLOW_EPOCH_DOC: &str = "flow-epoch";

fn flow_epoch_doc(store: &DocumentStore) -> Option<(DocId, &Json)> {
    store.find_by(STATE_COLLECTION, "name", FLOW_EPOCH_DOC).into_iter().next()
}

/// WAL marker prefix that carried the epoch before it became a document;
/// still read, so directories written then recover their epoch (as far as
/// compaction left the markers in the log).
const CACHE_EPOCH_MARKER: &str = "cache-epoch:flow:";

/// Lifecycle failures.
#[derive(Debug)]
pub enum QuarryError {
    /// The requirement failed mapping/MD validation.
    Interpret(Vec<InterpretError>),
    /// The integration could not produce a sound unified design.
    Integrate(IntegrateError),
    /// Requirement id not part of the current set.
    UnknownRequirement(String),
    /// Requirement id already in the current set.
    DuplicateRequirement(String),
    Deploy(DeployError),
    Engine(EngineError),
    Format(FormatError),
    /// The telemetry endpoint could not be started (bind failure, missing
    /// address configuration).
    Telemetry(String),
    /// The metadata repository failed — in durable mode this includes
    /// write-ahead-log I/O and recovery/corruption errors.
    Store(StoreError),
}

impl fmt::Display for QuarryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarryError::Interpret(errors) => {
                write!(f, "requirement rejected: ")?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            QuarryError::Integrate(e) => write!(f, "{e}"),
            QuarryError::UnknownRequirement(id) => write!(f, "no requirement `{id}` in the current design"),
            QuarryError::DuplicateRequirement(id) => write!(f, "requirement `{id}` is already part of the design"),
            QuarryError::Deploy(e) => write!(f, "{e}"),
            QuarryError::Engine(e) => write!(f, "{e}"),
            QuarryError::Format(e) => write!(f, "{e}"),
            QuarryError::Telemetry(e) => write!(f, "telemetry endpoint: {e}"),
            QuarryError::Store(e) => write!(f, "repository: {e}"),
        }
    }
}

impl std::error::Error for QuarryError {}

/// The SQL export plug-in (paper §2.5 names SQL among the supported external
/// notations): renders MD schemata as PostgreSQL DDL and ETL flows as SQL
/// scripts.
struct SqlExporter;

impl quarry_formats::registry::Exporter for SqlExporter {
    fn format(&self) -> &str {
        "sql"
    }

    fn export(&self, artifact: &quarry_formats::registry::Artifact) -> Option<String> {
        match artifact {
            quarry_formats::registry::Artifact::Md(schema) => {
                Some(quarry_deployer::postgres::generate_ddl(schema, "demo"))
            }
            quarry_formats::registry::Artifact::Etl(flow) => quarry_deployer::sql::generate_sql(flow).ok(),
            quarry_formats::registry::Artifact::Req(_) => None,
        }
    }
}

impl From<IntegrateError> for QuarryError {
    fn from(e: IntegrateError) -> Self {
        QuarryError::Integrate(e)
    }
}

impl From<DeployError> for QuarryError {
    fn from(e: DeployError) -> Self {
        QuarryError::Deploy(e)
    }
}

impl From<EngineError> for QuarryError {
    fn from(e: EngineError) -> Self {
        QuarryError::Engine(e)
    }
}

impl From<FormatError> for QuarryError {
    fn from(e: FormatError) -> Self {
        QuarryError::Format(e)
    }
}

impl From<StoreError> for QuarryError {
    fn from(e: StoreError) -> Self {
        // A failing metadata store is exactly when the recent event history
        // matters: dump the flight-recorder tail to stderr before the error
        // propagates (the in-process black box, same as the panic hook).
        eprintln!("{}", flight::recorder().render_tail(flight::DUMP_TAIL));
        QuarryError::Store(e)
    }
}

/// What one lifecycle step changed.
#[derive(Debug, Default)]
pub struct DesignUpdate {
    pub requirement_id: String,
    /// MD integration report (None for removals).
    pub md_report: Option<MdIntegrationReport>,
    /// ETL integration report (None for removals).
    pub etl_report: Option<EtlIntegrationReport>,
    /// Cost of the unified MD schema after the step.
    pub md_cost: f64,
    /// Cost of the unified ETL flow after the step.
    pub etl_cost: f64,
    /// Non-fatal MD validation warnings on the unified schema.
    pub warnings: Vec<MdViolation>,
}

/// Pre-step state captured so a rejected lifecycle step can be rolled back:
/// live design, the requirement's entry, and its traceability links.
struct DesignSnapshot {
    md: MdSchema,
    etl: Flow,
    /// The stepped requirement as it was: a removal or a change writes no
    /// other entry of the requirement set.
    requirement: Requirement,
    /// `(kind, key)` pairs from [`Repository::links_for`].
    links: Vec<(String, String)>,
}

/// The traceability links of a requirement integrated through the
/// lifecycle, in the order a step writes them: its partial xMD and xLM.
fn partial_links(id: &str) -> Vec<(String, String)> {
    let key = format!("partial-{id}");
    [ArtifactKind::MdSchema, ArtifactKind::EtlFlow].iter().map(|k| (k.as_str().to_string(), key.clone())).collect()
}

/// The Quarry system: one instance manages one DW design lifecycle over one
/// domain.
pub struct Quarry {
    ontology: Ontology,
    sources: SourceRegistry,
    repository: Repository,
    formats: FormatRegistry,
    platforms: PlatformRegistry,
    config: QuarryConfig,
    unified_md: MdSchema,
    unified_etl: Flow,
    requirements: BTreeMap<String, Requirement>,
    /// Incremental consolidation state: keeps the unified ETL flow canonical
    /// and indexed across steps so integration stays O(partial) per
    /// requirement. A retraction prunes the index in place (dropping it only
    /// when a canonical rule could fire on what is left); an optimizer
    /// commit rebuilds it over the committed flow beside the facts the
    /// optimizer derived of it; a rollback invalidates it.
    consolidation: ConsolidationState,
    /// Observability recorder: span trees per lifecycle step plus named
    /// metrics. Disabled (and effectively free) unless switched on via
    /// [`Quarry::set_observability`].
    obs: Obs,
    /// Pre-resolved metric handles for the lifecycle's own hot series —
    /// resolved once at construction, bumped via relaxed atomics.
    metrics: LifecycleMetrics,
    /// The live scrape endpoint, if started (see [`Quarry::serve_metrics`]).
    /// Shuts down when the instance is dropped.
    obs_server: Option<ObsServer>,
    /// Cross-run subflow result cache: fingerprint-keyed materialized
    /// intermediates shared by every ETL run of this instance (see
    /// `quarry_engine::cache`). Shared so the metrics collector closure can
    /// read its stats without borrowing `self`.
    result_cache: Arc<ResultCache>,
    /// Per-source invalidation epochs, folded into the cache keys alongside
    /// the catalog table stamps. Bumped by [`Quarry::bump_source_epoch`]
    /// when a datastore is registered or mutated behind the catalog's back.
    source_epochs: HashMap<String, u64>,
    /// The plan of the last successful ETL run. Every write to the unified
    /// flow moves the epoch and every write to the statistics their
    /// generation, so a run at the same key executes it again without
    /// compiling; [`Quarry::observe_run`] routes against it.
    run_plan: Mutex<Option<EpochPlan>>,
}

/// A plan of the unified flow and the flow epoch, `(op_count, edge_count)`
/// shape and statistics generation it was compiled at.
type EpochPlan = ((u64, usize, usize, u64), Arc<PhysicalPlan>);

/// Handles for the metrics the lifecycle itself records. Kept together so
/// construction resolves every name exactly once.
struct LifecycleMetrics {
    md_integrate_seconds: Histogram,
    etl_integrate_seconds: Histogram,
    optimize_seconds: Histogram,
    optimizer_runs: Counter,
    optimizer_applied: Counter,
    optimizer_moves_proposed: Counter,
    optimizer_moves_accepted: Counter,
    engine_op_seconds: Histogram,
    engine_runs: Counter,
    engine_ops: Counter,
    engine_rows: Counter,
}

impl LifecycleMetrics {
    fn resolve(obs: &Obs) -> Self {
        LifecycleMetrics {
            md_integrate_seconds: obs.histogram("integrator.md_integrate_seconds"),
            etl_integrate_seconds: obs.histogram("integrator.etl_integrate_seconds"),
            optimize_seconds: obs.histogram("integrator.optimizer.optimize_seconds"),
            optimizer_runs: obs.counter("integrator.optimizer.runs"),
            optimizer_applied: obs.counter("integrator.optimizer.applied"),
            optimizer_moves_proposed: obs.counter("integrator.optimizer.moves_proposed"),
            optimizer_moves_accepted: obs.counter("integrator.optimizer.moves_accepted"),
            engine_op_seconds: obs.histogram("engine.op_seconds"),
            engine_runs: obs.counter("engine.runs"),
            engine_ops: obs.counter("engine.ops"),
            engine_rows: obs.counter("engine.rows"),
        }
    }
}

/// Routes the obs-free crates' process-wide event hooks into the global
/// flight recorder and arms the panic dump. Hooks are first-install-wins
/// (`OnceLock`), so constructing many `Quarry` instances is harmless.
fn install_event_bridges() {
    flight::install_panic_dump();
    quarry_engine::events::set_event_hook(|event| {
        use quarry_engine::events::EngineEvent;
        let recorder = flight::recorder();
        match event {
            EngineEvent::OpFinish { op, rows_in, rows_out, lane } => {
                recorder.record(EventKind::OpFinish, op, lane, rows_in as i64, rows_out as i64);
            }
            EngineEvent::QueueDepth { depth, jobs } => {
                recorder.record(EventKind::QueueDepth, "pool", 0, depth, jobs as i64);
            }
            EngineEvent::KernelFallback { total } => {
                recorder.record(EventKind::KernelFallback, "kernel", 0, total as i64, 0);
            }
            EngineEvent::CacheHit { op, rows } => {
                recorder.record(EventKind::CacheHit, op, 0, rows as i64, 0);
            }
            EngineEvent::CacheMiss { op } => {
                recorder.record(EventKind::CacheMiss, op, 0, 0, 0);
            }
            EngineEvent::CacheInsert { op, bytes } => {
                recorder.record(EventKind::CacheInsert, op, 0, bytes as i64, 0);
            }
            EngineEvent::CacheEvict { bytes } => {
                recorder.record(EventKind::CacheEvict, "cache", 0, bytes as i64, 0);
            }
        }
    });
    quarry_repository::set_fsync_event_hook(|latency_micros, fsyncs| {
        flight::recorder().record(EventKind::WalFsync, "wal", 0, latency_micros as i64, fsyncs as i64);
    });
}

impl Quarry {
    /// Creates a Quarry instance over a domain ontology and its source
    /// mappings, with default quality factors.
    pub fn new(ontology: Ontology, sources: SourceRegistry) -> Self {
        Quarry::with_config(ontology, sources, QuarryConfig::default())
    }

    /// Creates a Quarry instance with explicit configuration. Panics if a
    /// configured `repository_dir` cannot be opened or recovered — use
    /// [`Quarry::try_with_config`] to handle that at startup.
    pub fn with_config(ontology: Ontology, sources: SourceRegistry, config: QuarryConfig) -> Self {
        Quarry::try_with_config(ontology, sources, config).expect("repository open/recovery failed")
    }

    /// Creates a Quarry instance with explicit configuration. With
    /// `config.repository_dir` set, opens the durable repository there:
    /// recovers the latest snapshot plus log tail (truncating a torn final
    /// record) and write-ahead-logs every mutation from then on.
    pub fn try_with_config(
        ontology: Ontology,
        sources: SourceRegistry,
        config: QuarryConfig,
    ) -> Result<Self, QuarryError> {
        // The flight recorder is always on; route the obs-free crates' event
        // hooks into it (and arm the panic dump) before anything can fail.
        install_event_bridges();
        let repository = match &config.repository_dir {
            Some(dir) => Repository::open(dir, DurabilityOptions { fsync: config.fsync, ..Default::default() })?,
            None => Repository::new(),
        };
        // Persist the domain ontology as the first metadata artifact.
        repository.put_artifact(ArtifactKind::Ontology, "domain", &quarry_ontology::owlx::to_string(&ontology))?;
        let mut formats = FormatRegistry::with_builtins();
        formats.register_exporter(Box::new(SqlExporter));
        let mut platforms = PlatformRegistry::with_builtins();
        platforms.register(Box::new(crate::native::NativePlatform));
        let obs = Obs::disabled();
        obs.set_build_info(env!("CARGO_PKG_VERSION"), option_env!("QUARRY_GIT_HASH").unwrap_or("unknown"));
        // The engine pool's always-on gauges and kernel/radix stats ride
        // along in every metrics snapshot; the engine itself stays free of
        // any obs dependency.
        obs.register_collector(Box::new(|out| {
            let g = quarry_engine::pool::gauges();
            out.push(("pool.queue_depth".to_string(), Metric::Gauge(g.queue_depth)));
            out.push(("pool.active_workers".to_string(), Metric::Gauge(g.active_workers)));
            out.push(("pool.morsels_in_flight".to_string(), Metric::Gauge(g.in_flight)));
            let k = quarry_engine::stats::kernel_stats();
            out.push(("engine.kernel.vectorized".to_string(), Metric::Counter(k.vectorized)));
            out.push(("engine.kernel.scalar_fallback".to_string(), Metric::Counter(k.scalar_fallback)));
            let j = quarry_engine::stats::join_radix_stats();
            if j.joins > 0 {
                out.push((
                    "engine.join.radix_partitions".to_string(),
                    Metric::Histogram(HistogramSnapshot {
                        count: j.joins,
                        sum: j.partitions_sum as f64,
                        min: j.partitions_min.map(|v| v as f64),
                        max: j.partitions_max.map(|v| v as f64),
                        buckets: j
                            .buckets
                            .iter()
                            .filter(|&&(_, n)| n > 0)
                            .map(|&(bound, n)| (bound as f64, n))
                            .collect(),
                    }),
                ));
            }
            // The repository's write-ahead-log counters follow the same
            // always-on-atomics idiom; zero for in-memory repositories.
            let w = quarry_repository::wal_stats();
            out.push(("repository.wal.appends".to_string(), Metric::Counter(w.appends)));
            out.push(("repository.wal.appended_bytes".to_string(), Metric::Counter(w.appended_bytes)));
            out.push(("repository.wal.fsyncs".to_string(), Metric::Counter(w.fsyncs)));
            out.push(("repository.wal.compactions".to_string(), Metric::Counter(w.compactions)));
            out.push(("repository.wal.recoveries".to_string(), Metric::Counter(w.recoveries)));
            out.push(("repository.wal.replayed_records".to_string(), Metric::Counter(w.replayed_records)));
            out.push(("repository.wal.torn_truncations".to_string(), Metric::Counter(w.torn_truncations)));
            if w.fsyncs > 0 {
                out.push((
                    "repository.wal.fsync_seconds".to_string(),
                    Metric::Histogram(HistogramSnapshot {
                        count: w.fsyncs,
                        sum: w.fsync_seconds_sum,
                        min: None,
                        max: None,
                        buckets: w.fsync_buckets.iter().copied().filter(|&(_, n)| n > 0).collect(),
                    }),
                ));
            }
        }));
        // The cross-run result cache and its always-on stats: hit/miss/insert
        // traffic and resident bytes ride along in every metrics snapshot.
        let result_cache = Arc::new(ResultCache::new(config.cache.enabled, config.cache.budget_bytes));
        let cache_src = Arc::clone(&result_cache);
        obs.register_collector(Box::new(move |out| {
            let s = cache_src.stats();
            out.push(("engine.cache.entries".to_string(), Metric::Gauge(s.entries as i64)));
            out.push(("engine.cache.bytes".to_string(), Metric::Gauge(s.bytes as i64)));
            out.push(("engine.cache.hits".to_string(), Metric::Counter(s.hits)));
            out.push(("engine.cache.misses".to_string(), Metric::Counter(s.misses)));
            out.push(("engine.cache.inserts".to_string(), Metric::Counter(s.inserts)));
            out.push(("engine.cache.rejects".to_string(), Metric::Counter(s.rejects)));
            out.push(("engine.cache.evictions".to_string(), Metric::Counter(s.evictions)));
        }));
        let metrics = LifecycleMetrics::resolve(&obs);
        let mut consolidation = ConsolidationState::new();
        consolidation.bind_metrics(&obs);
        // Durable recovery: fast-forward the flow epoch past every persisted
        // commit so entries admitted before the restart can never hit.
        if let Some(report) = repository.recovery_report() {
            let stored = repository
                .with_store(|s| flow_epoch_doc(s).and_then(|(_, doc)| doc.get("epoch")?.as_f64()))
                .map(|n| n as u64);
            let marked = report
                .markers
                .iter()
                .filter_map(|m| m.strip_prefix(CACHE_EPOCH_MARKER))
                .filter_map(|n| n.parse::<u64>().ok());
            if let Some(epoch) = marked.chain(stored).max() {
                consolidation.set_flow_epoch(epoch);
            }
        }
        Ok(Quarry {
            unified_md: MdSchema::new(config.design_name.clone()),
            unified_etl: Flow::new(config.design_name.clone()),
            ontology,
            sources,
            repository,
            formats,
            platforms,
            config,
            requirements: BTreeMap::new(),
            consolidation,
            obs,
            metrics,
            obs_server: None,
            result_cache,
            source_epochs: HashMap::new(),
            run_plan: Mutex::new(None),
        })
    }

    /// A Quarry instance over the paper's running example: the TPC-H domain.
    pub fn tpch() -> Self {
        let domain = quarry_ontology::tpch::domain();
        Quarry::with_config(domain.ontology, domain.sources, QuarryConfig::tpch(0.01))
    }

    // ---- component access ---------------------------------------------------

    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    pub fn sources(&self) -> &SourceRegistry {
        &self.sources
    }

    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    pub fn formats(&self) -> &FormatRegistry {
        &self.formats
    }

    pub fn formats_mut(&mut self) -> &mut FormatRegistry {
        &mut self.formats
    }

    pub fn platforms_mut(&mut self) -> &mut PlatformRegistry {
        &mut self.platforms
    }

    pub fn config(&self) -> &QuarryConfig {
        &self.config
    }

    /// The observability recorder. Off by default; callers can also bump
    /// their own named counters through it.
    pub fn observability(&self) -> &Obs {
        &self.obs
    }

    /// Turns span/metric recording on or off. When off, every instrumented
    /// call site is a single relaxed atomic load.
    pub fn set_observability(&self, on: bool) {
        self.obs.set_enabled(on);
    }

    /// Snapshot of the lifecycle span trees recorded so far.
    pub fn trace(&self) -> Trace {
        self.obs.trace()
    }

    /// Starts (or restarts) the live telemetry endpoint on `addr` — a
    /// std-only HTTP server answering `GET /metrics` (Prometheus text),
    /// `/trace` (Chrome trace JSON), and `/healthz`. Also enables recording:
    /// a scrape endpoint over a disabled recorder would only ever serve
    /// emptiness. Returns the bound address (`addr` may use port 0).
    /// The endpoint serves until the instance is dropped or
    /// [`Quarry::stop_serving_metrics`] is called.
    pub fn serve_metrics(&mut self, addr: &str) -> Result<std::net::SocketAddr, QuarryError> {
        self.obs.set_enabled(true);
        let server = quarry_obs::serve::serve(&self.obs, addr)
            .map_err(|e| QuarryError::Telemetry(format!("cannot bind `{addr}`: {e}")))?;
        let bound = server.addr();
        self.obs_server = Some(server); // a previous server shuts down on drop
        Ok(bound)
    }

    /// The live telemetry endpoint's address, if one is serving.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.as_ref().map(ObsServer::addr)
    }

    /// Shuts down the live telemetry endpoint (recording stays enabled).
    pub fn stop_serving_metrics(&mut self) {
        self.obs_server = None;
    }

    /// The Requirements Elicitor over this instance's ontology.
    pub fn elicitor(&self) -> Elicitor<'_> {
        Elicitor::new(&self.ontology)
    }

    /// Starts an elicitation session for a new requirement.
    pub fn session(&self, id: &str) -> Session<'_> {
        Session::new(&self.ontology, id)
    }

    /// The current unified design.
    pub fn unified(&self) -> (&MdSchema, &Flow) {
        (&self.unified_md, &self.unified_etl)
    }

    /// The requirement ids satisfied by the current design.
    pub fn requirement_ids(&self) -> Vec<&str> {
        self.requirements.keys().map(String::as_str).collect()
    }

    pub fn requirement(&self, id: &str) -> Option<&Requirement> {
        self.requirements.get(id)
    }

    // ---- lifecycle ------------------------------------------------------------

    /// Interprets a requirement in isolation (no change to the design).
    pub fn interpret(&self, req: &Requirement) -> Result<PartialDesign, QuarryError> {
        Interpreter::with_options(&self.ontology, &self.sources, self.config.interpreter)
            .interpret(req)
            .map_err(QuarryError::Interpret)
    }

    /// Adds a requirement: interpret → integrate → store unified artifacts
    /// → store partials → validate. The whole step runs inside an
    /// `add_requirement` span with one child span per phase; the completed
    /// trace is versioned in the repository.
    pub fn add_requirement(&mut self, req: Requirement) -> Result<DesignUpdate, QuarryError> {
        if self.requirements.contains_key(&req.id) {
            return Err(QuarryError::DuplicateRequirement(req.id.clone()));
        }
        self.add_requirement_step(req, true)
    }

    /// [`add_requirement`](Self::add_requirement) in its span; with `link`
    /// off the requirement's traceability links are left as they are, for a
    /// change whose links already name the partials this step writes.
    fn add_requirement_step(&mut self, req: Requirement, link: bool) -> Result<DesignUpdate, QuarryError> {
        let step = self.obs.span("add_requirement");
        step.attr("requirement", req.id.as_str());
        let result = self.add_requirement_phases(req, link);
        if let Ok(update) = &result {
            step.attr("md_cost", update.md_cost);
            step.attr("etl_cost", update.etl_cost);
        }
        self.finish_step(step, &result);
        result
    }

    fn add_requirement_phases(&mut self, req: Requirement, link: bool) -> Result<DesignUpdate, QuarryError> {
        self.repository.record_marker(&format!("step:add_requirement:{}", req.id))?;
        let partial = {
            let phase = self.obs.span("interpret");
            let partial = self.interpret(&req)?;
            phase.attr("md_elements", partial.md.size().0 + partial.md.size().1);
            phase.attr("etl_ops", partial.etl.op_count());
            partial
        };

        self.repository.put_artifact(ArtifactKind::Requirement, &req.id, &req.to_string_pretty())?;
        self.integrate_partial(req, &partial.md, &partial.etl, link)
    }

    /// The consolidation half of every add, whoever produced the partial
    /// design: integrate MD and ETL through the maintained consolidation
    /// state → commit the unified design under `req` → persist the partials
    /// and, with `link`, link them → validate.
    fn integrate_partial(
        &mut self,
        req: Requirement,
        md: &MdSchema,
        etl: &Flow,
        link: bool,
    ) -> Result<DesignUpdate, QuarryError> {
        // Integrate through the maintained consolidation state, recording the
        // quality-factor deltas (structural design complexity and estimated
        // ETL execution time) on the phase spans. The MD result is applied
        // only after the ETL step also succeeded (the ETL step restores the
        // flow itself on error), keeping the whole step transactional.
        let md_result = {
            let phase = self.obs.span("md_integrate");
            // Costing the whole design a second time only feeds span
            // attributes, so it is skipped when nothing records them.
            let before = self.obs.is_enabled().then(|| self.config.md_cost.cost(&self.unified_md));
            let started = Instant::now();
            let result = self.consolidation.md_step(&self.unified_md, md, self.config.md_cost.as_ref())?;
            self.metrics.md_integrate_seconds.observe(started.elapsed().as_secs_f64());
            phase.attr("cost_after", result.report.cost);
            if let Some(before) = before {
                phase.attr("cost_before", before);
                phase.attr("cost_delta", result.report.cost - before);
            }
            result
        };
        let etl_report = {
            let phase = self.obs.span("etl_integrate");
            // Read off the facts kept beside the consolidation index, so the
            // attribute does not cost a whole-flow derivation per add.
            let before = self.obs.is_enabled().then(|| {
                let (cost, stats) = (self.config.etl_cost.as_ref(), &self.config.stats);
                self.consolidation.etl_cost(&self.unified_etl, cost, stats).unwrap_or_default()
            });
            let started = Instant::now();
            let report = self.consolidation.etl_step(
                &mut self.unified_etl,
                etl,
                self.config.etl_cost.as_ref(),
                &self.config.stats,
                self.config.etl_options,
            )?;
            self.metrics.etl_integrate_seconds.observe(started.elapsed().as_secs_f64());
            phase.attr("cost_after", report.cost);
            if let Some(before) = before {
                phase.attr("cost_before", before);
                phase.attr("cost_delta", report.cost - before);
            }
            phase.attr("reused_ops", report.reused_ops);
            report
        };

        self.unified_md = md_result.schema;
        let id = req.id.clone();
        self.requirements.insert(id.clone(), req);
        self.persist_unified()?;
        // The partials go after the unified design that now contains them,
        // which the repository then stores them as deltas against.
        let key = format!("partial-{id}");
        self.repository.put_artifact(ArtifactKind::MdSchema, &key, &quarry_formats::xmd::to_string(md))?;
        self.repository.put_artifact(ArtifactKind::EtlFlow, &key, &quarry_formats::xlm::to_string(etl))?;
        if link {
            self.repository.link_requirement(&id, ArtifactKind::MdSchema, &key)?;
            self.repository.link_requirement(&id, ArtifactKind::EtlFlow, &key)?;
        }

        let warnings = {
            let phase = self.obs.span("validate");
            let warnings = self.unified_md.validate();
            phase.attr("warnings", warnings.len());
            warnings
        };
        Ok(DesignUpdate {
            requirement_id: id,
            md_cost: md_result.report.cost,
            etl_cost: etl_report.cost,
            md_report: Some(md_result.report),
            etl_report: Some(etl_report),
            warnings,
        })
    }

    /// Integrates an externally produced partial design (paper §2.2: "Quarry
    /// allows plugging in other external design tools, with the assumption
    /// that the provided partial designs are sound"). The design is
    /// validated, stamped with `requirement_id`, and consolidated exactly
    /// like an interpreter-produced partial.
    pub fn add_partial_design(
        &mut self,
        requirement_id: &str,
        md: MdSchema,
        etl: Flow,
    ) -> Result<DesignUpdate, QuarryError> {
        if self.requirements.contains_key(requirement_id) {
            return Err(QuarryError::DuplicateRequirement(requirement_id.to_string()));
        }
        let step = self.obs.span("add_partial_design");
        step.attr("requirement", requirement_id);
        let result = self.add_partial_design_phases(requirement_id, md, etl);
        self.finish_step(step, &result);
        result
    }

    fn add_partial_design_phases(
        &mut self,
        requirement_id: &str,
        mut md: MdSchema,
        mut etl: Flow,
    ) -> Result<DesignUpdate, QuarryError> {
        // Trust but verify: external partials must be sound.
        let violations = md.validate();
        if violations.iter().any(|v| v.kind.is_error()) {
            return Err(QuarryError::Integrate(IntegrateError::InvalidResult(
                violations.iter().map(ToString::to_string).collect(),
            )));
        }
        etl.validate().map_err(|e| QuarryError::Integrate(IntegrateError::MalformedPartial(e.to_string())))?;
        md.stamp_requirement(requirement_id);
        etl.stamp_requirement(requirement_id);

        self.repository.record_marker(&format!("step:add_partial_design:{requirement_id}"))?;
        // A marker requirement, so lifecycle bookkeeping (removal, listing)
        // treats the external design like any other.
        self.integrate_partial(Requirement::new(requirement_id), &md, &etl, true)
    }

    /// Removes a requirement: every design element serving only it is
    /// pruned, then the shrunken design is re-validated and persisted. The
    /// step is transactional: if the pruned design fails validation, the
    /// previous unified design (including traceability links) is restored.
    pub fn remove_requirement(&mut self, id: &str) -> Result<DesignUpdate, QuarryError> {
        if !self.requirements.contains_key(id) {
            return Err(QuarryError::UnknownRequirement(id.to_string()));
        }
        self.removal_step(id, |q| q.remove_requirement_phases(id))
    }

    /// Runs `phases` in the `remove_requirement` span of `id`, after the
    /// step's marker.
    fn removal_step<T>(
        &mut self,
        id: &str,
        phases: impl FnOnce(&mut Self) -> Result<T, QuarryError>,
    ) -> Result<T, QuarryError> {
        let step = self.obs.span("remove_requirement");
        step.attr("requirement", id);
        let result = self
            .repository
            .record_marker(&format!("step:remove_requirement:{id}"))
            .map_err(QuarryError::from)
            .and_then(|()| phases(self));
        if result.is_err() {
            step.attr("rolled_back", 1i64);
        }
        self.finish_step(step, &result);
        result
    }

    /// The removal after its marker: snapshot, retract, then the writes
    /// (unlink, persist), restoring the snapshot on any error.
    fn remove_requirement_phases(&mut self, id: &str) -> Result<DesignUpdate, QuarryError> {
        let snapshot = self.snapshot(id);
        let result = self.retract(id).and_then(|(etl_cost, warnings)| {
            self.repository.unlink_requirement(id)?;
            self.persist_unified()?;
            Ok(DesignUpdate {
                requirement_id: id.to_string(),
                md_cost: self.config.md_cost.cost(&self.unified_md),
                etl_cost,
                warnings,
                ..DesignUpdate::default()
            })
        });
        if result.is_err() {
            // A rollback that itself fails outranks the original error.
            self.restore(snapshot, id)?;
        }
        result
    }

    /// Retracts `id` from the live design and validates what is left,
    /// returning the pruned flow's cost and the MD warnings. Writes nothing
    /// to the repository; every error leaves the design retracted in memory
    /// for the caller to restore.
    fn retract(&mut self, id: &str) -> Result<(f64, Vec<MdViolation>), QuarryError> {
        self.requirements.remove(id);
        let etl_cost = {
            let _phase = self.obs.span("retract");
            self.unified_md.retract_requirement(id);
            // Validates and costs the pruned flow, through the facts kept
            // beside the consolidation index while that survives.
            self.consolidation.retract(&mut self.unified_etl, id, self.config.etl_cost.as_ref(), &self.config.stats)
        };

        let phase = self.obs.span("validate");
        let violations = self.unified_md.validate();
        phase.attr("warnings", violations.len());
        drop(phase);
        if violations.iter().any(|v| v.kind.is_error()) {
            let reasons = violations.iter().map(ToString::to_string).collect();
            return Err(QuarryError::Integrate(IntegrateError::InvalidResult(reasons)));
        }
        Ok((etl_cost?, violations))
    }

    /// Changes a requirement: retract the old version, integrate the new one
    /// (same id), as one step with one persist of the unified design — the
    /// retracted design in between is never written. Transactional: if the
    /// replacement is rejected at any phase (interpretation, integration,
    /// validation), the pre-change design — unified MD schema, unified ETL
    /// flow, requirement set, and traceability links — is restored, so a
    /// failed change leaves no partial state.
    pub fn change_requirement(&mut self, req: Requirement) -> Result<DesignUpdate, QuarryError> {
        if !self.requirements.contains_key(&req.id) {
            return Err(QuarryError::UnknownRequirement(req.id.clone()));
        }
        let id = req.id.clone();
        let step = self.obs.span("change_requirement");
        step.attr("requirement", id.as_str());
        let snapshot = self.snapshot(&id);
        // The re-add links the same partial keys again: links that already
        // name them stay, any others are replaced as a removal would.
        let relink = snapshot.links != partial_links(&id);
        let mut result = self
            .removal_step(&id, |q| {
                q.retract(&id)?;
                if relink {
                    q.repository.unlink_requirement(&id)?;
                }
                Ok(())
            })
            .and_then(|()| self.add_requirement_step(req, relink));
        if let Err(e) = result {
            step.attr("rolled_back", 1i64);
            // A rollback that itself fails (durable-log I/O) outranks the
            // original rejection — the caller must know state may be partial.
            result = self.restore(snapshot, &id).and(Err(e));
        }
        self.finish_step(step, &result);
        result
    }

    /// Captures everything a failed lifecycle step must roll back: the live
    /// design state plus the requirement and its traceability links.
    /// Repository artifact *versions* are deliberately not rolled back — the
    /// store is append-only history, and a rejected attempt is part of that
    /// history.
    fn snapshot(&self, id: &str) -> DesignSnapshot {
        DesignSnapshot {
            md: self.unified_md.clone(),
            etl: self.unified_etl.clone(),
            requirement: self.requirements[id].clone(),
            links: self.repository.links_for(id),
        }
    }

    /// Restores live state unconditionally; the repository writes that make
    /// the rollback durable (re-linking, re-persisting, and the rollback
    /// marker in the log) can fail in durable mode and surface as `Store`.
    fn restore(&mut self, snapshot: DesignSnapshot, id: &str) -> Result<(), QuarryError> {
        self.consolidation.invalidate();
        self.unified_md = snapshot.md;
        self.unified_etl = snapshot.etl;
        self.requirements.insert(id.to_string(), snapshot.requirement);
        self.repository.record_marker(&format!("rollback:{id}"))?;
        self.repository.unlink_requirement(id)?;
        for (kind, key) in &snapshot.links {
            if let Some(kind) = ArtifactKind::parse(kind) {
                self.repository.link_requirement(id, kind, key)?;
            }
        }
        self.persist_unified()?;
        Ok(())
    }

    /// Runs the cost-based flow optimizer over the unified ETL flow: a
    /// deterministic descent across semantically-equivalent rewrites
    /// (selection hoisting, join-spine order, projection pruning, duplicate
    /// merging; canonical form pushes selections down), scored by the
    /// engine-aware execution-time model rescaled with any cardinalities
    /// observed by prior runs (see
    /// [`Quarry::observe_run`]). The swap is transactional: either a
    /// canonical, validated, strictly-cheaper flow replaces the unified one
    /// — with the consolidation index rebuilt over it beside the facts the
    /// optimizer's commit check derived (no re-canonicalization, no fresh
    /// derivation on the next step) and the new design persisted — or the
    /// design is left untouched.
    pub fn optimize(&mut self) -> Result<OptimizeReport, QuarryError> {
        let step = self.obs.span("optimize");
        let result = self.optimize_phases();
        if let Ok(report) = &result {
            step.attr("applied", i64::from(report.applied));
            step.attr("cost_before", report.before_cost);
            step.attr("cost_after", report.after_cost);
            step.attr("moves_proposed", report.proposed as i64);
            step.attr("moves_accepted", report.accepted as i64);
        }
        self.finish_step(step, &result);
        result
    }

    fn optimize_phases(&mut self) -> Result<OptimizeReport, QuarryError> {
        self.repository.record_marker("step:optimize")?;
        let started = Instant::now();
        let (report, facts) =
            optimize_flow(&mut self.unified_etl, &mut self.config.stats, self.config.optimizer.budget_ms)?;
        self.metrics.optimize_seconds.observe(started.elapsed().as_secs_f64());
        self.metrics.optimizer_runs.inc();
        self.metrics.optimizer_moves_proposed.add(report.proposed);
        self.metrics.optimizer_moves_accepted.add(report.accepted);
        if report.applied {
            self.metrics.optimizer_applied.inc();
            // The rewritten flow was mutated outside an integration step: the
            // index is built over it beside the optimizer's facts, or dropped
            // when it handed none over.
            match facts {
                Some(facts) => self.consolidation.adopt(&self.unified_etl, facts),
                None => self.consolidation.invalidate(),
            }
            self.persist_unified()?;
        }
        Ok(report)
    }

    /// Feeds a run's measured per-operation cardinalities back into the
    /// configured source statistics (rows out, and rows in where the
    /// operation read any, which pins a selection's selectivity): later
    /// optimizations and integrations then estimate with what the engine
    /// actually observed instead of static selectivity guesses. This is the
    /// correction a misestimate in the stored [`ExecutionProfile`] asks for:
    /// once the observations land, re-runs estimate close to actual and
    /// their [`ProfileOp::ratio`](crate::profile::ProfileOp::ratio) returns
    /// towards 1.
    /// Observations route through the canonical op fingerprint: a timing is
    /// folded only when the op name still exists in the unified flow *and*
    /// its semantic signature matches the one in the plan of the last
    /// successful run. After an optimizer commit (or a requirement change)
    /// rewrites an operation under a surviving name, that op's stale
    /// observation is dropped instead of pinning the rewritten op's
    /// estimates to the old reality.
    pub fn observe_run(&mut self, report: &RunReport) {
        let plan = self.run_plan.lock().unwrap_or_else(|p| p.into_inner()).as_ref().map(|(_, plan)| Arc::clone(plan));
        let ran: HashMap<&str, u64> =
            plan.iter().flat_map(|plan| plan.nodes()).map(|n| (n.op.name.as_str(), n.signature)).collect();
        for t in &report.timings {
            let Some(op) = self.unified_etl.op_by_name(&t.op) else {
                continue; // the op no longer exists: nothing to pin
            };
            if ran.get(t.op.as_str()).is_some_and(|&fp| fp != op_fingerprint(&op.kind)) {
                continue; // rewritten since the run: the observation is stale
            }
            if t.rows_in > 0 {
                self.config.stats.observe_op_io(&t.op, t.rows_in as f64, t.rows_out as f64);
            } else {
                self.config.stats.observe_op(&t.op, t.rows_out as f64);
            }
        }
    }

    /// Cumulative consolidation-index traffic (ETL index hits/misses/rebuilds
    /// and MD lookup-map hits/misses) since this instance was created.
    pub fn consolidation_stats(&self) -> ConsolidationStats {
        self.consolidation.stats()
    }

    /// Closes a lifecycle-step span (tagging it with the error, if any) and,
    /// when it closed as a root, versions it in the repository. A step nested
    /// in another (the removal and the add inside a change) is carried by
    /// its parent's version.
    fn finish_step<T>(&self, step: Span, result: &Result<T, QuarryError>) {
        if let Err(e) = result {
            step.attr("error", e.to_string());
        }
        if let Some(root) = step.close() {
            self.persist_trace(root);
        }
    }

    /// Persists one completed root step as a trace document under
    /// [`TRACE_KEY`]: one version per step, holding that step alone, so a
    /// step's cost does not grow with the session. Traces are advisory, so a
    /// durable-log failure here is counted, not raised.
    fn persist_trace(&self, root: SpanNode) {
        let doc = crate::tracedoc::trace_to_json(&Trace { spans: vec![root] });
        if self.repository.put_artifact(ArtifactKind::Trace, TRACE_KEY, &doc.to_pretty_string()).is_err() {
            self.obs.counter("repository.trace_persist_failures").inc();
        }
    }

    fn persist_unified(&self) -> Result<(), QuarryError> {
        self.repository.put_artifact(
            ArtifactKind::MdSchema,
            &self.config.design_name,
            &quarry_formats::xmd::to_string(&self.unified_md),
        )?;
        self.repository.put_artifact(
            ArtifactKind::EtlFlow,
            &self.config.design_name,
            &quarry_formats::xlm::to_string(&self.unified_etl),
        )?;
        // Every site that commits a new unified design persists here, so this
        // one document keeps the durable flow epoch current: recovery
        // fast-forwards past it and a restart never serves pre-commit hits.
        let mut doc = Json::object();
        doc.set("name", Json::String(FLOW_EPOCH_DOC.to_string()));
        doc.set("epoch", Json::Number(self.consolidation.flow_epoch() as f64));
        match self.repository.with_store(|s| flow_epoch_doc(s).map(|(id, _)| id)) {
            Some(id) => self.repository.update_document(STATE_COLLECTION, id, doc)?,
            None => drop(self.repository.insert_document(STATE_COLLECTION, doc)?),
        }
        Ok(())
    }

    // ---- deployment & execution -----------------------------------------------

    /// Generates deployment artifacts for a registered platform and records
    /// them in the repository.
    pub fn deploy(&self, platform: &str) -> Result<DeploymentArtifacts, QuarryError> {
        let step = self.obs.span("deploy");
        step.attr("platform", platform);
        let result = self
            .platforms
            .deploy(platform, &self.unified_md, &self.unified_etl)
            .map_err(QuarryError::Deploy)
            .and_then(|artifacts| {
                for (name, content) in &artifacts.files {
                    self.repository.put_artifact(ArtifactKind::Deployment, &format!("{platform}/{name}"), content)?;
                }
                step.attr("files", artifacts.files.len());
                step.attr("bytes", artifacts.files.iter().map(|(_, c)| c.len()).sum::<usize>());
                Ok(artifacts)
            });
        self.finish_step(step, &result);
        result
    }

    /// Runs the unified ETL flow on the embedded engine over `catalog`,
    /// returning the populated engine and the run report. This is the
    /// "native" execution platform. Thread width comes from the engine's
    /// pool (`quarry_engine::pool::set_threads` / `QUARRY_THREADS`); the
    /// loaded warehouse does not depend on it.
    pub fn run_etl(&self, catalog: Catalog) -> Result<(Engine, RunReport), QuarryError> {
        let step = self.obs.span("execute");
        let mut engine = crate::native::deploy(&self.unified_md, catalog);
        self.install_result_cache(&mut engine);
        let kernels_before = KernelDelta::snapshot();
        let run = self.plan().map_err(EngineError::Flow).and_then(|memo| Ok((engine.execute(&memo.1)?, memo)));
        let kernels_after = KernelDelta::snapshot();
        let result = match run {
            Ok((report, memo)) => {
                self.record_run(&step, &report);
                self.persist_profile(&ExecutionProfile::capture(&memo.1, &report, kernels_before, kernels_after));
                *self.run_plan.lock().unwrap_or_else(|p| p.into_inner()) = Some(memo);
                Ok((engine, report))
            }
            Err(e) => Err(QuarryError::Engine(e)),
        };
        self.finish_step(step, &result);
        result
    }

    /// Versions a run's execution profile in the repository under the design
    /// name — the document behind `explain --analyze` and `GET /profile`.
    /// Profiles are advisory like traces: a durable-log failure here is
    /// counted, not raised.
    fn persist_profile(&self, profile: &ExecutionProfile) {
        let doc = profile.to_json().to_pretty_string();
        if self.repository.put_artifact(ArtifactKind::Profile, &self.config.design_name, &doc).is_err() {
            self.obs.counter("repository.profile_persist_failures").inc();
        }
    }

    /// Lifts the engine's per-operator timings and row counts out of the
    /// [`RunReport`] into the execute span (one child per operator) and the
    /// metrics registry.
    fn record_run(&self, step: &Span, report: &RunReport) {
        if !self.obs.is_enabled() {
            return;
        }
        step.attr("ops", report.timings.len());
        step.attr("rows_processed", report.rows_processed);
        step.attr("total_us", report.total.as_micros() as i64);
        for t in &report.timings {
            self.obs.record_span(
                &t.op,
                t.elapsed,
                vec![
                    ("kind".into(), quarry_obs::AttrValue::Str(t.kind.to_string())),
                    ("rows_in".into(), quarry_obs::AttrValue::Int(t.rows_in as i64)),
                    ("rows_out".into(), quarry_obs::AttrValue::Int(t.rows_out as i64)),
                    ("worker".into(), quarry_obs::AttrValue::Int(t.worker as i64)),
                ],
            );
            self.metrics.engine_op_seconds.observe(t.elapsed.as_secs_f64());
        }
        self.metrics.engine_runs.inc();
        self.metrics.engine_ops.add(report.timings.len() as u64);
        self.metrics.engine_rows.add(report.rows_processed as u64);
    }

    // ---- result cache ---------------------------------------------------------

    /// The plan to execute the unified flow by, and the key it is valid
    /// under: the last successful run's while the flow epoch and shape and
    /// the statistics generation are unchanged, else compiled afresh,
    /// estimates and cone costs under the configured statistics.
    fn plan(&self) -> Result<EpochPlan, FlowError> {
        let flow = &self.unified_etl;
        let key = (self.consolidation.flow_epoch(), flow.op_count(), flow.edge_count(), self.config.stats.generation());
        let memo = self.run_plan.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, plan)) = memo.as_ref().filter(|(at, _)| *at == key) {
            debug_assert_eq!(plan.flow_fingerprint(), flow_fingerprint(flow), "the flow changed, its epoch did not");
            return Ok((key, Arc::clone(plan)));
        }
        Ok((key, Arc::new(PhysicalPlan::compile(flow, &self.config.stats)?)))
    }

    /// Installs the cross-run result cache on `engine` for the unified flow:
    /// purges entries from older flow epochs, then keys this run on the
    /// current epoch plus the per-source epochs, which the engine mixes with
    /// the catalog's table stamps (data identity).
    fn install_result_cache(&self, engine: &mut Engine) {
        if !self.config.cache.enabled || self.unified_etl.op_count() == 0 {
            return;
        }
        let epoch = self.consolidation.flow_epoch();
        self.result_cache.set_flow_epoch(epoch);
        engine.set_result_cache(Arc::clone(&self.result_cache), epoch, self.source_epochs.clone());
    }

    /// Current result-cache counters (entries, bytes, hit/miss/insert/evict
    /// traffic) — the numbers behind the CLI's `cache` command and the
    /// `engine.cache.*` metrics.
    pub fn cache_stats(&self) -> CacheStats {
        self.result_cache.stats()
    }

    /// Drops every cached subflow result (the budget and counters survive).
    pub fn clear_result_cache(&self) {
        self.result_cache.clear();
    }

    /// Declares that the datastore `source` was registered or mutated outside
    /// the engine's view: its per-source epoch is bumped, which re-keys (and
    /// thereby invalidates) every cached subflow reading it. Catalog-visible
    /// mutations are caught by table stamps even without this call.
    pub fn bump_source_epoch(&mut self, source: &str) {
        *self.source_epochs.entry(source.to_string()).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::cost::{EstimatedTime, EtlCostModel, OpCostPart, SourceStats};
    use quarry_etl::FlowError;
    use quarry_formats::xrq::figure4_requirement;
    use quarry_formats::MeasureSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn netprofit_requirement() -> Requirement {
        let mut req = Requirement::new("IR2");
        req.measures.push(MeasureSpec {
            id: "netprofit".into(),
            function: "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT".into(),
        });
        req.dimensions.push("Part_p_nameATRIBUT".into());
        req.dimensions.push("Supplier_s_nameATRIBUT".into());
        req
    }

    #[test]
    fn add_requirement_builds_the_initial_design() {
        let mut q = Quarry::tpch();
        let update = q.add_requirement(figure4_requirement()).unwrap();
        assert_eq!(update.requirement_id, "IR1");
        assert!(update.md_cost > 0.0);
        let (md, etl) = q.unified();
        assert_eq!(md.facts.len(), 1);
        assert!(etl.op_count() > 5);
        assert_eq!(q.requirement_ids(), ["IR1"]);
    }

    #[test]
    fn duplicate_requirements_are_rejected() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        assert!(matches!(q.add_requirement(figure4_requirement()), Err(QuarryError::DuplicateRequirement(_))));
    }

    #[test]
    fn second_requirement_reuses_conformed_dimensions() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let update = q.add_requirement(netprofit_requirement()).unwrap();
        let md_report = update.md_report.expect("integration ran");
        assert!(!md_report.matches.is_empty(), "Part/Supplier dimensions must be matched: {:?}", md_report.matches);
        let etl_report = update.etl_report.expect("integration ran");
        assert!(etl_report.reused_ops > 0, "source extractions must be shared");
        let (md, _) = q.unified();
        assert_eq!(md.dimensions.len(), 2, "conformed Part and Supplier");
        assert!(md.satisfied_requirements().contains("IR1") && md.satisfied_requirements().contains("IR2"));
    }

    #[test]
    fn remove_requirement_prunes_exclusive_elements() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
        let before_ops = q.unified().1.op_count();
        q.remove_requirement("IR2").unwrap();
        let (md, etl) = q.unified();
        assert_eq!(md.facts.len(), 1, "netprofit fact gone");
        assert!(md.fact("fact_table_revenue").is_some());
        assert!(etl.op_count() < before_ops);
        assert!(!md.satisfied_requirements().contains("IR2"));
        // The remaining design still validates and deploys.
        q.deploy("postgres-pdi").unwrap();
    }

    #[test]
    fn removing_the_last_requirement_empties_the_design() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.remove_requirement("IR1").unwrap();
        let (md, etl) = q.unified();
        assert!(md.facts.is_empty() && md.dimensions.is_empty());
        assert_eq!(etl.op_count(), 0);
    }

    #[test]
    fn unknown_removal_and_change_are_rejected() {
        let mut q = Quarry::tpch();
        assert!(matches!(q.remove_requirement("IRX"), Err(QuarryError::UnknownRequirement(_))));
        assert!(matches!(q.change_requirement(figure4_requirement()), Err(QuarryError::UnknownRequirement(_))));
    }

    #[test]
    fn change_requirement_replaces_in_place() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let links = q.repository().links_for("IR1");
        let mut v2 = figure4_requirement();
        v2.slicers.clear(); // drop the Spain filter
        q.change_requirement(v2).unwrap();
        let (_, etl) = q.unified();
        assert!(
            !etl.ops().any(|o| o.name.contains("SELECTION_1_n_name")),
            "slicer selection must disappear after the change"
        );
        assert_eq!(q.requirement_ids(), ["IR1"]);
        // One step, one version of each unified document, the links kept.
        for kind in [ArtifactKind::MdSchema, ArtifactKind::EtlFlow] {
            assert_eq!(q.repository().history(kind, "unified").unwrap().len(), 2, "{kind:?}");
        }
        assert_eq!(q.repository().links_for("IR1"), links);
        assert_eq!(q.repository().with_store(|s| s.count("links")), 2);
    }

    #[test]
    fn changes_and_removals_keep_the_maintained_index() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
        let (rebuilds, epoch) = (q.consolidation_stats().etl_index_rebuilds, q.consolidation.flow_epoch());
        let mut v2 = netprofit_requirement();
        v2.dimensions.reverse();
        let update = q.change_requirement(v2).unwrap();
        assert_eq!(q.consolidation_stats().etl_index_rebuilds, rebuilds, "the re-add reuses the kept index");
        assert_eq!(q.consolidation.flow_epoch(), epoch + 2, "one epoch for the retraction, one for the re-add");
        assert_eq!(
            update.etl_cost.to_bits(),
            q.config.etl_cost.cost(&q.unified_etl, &q.config.stats).unwrap().to_bits()
        );
        let removed = q.remove_requirement("IR2").unwrap();
        assert_eq!(q.consolidation.flow_epoch(), epoch + 3);
        assert!(q.consolidation.etl_index_ready(), "the removal keeps the index");
        assert_eq!(
            removed.etl_cost.to_bits(),
            q.config.etl_cost.cost(&q.unified_etl, &q.config.stats).unwrap().to_bits()
        );
        q.add_requirement(netprofit_requirement()).unwrap();
        assert_eq!(q.consolidation_stats().etl_index_rebuilds, rebuilds);
    }

    #[test]
    fn failed_change_rolls_back_to_the_exact_previous_design() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
        let md_before = quarry_formats::xmd::to_string(q.unified().0);
        let etl_before = quarry_formats::xlm::to_string(q.unified().1);
        let req_before = q.requirement("IR2").unwrap().clone();
        let links_before = q.repository().links_for("IR2");

        // The replacement keeps the id but references a non-existent source
        // attribute, so interpretation rejects it mid-change (after the old
        // version has already been retracted internally).
        let mut broken = Requirement::new("IR2");
        broken.measures.push(MeasureSpec { id: "m".into(), function: "Ghost_xATRIBUT".into() });
        broken.dimensions.push("Part_p_nameATRIBUT".into());
        assert!(matches!(q.change_requirement(broken), Err(QuarryError::Interpret(_))));

        // Bit-identical design state: same serialized artifacts, same
        // requirement set, same traceability links.
        assert_eq!(quarry_formats::xmd::to_string(q.unified().0), md_before);
        assert_eq!(quarry_formats::xlm::to_string(q.unified().1), etl_before);
        assert_eq!(q.requirement_ids(), ["IR1", "IR2"]);
        assert_eq!(*q.requirement("IR2").unwrap(), req_before);
        assert_eq!(q.repository().links_for("IR2"), links_before);
        // The restored design still validates and deploys.
        q.deploy("postgres-pdi").unwrap();
    }

    #[test]
    fn failed_change_restores_the_persisted_unified_artifacts() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let mut broken = figure4_requirement();
        broken.measures[0].function = "Ghost_xATRIBUT".into();
        assert!(q.change_requirement(broken).is_err());
        // The latest persisted unified schema matches the live (restored) one.
        let stored = q.repository().latest(ArtifactKind::MdSchema, "unified").unwrap();
        assert_eq!(stored.content, quarry_formats::xmd::to_string(q.unified().0));
    }

    #[test]
    fn invalid_requirements_do_not_touch_the_design() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let before = q.unified().0.clone();
        let mut bad = Requirement::new("IRB");
        bad.measures.push(MeasureSpec { id: "m".into(), function: "Ghost_xATRIBUT".into() });
        bad.dimensions.push("Part_p_nameATRIBUT".into());
        assert!(matches!(q.add_requirement(bad), Err(QuarryError::Interpret(_))));
        assert_eq!(*q.unified().0, before);
        assert_eq!(q.requirement_ids(), ["IR1"]);
    }

    #[test]
    fn repository_records_the_full_history() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
        let repo = q.repository();
        assert_eq!(repo.keys(ArtifactKind::Requirement), ["IR1", "IR2"]);
        assert_eq!(repo.history(ArtifactKind::MdSchema, "unified").unwrap().len(), 2, "one version per step");
        assert!(repo.latest(ArtifactKind::Ontology, "domain").is_ok());
        assert_eq!(repo.links_for("IR1").len(), 2);
        // The stored unified xMD parses back to the live design.
        let stored = repo.latest(ArtifactKind::MdSchema, "unified").unwrap();
        let parsed = quarry_formats::xmd::parse(&stored.content).unwrap();
        assert_eq!(parsed, *q.unified().0);
    }

    #[test]
    fn sql_exporter_is_registered() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let md = quarry_formats::registry::Artifact::Md(q.unified().0.clone());
        let ddl = q.formats().export("sql", &md).unwrap();
        assert!(ddl.contains("CREATE TABLE fact_table_revenue"));
        let etl = quarry_formats::registry::Artifact::Etl(q.unified().1.clone());
        let script = q.formats().export("sql", &etl).unwrap();
        assert!(script.contains("INSERT INTO fact_table_revenue"), "{script}");
        assert!(script.contains("WITH "));
    }

    #[test]
    fn deploy_produces_and_records_artifacts() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let artifacts = q.deploy("postgres-pdi").unwrap();
        let sql = artifacts.file("schema.sql").unwrap();
        assert!(sql.contains("CREATE TABLE fact_table_revenue"));
        assert!(q.repository().latest(ArtifactKind::Deployment, "postgres-pdi/schema.sql").is_ok());
    }

    #[test]
    fn run_etl_populates_the_warehouse() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let catalog = quarry_engine::tpch::generate(0.002, 42);
        let (engine, report) = q.run_etl(catalog).unwrap();
        assert!(report.rows_loaded("fact_table_revenue") > 0, "Spain rows exist at sf 0.002");
        assert!(engine.catalog.get("dim_part").is_some());
        assert!(engine.catalog.get("dim_supplier").is_some());
        let fact = engine.catalog.get("fact_table_revenue").unwrap();
        assert_eq!(fact.schema.names().collect::<Vec<_>>(), ["Part_PartID", "Supplier_SupplierID", "revenue"]);
    }

    #[test]
    fn engine_kernel_and_radix_stats_surface_in_metrics() {
        let mut q = Quarry::tpch();
        q.set_observability(true);
        q.add_requirement(figure4_requirement()).unwrap();
        q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        let metrics = q.observability().metrics();
        let find = |name: &str| metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m);
        let vectorized = find("engine.kernel.vectorized").and_then(Metric::as_counter);
        assert!(vectorized.unwrap() > 0, "the TPC-H flow must hit vectorized kernels");
        assert!(find("engine.kernel.scalar_fallback").and_then(Metric::as_counter).is_some());
        let Some(Metric::Histogram(h)) = find("engine.join.radix_partitions") else {
            panic!("radix-partition histogram missing after a flow with joins");
        };
        assert!(h.count > 0, "the TPC-H flow runs joins");
        assert!(!h.buckets.is_empty());
        assert!(h.min.unwrap() >= 1.0 && h.max.unwrap() >= h.min.unwrap());
    }

    /// Unique scratch directory for durable-repository tests, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("quarry-core-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_tpch(dir: &std::path::Path) -> Quarry {
        let domain = quarry_ontology::tpch::domain();
        let mut cfg = QuarryConfig::tpch(0.01);
        cfg.repository_dir = Some(dir.to_path_buf());
        cfg.fsync = quarry_repository::FsyncPolicy::Always;
        Quarry::with_config(domain.ontology, domain.sources, cfg)
    }

    #[test]
    fn durable_lifecycle_survives_restart() {
        let tmp = TempDir::new("restart");
        let (md_before, etl_before, links_before, bytes_before);
        {
            let mut q = durable_tpch(&tmp.0);
            assert!(q.repository().is_durable());
            q.add_requirement(figure4_requirement()).unwrap();
            md_before = q.repository().latest(ArtifactKind::MdSchema, "unified").unwrap();
            etl_before = q.repository().latest(ArtifactKind::EtlFlow, "unified").unwrap();
            links_before = q.repository().links_for("IR1");
            bytes_before = q.repository().with_store(quarry_repository::snapshot::snapshot_bytes);
        }
        // Read-only recovery reconstructs the exact same store from disk.
        let (recovered, report) = quarry_repository::recover(&tmp.0).unwrap();
        assert_eq!(quarry_repository::snapshot::snapshot_bytes(&recovered), bytes_before);
        assert!(report.records_replayed > 0);
        assert!(report.markers.iter().any(|m| m == "step:add_requirement:IR1"), "{:?}", report.markers);
        // A new instance over the same directory sees the full history.
        let q2 = durable_tpch(&tmp.0);
        let report = q2.repository().recovery_report().expect("reopened from disk");
        assert!(report.records_replayed > 0);
        assert_eq!(q2.repository().latest(ArtifactKind::MdSchema, "unified").unwrap(), md_before);
        assert_eq!(q2.repository().latest(ArtifactKind::EtlFlow, "unified").unwrap(), etl_before);
        assert_eq!(q2.repository().links_for("IR1"), links_before);
        assert!(!links_before.is_empty());
    }

    /// Every partial design reads back after a restart as exactly what the
    /// interpreter made of its requirement, the changed one included. Each
    /// first version is stored against the unified design its step wrote
    /// before it, and the change's second version chains onto it.
    #[test]
    fn durable_partials_read_back_as_interpreted_after_a_restart() {
        let tmp = TempDir::new("partials");
        let mut changed = figure4_requirement();
        changed.slicers.clear();
        {
            let mut q = durable_tpch(&tmp.0);
            q.add_requirement(figure4_requirement()).unwrap();
            q.add_requirement(netprofit_requirement()).unwrap();
            q.change_requirement(changed.clone()).unwrap();
        }
        let q = durable_tpch(&tmp.0);
        let repo = q.repository();
        for (key, versions) in
            [("partial-IR1", vec![figure4_requirement(), changed]), ("partial-IR2", vec![netprofit_requirement()])]
        {
            let interpreted: Vec<PartialDesign> = versions.iter().map(|r| q.interpret(r).unwrap()).collect();
            let contents = |kind| repo.history(kind, key).unwrap().into_iter().map(|a| a.content).collect::<Vec<_>>();
            let md: Vec<String> = interpreted.iter().map(|p| quarry_formats::xmd::to_string(&p.md)).collect();
            let etl: Vec<String> = interpreted.iter().map(|p| quarry_formats::xlm::to_string(&p.etl)).collect();
            assert_eq!(contents(ArtifactKind::MdSchema), md, "{key}");
            assert_eq!(contents(ArtifactKind::EtlFlow), etl, "{key}");
        }
        let storage = repo.with_store(|s| s.artifact_storage()).unwrap();
        let partials: Vec<_> = storage.iter().filter(|a| a.key.starts_with("partial-")).collect();
        assert_eq!(partials.len(), 4);
        for a in partials {
            assert_eq!((a.versions - a.deltas, a.cross_key), (0, 1), "{a:?}");
        }
    }

    #[test]
    fn failed_change_rollback_is_durable_across_restart() {
        let tmp = TempDir::new("rollback");
        let (md_after_rollback, bytes_after_rollback);
        {
            let mut q = durable_tpch(&tmp.0);
            q.add_requirement(figure4_requirement()).unwrap();
            let mut broken = figure4_requirement();
            broken.measures[0].function = "Ghost_xATRIBUT".into();
            assert!(matches!(q.change_requirement(broken), Err(QuarryError::Interpret(_))));
            md_after_rollback = q.repository().latest(ArtifactKind::MdSchema, "unified").unwrap();
            bytes_after_rollback = q.repository().with_store(quarry_repository::snapshot::snapshot_bytes);
        }
        let (recovered, report) = quarry_repository::recover(&tmp.0).unwrap();
        assert_eq!(quarry_repository::snapshot::snapshot_bytes(&recovered), bytes_after_rollback);
        assert!(report.markers.iter().any(|m| m == "rollback:IR1"), "{:?}", report.markers);
        // The restored design survives the restart and still accepts work.
        let mut q2 = durable_tpch(&tmp.0);
        assert_eq!(q2.repository().latest(ArtifactKind::MdSchema, "unified").unwrap(), md_after_rollback);
        q2.add_requirement(netprofit_requirement()).unwrap();
        assert!(q2.repository().latest(ArtifactKind::Requirement, "IR2").is_ok());
    }

    #[test]
    fn optimize_keeps_the_design_sound_and_the_warehouse_identical() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
        let before_flow = q.unified().1.clone();
        let catalog = quarry_engine::tpch::generate(0.002, 42);
        let (baseline, _) = q.run_etl(catalog.clone()).unwrap();

        let report = q.optimize().unwrap();
        assert!(report.before_cost > 0.0 && report.after_cost <= report.before_cost);
        if report.applied {
            assert_ne!(*q.unified().1, before_flow);
        } else {
            assert_eq!(*q.unified().1, before_flow);
        }
        q.unified().1.validate().unwrap();

        // Whatever the optimizer did, the warehouse is bit-identical.
        let (optimized, _) = q.run_etl(catalog).unwrap();
        for table in ["fact_table_revenue", "fact_table_netprofit", "dim_part", "dim_supplier"] {
            assert_eq!(
                format!("{}", baseline.catalog.get(table).unwrap()),
                format!("{}", optimized.catalog.get(table).unwrap()),
                "{table} must be unchanged by optimization"
            );
        }
        // A later integration step still works (on the handed-over index).
        q.remove_requirement("IR2").unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
    }

    /// The benchmark's change (dimensions reversed, slicer dropped) and a
    /// removal after an applied `optimize` run on the index the commit
    /// handed over, and give the designs and cost bits of the same steps
    /// after a rebuild.
    #[test]
    fn an_optimizer_commit_hands_its_index_to_the_next_change() {
        let family = quarry_bench::requirement_family(8);
        let designed = || {
            let mut q = Quarry::tpch();
            for r in &family {
                q.add_requirement(r.clone()).unwrap();
            }
            q
        };
        let mut handed = designed();
        let epoch = handed.consolidation.flow_epoch();
        assert!(handed.optimize().unwrap().applied, "the low-overlap design optimizes");
        assert_eq!(handed.consolidation.flow_epoch(), epoch + 1, "a commit moves the epoch once");
        assert!(handed.consolidation.etl_index_ready(), "the commit keeps an index");
        handed.consolidation.audit_etl_index(&handed.unified_etl).unwrap();
        let facts = handed.consolidation.etl_facts().unwrap();
        facts.audit(&handed.unified_etl, handed.config.etl_cost.as_ref(), &handed.config.stats).unwrap();

        // The same committed design, with the index dropped as a rollback
        // drops it.
        let mut rebuilt = designed();
        rebuilt.unified_etl = handed.unified_etl.clone();
        rebuilt.config.stats = handed.config.stats.clone();
        rebuilt.consolidation.invalidate();

        let mut changed = family[2].clone();
        changed.dimensions.reverse();
        changed.slicers.clear();
        let removed = family[5].id.clone();
        // After each step: the update's cost bits and report, and the
        // unified designs' bytes.
        let after = |q: &Quarry, u: DesignUpdate| {
            let costs = (u.md_cost.to_bits(), u.etl_cost.to_bits(), u.etl_report.as_ref().map(|r| r.cost.to_bits()));
            let designs =
                (quarry_formats::xmd::to_string(&q.unified_md), quarry_formats::xlm::to_string(&q.unified_etl));
            (costs, u.etl_report, designs)
        };
        let rebuilds = handed.consolidation_stats().etl_index_rebuilds;
        let mut steps = Vec::new();
        for q in [&mut handed, &mut rebuilt] {
            let change = q.change_requirement(changed.clone()).unwrap();
            let change = after(q, change);
            let removal = q.remove_requirement(&removed).unwrap();
            steps.push([change, after(q, removal)]);
        }
        assert_eq!(steps[0], steps[1], "the handed-over index changes nothing a step reports or writes");
        assert_eq!(handed.consolidation_stats().etl_index_rebuilds, rebuilds, "the change reuses the handed index");
        assert_eq!(rebuilt.consolidation_stats().etl_index_rebuilds, rebuilds + 1);
        handed.consolidation.audit_etl_index(&handed.unified_etl).unwrap();
    }

    #[test]
    fn observe_run_feeds_the_source_statistics() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let (_, report) = q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        let gen_before = q.config().stats.generation();
        q.observe_run(&report);
        assert!(q.config().stats.generation() > gen_before, "observations must invalidate cached cardinalities");
        assert!(
            report.timings.iter().any(|t| q.config().stats.observed_op(&t.op).is_some()),
            "at least one timed operation must be recorded"
        );
        // The optimizer runs fine with observed statistics in place.
        let opt = q.optimize().unwrap();
        assert!(opt.after_cost <= opt.before_cost);
    }

    #[test]
    fn observe_run_routes_through_canonical_fingerprints() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let (_, report) = q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        // Rewrite the slicer under the same op name: France instead of Spain.
        // The selection keeps its name but its predicate — and therefore its
        // canonical fingerprint — changes.
        let mut v2 = figure4_requirement();
        v2.slicers[0].value = "France".into();
        q.change_requirement(v2).unwrap();
        let sel = q
            .unified()
            .1
            .ops()
            .find(|o| o.name.contains("SELECTION") && o.name.contains("n_name"))
            .expect("the slicer selection survives the change")
            .name
            .clone();
        assert!(report.timings.iter().any(|t| t.op == sel), "the old run timed the selection");

        q.observe_run(&report);
        assert!(
            q.config().stats.observed_op(&sel).is_none() && q.config().stats.observed_selectivity(&sel).is_none(),
            "a stale observation must not fold into the rewritten `{sel}`"
        );
        assert!(
            report.timings.iter().any(|t| q.config().stats.observed_op(&t.op).is_some()),
            "untouched operations still fold"
        );
    }

    #[test]
    fn observe_run_after_an_optimizer_commit_skips_rewritten_ops() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.add_requirement(netprofit_requirement()).unwrap();
        let (_, report) = q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        let fingerprints_before: std::collections::HashMap<String, u64> =
            q.unified().1.ops().map(|o| (o.name.clone(), op_fingerprint(&o.kind))).collect();
        let opt = q.optimize().unwrap();
        q.observe_run(&report);
        for t in &report.timings {
            let Some(op) = q.unified().1.op_by_name(&t.op) else { continue };
            if fingerprints_before.get(&t.op) != Some(&op_fingerprint(&op.kind)) {
                assert!(opt.applied, "an op only changes under a commit");
                assert!(
                    q.config().stats.observed_op(&t.op).is_none()
                        && q.config().stats.observed_selectivity(&t.op).is_none(),
                    "`{}` was rewritten by the commit; its stale observation must be dropped",
                    t.op
                );
            }
        }
        // The run itself still contributed: at least one surviving op folded.
        assert!(report.timings.iter().any(|t| q.config().stats.observed_op(&t.op).is_some()));
    }

    #[test]
    fn observe_run_routes_a_second_run_at_the_same_epoch_like_the_first() {
        let catalog = quarry_engine::tpch::generate(0.002, 42);
        let mut v2 = figure4_requirement();
        v2.slicers[0].value = "France".into();
        // Runs `runs` times at one epoch, rewrites the slicer, then observes
        // the last run: what folded, per timed op. Uncached, so every run
        // times every op.
        let folded = |runs: usize| {
            let mut q = Quarry::tpch();
            q.config.cache.enabled = false;
            q.add_requirement(figure4_requirement()).unwrap();
            let epoch = q.consolidation.flow_epoch();
            let reports: Vec<RunReport> = (0..runs).map(|_| q.run_etl(catalog.clone()).unwrap().1).collect();
            assert_eq!(q.consolidation.flow_epoch(), epoch, "running moves no epoch");
            q.change_requirement(v2.clone()).unwrap();
            let last = reports.last().unwrap();
            q.observe_run(last);
            let stats = &q.config().stats;
            let seen: Vec<_> = last
                .timings
                .iter()
                .map(|t| (t.op.clone(), stats.observed_op(&t.op), stats.observed_selectivity(&t.op)))
                .collect();
            (q, seen)
        };
        let (_, first) = folded(1);
        let (mut q, second) = folded(2);
        assert_eq!(first, second);
        let skipped = second.iter().filter(|(_, rows, sel)| rows.is_none() && sel.is_none()).count();
        assert!(skipped > 0, "the rewritten slicer's observation is dropped");
        // After the change the epoch moved: the next run routes against the
        // rewritten flow, so its slicer observation folds.
        let (_, report) = q.run_etl(catalog).unwrap();
        q.observe_run(&report);
        let stats = &q.config().stats;
        assert!(report
            .timings
            .iter()
            .all(|t| stats.observed_op(&t.op).is_some() || stats.observed_selectivity(&t.op).is_some()));
    }

    /// The unified flow compiles once per flow epoch: warm runs and a source
    /// bump execute the cold run's plan, every write to the flow a new one.
    #[test]
    fn one_plan_per_flow_epoch() {
        let catalog = quarry_engine::tpch::generate(0.002, 42);
        let plan = |q: &mut Quarry| {
            q.run_etl(catalog.clone()).unwrap();
            Arc::clone(&q.run_plan.lock().unwrap().as_ref().expect("a successful run keeps its plan").1)
        };
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let cold = plan(&mut q);
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&cold, &plan(&mut q)), "a warm run compiles nothing");
        }
        q.bump_source_epoch("lineitem");
        assert!(Arc::ptr_eq(&cold, &plan(&mut q)), "a source epoch re-keys the cache, not the plan");

        q.add_requirement(netprofit_requirement()).unwrap();
        let added = plan(&mut q);
        assert!(!Arc::ptr_eq(&cold, &added), "an add compiles a new plan");
        let mut v2 = figure4_requirement();
        v2.slicers[0].value = "France".into();
        q.change_requirement(v2).unwrap();
        let changed = plan(&mut q);
        assert!(!Arc::ptr_eq(&added, &changed), "a change compiles a new plan");
        assert!(q.optimize().unwrap().applied, "the two-requirement design has a better plan");
        let optimized = plan(&mut q);
        assert!(!Arc::ptr_eq(&changed, &optimized), "an applied optimize compiles a new plan");

        // Observations move the statistics generation: the next run
        // compiles under them, the run after it reuses that plan.
        let (_, report) = q.run_etl(catalog.clone()).unwrap();
        q.observe_run(&report);
        let observed = plan(&mut q);
        assert!(!Arc::ptr_eq(&optimized, &observed), "a run after an observation compiles a new plan");
        assert!(Arc::ptr_eq(&observed, &plan(&mut q)), "the run after it reuses that plan");
        let stored = q.repository().latest(ArtifactKind::Profile, "unified").unwrap();
        let profile = ExecutionProfile::from_json(&Json::parse(&stored.content).unwrap()).unwrap();
        let stats = &q.config().stats;
        let pinned: Vec<_> = profile
            .ops
            .iter()
            .filter_map(|op| Some((op, stats.observed_op(&op.name)?)))
            .filter(|(op, _)| stats.observed_selectivity(&op.name).is_none())
            .collect();
        assert!(!pinned.is_empty());
        for (op, rows) in pinned {
            assert_eq!(op.estimated_rows, rows, "`{}` estimates what the engine observed", op.name);
        }
    }

    #[test]
    fn repeated_runs_hit_the_result_cache_with_identical_output() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let catalog = quarry_engine::tpch::generate(0.002, 42);
        let (cold, _) = q.run_etl(catalog.clone()).unwrap();
        let stats = q.cache_stats();
        assert!(stats.enabled && stats.inserts > 0, "the cold run must populate the cache: {stats:?}");
        let (warm, _) = q.run_etl(catalog.clone()).unwrap();
        assert!(q.cache_stats().hits > stats.hits, "the warm run must hit");
        assert_eq!(
            cold.catalog.get("fact_table_revenue").unwrap(),
            warm.catalog.get("fact_table_revenue").unwrap(),
            "cache-served output is bit-identical"
        );
        // An explicit source-epoch bump re-keys every subflow reading that
        // source: bumping all of them leaves nothing stale to hit.
        let hits_before = q.cache_stats().hits;
        let sources: Vec<String> = q
            .unified()
            .1
            .ops()
            .filter_map(|o| match &o.kind {
                quarry_etl::OpKind::Datastore { datastore, .. } => Some(datastore.clone()),
                _ => None,
            })
            .collect();
        for s in &sources {
            q.bump_source_epoch(s);
        }
        let (bumped, _) = q.run_etl(catalog).unwrap();
        assert_eq!(q.cache_stats().hits, hits_before, "bumped source epochs must miss");
        assert_eq!(cold.catalog.get("fact_table_revenue").unwrap(), bumped.catalog.get("fact_table_revenue").unwrap());
    }

    #[test]
    fn integration_steps_invalidate_the_result_cache_via_the_flow_epoch() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let catalog = quarry_engine::tpch::generate(0.002, 42);
        q.run_etl(catalog.clone()).unwrap();
        let hits_before = q.cache_stats().hits;
        // Integrating a second requirement bumps the flow epoch: the next
        // run's fingerprints are all re-keyed, so nothing stale can hit.
        q.add_requirement(netprofit_requirement()).unwrap();
        q.run_etl(catalog).unwrap();
        assert_eq!(q.cache_stats().hits, hits_before, "post-commit run must not reuse pre-commit entries");
    }

    #[test]
    fn durable_restart_fast_forwards_the_cache_epoch() {
        let tmp = TempDir::new("cache-epoch");
        let epoch_before;
        {
            let mut q = durable_tpch(&tmp.0);
            q.add_requirement(figure4_requirement()).unwrap();
            q.add_requirement(netprofit_requirement()).unwrap();
            epoch_before = q.consolidation.flow_epoch();
            assert!(epoch_before >= 2, "each integration step advances the epoch");
        }
        let q = durable_tpch(&tmp.0);
        assert!(
            q.consolidation.flow_epoch() >= epoch_before,
            "recovery must fast-forward past every persisted commit ({} < {epoch_before})",
            q.consolidation.flow_epoch()
        );
    }

    /// The epoch is store state, so it survives a compaction dropping the
    /// log segments written so far (a WAL marker did not).
    #[test]
    fn the_flow_epoch_survives_a_compaction() {
        let tmp = TempDir::new("cache-epoch-compacted");
        let epoch_before;
        {
            let mut q = durable_tpch(&tmp.0);
            q.add_requirement(figure4_requirement()).unwrap();
            q.add_requirement(netprofit_requirement()).unwrap();
            epoch_before = q.consolidation.flow_epoch();
            assert!(epoch_before >= 2);
            // 5 MB of other writes push the log past the compaction threshold.
            for i in 0..5 {
                let filler: String =
                    (0..16_384).map(|line| format!("-- filler {i}/{line} {}\n", "x".repeat(48))).collect();
                q.repository().put_artifact(ArtifactKind::Deployment, &format!("filler/{i}"), &filler).unwrap();
            }
        }
        let q = durable_tpch(&tmp.0);
        let report = q.repository().recovery_report().unwrap();
        assert!(report.snapshot_seq.is_some(), "the filler must have compacted the log: {report:?}");
        assert!(!report.markers.iter().any(|m| m.contains("IR1")), "the first steps' segment is gone: {report:?}");
        assert!(
            q.consolidation.flow_epoch() >= epoch_before,
            "recovery must fast-forward past every persisted commit ({} < {epoch_before})",
            q.consolidation.flow_epoch()
        );
    }

    /// A TPC-H instance whose searches get a budget none reaches, so a
    /// committed flow does not depend on the clock.
    fn unhurried_tpch() -> Quarry {
        let domain = quarry_ontology::tpch::domain();
        let mut cfg = QuarryConfig::tpch(0.01);
        cfg.optimizer.budget_ms = 60_000;
        Quarry::with_config(domain.ontology, domain.sources, cfg)
    }

    /// Adds `req` the way an external design tool would: its partial design,
    /// not the requirement.
    fn add_as_external(q: &mut Quarry, req: &Requirement) -> Result<DesignUpdate, QuarryError> {
        let partial = q.interpret(req).unwrap();
        q.add_partial_design(&req.id, partial.md, partial.etl)
    }

    fn unified_documents(q: &Quarry) -> (String, String) {
        (quarry_formats::xmd::to_string(q.unified().0), quarry_formats::xlm::to_string(q.unified().1))
    }

    fn counter(q: &Quarry, name: &str) -> u64 {
        q.observability().metrics().iter().find(|(n, _)| n == name).and_then(|(_, m)| m.as_counter()).unwrap_or(0)
    }

    #[test]
    fn external_partials_consolidate_like_interpreted_requirements() {
        let (mut interpreted, mut external) = (Quarry::tpch(), Quarry::tpch());
        external.set_observability(true);
        for req in [figure4_requirement(), netprofit_requirement()] {
            interpreted.add_requirement(req.clone()).unwrap();
            add_as_external(&mut external, &req).unwrap();
        }
        assert_eq!(unified_documents(&external), unified_documents(&interpreted));
        assert_eq!(external.requirement_ids(), ["IR1", "IR2"]);
        let trace = external.trace();
        let step = trace.find("add_partial_design").expect("the step is traced");
        assert!(step.find("md_integrate").is_some() && step.find("etl_integrate").is_some(), "{}", trace.render());
        let metrics = external.observability().metrics();
        for name in ["integrator.md_integrate_seconds", "integrator.etl_integrate_seconds"] {
            let observed = metrics.iter().find(|(n, _)| n == name).and_then(|(_, m)| m.as_histogram());
            assert_eq!(observed.map(|h| h.count), Some(2), "{name}");
        }
    }

    #[test]
    fn external_partials_run_the_enabled_optimizer() {
        let (mut interpreted, mut external) = (unhurried_tpch(), unhurried_tpch());
        external.set_observability(true);
        for req in [figure4_requirement(), netprofit_requirement()] {
            interpreted.add_requirement(req.clone()).unwrap();
            interpreted.optimize().unwrap();
            add_as_external(&mut external, &req).unwrap();
            external.optimize().unwrap();
        }
        assert_eq!(counter(&external, "integrator.optimizer.runs"), 2, "one search per optimize");
        assert_eq!(unified_documents(&external), unified_documents(&interpreted));
    }

    #[test]
    fn an_unsound_external_partial_leaves_the_design_untouched() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let before = unified_documents(&q);
        let mut partial = q.interpret(&netprofit_requirement()).unwrap();
        let source = partial.etl.ops().find(|op| op.kind.is_source()).expect("a source").id;
        let ghost = quarry_etl::parse_expr("ghost_column > 1").unwrap();
        let sel = partial.etl.append(source, "SEL_ghost", quarry_etl::OpKind::Selection { predicate: ghost }).unwrap();
        partial
            .etl
            .append(sel, "LOAD_ghost", quarry_etl::OpKind::Loader { table: "ghost".into(), key: vec![] })
            .unwrap();
        let result = q.add_partial_design("IR2", partial.md, partial.etl);
        assert!(matches!(result, Err(QuarryError::Integrate(_))), "{result:?}");
        assert_eq!(unified_documents(&q), before);
        assert_eq!(q.requirement_ids(), ["IR1"]);
        assert!(q.repository().latest(ArtifactKind::EtlFlow, "partial-IR2").is_err(), "nothing of it is stored");
    }

    /// The default cost models, counting whole-design costings.
    struct CountedMd(quarry_md::StructuralComplexity, Arc<AtomicUsize>);

    impl quarry_md::CostModel for CountedMd {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn cost(&self, schema: &MdSchema) -> f64 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.cost(schema)
        }
        fn decompose(&self) -> Option<&dyn quarry_md::AdditiveCostModel> {
            self.0.decompose()
        }
    }

    struct CountedEtl(EstimatedTime, Arc<AtomicUsize>);

    impl quarry_etl::cost::EtlCostModel for CountedEtl {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn cost(&self, flow: &Flow, stats: &SourceStats) -> Result<f64, FlowError> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.cost(flow, stats)
        }
        fn decompose(&self, flow: &Flow, stats: &SourceStats) -> Result<Option<Vec<OpCostPart>>, FlowError> {
            self.0.decompose(flow, stats)
        }
        fn op_part(
            &self,
            kind: &quarry_etl::OpKind,
            input_rows: &[f64],
            out_rows: f64,
            out_cols: usize,
        ) -> Option<f64> {
            self.0.op_part(kind, input_rows, out_rows, out_cols)
        }
    }

    #[test]
    fn before_costs_are_computed_only_while_observability_records_them() {
        let costings_of_two_adds = |observed: bool| {
            let (md, etl) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
            let domain = quarry_ontology::tpch::domain();
            let mut cfg = QuarryConfig::tpch(0.01);
            cfg.md_cost = Box::new(CountedMd(quarry_md::StructuralComplexity::new(), Arc::clone(&md)));
            cfg.etl_cost = Box::new(CountedEtl(EstimatedTime::new(), Arc::clone(&etl)));
            let mut q = Quarry::with_config(domain.ontology, domain.sources, cfg);
            q.set_observability(observed);
            q.add_requirement(figure4_requirement()).unwrap();
            q.add_requirement(netprofit_requirement()).unwrap();
            (md.load(Ordering::Relaxed), etl.load(Ordering::Relaxed))
        };
        let (md_off, etl_off) = costings_of_two_adds(false);
        let (md_on, etl_on) = costings_of_two_adds(true);
        // The "before" cost of the whole unified design feeds only the
        // `cost_before`/`cost_delta` span attributes, and only when a
        // recorder is listening: one extra MD costing per add. The ETL side
        // reads the facts kept beside the consolidation index, so only the
        // first add, which has no index yet, prices the flow from scratch.
        assert_eq!(md_on - md_off, 2, "md costings: {md_off} off, {md_on} on");
        assert_eq!(etl_on - etl_off, 1, "etl costings: {etl_off} off, {etl_on} on");
    }

    /// The integrator reports the cost the optimizer minimises: one model,
    /// one weight table, the same bits.
    #[test]
    fn an_add_reports_the_cost_the_optimizer_starts_from() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let update = q.add_requirement(netprofit_requirement()).unwrap();
        let scratch = EstimatedTime::new().cost(q.unified().1, &q.config().stats).unwrap();
        let report = q.optimize().unwrap();
        assert_eq!(update.etl_cost.to_bits(), report.before_cost.to_bits());
        assert_eq!(update.etl_cost.to_bits(), scratch.to_bits());
    }

    #[test]
    fn execution_profiles_version_in_the_repository_and_round_trip() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        let first = q.repository().latest(ArtifactKind::Profile, "unified").unwrap();
        assert_eq!(first.version, 1);
        q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        let second = q.repository().latest(ArtifactKind::Profile, "unified").unwrap();
        assert_eq!(second.version, 2, "every execution versions a new profile");
        // The stored document parses back and re-serializes bit-identically.
        let json = quarry_repository::Json::parse(&second.content).unwrap();
        let profile = ExecutionProfile::from_json(&json).expect("stored profile parses");
        assert_eq!(profile.to_json().to_pretty_string(), second.content, "round-trip is bit-identical");
        // Estimated and actual cardinalities both survive, and the render
        // annotates the plan tree with them.
        assert!(profile.ops.iter().any(|op| op.estimated_rows > 0.0), "estimates present");
        assert!(profile.ops.iter().any(|op| op.rows_out > 0), "actuals present");
        let rendered = profile.render();
        assert!(rendered.contains("est "), "{rendered}");
        assert!(rendered.contains("LOADER_fact_table_revenue"), "{rendered}");
    }

    #[test]
    fn execution_profiles_survive_a_durable_restart_bit_identically() {
        let tmp = TempDir::new("profile");
        let stored;
        {
            let mut q = durable_tpch(&tmp.0);
            q.add_requirement(figure4_requirement()).unwrap();
            q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
            stored = q.repository().latest(ArtifactKind::Profile, "unified").unwrap();
        }
        let q2 = durable_tpch(&tmp.0);
        let recovered = q2.repository().latest(ArtifactKind::Profile, "unified").unwrap();
        assert_eq!(recovered, stored, "the profile recovers bit-identically from the log");
        let json = quarry_repository::Json::parse(&recovered.content).unwrap();
        assert!(ExecutionProfile::from_json(&json).is_some());
    }

    /// The search tests' three-table join spine, plus real data that
    /// contradicts stale statistics: the supplier table is claimed enormous
    /// but actually tiny, with a Spain filter keeping almost nothing.
    fn skewed_spine_flow() -> Flow {
        use quarry_etl::{parse_expr, ColType, Column, JoinKind, OpKind, Schema};
        let mut f = Flow::new("unified");
        let ps = f
            .add_op(
                "DS_partsupp",
                OpKind::Datastore {
                    datastore: "partsupp".into(),
                    schema: Schema::new(vec![
                        Column::new("ps_partkey", ColType::Integer),
                        Column::new("ps_suppkey", ColType::Integer),
                        Column::new("ps_supplycost", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let pt = f
            .add_op(
                "DS_part",
                OpKind::Datastore {
                    datastore: "part".into(),
                    schema: Schema::new(vec![
                        Column::new("p_partkey", ColType::Integer),
                        Column::new("p_name", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let sp = f
            .add_op(
                "DS_supplier",
                OpKind::Datastore {
                    datastore: "supplier".into(),
                    schema: Schema::new(vec![
                        Column::new("s_suppkey", ColType::Integer),
                        Column::new("s_nation", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let j1 = f
            .add_op(
                "JOIN_part",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["ps_partkey".into()],
                    right_on: vec!["p_partkey".into()],
                },
            )
            .unwrap();
        f.connect(ps, j1).unwrap();
        f.connect(pt, j1).unwrap();
        let sel = f
            .append(sp, "SEL_spain", OpKind::Selection { predicate: parse_expr("s_nation = 'Spain'").unwrap() })
            .unwrap();
        let j2 = f
            .add_op(
                "JOIN_supp",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["ps_suppkey".into()],
                    right_on: vec!["s_suppkey".into()],
                },
            )
            .unwrap();
        f.connect(j1, j2).unwrap();
        f.connect(sel, j2).unwrap();
        let agg = f
            .append(
                j2,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["p_name".into()],
                    aggregates: vec![quarry_etl::AggSpec::new(
                        "SUM",
                        quarry_etl::parse_expr("ps_supplycost").unwrap(),
                        "total",
                    )],
                },
            )
            .unwrap();
        f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f.validate().unwrap();
        f
    }

    fn skewed_spine_catalog() -> Catalog {
        use quarry_engine::{Relation, Value};
        use quarry_etl::{ColType, Column, Schema};
        let mut catalog = Catalog::new();
        let partsupp_schema = Schema::new(vec![
            Column::new("ps_partkey", ColType::Integer),
            Column::new("ps_suppkey", ColType::Integer),
            Column::new("ps_supplycost", ColType::Decimal),
        ]);
        let partsupp_rows = (0..8_000)
            .map(|i| vec![Value::Int(i % 2_000), Value::Int(i % 100), Value::Float((i % 97) as f64)])
            .collect();
        catalog.put("partsupp", Relation::with_rows(partsupp_schema, partsupp_rows));
        let part_schema =
            Schema::new(vec![Column::new("p_partkey", ColType::Integer), Column::new("p_name", ColType::Text)]);
        let part_rows = (0..2_000).map(|i| vec![Value::Int(i), Value::Str(format!("part {i}"))]).collect();
        catalog.put("part", Relation::with_rows(part_schema, part_rows));
        let supplier_schema =
            Schema::new(vec![Column::new("s_suppkey", ColType::Integer), Column::new("s_nation", ColType::Text)]);
        let supplier_rows = (0..100)
            .map(|i| vec![Value::Int(i), Value::Str(if i < 2 { "Spain".into() } else { format!("nation {i}") })])
            .collect();
        catalog.put("supplier", Relation::with_rows(supplier_schema, supplier_rows));
        catalog
    }

    #[test]
    fn skewed_source_shows_in_the_stored_profile_and_the_correction_changes_the_chosen_plan() {
        let domain = quarry_ontology::tpch::domain();
        let mut cfg = QuarryConfig::tpch(0.01);
        // Stale statistics: the supplier table is claimed enormous, so the
        // modeled-optimal plan keeps the selective branch out of the spine.
        cfg.stats = quarry_etl::cost::SourceStats::new()
            .with_table("partsupp", 8_000.0)
            .with_table("part", 2_000.0)
            .with_table("supplier", 500_000.0)
            .with_unique("part", &["p_partkey"])
            .with_unique("supplier", &["s_suppkey"]);
        let mut q = Quarry::with_config(domain.ontology, domain.sources, cfg);
        q.unified_etl = skewed_spine_flow();
        q.consolidation.invalidate();
        q.optimize().unwrap();
        let plan_stale = q.unified().1.clone();
        let supplier = |q: &Quarry| {
            let stored = q.repository().latest(ArtifactKind::Profile, "unified").unwrap();
            let profile = ExecutionProfile::from_json(&Json::parse(&stored.content).unwrap()).unwrap();
            let op = profile.ops.iter().find(|o| o.name == "DS_supplier").cloned().expect("DS_supplier profiled");
            (op, profile.render())
        };

        // Three runs over the real (skewed) data; nothing is observed back
        // yet, so every run estimates with the stale statistics and its
        // stored profile records the misestimate.
        let mut last_report = None;
        for _ in 0..3 {
            let (_, report) = q.run_etl(skewed_spine_catalog()).unwrap();
            last_report = Some(report);
        }
        let (op, rendered) = supplier(&q);
        assert!(op.ratio() < 0.5, "a 5000x supplier overestimate is on record: ratio {}", op.ratio());
        let line = rendered.lines().find(|l| l.contains("DS_supplier [")).expect("DS_supplier rendered");
        assert!(line.contains("misestimated"), "render marks the misestimate: {line}");

        // Feed the correction back: the optimizer re-searches with observed
        // cardinalities and commits to a different plan.
        q.observe_run(&last_report.unwrap());
        q.optimize().unwrap();
        assert_ne!(plan_stale, *q.unified().1, "corrected statistics must change the chosen plan");

        // The next run estimates with what the engine observed.
        q.run_etl(skewed_spine_catalog()).unwrap();
        let (op, _) = supplier(&q);
        assert!((0.5..=2.0).contains(&op.ratio()), "the corrected estimate is on record: ratio {}", op.ratio());
    }

    #[test]
    fn fact_fk_values_match_dimension_keys() {
        let mut q = Quarry::tpch();
        q.add_requirement(figure4_requirement()).unwrap();
        let (engine, _) = q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();
        let fact = engine.catalog.get("fact_table_revenue").unwrap();
        let dim = engine.catalog.get("dim_part").unwrap();
        let dim_keys: std::collections::HashSet<_> = dim.column_values("PartID").into_iter().collect();
        for fk in fact.column_values("Part_PartID") {
            assert!(dim_keys.contains(&fk), "fact FK {fk} must exist in dim_part");
        }
    }
}
