//! Lifecycle configuration: the user-specified quality factors (paper §1:
//! "Quarry accounts for user-specified quality factors") and integration
//! options.

use quarry_etl::cost::{EstimatedTime, EtlCostModel, SourceStats};
use quarry_integrator::etl::EtlIntegrationOptions;
use quarry_md::{CostModel, StructuralComplexity};
use quarry_repository::FsyncPolicy;
use std::path::PathBuf;

/// Configuration of a [`crate::Quarry`] instance.
pub struct QuarryConfig {
    /// Quality factor for MD schema integration (default: structural design
    /// complexity, the paper's demonstrated factor).
    pub md_cost: Box<dyn CostModel + Send + Sync>,
    /// Quality factor for ETL integration (default: estimated overall
    /// execution time).
    pub etl_cost: Box<dyn EtlCostModel + Send + Sync>,
    /// Source statistics feeding the ETL cost model.
    pub stats: SourceStats,
    /// ETL consolidation options (equivalence-rule alignment on by default).
    pub etl_options: EtlIntegrationOptions,
    /// Name of the unified design (used in artifact keys and DDL).
    pub design_name: String,
    /// Interpreter options (e.g. derived time dimensions).
    pub interpreter: quarry_interpreter::InterpreterOptions,
    /// Address for the live telemetry endpoint (e.g. `"127.0.0.1:9464"`;
    /// port 0 picks a free port). `None` (the default) means no endpoint;
    /// the service layer starts one from this via
    /// [`crate::service::ServiceRequest::ServeMetrics`].
    pub metrics_addr: Option<String>,
    /// Directory for the durable metadata repository (write-ahead log +
    /// snapshots). `None` (the default) keeps the repository in memory —
    /// metadata vanishes with the process. With a directory set, the
    /// instance recovers all prior lifecycle state on construction and logs
    /// every mutation before applying it.
    pub repository_dir: Option<PathBuf>,
    /// When repository log appends reach disk (only meaningful with
    /// `repository_dir` set). Defaults to batched fsyncs.
    pub fsync: FsyncPolicy,
    /// Cost-based flow optimizer settings (the `optimizer.*` keys).
    pub optimizer: OptimizerConfig,
    /// Cross-run subflow result cache settings (the `cache.*` keys).
    pub cache: CacheConfig,
}

/// The `optimizer.*` configuration keys: the cost-based flow optimizer that
/// searches semantically-equivalent rewrites of the unified ETL flow. It
/// runs when [`crate::Quarry::optimize`] is called, never inside a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// `optimizer.budget_ms` — wall-clock safety valve per optimization.
    pub budget_ms: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { budget_ms: 250 }
    }
}

/// The `cache.*` configuration keys: the cross-run subflow result cache that
/// serves materialized intermediates keyed by recursive operator fingerprint
/// (epoch-invalidated, admitted while they fit, budget-evicted by modeled
/// saving per byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// `cache.enabled` — consult and populate the result cache on every ETL
    /// run. On by default: correctness is guaranteed by fingerprinting (a
    /// stale entry cannot hit), so the only cost of `true` is the admission
    /// bookkeeping.
    pub enabled: bool,
    /// `cache.budget_bytes` — upper bound on resident cached bytes; the
    /// cache evicts cost-weighted-LRU victims past it. Default 256 MiB.
    pub budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { enabled: true, budget_bytes: 256 << 20 }
    }
}

impl Default for QuarryConfig {
    fn default() -> Self {
        QuarryConfig {
            md_cost: Box::new(StructuralComplexity::new()),
            etl_cost: Box::new(EstimatedTime::new()),
            stats: SourceStats::new(),
            etl_options: EtlIntegrationOptions::default(),
            design_name: "unified".to_string(),
            interpreter: quarry_interpreter::InterpreterOptions::default(),
            metrics_addr: None,
            repository_dir: None,
            fsync: FsyncPolicy::Batched,
            optimizer: OptimizerConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

impl QuarryConfig {
    /// TPC-H-flavoured defaults: source statistics matching the generator's
    /// cardinalities at the given scale factor.
    pub fn tpch(scale_factor: f64) -> Self {
        let mut cfg = QuarryConfig::default();
        let (supplier, part, partsupp, customer, orders) = quarry_engine::tpch::row_counts(scale_factor);
        cfg.stats.set_table("region", 5.0);
        cfg.stats.set_table("nation", 25.0);
        cfg.stats.set_table("supplier", supplier as f64);
        cfg.stats.set_table("part", part as f64);
        cfg.stats.set_table("partsupp", partsupp as f64);
        cfg.stats.set_table("customer", customer as f64);
        cfg.stats.set_table("orders", orders as f64);
        cfg.stats.set_table("lineitem", orders as f64 * 4.0);
        // The TPC-H primary keys, declared so the optimizer's join-reorder
        // legality analysis can prove build-side uniqueness.
        cfg.stats.declare_unique("region", vec!["r_regionkey".into()]);
        cfg.stats.declare_unique("nation", vec!["n_nationkey".into()]);
        cfg.stats.declare_unique("supplier", vec!["s_suppkey".into()]);
        cfg.stats.declare_unique("part", vec!["p_partkey".into()]);
        cfg.stats.declare_unique("partsupp", vec!["ps_partkey".into(), "ps_suppkey".into()]);
        cfg.stats.declare_unique("customer", vec!["c_custkey".into()]);
        cfg.stats.declare_unique("orders", vec!["o_orderkey".into()]);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_use_the_paper_quality_factors() {
        let cfg = QuarryConfig::default();
        assert_eq!(cfg.md_cost.name(), "structural-design-complexity");
        assert_eq!(cfg.etl_cost.name(), "estimated-execution-time");
        assert!(cfg.etl_options.align_with_rules);
    }

    #[test]
    fn tpch_stats_scale_with_sf() {
        let small = QuarryConfig::tpch(0.01);
        let large = QuarryConfig::tpch(0.1);
        assert!(small.stats.table_rows("lineitem") < large.stats.table_rows("lineitem"));
        assert_eq!(small.stats.table_rows("nation"), 25.0);
    }

    #[test]
    fn tpch_declares_the_primary_keys() {
        let cfg = QuarryConfig::tpch(0.01);
        assert!(cfg.stats.datastore_unique_on("part", &["p_partkey".into()]));
        assert!(cfg.stats.datastore_unique_on("supplier", &["s_suppkey".into()]));
        assert!(cfg.stats.datastore_unique_on("partsupp", &["ps_partkey".into(), "ps_suppkey".into()]));
        assert!(!cfg.stats.datastore_unique_on("partsupp", &["ps_partkey".into()]));
        assert!(!cfg.stats.datastore_unique_on("lineitem", &["l_orderkey".into()]));
    }

    #[test]
    fn cache_defaults_are_on_and_budgeted() {
        let cfg = QuarryConfig::default();
        assert!(cfg.cache.enabled);
        assert_eq!(cfg.cache.budget_bytes, 256 << 20);
    }

    #[test]
    fn optimizer_defaults_are_off_but_budgeted() {
        let cfg = QuarryConfig::default();
        assert_eq!(cfg.optimizer.budget_ms, 250);
    }
}
