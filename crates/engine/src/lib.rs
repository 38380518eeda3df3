//! An in-memory relational execution engine for Quarry's logical ETL flows,
//! plus the TPC-H-shaped data generator behind the paper's running example.
//!
//! The original demo deploys generated designs onto PostgreSQL (storage) and
//! Pentaho PDI (ETL execution) and shows "reduced overall execution time for
//! integrated ETL processes, executed in Pentaho PDI" (§3). Neither system
//! is assumed here; instead this crate *is* the execution platform: it runs
//! xLM flows directly over in-memory relations, which is what makes the
//! execution-time quality factor measurable end-to-end (experiment E7).
//!
//! Components:
//!
//! - [`Value`], [`Relation`], [`column`](mod@column) — the runtime data model: relations
//!   hold `Arc`-shared typed columns (dictionary-encoded strings, validity
//!   bitmaps), with a row-view shim for row-oriented consumers;
//! - [`eval_compiled`] — the one scalar evaluator for the `quarry-etl`
//!   expression language, over pre-compiled expressions (column names bound
//!   to positions once per operator); the vectorized kernels fall back to it;
//! - [`PhysicalPlan`] — a flow compiled once: checked, put in position
//!   order, and annotated with what every run of it shares (input positions,
//!   output schemas, loader distinctness, signature hashes for cache keys,
//!   modeled cone costs);
//! - [`Engine`], [`Catalog`] — the morsel-parallel columnar executor
//!   (vectorized expression kernels, hash joins and two-phase hash
//!   aggregation over fixed-width encoded keys, surrogate-key assignment,
//!   loaders) with per-operation timing in its [`RunReport`]; its single
//!   scheduler ([`Engine::execute`]) starts each operator when its inputs
//!   have finished, and [`Engine::run`] is compile, then execute;
//! - [`RowEngine`] — the retired row-at-a-time executor, kept as the
//!   reference the equivalence suites and benchmarks compare against;
//! - [`pool`] — the shared scoped-thread worker pool both parallelism
//!   layers (inter-operator and intra-operator) draw from;
//! - [`tpch`] — a deterministic, scale-factor-parameterized generator for
//!   the eight TPC-H tables.

#![forbid(unsafe_code)]

pub mod cache;
mod catalog;
pub mod column;
mod eval;
pub mod events;
mod exec;
mod exec_row;
mod keys;
mod plan;
pub mod pool;
mod relation;
mod schedule;
pub mod stats;
pub mod tpch;
mod value;
mod vector;

pub use cache::{CacheStats, ResultCache};
pub use catalog::Catalog;
pub use eval::{eval_compiled, truthy, EvalError};
pub use exec::{surrogate_of, EngineError, MAX_RADIX_PARTITIONS, MORSEL_ROWS};
pub use exec_row::RowEngine;
pub use plan::{FusedGroup, PhysicalPlan, PlanNode};
pub use relation::{assert_same_rows, Relation, RelationBuilder, Row};
pub use schedule::{Engine, OpTiming, RunReport};
pub use value::Value;
