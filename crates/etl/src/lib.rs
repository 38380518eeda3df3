//! The logical ETL process model of Quarry (the xLM layer \[12\]).
//!
//! An ETL process is a DAG of logical operations — datastores, extractions,
//! selections, projections, joins, aggregations, surrogate-key generation,
//! loaders — exchanged between components as xLM documents and deployed onto
//! execution platforms (Pentaho PDI in the paper; this workspace's
//! `quarry-engine` runs them natively).
//!
//! The crate provides:
//!
//! - the flow graph ([`Flow`], [`Operation`], [`OpKind`]) with requirement
//!   traceability on every operation;
//! - typed schema propagation ([`Flow::validate`]) — every edge carries a
//!   well-defined relational schema or the flow is rejected;
//! - the expression language shared by predicates, derivations and measures
//!   ([`Expr`], [`parse_expr`]);
//! - the **generic equivalence rules** (§2.3) that let the ETL Process
//!   Integrator align operation order when hunting for overlap ([`rules`]);
//! - **configurable cost models** (§2.3) estimating e.g. overall execution
//!   time from propagated cardinalities ([`cost`]).

#![forbid(unsafe_code)]

mod compiled;
pub mod cost;
mod expr;
pub mod facts;
mod flow;
mod ops;
pub mod rewrite;
pub mod rules;
mod schema;

pub use compiled::{CompiledExpr, UnboundColumn};
pub use expr::{parse_expr, BinOp, Expr, ExprError, UnOp};
pub use flow::{Flow, FlowError, Journal, OpId, Operation, ReqSet};
pub use ops::{join_kept_right_indices, AggFn, AggSpec, JoinKind, OpKind};
pub use schema::{ColType, Column, Schema};
