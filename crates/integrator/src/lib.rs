//! The Design Integrator (paper §2.3): incremental consolidation of partial
//! MD schema and ETL process designs into unified design solutions that
//! satisfy every requirement met so far.
//!
//! Two modules mirror the paper's two sub-components:
//!
//! - [`md`] — the **MD Schema Integrator**: four stages (matching facts,
//!   matching dimensions, complementing the design, integration), exploring
//!   design alternatives and picking the one minimizing a pluggable cost
//!   model (structural design complexity by default);
//! - [`etl`] — the **ETL Process Integrator**: finds the largest overlap of
//!   data and operations between the unified flow and each new partial flow,
//!   aligning operation order with the generic equivalence rules, and
//!   consolidates with maximal reuse under a configurable ETL cost model.
//!
//! [`state`] adds the incremental flavor: a [`state::ConsolidationState`]
//! owned by the lifecycle keeps the unified flow permanently canonical and
//! matches against a maintained hash index, so per-step work stays
//! proportional to the partial design instead of the whole unified one —
//! with bit-identical results.
//!
//! [`optimize`] (with the search in [`anneal`]) is the cost-based flow
//! optimizer: a deterministic descent over semantically-equivalent rewrites
//! of the unified flow ([`quarry_etl::rewrite`]), scored by the
//! estimated-execution-time model rescaled with observed run cardinalities,
//! committing only canonical, validated, strictly-cheaper alternatives.
//!
//! Both integrators preserve requirement traceability: merged elements carry
//! the union of the satisfier sets, so later retraction prunes exactly the
//! right sub-designs.

#![forbid(unsafe_code)]

pub mod anneal;
pub mod etl;
pub mod md;
pub mod optimize;
pub mod state;

use std::fmt;

/// Integration failures.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrateError {
    /// The integrated MD schema failed validation (with the violations).
    InvalidResult(Vec<String>),
    /// The partial design is malformed (e.g. cyclic flow).
    MalformedPartial(String),
}

impl fmt::Display for IntegrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrateError::InvalidResult(violations) => {
                write!(f, "integration produced an invalid design: {}", violations.join("; "))
            }
            IntegrateError::MalformedPartial(d) => write!(f, "partial design is malformed: {d}"),
        }
    }
}

impl std::error::Error for IntegrateError {}
