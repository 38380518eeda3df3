//! The Communication & Metadata layer's storage substrate (paper §2.5–2.6).
//!
//! The original Quarry keeps all lifecycle metadata — xRQ/xMD/xLM documents,
//! domain ontologies, source mappings, requirement↔design links — in a
//! MongoDB instance reached through "a generic XML-JSON-XML parser for
//! reading from and writing to the repository". This crate rebuilds that
//! stack in-process:
//!
//! - [`Json`] — a JSON value model with parser and writer;
//! - [`convert`] — the generic, lossless XML↔JSON↔XML converter;
//! - [`DocumentStore`] / [`Repository`] — a collection-oriented document
//!   store with field-path queries, plus a thread-safe, versioned artifact
//!   API used by the Quarry façade to persist every design generation;
//! - [`wal`] / [`snapshot`] / [`recover`] — durability: an append-only
//!   write-ahead log of mutations with configurable fsync policy, crash-safe
//!   snapshot compaction, and deterministic replay ([`Repository::open`]
//!   recovers bit-identical state, truncating a torn final record).

#![forbid(unsafe_code)]

pub mod convert;
mod delta;
mod json;
pub mod recover;
pub mod snapshot;
mod store;
pub mod wal;

pub use json::{Json, JsonError};
pub use recover::{recover, RecoveryReport};
pub use store::{Artifact, ArtifactKind, ArtifactStorage, DocId, DocumentStore, Repository, StoreError};
pub use wal::{set_fsync_event_hook, wal_stats, DurabilityOptions, FsyncPolicy, WalStats};
