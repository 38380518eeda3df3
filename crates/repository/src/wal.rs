//! The append-only write-ahead log of repository mutations.
//!
//! Every mutation of the document store — inserts, in-place updates,
//! deletes, plus informational step markers from the lifecycle — is
//! serialized as one *record* and appended to the active log segment
//! **before** it is applied in memory, so a crash can lose at most the
//! acknowledged tail the chosen [`FsyncPolicy`] permits, never corrupt
//! already-acknowledged state.
//!
//! ## Record format
//!
//! ```text
//! ┌──────────────┬───────────────────┬──────────────────┐
//! │ len: u32 LE  │ checksum: u32 LE  │ payload (len B)  │
//! └──────────────┴───────────────────┴──────────────────┘
//! ```
//!
//! The payload is a compact JSON document rendered by the in-crate
//! [`Json`] writer (`{"op":"insert","c":…,"id":…,"doc":…}`), and the
//! checksum is FNV-1a over the payload bytes. A record is valid only if the
//! header fits, the payload fits, the checksum matches, and the payload
//! parses back into a [`Mutation`]; the first invalid record ends the log —
//! everything before it is the durable prefix, everything from it on is a
//! torn tail that recovery truncates (see [`crate::recover`](mod@crate::recover)).
//!
//! ## Statistics
//!
//! Like `quarry-engine`'s pool gauges, this module keeps always-on relaxed
//! atomics ([`wal_stats`]) instead of depending on `quarry-obs`;
//! `quarry-core` mirrors them into every metrics collection through a
//! registered collector, where they surface as `repository.wal.*`.

use crate::json::Json;
use crate::store::{DocId, DocumentStore, StoreError};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// When appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every record: a crash loses nothing that was
    /// acknowledged. The slowest option — every mutation pays a disk flush.
    Always,
    /// Group commit: every [`DurabilityOptions::batch_interval`] records the
    /// batch is flushed to the OS and handed to a background `fsync`, so the
    /// disk flush overlaps subsequent appends instead of stalling them.
    /// Appends within a batch are buffered in user space, amortizing the
    /// write syscalls too. A crash loses at most the open batch plus the
    /// batch still in flight; [`crate::store::Repository::sync`] is the hard
    /// barrier when a caller needs one. The production default.
    #[default]
    Batched,
    /// Never `fsync` explicitly; the OS flushes on its own schedule. A
    /// process crash loses nothing (the records are in the page cache), a
    /// power failure may lose the unflushed tail. Fast path for tests.
    Never,
}

impl FsyncPolicy {
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batched => "batched",
            FsyncPolicy::Never => "never",
        }
    }

    /// Inverse of [`FsyncPolicy::as_str`] (the `fsync` config key).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batched" => Some(FsyncPolicy::Batched),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// Compaction threshold the repository uses unless configured otherwise.
pub const DEFAULT_COMPACT_BYTES: u64 = 4 * 1024 * 1024;

/// How a durable repository writes its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    pub fsync: FsyncPolicy,
    /// Snapshot-compact the log once the active segment exceeds this size.
    pub compact_bytes: u64,
    /// Records per fsync batch under [`FsyncPolicy::Batched`].
    pub batch_interval: u32,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions { fsync: FsyncPolicy::default(), compact_bytes: DEFAULT_COMPACT_BYTES, batch_interval: 512 }
    }
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// One logged repository mutation. `Insert` carries the id the store
/// assigned so replay reproduces identical document ids (and `next_id`
/// counters) without trusting replay-side allocation order.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    Insert {
        collection: String,
        id: DocId,
        doc: Json,
    },
    Update {
        collection: String,
        id: DocId,
        doc: Json,
    },
    Delete {
        collection: String,
        id: DocId,
    },
    /// A lifecycle annotation (step start, transactional rollback). Replays
    /// as a no-op; `quarry-cli replay` lists them so the recovered history
    /// stays legible.
    Marker {
        label: String,
    },
}

impl Mutation {
    pub fn to_json(&self) -> Json {
        match self {
            Mutation::Insert { collection, id, doc } => insert_record(collection, *id, doc),
            Mutation::Update { collection, id, doc } => update_record(collection, *id, doc),
            Mutation::Delete { collection, id } => delete_record(collection, *id),
            Mutation::Marker { label } => marker_record(label),
        }
    }

    /// Decodes a record payload. `None` means the document is not a valid
    /// mutation record (treated as a torn/corrupt tail by the reader).
    pub fn from_json(v: &Json) -> Option<Mutation> {
        let op = v.get("op")?.as_str()?;
        let collection = || Some(v.get("c")?.as_str()?.to_string());
        let id = || Some(DocId(v.get("id")?.as_f64()? as u64));
        match op {
            "insert" => Some(Mutation::Insert { collection: collection()?, id: id()?, doc: v.get("doc")?.clone() }),
            "update" => Some(Mutation::Update { collection: collection()?, id: id()?, doc: v.get("doc")?.clone() }),
            "delete" => Some(Mutation::Delete { collection: collection()?, id: id()? }),
            "marker" => Some(Mutation::Marker { label: v.get("label")?.as_str()?.to_string() }),
            _ => None,
        }
    }

    /// Applies the mutation to a store during replay. Replay applies exactly
    /// the records that were logged against the same base state, so a target
    /// that is missing means the log and the snapshot disagree — corruption,
    /// not a tolerable no-op.
    pub fn replay_into(&self, store: &mut DocumentStore) -> Result<(), StoreError> {
        match self {
            Mutation::Insert { collection, id, doc } => {
                store.apply_insert(collection, *id, doc.clone());
                Ok(())
            }
            Mutation::Update { collection, id, doc } => store.update(collection, *id, doc.clone()),
            Mutation::Delete { collection, id } => {
                if store.delete(collection, *id) {
                    Ok(())
                } else {
                    Err(StoreError::UnknownDocument(*id))
                }
            }
            Mutation::Marker { .. } => Ok(()),
        }
    }
}

/// Serializes an insert/update record payload directly into a string,
/// skipping the intermediate record object — and the document clone it
/// would need — on the append hot path. Byte-identical to
/// `insert_record(…).to_compact_string()` (a unit test pins this).
pub(crate) fn doc_payload(op: &str, collection: &str, id: DocId, doc: &Json) -> String {
    let mut s = String::with_capacity(48 + collection.len());
    s.push_str("{\"op\":\"");
    s.push_str(op);
    s.push_str("\",\"c\":");
    crate::json::write_string(collection, &mut s);
    s.push_str(",\"id\":");
    s.push_str(&format!("{}", id.0));
    s.push_str(",\"doc\":");
    crate::json::write_json(doc, &mut s, None, 0);
    s.push('}');
    s
}

/// Builds an insert record without cloning the document.
pub(crate) fn insert_record(collection: &str, id: DocId, doc: &Json) -> Json {
    let mut r = Json::object();
    r.set("op", Json::String("insert".into()));
    r.set("c", Json::String(collection.into()));
    r.set("id", Json::Number(id.0 as f64));
    r.set("doc", doc.clone());
    r
}

pub(crate) fn update_record(collection: &str, id: DocId, doc: &Json) -> Json {
    let mut r = Json::object();
    r.set("op", Json::String("update".into()));
    r.set("c", Json::String(collection.into()));
    r.set("id", Json::Number(id.0 as f64));
    r.set("doc", doc.clone());
    r
}

pub(crate) fn delete_record(collection: &str, id: DocId) -> Json {
    let mut r = Json::object();
    r.set("op", Json::String("delete".into()));
    r.set("c", Json::String(collection.into()));
    r.set("id", Json::Number(id.0 as f64));
    r
}

pub(crate) fn marker_record(label: &str) -> Json {
    let mut r = Json::object();
    r.set("op", Json::String("marker".into()));
    r.set("label", Json::String(label.into()));
    r
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// FNV-1a over the payload bytes — the same std-only hash family the engine
/// uses for surrogate keys; collisions only need to be unlikely for *torn*
/// writes, which overwhelmingly fail the length check first.
pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

const HEADER_LEN: usize = 8;
/// Upper bound on one record payload; a length word above this is treated as
/// torn garbage rather than an instruction to wait for gigabytes.
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Frames one payload into `out`.
pub(crate) fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes every complete, checksummed, parseable record from `bytes`.
/// Returns the mutations and the byte length of the clean prefix; anything
/// past that offset is a torn tail (or trailing corruption) that recovery
/// truncates.
pub fn decode_records(bytes: &[u8]) -> (Vec<Mutation>, usize) {
    let mut mutations = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= HEADER_LEN {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let checksum = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len as u64 > MAX_RECORD_LEN as u64 || bytes.len() - offset - HEADER_LEN < len {
            break; // torn: the payload never made it
        }
        let payload = &bytes[offset + HEADER_LEN..offset + HEADER_LEN + len];
        if fnv1a(payload) != checksum {
            break; // torn: the payload is incomplete or overwritten garbage
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let Ok(doc) = Json::parse(text) else { break };
        let Some(mutation) = Mutation::from_json(&doc) else { break };
        mutations.push(mutation);
        offset += HEADER_LEN + len;
    }
    (mutations, offset)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

pub(crate) fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io { op, path: path.display().to_string(), message: e.to_string() }
}

/// Appends framed records to one log segment.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    /// Bytes in the segment (pre-existing clean prefix + appends).
    bytes: u64,
    unsynced_records: u32,
    fsync: FsyncPolicy,
    batch_interval: u32,
    /// The in-flight background fsync of the previously closed batch, if
    /// any. At most one is outstanding; its error (if it had one) surfaces
    /// at the next batch boundary or explicit [`WalWriter::sync`].
    pending_sync: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl WalWriter {
    /// Opens a segment for appending; `existing_bytes` is the clean prefix
    /// length the caller recovered (the file has already been truncated to
    /// it).
    pub fn open(path: PathBuf, existing_bytes: u64, options: &DurabilityOptions) -> Result<WalWriter, StoreError> {
        let file =
            std::fs::OpenOptions::new().create(true).append(true).open(&path).map_err(|e| io_err("open", &path, e))?;
        // The batch buffer is sized so a whole fsync batch of typical
        // records stays in user space: under group commit the next batch
        // then never touches the (journal-locked) inode while the previous
        // batch's background fsync is still running.
        Ok(WalWriter {
            file: BufWriter::with_capacity(512 * 1024, file),
            path,
            bytes: existing_bytes,
            unsynced_records: 0,
            fsync: options.fsync,
            batch_interval: options.batch_interval.max(1),
            pending_sync: None,
        })
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one record and applies the fsync policy. Under `Always` and
    /// `Never` the record reaches the OS before this returns; under
    /// `Batched` it may sit in the user-space batch buffer until the batch
    /// closes — within the policy's contract, which already allows a crash
    /// to lose the open batch of acknowledged mutations.
    pub fn append(&mut self, record: &Json) -> Result<(), StoreError> {
        self.append_payload(&record.to_compact_string())
    }

    /// Like [`WalWriter::append`] but for a pre-serialized record payload
    /// (the hot path uses [`doc_payload`] to skip the record object).
    pub fn append_payload(&mut self, payload: &str) -> Result<(), StoreError> {
        let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
        encode_record(payload.as_bytes(), &mut framed);
        self.file.write_all(&framed).map_err(|e| io_err("append", &self.path, e))?;
        self.bytes += framed.len() as u64;
        APPENDS.fetch_add(1, Relaxed);
        APPENDED_BYTES.fetch_add(framed.len() as u64, Relaxed);
        self.unsynced_records += 1;
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batched if self.unsynced_records >= self.batch_interval => self.spawn_sync()?,
            FsyncPolicy::Batched => {}
            // `Never` promises page-cache durability across process crashes,
            // so its appends still go straight to the OS.
            FsyncPolicy::Never => self.file.flush().map_err(|e| io_err("append", &self.path, e))?,
        }
        Ok(())
    }

    /// Closes the current batch: flushes it to the OS and hands the `fsync`
    /// to a background thread so the disk flush overlaps the next batch's
    /// appends (group commit). Joins the previous batch's flush first, so at
    /// most one is in flight and its error cannot be silently dropped.
    fn spawn_sync(&mut self) -> Result<(), StoreError> {
        self.file.flush().map_err(|e| io_err("flush", &self.path, e))?;
        self.join_pending()?;
        let file = self.file.get_ref().try_clone().map_err(|e| io_err("clone for fsync", &self.path, e))?;
        self.pending_sync = Some(std::thread::spawn(move || {
            let started = Instant::now();
            file.sync_data()?;
            record_fsync(started.elapsed().as_secs_f64());
            Ok(())
        }));
        self.unsynced_records = 0;
        Ok(())
    }

    /// Waits for the in-flight background fsync, surfacing its error.
    fn join_pending(&mut self) -> Result<(), StoreError> {
        match self.pending_sync.take().map(|h| h.join()) {
            None => Ok(()),
            Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(io_err("fsync", &self.path, e)),
            Some(Err(_)) => Err(StoreError::Io {
                op: "fsync",
                path: self.path.display().to_string(),
                message: "background fsync thread panicked".to_string(),
            }),
        }
    }

    /// Hard durability barrier: everything appended so far is on disk when
    /// this returns, regardless of policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.join_pending()?;
        if self.unsynced_records == 0 {
            return Ok(());
        }
        self.file.flush().map_err(|e| io_err("flush", &self.path, e))?;
        let started = Instant::now();
        self.file.get_ref().sync_data().map_err(|e| io_err("fsync", &self.path, e))?;
        record_fsync(started.elapsed().as_secs_f64());
        self.unsynced_records = 0;
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Don't leave a flusher thread racing process teardown; its result
        // no longer has anywhere to go, so the error (if any) is dropped —
        // exactly what `Batched` promises about an unclean exit.
        if let Some(h) = self.pending_sync.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Always-on statistics
// ---------------------------------------------------------------------------

static APPENDS: AtomicU64 = AtomicU64::new(0);
static APPENDED_BYTES: AtomicU64 = AtomicU64::new(0);
static FSYNCS: AtomicU64 = AtomicU64::new(0);
static FSYNC_NANOS: AtomicU64 = AtomicU64::new(0);
static COMPACTIONS: AtomicU64 = AtomicU64::new(0);
static RECOVERIES: AtomicU64 = AtomicU64::new(0);
static REPLAYED_RECORDS: AtomicU64 = AtomicU64::new(0);
static TORN_TRUNCATIONS: AtomicU64 = AtomicU64::new(0);
/// fsync latency histogram: bucket `i` counts flushes with
/// `latency < 2^i µs` (last bucket is the overflow).
const FSYNC_BUCKETS: usize = 22;
static FSYNC_BY_LOG2_US: [AtomicU64; FSYNC_BUCKETS] = [const { AtomicU64::new(0) }; FSYNC_BUCKETS];

/// Process-wide fsync event hook, installed once by `quarry-core` to feed
/// flight-recorder [`WalFsync`] events; the crate itself stays obs-free.
/// Arguments: `(latency_micros, fsyncs_so_far)`. Called from the batch's
/// background flusher thread as well as the synchronous barrier path, so
/// installed hooks must be thread-safe and cheap.
static FSYNC_HOOK: OnceLock<Box<dyn Fn(u64, u64) + Send + Sync>> = OnceLock::new();

/// Installs the fsync event hook. First caller wins; returns whether this
/// call installed its hook.
pub fn set_fsync_event_hook(hook: impl Fn(u64, u64) + Send + Sync + 'static) -> bool {
    FSYNC_HOOK.set(Box::new(hook)).is_ok()
}

fn record_fsync(seconds: f64) {
    let total = FSYNCS.fetch_add(1, Relaxed) + 1;
    FSYNC_NANOS.fetch_add((seconds * 1e9) as u64, Relaxed);
    let micros = (seconds * 1e6) as u64;
    let bucket = (64 - micros.max(1).leading_zeros() as usize).min(FSYNC_BUCKETS - 1);
    FSYNC_BY_LOG2_US[bucket].fetch_add(1, Relaxed);
    if let Some(hook) = FSYNC_HOOK.get() {
        hook(micros, total);
    }
}

pub(crate) fn record_compaction() {
    COMPACTIONS.fetch_add(1, Relaxed);
}

pub(crate) fn record_recovery(replayed_records: u64, torn: bool) {
    RECOVERIES.fetch_add(1, Relaxed);
    REPLAYED_RECORDS.fetch_add(replayed_records, Relaxed);
    if torn {
        TORN_TRUNCATIONS.fetch_add(1, Relaxed);
    }
}

/// Snapshot of the WAL's always-on counters, surfaced by `quarry-core` as
/// the `repository.wal.*` metric family.
#[derive(Debug, Clone, Default)]
pub struct WalStats {
    pub appends: u64,
    pub appended_bytes: u64,
    pub fsyncs: u64,
    pub fsync_seconds_sum: f64,
    pub compactions: u64,
    pub recoveries: u64,
    pub replayed_records: u64,
    pub torn_truncations: u64,
    /// fsync latency buckets `(upper bound seconds, flushes)`, ascending.
    pub fsync_buckets: Vec<(f64, u64)>,
}

pub fn wal_stats() -> WalStats {
    WalStats {
        appends: APPENDS.load(Relaxed),
        appended_bytes: APPENDED_BYTES.load(Relaxed),
        fsyncs: FSYNCS.load(Relaxed),
        fsync_seconds_sum: FSYNC_NANOS.load(Relaxed) as f64 / 1e9,
        compactions: COMPACTIONS.load(Relaxed),
        recoveries: RECOVERIES.load(Relaxed),
        replayed_records: REPLAYED_RECORDS.load(Relaxed),
        torn_truncations: TORN_TRUNCATIONS.load(Relaxed),
        fsync_buckets: FSYNC_BY_LOG2_US
            .iter()
            .enumerate()
            .map(|(i, c)| ((1u64 << i) as f64 / 1e6, c.load(Relaxed)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_payload_matches_the_record_object_serialization() {
        let docs = [
            Json::parse(r#"{"key":"IR1","version":1,"content":"<xrq/>"}"#).unwrap(),
            Json::parse("{\"content\":\"line\\nbreak \\\"quoted\\\" \\\\slash é€😀\",\"n\":2.5}").unwrap(),
            Json::parse(r#"{"nested":{"arr":[1,true,null],"s":"x"}}"#).unwrap(),
            Json::parse("\"bare string\"").unwrap(),
        ];
        for doc in &docs {
            for (op, record) in [
                ("insert", insert_record("artifacts.md-schema", DocId(7), doc)),
                ("update", update_record("artifacts.md-schema", DocId(7), doc)),
            ] {
                let fast = doc_payload(op, "artifacts.md-schema", DocId(7), doc);
                assert_eq!(fast, record.to_compact_string(), "{op} payload for {doc}");
            }
        }
    }

    fn sample_mutations() -> Vec<Mutation> {
        vec![
            Mutation::Insert {
                collection: "artifacts.requirement".into(),
                id: DocId(0),
                doc: Json::parse(r#"{"key":"IR1","version":1,"content":"<xrq/>"}"#).unwrap(),
            },
            Mutation::Update { collection: "c".into(), id: DocId(0), doc: Json::parse(r#"{"a":2}"#).unwrap() },
            Mutation::Delete { collection: "c".into(), id: DocId(0) },
            Mutation::Marker { label: "step:add_requirement:IR1".into() },
        ]
    }

    fn encode_all(mutations: &[Mutation]) -> Vec<u8> {
        let mut out = Vec::new();
        for m in mutations {
            encode_record(m.to_json().to_compact_string().as_bytes(), &mut out);
        }
        out
    }

    #[test]
    fn records_roundtrip() {
        let mutations = sample_mutations();
        let bytes = encode_all(&mutations);
        let (decoded, clean) = decode_records(&bytes);
        assert_eq!(decoded, mutations);
        assert_eq!(clean, bytes.len());
    }

    #[test]
    fn every_truncation_point_yields_a_record_prefix() {
        let mutations = sample_mutations();
        let bytes = encode_all(&mutations);
        // Record boundaries are the only byte offsets where a record completes.
        let boundaries: Vec<usize> = {
            let mut offs = vec![0];
            let mut cur = 0;
            for m in &mutations {
                cur += HEADER_LEN + m.to_json().to_compact_string().len();
                offs.push(cur);
            }
            offs
        };
        for cut in 0..=bytes.len() {
            let (decoded, clean) = decode_records(&bytes[..cut]);
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(decoded.len(), complete, "cut at {cut}");
            assert_eq!(clean, boundaries[complete], "cut at {cut}");
            assert_eq!(decoded[..], mutations[..complete], "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_byte_ends_the_clean_prefix() {
        let mutations = sample_mutations();
        let mut bytes = encode_all(&mutations);
        // Flip a byte inside the second record's payload.
        let first_len = HEADER_LEN + mutations[0].to_json().to_compact_string().len();
        bytes[first_len + HEADER_LEN + 3] ^= 0xff;
        let (decoded, clean) = decode_records(&bytes);
        assert_eq!(decoded.len(), 1);
        assert_eq!(clean, first_len);
    }

    #[test]
    fn absurd_length_word_is_torn_not_trusted() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        let (decoded, clean) = decode_records(&bytes);
        assert!(decoded.is_empty());
        assert_eq!(clean, 0);
    }

    #[test]
    fn fsync_policy_parses() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Batched, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn replay_into_rejects_missing_targets() {
        let mut store = DocumentStore::new();
        let bad = Mutation::Delete { collection: "ghost".into(), id: DocId(7) };
        assert!(bad.replay_into(&mut store).is_err());
        let marker = Mutation::Marker { label: "x".into() };
        assert!(marker.replay_into(&mut store).is_ok());
    }
}
