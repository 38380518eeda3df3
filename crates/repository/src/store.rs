//! The document store and the versioned artifact repository built on it.
//!
//! A [`Repository`] runs in one of two modes. [`Repository::new`] is the
//! in-memory mode the lifecycle tests and benches use: mutations apply
//! directly to the [`DocumentStore`]. [`Repository::open`] is the durable
//! mode: the same API, but every mutation is first appended to a write-ahead
//! log ([`crate::wal`]) and the store is recovered from disk on open
//! ([`crate::recover`]), so a crash never loses acknowledged metadata. The
//! mutation discipline is *validate → log → apply*: a record only enters the
//! log if the in-memory apply that follows cannot fail, which keeps the log
//! a replayable prefix of exactly the applied mutations.
//!
//! ## Artifact versions
//!
//! Every version of an artifact is one document in `artifacts.<kind>`:
//! `{"key", "version", "content"}` holds the text whole,
//! `{"key", "version", "delta"}` holds a [`crate::delta`] against version
//! `version - 1` of the same key. [`Repository::put_artifact`] picks per
//! version, from the data alone: whole when there is no previous version,
//! when the delta is not under half the size of the content, or when the
//! deltas stored since the last whole version would add up to more than
//! that version — so materializing any version reads at most twice its
//! whole base. A delta is stored only after patching it onto the base gave
//! back the content byte for byte.

use crate::delta::{self, LineTable};
use crate::json::Json;
use crate::recover::{Durable, RecoveryReport};
use crate::wal::{self, DurabilityOptions};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;

/// Identifier of a document within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

/// Store-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    UnknownCollection(String),
    UnknownDocument(DocId),
    UnknownArtifact {
        kind: &'static str,
        key: String,
    },
    /// A write-ahead-log or snapshot file operation failed.
    Io {
        op: &'static str,
        path: String,
        message: String,
    },
    /// A log or snapshot file (`path`, byte `offset`) is damaged beyond the
    /// tolerated torn tail, or a stored artifact version (`path` its
    /// collection, `offset` its document id) cannot be materialized.
    Corrupt {
        path: String,
        offset: u64,
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownCollection(c) => write!(f, "unknown collection `{c}`"),
            StoreError::UnknownDocument(id) => write!(f, "unknown document #{}", id.0),
            StoreError::UnknownArtifact { kind, key } => write!(f, "no {kind} artifact stored for `{key}`"),
            StoreError::Io { op, path, message } => write!(f, "repository {op} failed on `{path}`: {message}"),
            StoreError::Corrupt { path, offset, message } => {
                write!(f, "repository `{path}` corrupt at {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Collection {
    pub(crate) next_id: u64,
    pub(crate) docs: BTreeMap<DocId, Json>,
}

/// A collection-oriented document store (the MongoDB stand-in).
///
/// `PartialEq` compares full contents *including* the per-collection id
/// counters, so two equal stores are bit-identical under snapshot
/// serialization — the property the crash-recovery matrix asserts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DocumentStore {
    pub(crate) collections: BTreeMap<String, Collection>,
}

impl DocumentStore {
    pub fn new() -> Self {
        DocumentStore::default()
    }

    /// Inserts a document, creating the collection on first use. Returns the
    /// assigned id.
    pub fn insert(&mut self, collection: &str, doc: Json) -> DocId {
        let col = self.collections.entry(collection.to_string()).or_default();
        let id = DocId(col.next_id);
        col.next_id += 1;
        col.docs.insert(id, doc);
        id
    }

    /// The id the next [`DocumentStore::insert`] into `collection` will
    /// assign — what the WAL records *before* the insert applies.
    pub fn peek_next_id(&self, collection: &str) -> DocId {
        DocId(self.collections.get(collection).map(|c| c.next_id).unwrap_or(0))
    }

    /// Inserts a document under a *given* id, advancing the collection's id
    /// counter past it. Replay uses this so recovered stores assign the same
    /// ids the original run did, in the same order.
    pub(crate) fn apply_insert(&mut self, collection: &str, id: DocId, doc: Json) {
        let col = self.collections.entry(collection.to_string()).or_default();
        col.next_id = col.next_id.max(id.0 + 1);
        col.docs.insert(id, doc);
    }

    pub fn get(&self, collection: &str, id: DocId) -> Option<&Json> {
        self.collections.get(collection)?.docs.get(&id)
    }

    /// Replaces a document in place.
    pub fn update(&mut self, collection: &str, id: DocId, doc: Json) -> Result<(), StoreError> {
        let col = self
            .collections
            .get_mut(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        match col.docs.get_mut(&id) {
            Some(slot) => {
                *slot = doc;
                Ok(())
            }
            None => Err(StoreError::UnknownDocument(id)),
        }
    }

    pub fn delete(&mut self, collection: &str, id: DocId) -> bool {
        self.collections.get_mut(collection).map(|c| c.docs.remove(&id).is_some()).unwrap_or(false)
    }

    /// All documents of a collection in id order.
    pub fn scan(&self, collection: &str) -> Vec<(DocId, &Json)> {
        self.collections.get(collection).map(|c| c.docs.iter().map(|(id, d)| (*id, d)).collect()).unwrap_or_default()
    }

    /// Documents whose dotted `path` equals the given value — the field-path
    /// query shape the lifecycle uses (e.g. all designs for a requirement
    /// id). Strings match by equality; numbers and booleans match by their
    /// canonical JSON rendering (`"3"`, `"2.5"`, `"true"`), so queries over
    /// numeric meta fields like versions work too. Nulls, arrays, and
    /// objects never match.
    pub fn find_by(&self, collection: &str, path: &str, value: &str) -> Vec<(DocId, &Json)> {
        self.scan(collection)
            .into_iter()
            .filter(|(_, d)| match d.path(path) {
                Some(Json::String(s)) => s == value,
                Some(v @ (Json::Number(_) | Json::Bool(_))) => v.to_compact_string() == value,
                _ => false,
            })
            .collect()
    }

    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }

    pub fn count(&self, collection: &str) -> usize {
        self.collections.get(collection).map(|c| c.docs.len()).unwrap_or(0)
    }

    /// Distinct string `key` members of a collection's documents, sorted.
    fn keys_of(&self, collection: &str) -> Vec<&str> {
        let mut keys: Vec<&str> =
            self.scan(collection).into_iter().filter_map(|(_, d)| d.get("key").and_then(Json::as_str)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// How every artifact's versions are stored, in (collection, key) order:
    /// where the bytes of a repository directory went.
    pub fn artifact_storage(&self) -> Result<Vec<ArtifactStorage>, StoreError> {
        let mut out = Vec::new();
        for collection in self.collection_names() {
            let Some(kind) = ArtifactKind::of_collection(collection) else { continue };
            for key in self.keys_of(collection) {
                let stored = stored_versions(self, collection, key)?;
                let stored_bytes = stored
                    .values()
                    .filter_map(|(id, _)| self.get(collection, *id))
                    .map(|doc| doc.to_compact_string().len())
                    .sum();
                out.push(ArtifactStorage {
                    kind,
                    key: key.to_string(),
                    versions: stored.len(),
                    deltas: stored.values().filter(|(_, body)| matches!(body, Body::Delta(_))).count(),
                    stored_bytes,
                    materialized_bytes: history_of(kind, key, &stored)?.iter().map(|a| a.content.len()).sum(),
                });
            }
        }
        Ok(out)
    }
}

/// How the versions of one artifact are stored (see
/// [`DocumentStore::artifact_storage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactStorage {
    pub kind: ArtifactKind,
    pub key: String,
    pub versions: usize,
    /// Versions stored as a delta against their predecessor; the others are
    /// stored whole.
    pub deltas: usize,
    /// Size of the version documents as a log record or snapshot holds them.
    pub stored_bytes: usize,
    /// Size of the versions' text once materialized.
    pub materialized_bytes: usize,
}

/// Kinds of design artifacts the lifecycle persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    Requirement,
    MdSchema,
    EtlFlow,
    Ontology,
    Deployment,
    /// A completed lifecycle span tree (JSON trace document, paper §2.6
    /// traceability metadata extended with runtime observations).
    Trace,
    /// An EXPLAIN ANALYZE execution profile of one engine run (JSON): the
    /// plan tree annotated with estimated vs. observed cardinalities, wall
    /// time, worker lanes, and kernel dispatch counts.
    Profile,
}

impl ArtifactKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Requirement => "requirement",
            ArtifactKind::MdSchema => "md-schema",
            ArtifactKind::EtlFlow => "etl-flow",
            ArtifactKind::Ontology => "ontology",
            ArtifactKind::Deployment => "deployment",
            ArtifactKind::Trace => "trace",
            ArtifactKind::Profile => "profile",
        }
    }

    /// Inverse of [`ArtifactKind::as_str`].
    pub fn parse(s: &str) -> Option<ArtifactKind> {
        match s {
            "requirement" => Some(ArtifactKind::Requirement),
            "md-schema" => Some(ArtifactKind::MdSchema),
            "etl-flow" => Some(ArtifactKind::EtlFlow),
            "ontology" => Some(ArtifactKind::Ontology),
            "deployment" => Some(ArtifactKind::Deployment),
            "trace" => Some(ArtifactKind::Trace),
            "profile" => Some(ArtifactKind::Profile),
            _ => None,
        }
    }

    fn collection(self) -> String {
        format!("artifacts.{}", self.as_str())
    }

    fn of_collection(collection: &str) -> Option<ArtifactKind> {
        ArtifactKind::parse(collection.strip_prefix("artifacts.")?)
    }
}

/// One stored artifact version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub kind: ArtifactKind,
    /// Logical key, e.g. a requirement id or `unified`.
    pub key: String,
    /// Monotonically increasing version per (kind, key).
    pub version: u64,
    /// Serialized content (xRQ/xMD/xLM/OWL-subset document).
    pub content: String,
}

/// How one version document stores its text.
enum Body<'a> {
    Whole(&'a str),
    Delta(&'a [Json]),
}

fn corrupt(collection: &str, id: DocId, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt { path: collection.to_string(), offset: id.0, message: message.into() }
}

/// Every stored version of one artifact, by version number. A document
/// that carries the key but is not a version document — no positive integer
/// `version`, not exactly one of a string `content` and an array `delta`, a
/// version number used twice — is an error, not a version to skip.
fn stored_versions<'a>(
    store: &'a DocumentStore,
    collection: &str,
    key: &str,
) -> Result<BTreeMap<u64, (DocId, Body<'a>)>, StoreError> {
    let mut versions = BTreeMap::new();
    for (id, doc) in store.find_by(collection, "key", key) {
        let version = doc
            .get("version")
            .and_then(Json::as_f64)
            .filter(|v| *v >= 1.0 && v.fract() == 0.0 && *v < u64::MAX as f64)
            .ok_or_else(|| corrupt(collection, id, format!("`{key}`: no positive integer `version`")))?
            as u64;
        let body = match (doc.get("content"), doc.get("delta")) {
            (Some(Json::String(text)), None) => Body::Whole(text),
            (None, Some(Json::Array(ops))) => Body::Delta(ops),
            (Some(_), Some(_)) => {
                return Err(corrupt(collection, id, format!("`{key}` v{version}: both `content` and `delta`")))
            }
            _ => {
                return Err(corrupt(
                    collection,
                    id,
                    format!("`{key}` v{version}: neither a string `content` nor an array `delta`"),
                ))
            }
        };
        if versions.insert(version, (id, body)).is_some() {
            return Err(corrupt(collection, id, format!("`{key}` v{version} is stored twice")));
        }
    }
    Ok(versions)
}

/// The text of one stored version; `previous` is the materialized version
/// before it, if that one exists.
fn materialize(
    collection: &str,
    key: &str,
    version: u64,
    (id, body): &(DocId, Body),
    previous: Option<(u64, &str)>,
) -> Result<String, StoreError> {
    match body {
        Body::Whole(text) => Ok(text.to_string()),
        Body::Delta(ops) => {
            let (_, base) = previous.filter(|(v, _)| v + 1 == version).ok_or_else(|| {
                corrupt(collection, *id, format!("`{key}` v{version} is a delta with no base version"))
            })?;
            delta::patch(base, ops).map_err(|e| corrupt(collection, *id, format!("`{key}` v{version}: {e}")))
        }
    }
}

/// Every one of an artifact's stored `versions` materialized, oldest first.
fn history_of(
    kind: ArtifactKind,
    key: &str,
    versions: &BTreeMap<u64, (DocId, Body)>,
) -> Result<Vec<Artifact>, StoreError> {
    let collection = kind.collection();
    let mut out: Vec<Artifact> = Vec::with_capacity(versions.len());
    for (&version, stored) in versions {
        let previous = out.last().map(|a| (a.version, a.content.as_str()));
        let content = materialize(&collection, key, version, stored, previous)?;
        out.push(Artifact { kind, key: key.to_string(), version, content });
    }
    Ok(out)
}

/// The newest version of one artifact, materialized: what the next put
/// numbers itself after and encodes its delta against.
#[derive(Debug)]
struct Head {
    version: u64,
    content: String,
    /// Line table of `content`, kept from the put that encoded it against
    /// its predecessor so the next put splits only its own document. Absent
    /// on first versions and freshly loaded heads until a put needs it.
    lines: Option<LineTable>,
    /// Size of the newest version stored whole, and what the deltas stored
    /// since are charged ([`delta::cost`]).
    whole_bytes: usize,
    chain_bytes: usize,
}

impl Head {
    /// Rebuilds the head from the stored versions: back from the newest to
    /// the nearest one stored whole, then forward again.
    fn load(store: &DocumentStore, collection: &str, key: &str) -> Result<Option<Head>, StoreError> {
        let versions = stored_versions(store, collection, key)?;
        let Some((&newest, _)) = versions.last_key_value() else { return Ok(None) };
        let mut first = newest;
        while matches!(versions[&first].1, Body::Delta(_)) && versions.contains_key(&(first - 1)) {
            first -= 1;
        }
        let mut head = Head { version: 0, content: String::new(), lines: None, whole_bytes: 0, chain_bytes: 0 };
        for (&version, stored) in versions.range(first..) {
            let previous = (head.version > 0).then_some((head.version, head.content.as_str()));
            head.content = materialize(collection, key, version, stored, previous)?;
            head.version = version;
            match stored.1 {
                Body::Whole(text) => (head.whole_bytes, head.chain_bytes) = (text.len(), 0),
                Body::Delta(ops) => head.chain_bytes += delta::cost(ops),
            }
        }
        Ok(Some(head))
    }
}

/// The store plus, in durable mode, the open log it writes ahead of it.
/// One lock guards both so the WAL order always matches the apply order.
#[derive(Debug)]
struct RepoInner {
    store: DocumentStore,
    durable: Option<Durable>,
    /// Materialized newest version per artifact, filled on first use. Always
    /// derivable from `store`; raw document writes into an artifact
    /// collection drop that kind's entries.
    heads: HashMap<ArtifactKind, HashMap<String, Head>>,
}

impl RepoInner {
    fn new(store: DocumentStore, durable: Option<Durable>) -> RepoInner {
        RepoInner { store, durable, heads: HashMap::new() }
    }

    fn head(&self, kind: ArtifactKind, key: &str) -> Option<&Head> {
        self.heads.get(&kind)?.get(key)
    }

    /// The head of an artifact, loading it from the store when this is its
    /// first use. `None`: no version is stored.
    fn load_head(&mut self, kind: ArtifactKind, key: &str) -> Result<Option<&mut Head>, StoreError> {
        let heads = self.heads.entry(kind).or_default();
        if !heads.contains_key(key) {
            match Head::load(&self.store, &kind.collection(), key)? {
                Some(head) => heads.insert(key.to_string(), head),
                None => return Ok(None),
            };
        }
        Ok(heads.get_mut(key))
    }

    /// A raw document write into an artifact collection may have changed
    /// any version of any key of that kind.
    fn forget_heads(&mut self, collection: &str) {
        if let Some(kind) = ArtifactKind::of_collection(collection) {
            self.heads.remove(&kind);
        }
    }

    /// Validate → log → apply for an insert: the id is peeked and logged
    /// first so replay reproduces it.
    fn log_insert(&mut self, collection: &str, doc: Json) -> Result<DocId, StoreError> {
        let id = self.store.peek_next_id(collection);
        if let Some(d) = &mut self.durable {
            d.append_payload(&wal::doc_payload("insert", collection, id, &doc))?;
        }
        self.store.apply_insert(collection, id, doc);
        self.maybe_compact()?;
        Ok(id)
    }

    fn log_update(&mut self, collection: &str, id: DocId, doc: Json) -> Result<(), StoreError> {
        // Validate before logging so a failed update leaves no log record.
        if self.store.get(collection, id).is_none() {
            return if self.store.collections.contains_key(collection) {
                Err(StoreError::UnknownDocument(id))
            } else {
                Err(StoreError::UnknownCollection(collection.to_string()))
            };
        }
        if let Some(d) = &mut self.durable {
            d.append_payload(&wal::doc_payload("update", collection, id, &doc))?;
        }
        self.store.update(collection, id, doc)?;
        self.maybe_compact()?;
        Ok(())
    }

    fn log_delete(&mut self, collection: &str, id: DocId) -> Result<bool, StoreError> {
        if self.store.get(collection, id).is_none() {
            return Ok(false);
        }
        if let Some(d) = &mut self.durable {
            d.append(&wal::delete_record(collection, id))?;
        }
        self.store.delete(collection, id);
        self.maybe_compact()?;
        Ok(true)
    }

    fn log_marker(&mut self, label: &str) -> Result<(), StoreError> {
        if let Some(d) = &mut self.durable {
            d.append(&wal::marker_record(label))?;
        }
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), StoreError> {
        if let Some(d) = &mut self.durable {
            if d.should_compact() {
                d.compact(&self.store)?;
            }
        }
        Ok(())
    }
}

/// The thread-safe metadata repository: a document store plus the versioned
/// artifact API and requirement↔design traceability links.
#[derive(Debug)]
pub struct Repository {
    inner: RwLock<RepoInner>,
}

impl Default for Repository {
    fn default() -> Self {
        Repository::new()
    }
}

impl Repository {
    /// An in-memory repository: no log, mutations vanish with the process.
    pub fn new() -> Self {
        Repository { inner: RwLock::new(RepoInner::new(DocumentStore::new(), None)) }
    }

    /// Opens (or creates) a durable repository rooted at `dir`: recovers the
    /// newest snapshot plus log tail — truncating a torn final record — and
    /// appends every future mutation to the log before applying it.
    pub fn open(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Repository, StoreError> {
        let (store, durable) = crate::recover::open_for_append(dir.as_ref(), options)?;
        Ok(Repository { inner: RwLock::new(RepoInner::new(store, Some(durable))) })
    }

    pub fn is_durable(&self) -> bool {
        self.inner.read().durable.is_some()
    }

    /// What recovery found when this repository was opened (`None` for
    /// in-memory repositories).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.inner.read().durable.as_ref().map(|d| d.report().clone())
    }

    /// Flushes any batched log records to disk regardless of fsync policy.
    pub fn sync(&self) -> Result<(), StoreError> {
        match &mut self.inner.write().durable {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Stores a new version of an artifact and returns it. The version is
    /// stored as a delta against the previous one when that is clearly
    /// smaller (see the module docs), whole otherwise.
    pub fn put_artifact(&self, kind: ArtifactKind, key: &str, content: &str) -> Result<Artifact, StoreError> {
        let mut inner = self.inner.write();
        let mut next =
            Head { version: 1, content: content.to_string(), lines: None, whole_bytes: content.len(), chain_bytes: 0 };
        let mut encoded = None;
        if let Some(head) = inner.load_head(kind, key)? {
            next.version = head.version + 1;
            next.lines = LineTable::of(content);
            if head.lines.is_none() {
                head.lines = LineTable::of(&head.content);
            }
            if let (Some(base_lines), Some(lines)) = (&head.lines, &next.lines) {
                let chain = |ops: &[Json]| head.chain_bytes + delta::cost(ops);
                encoded = delta::encode(&head.content, base_lines, content, lines).filter(|ops| {
                    chain(ops) <= head.whole_bytes
                        && delta::patch(&head.content, ops).is_ok_and(|patched| patched == content)
                });
                if let Some(ops) = &encoded {
                    (next.whole_bytes, next.chain_bytes) = (head.whole_bytes, chain(ops));
                }
            }
        }
        let mut doc = Json::object();
        doc.set("key", Json::String(key.to_string()));
        doc.set("version", Json::Number(next.version as f64));
        match encoded {
            Some(ops) => doc.set("delta", Json::Array(ops)),
            None => doc.set("content", Json::String(content.to_string())),
        }
        let version = next.version;
        let logged = inner.log_insert(&kind.collection(), doc);
        let heads = inner.heads.entry(kind).or_default();
        match logged {
            Ok(_) => heads.insert(key.to_string(), next),
            // The log may hold the version (a failed compaction comes after
            // the apply) or not: reload the head from the store next time.
            Err(_) => heads.remove(key),
        };
        logged?;
        Ok(Artifact { kind, key: key.to_string(), version, content: content.to_string() })
    }

    /// Latest version of an artifact.
    pub fn latest(&self, kind: ArtifactKind, key: &str) -> Result<Artifact, StoreError> {
        let artifact =
            |head: &Head| Artifact { kind, key: key.to_string(), version: head.version, content: head.content.clone() };
        if let Some(head) = self.inner.read().head(kind, key) {
            return Ok(artifact(head));
        }
        match self.inner.write().load_head(kind, key)? {
            Some(head) => Ok(artifact(head)),
            None => Err(StoreError::UnknownArtifact { kind: kind.as_str(), key: key.to_string() }),
        }
    }

    /// Full version history of an artifact, oldest first (empty when no
    /// version is stored). A stored version that cannot be materialized is
    /// [`StoreError::Corrupt`], never skipped.
    pub fn history(&self, kind: ArtifactKind, key: &str) -> Result<Vec<Artifact>, StoreError> {
        let inner = self.inner.read();
        history_of(kind, key, &stored_versions(&inner.store, &kind.collection(), key)?)
    }

    /// All keys currently stored for a kind.
    pub fn keys(&self, kind: ArtifactKind) -> Vec<String> {
        self.inner.read().store.keys_of(&kind.collection()).into_iter().map(str::to_string).collect()
    }

    /// Records that `requirement` is satisfied by the named design artifact.
    pub fn link_requirement(&self, requirement: &str, kind: ArtifactKind, key: &str) -> Result<(), StoreError> {
        let mut doc = Json::object();
        doc.set("requirement", Json::String(requirement.to_string()));
        doc.set("kind", Json::String(kind.as_str().to_string()));
        doc.set("key", Json::String(key.to_string()));
        self.inner.write().log_insert("links", doc)?;
        Ok(())
    }

    /// The design artifacts linked to a requirement as (kind-name, key).
    pub fn links_for(&self, requirement: &str) -> Vec<(String, String)> {
        let inner = self.inner.read();
        inner
            .store
            .find_by("links", "requirement", requirement)
            .into_iter()
            .filter_map(|(_, d)| Some((d.path("kind")?.as_str()?.to_string(), d.path("key")?.as_str()?.to_string())))
            .collect()
    }

    /// Removes all traceability links of a requirement (used on retraction).
    pub fn unlink_requirement(&self, requirement: &str) -> Result<usize, StoreError> {
        let mut inner = self.inner.write();
        let ids: Vec<DocId> =
            inner.store.find_by("links", "requirement", requirement).into_iter().map(|(id, _)| id).collect();
        for id in &ids {
            inner.log_delete("links", *id)?;
        }
        Ok(ids.len())
    }

    /// Inserts a raw document into a collection (logged in durable mode).
    pub fn insert_document(&self, collection: &str, doc: Json) -> Result<DocId, StoreError> {
        let mut inner = self.inner.write();
        inner.forget_heads(collection);
        inner.log_insert(collection, doc)
    }

    /// Replaces a raw document in place (logged in durable mode).
    pub fn update_document(&self, collection: &str, id: DocId, doc: Json) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        inner.forget_heads(collection);
        inner.log_update(collection, id, doc)
    }

    /// Deletes a raw document; `Ok(false)` if it did not exist.
    pub fn delete_document(&self, collection: &str, id: DocId) -> Result<bool, StoreError> {
        let mut inner = self.inner.write();
        inner.forget_heads(collection);
        inner.log_delete(collection, id)
    }

    /// Appends an informational marker record to the log (step boundaries,
    /// rollbacks). A no-op for in-memory repositories.
    pub fn record_marker(&self, label: &str) -> Result<(), StoreError> {
        self.inner.write().log_marker(label)
    }

    /// Runs a closure with read access to the raw document store.
    pub fn with_store<R>(&self, f: impl FnOnce(&DocumentStore) -> R) -> R {
        f(&self.inner.read().store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update_delete() {
        let mut s = DocumentStore::new();
        let id = s.insert("c", Json::parse(r#"{"a":1}"#).unwrap());
        assert_eq!(s.get("c", id).unwrap().path("a").and_then(Json::as_f64), Some(1.0));
        s.update("c", id, Json::parse(r#"{"a":2}"#).unwrap()).unwrap();
        assert_eq!(s.get("c", id).unwrap().path("a").and_then(Json::as_f64), Some(2.0));
        assert!(s.delete("c", id));
        assert!(!s.delete("c", id));
        assert!(s.get("c", id).is_none());
    }

    #[test]
    fn update_errors() {
        let mut s = DocumentStore::new();
        assert_eq!(s.update("ghost", DocId(0), Json::Null), Err(StoreError::UnknownCollection("ghost".into())));
        s.insert("c", Json::Null);
        assert_eq!(s.update("c", DocId(9), Json::Null), Err(StoreError::UnknownDocument(DocId(9))));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut s = DocumentStore::new();
        let a = s.insert("c", Json::Null);
        s.delete("c", a);
        let b = s.insert("c", Json::Null);
        assert_ne!(a, b);
    }

    #[test]
    fn find_by_field_path() {
        let mut s = DocumentStore::new();
        s.insert("designs", Json::parse(r#"{"meta":{"req":"IR1"},"n":1}"#).unwrap());
        s.insert("designs", Json::parse(r#"{"meta":{"req":"IR2"},"n":2}"#).unwrap());
        s.insert("designs", Json::parse(r#"{"meta":{"req":"IR1"},"n":3}"#).unwrap());
        let hits = s.find_by("designs", "meta.req", "IR1");
        assert_eq!(hits.len(), 2);
        assert_eq!(s.find_by("designs", "meta.req", "IR9").len(), 0);
        assert_eq!(s.count("designs"), 3);
    }

    #[test]
    fn find_by_matches_numbers_and_bools_by_rendering() {
        let mut s = DocumentStore::new();
        s.insert("c", Json::parse(r#"{"version":3,"live":true}"#).unwrap());
        s.insert("c", Json::parse(r#"{"version":2.5,"live":false}"#).unwrap());
        s.insert("c", Json::parse(r#"{"version":"3","live":null}"#).unwrap());
        // Numeric 3 and string "3" both render/compare as "3".
        assert_eq!(s.find_by("c", "version", "3").len(), 2);
        assert_eq!(s.find_by("c", "version", "2.5").len(), 1);
        assert_eq!(s.find_by("c", "live", "true").len(), 1);
        assert_eq!(s.find_by("c", "live", "false").len(), 1);
        // null / missing fields never match anything, not even "null".
        assert_eq!(s.find_by("c", "live", "null").len(), 0);
    }

    #[test]
    fn peek_next_id_predicts_insert() {
        let mut s = DocumentStore::new();
        assert_eq!(s.peek_next_id("c"), DocId(0));
        let id = s.insert("c", Json::Null);
        assert_eq!(id, DocId(0));
        assert_eq!(s.peek_next_id("c"), DocId(1));
        s.delete("c", id);
        assert_eq!(s.peek_next_id("c"), DocId(1), "ids are not reused after delete");
    }

    #[test]
    fn apply_insert_advances_the_id_counter() {
        let mut s = DocumentStore::new();
        s.apply_insert("c", DocId(7), Json::Null);
        assert_eq!(s.insert("c", Json::Null), DocId(8));
    }

    #[test]
    fn artifact_versions_increment() {
        let r = Repository::new();
        let a1 = r.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v1/>").unwrap();
        let a2 = r.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v2/>").unwrap();
        assert_eq!((a1.version, a2.version), (1, 2));
        assert_eq!(r.latest(ArtifactKind::MdSchema, "unified").unwrap().content, "<MDschema v2/>");
        let history = r.history(ArtifactKind::MdSchema, "unified").unwrap();
        assert_eq!(history.len(), 2);
        assert!(history[0].version < history[1].version);
    }

    #[test]
    fn artifact_kinds_are_isolated() {
        let r = Repository::new();
        r.put_artifact(ArtifactKind::MdSchema, "k", "md").unwrap();
        r.put_artifact(ArtifactKind::EtlFlow, "k", "etl").unwrap();
        assert_eq!(r.latest(ArtifactKind::MdSchema, "k").unwrap().content, "md");
        assert_eq!(r.latest(ArtifactKind::EtlFlow, "k").unwrap().content, "etl");
        assert!(r.latest(ArtifactKind::Requirement, "k").is_err());
    }

    #[test]
    fn keys_lists_unique_sorted() {
        let r = Repository::new();
        r.put_artifact(ArtifactKind::Requirement, "IR2", "x").unwrap();
        r.put_artifact(ArtifactKind::Requirement, "IR1", "x").unwrap();
        r.put_artifact(ArtifactKind::Requirement, "IR1", "y").unwrap();
        assert_eq!(r.keys(ArtifactKind::Requirement), ["IR1", "IR2"]);
    }

    #[test]
    fn requirement_links_roundtrip() {
        let r = Repository::new();
        r.link_requirement("IR1", ArtifactKind::MdSchema, "partial-IR1").unwrap();
        r.link_requirement("IR1", ArtifactKind::EtlFlow, "flow-IR1").unwrap();
        let links = r.links_for("IR1");
        assert_eq!(links.len(), 2);
        assert_eq!(r.unlink_requirement("IR1").unwrap(), 2);
        assert!(r.links_for("IR1").is_empty());
    }

    #[test]
    fn in_memory_document_ops_roundtrip() {
        let r = Repository::new();
        assert!(!r.is_durable());
        assert!(r.recovery_report().is_none());
        let id = r.insert_document("c", Json::parse(r#"{"a":1}"#).unwrap()).unwrap();
        r.update_document("c", id, Json::parse(r#"{"a":2}"#).unwrap()).unwrap();
        assert_eq!(r.with_store(|s| s.get("c", id).unwrap().to_compact_string()), r#"{"a":2}"#);
        r.record_marker("step:test").unwrap();
        r.sync().unwrap();
        assert_eq!(r.delete_document("c", id), Ok(true));
        assert_eq!(r.delete_document("c", id), Ok(false));
    }

    #[test]
    fn concurrent_writers_do_not_lose_versions() {
        let r = std::sync::Arc::new(Repository::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        r.put_artifact(ArtifactKind::EtlFlow, "shared", "v").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.history(ArtifactKind::EtlFlow, "shared").unwrap().len(), 400);
        assert_eq!(r.latest(ArtifactKind::EtlFlow, "shared").unwrap().version, 400);
    }
}
