//! The delta-encoded version store, from outside.
//!
//! Whatever sequence of documents is put under a key — small edits, moved
//! blocks, full rewrites, empty and one-line documents, CRLF or no trailing
//! newline, multi-byte text — `latest` and `history` return every put byte
//! for byte: from the live repository, in memory, after a reopen, and after
//! a compaction has moved the versions into a snapshot. And stored version
//! documents that cannot be materialized are `StoreError::Corrupt`, never a
//! panic and never a version that silently goes missing.

use proptest::prelude::*;
use quarry_repository::{ArtifactKind, DurabilityOptions, FsyncPolicy, Json, Repository, StoreError};

mod common;
use common::TempDir;

const KIND: ArtifactKind = ArtifactKind::EtlFlow;

fn options(compact_bytes: u64) -> DurabilityOptions {
    DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes, batch_interval: 8 }
}

/// One edit of a line-oriented document: `(kind, position, length)`.
type Edit = (u8, u16, u16);

fn line(seed: usize) -> String {
    let filler = ["kind=\"Join\"", "é € 😀", "", "stamp=\"00112233445566778899\"", "\t"][seed % 5];
    format!("<op id=\"{seed}\" {filler}/>")
}

/// Applies an edit script, returning the document after every step.
fn versions(first_lines: u16, crlf: bool, trailing_newline: bool, edits: &[Edit]) -> Vec<String> {
    let mut lines: Vec<String> = (0..first_lines as usize).map(line).collect();
    let mut fresh = 10_000usize;
    let render = |lines: &[String]| {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = lines.join(eol);
        if trailing_newline && !lines.is_empty() {
            text.push_str(eol);
        }
        text
    };
    let mut out = vec![render(&lines)];
    for &(kind, at, len) in edits {
        let at = if lines.is_empty() { 0 } else { at as usize % lines.len() };
        let len = (len as usize % 7).min(lines.len() - at);
        match kind % 8 {
            0 | 1 => {
                for i in 0..=len {
                    lines.insert(at, line(fresh + i));
                }
                fresh += len + 1;
            }
            2 => drop(lines.drain(at..at + len)),
            3 => {
                let block: Vec<String> = lines.drain(at..at + len).collect();
                let to = if lines.is_empty() { 0 } else { (at * 7 + 3) % lines.len() };
                lines.splice(to..to, block);
            }
            4 => {
                lines = (0..lines.len().max(1)).map(|i| line(fresh + i)).collect();
                fresh += lines.len();
            }
            5 => {} // the same document again
            6 => lines.truncate(1),
            _ => lines.clear(),
        }
        out.push(render(&lines));
    }
    out
}

fn contents(repo: &Repository, key: &str) -> Vec<String> {
    let history = repo.history(KIND, key).expect("history materializes");
    for (i, a) in history.iter().enumerate() {
        assert_eq!(a.version, i as u64 + 1, "versions are dense");
    }
    history.into_iter().map(|a| a.content).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_put_reads_back_byte_for_byte(
        first_lines in 0u16..60,
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
        edits in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..24),
    ) {
        let docs = versions(first_lines, crlf, trailing_newline, &edits);
        let dir = TempDir::new("delta-prop");
        let memory = Repository::new();
        let durable = Repository::open(dir.path(), options(u64::MAX)).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            for repo in [&memory, &durable] {
                // A second key in the same collection must not disturb the first.
                repo.put_artifact(KIND, "other", &format!("{doc}<!-- {i} -->\n")).unwrap();
                let put = repo.put_artifact(KIND, "doc", doc).unwrap();
                prop_assert_eq!((put.version, &put.content), (i as u64 + 1, doc));
                prop_assert_eq!(&repo.latest(KIND, "doc").unwrap().content, doc);
            }
        }
        prop_assert_eq!(&contents(&memory, "doc"), &docs);
        prop_assert_eq!(&contents(&durable, "doc"), &docs);
        prop_assert_eq!(memory.with_store(Clone::clone), durable.with_store(Clone::clone));

        // After a reopen: replayed from the log.
        durable.sync().unwrap();
        drop(durable);
        let reopened = Repository::open(dir.path(), options(1)).unwrap();
        prop_assert_eq!(&contents(&reopened, "doc"), &docs);
        prop_assert_eq!(&reopened.latest(KIND, "doc").unwrap().content, docs.last().unwrap());

        // After a forced compaction: read back from the snapshot, and the
        // next version still finds its base there.
        let next = format!("{}<appended/>\n", docs.last().unwrap());
        prop_assert_eq!(reopened.put_artifact(KIND, "doc", &next).unwrap().version, docs.len() as u64 + 1);
        drop(reopened);
        let compacted = Repository::open(dir.path(), options(u64::MAX)).unwrap();
        prop_assert!(compacted.recovery_report().unwrap().snapshot_seq.is_some(), "the put compacted");
        let mut expected = docs.clone();
        expected.push(next);
        prop_assert_eq!(&contents(&compacted, "doc"), &expected);
        prop_assert_eq!(&compacted.latest(KIND, "doc").unwrap().content, expected.last().unwrap());
    }
}

/// The lifecycle's shape — a design that changes by a few scattered lines
/// per step — is stored as deltas, with a whole version whenever the deltas
/// since the last one have added up to its size.
#[test]
fn small_edits_are_stored_as_deltas_with_bounded_chains() {
    let repo = Repository::new();
    let edits: Vec<Edit> = (0..120u16).map(|i| (0, i * 37, i % 3)).collect();
    let docs = versions(80, false, true, &edits);
    for doc in &docs {
        repo.put_artifact(KIND, "design", doc).unwrap();
    }
    assert_eq!(contents(&repo, "design"), docs);
    let storage = repo.with_store(|s| s.artifact_storage()).unwrap();
    let [design] = storage.as_slice() else { panic!("one artifact: {storage:?}") };
    assert_eq!(design.versions, docs.len());
    let whole = design.versions - design.deltas;
    assert!(whole >= 2 && whole <= docs.len() / 8, "{whole} of {} versions stored whole", docs.len());
    assert!(design.stored_bytes * 5 < design.materialized_bytes, "{design:?}");
    assert_eq!(design.materialized_bytes, docs.iter().map(String::len).sum::<usize>());

    // Between two whole versions the deltas never outweigh the first.
    let (mut whole_bytes, mut chain) = (0usize, 0usize);
    repo.with_store(|s| {
        for (_, doc) in s.scan("artifacts.etl-flow") {
            match (doc.get("content").and_then(Json::as_str), doc.get("delta")) {
                (Some(text), None) => (whole_bytes, chain) = (text.len(), 0),
                (None, Some(delta)) => {
                    chain += delta.to_compact_string().len();
                    assert!(chain <= 2 * whole_bytes, "a chain of {chain} bytes on a {whole_bytes}-byte version");
                }
                other => panic!("not a version document: {other:?}"),
            }
        }
    });
}

/// Equal sequences of puts give byte-identical stores, whichever way the
/// repository was opened in between.
#[test]
fn reopening_between_puts_does_not_change_what_is_stored() {
    let edits: Vec<Edit> = (0..30u16).map(|i| (i as u8, i * 11, i)).collect();
    let docs = versions(40, false, true, &edits);
    let straight = Repository::new();
    let dir = TempDir::new("delta-reopen");
    for doc in &docs {
        straight.put_artifact(KIND, "design", doc).unwrap();
        let reopened = Repository::open(dir.path(), options(u64::MAX)).unwrap();
        reopened.put_artifact(KIND, "design", doc).unwrap();
    }
    let reopened = Repository::open(dir.path(), options(u64::MAX)).unwrap();
    assert_eq!(reopened.with_store(Clone::clone), straight.with_store(Clone::clone));
}

fn assert_corrupt<T: std::fmt::Debug>(what: &str, result: Result<T, StoreError>) {
    match result {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

#[test]
fn hostile_version_documents_are_corrupt_not_skipped() {
    let base = r#"{"key":"k","version":1,"content":"héllo wörld\nsecond line\n"}"#;
    let hostile: [(&str, &[&str]); 12] = [
        ("copy range past the base", &[base, r#"{"key":"k","version":2,"delta":[[0,500]]}"#]),
        ("copy range off a char boundary", &[base, r#"{"key":"k","version":2,"delta":[[2,4]]}"#]),
        ("delta with no base version", &[r#"{"key":"k","version":1,"delta":[]}"#]),
        ("delta whose base version is missing", &[base, r#"{"key":"k","version":3,"delta":[[0,5]]}"#]),
        ("both content and delta", &[r#"{"key":"k","version":1,"content":"x","delta":[]}"#]),
        ("neither content nor delta", &[r#"{"key":"k","version":1}"#]),
        ("content that is not a string", &[r#"{"key":"k","version":1,"content":7}"#]),
        ("delta that is not an array", &[base, r#"{"key":"k","version":2,"delta":"[[0,5]]"}"#]),
        ("delta op of the wrong shape", &[base, r#"{"key":"k","version":2,"delta":[[0,5,1]]}"#]),
        ("fractional version", &[r#"{"key":"k","version":1.5,"content":"x"}"#]),
        ("missing version", &[r#"{"key":"k","content":"x"}"#]),
        ("version stored twice", &[base, r#"{"key":"k","version":1,"content":"y"}"#]),
    ];
    for (what, docs) in hostile {
        let repo = Repository::new();
        repo.put_artifact(ArtifactKind::MdSchema, "bystander", "<ok/>").unwrap();
        for doc in docs {
            repo.insert_document("artifacts.md-schema", Json::parse(doc).unwrap()).unwrap();
        }
        assert_corrupt(what, repo.latest(ArtifactKind::MdSchema, "k"));
        assert_corrupt(what, repo.history(ArtifactKind::MdSchema, "k"));
        assert_corrupt(what, repo.put_artifact(ArtifactKind::MdSchema, "k", "next"));
        assert_corrupt(what, repo.with_store(|s| s.artifact_storage()));
        // Other artifacts of the collection stay readable.
        assert_eq!(repo.latest(ArtifactKind::MdSchema, "bystander").unwrap().content, "<ok/>");
        assert_eq!(repo.keys(ArtifactKind::MdSchema), ["bystander", "k"]);
    }
}

/// Raw document writes into an artifact collection are seen by the next
/// read: the cached head of the key is not trusted past them.
#[test]
fn raw_writes_into_an_artifact_collection_are_not_masked_by_the_cached_head() {
    let repo = Repository::new();
    repo.put_artifact(ArtifactKind::MdSchema, "k", "one\n").unwrap();
    assert_eq!(repo.latest(ArtifactKind::MdSchema, "k").unwrap().version, 1);
    let raw = Json::parse(r#"{"key":"k","version":2,"content":"two\n"}"#).unwrap();
    let id = repo.insert_document("artifacts.md-schema", raw).unwrap();
    assert_eq!(repo.latest(ArtifactKind::MdSchema, "k").unwrap().content, "two\n");
    assert_eq!(repo.put_artifact(ArtifactKind::MdSchema, "k", "three\n").unwrap().version, 3);
    assert_eq!(repo.delete_document("artifacts.md-schema", id), Ok(true));
    let versions: Vec<u64> = repo.history(ArtifactKind::MdSchema, "k").unwrap().iter().map(|a| a.version).collect();
    assert_eq!(versions, [1, 3]);
}
