//! The kill-at-every-offset crash matrix and compaction-crash suite.
//!
//! A durable repository's contract: after a crash at *any* byte of the log —
//! mid-record, at a record boundary, before the first record — recovery
//! yields a store bit-identical to the state after some prefix of the
//! acknowledged mutations, and the reported replay count names exactly that
//! prefix. These tests run a scripted mutation sequence where every call
//! appends exactly one record, mirror the store after each record, then
//! truncate the log at every byte offset and compare.

use quarry_repository::{
    recover, snapshot, wal, ArtifactKind, DocumentStore, DurabilityOptions, FsyncPolicy, Json, Repository, StoreError,
};

mod common;
use common::TempDir;
use std::path::Path;

/// No explicit fsyncs (the matrix only needs process-visible bytes) and no
/// compaction (the matrix reads one segment).
fn matrix_options() -> DurabilityOptions {
    DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes: u64::MAX, batch_interval: 8 }
}

fn bits(store: &DocumentStore) -> String {
    snapshot::snapshot_bytes(store)
}

/// A unified design of `facts` facts, one element per line — the shape
/// whose successive versions the repository stores as deltas.
fn design(facts: usize) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<MDschema name=\"unified\">\n");
    for i in 0..facts {
        out.push_str(&format!("  <fact name=\"fact_{i}\" note=\"é € 😀\">\n    <measure name=\"m{i}\"/>\n  </fact>\n"));
    }
    out.push_str("</MDschema>\n");
    out
}

/// Whether a stored version document holds a delta.
fn is_delta(doc: &Json) -> bool {
    doc.get("delta").is_some()
}

/// Runs the scripted mutation sequence — every call appends exactly one log
/// record — and returns the mirrored store state after each record:
/// `mirror[r]` is the state once `r` records have applied.
fn run_script(repo: &Repository) -> Vec<DocumentStore> {
    let mut mirror = vec![repo.with_store(Clone::clone)];
    let mut step = |repo: &Repository| mirror.push(repo.with_store(Clone::clone));

    repo.put_artifact(ArtifactKind::Requirement, "IR1", "<xrq id='IR1'/>").unwrap();
    step(repo);
    repo.put_artifact(ArtifactKind::MdSchema, "partial-IR1", "<MDschema partial/>").unwrap();
    step(repo);
    repo.link_requirement("IR1", ArtifactKind::MdSchema, "partial-IR1").unwrap();
    step(repo);
    repo.put_artifact(ArtifactKind::EtlFlow, "flow-IR1", "<xlm/>").unwrap();
    step(repo);
    repo.link_requirement("IR1", ArtifactKind::EtlFlow, "flow-IR1").unwrap();
    step(repo);
    repo.record_marker("step:add_requirement:IR1").unwrap();
    step(repo);
    repo.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v1/>").unwrap();
    step(repo);
    repo.put_artifact(ArtifactKind::Requirement, "IR2", "<xrq id='IR2' note='é € 😀'/>").unwrap();
    step(repo);
    repo.link_requirement("IR2", ArtifactKind::MdSchema, "partial-IR2").unwrap();
    step(repo);
    repo.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v2/>").unwrap();
    step(repo);
    let note = repo.insert_document("notes", Json::parse(r#"{"text":"free-form","n":3}"#).unwrap()).unwrap();
    step(repo);
    repo.update_document("notes", note, Json::parse(r#"{"text":"edited","n":4}"#).unwrap()).unwrap();
    step(repo);
    repo.record_marker("rollback:IR2").unwrap();
    step(repo);
    assert_eq!(repo.unlink_requirement("IR2").unwrap(), 1, "one link, one delete record");
    step(repo);
    assert_eq!(repo.delete_document("notes", note), Ok(true));
    step(repo);
    repo.put_artifact(ArtifactKind::Deployment, "unified", "<deploy/>").unwrap();
    step(repo);
    repo.put_artifact(ArtifactKind::Trace, "trace-1", r#"{"span":1}"#).unwrap();
    step(repo);
    // A growing design: the first version is stored whole, the later ones as
    // deltas against their predecessor, so the matrix cuts delta records at
    // every byte too.
    for facts in [6, 7, 9, 8] {
        repo.put_artifact(ArtifactKind::EtlFlow, "growing", &design(facts)).unwrap();
        step(repo);
    }
    let stored: Vec<bool> = repo
        .with_store(|s| s.find_by("artifacts.etl-flow", "key", "growing").iter().map(|(_, d)| is_delta(d)).collect());
    assert_eq!(stored, [false, true, true, true], "the script must log delta records");

    mirror
}

/// Builds the scripted log, returning its bytes and the per-record mirror.
fn scripted_log(tag: &str) -> (Vec<u8>, Vec<DocumentStore>) {
    let live = TempDir::new(tag);
    let repo = Repository::open(live.path(), matrix_options()).unwrap();
    let mirror = run_script(&repo);
    repo.sync().unwrap();
    drop(repo);
    let bytes = std::fs::read(live.path().join("wal-1.log")).unwrap();
    (bytes, mirror)
}

#[test]
fn kill_at_every_offset_recovers_the_exact_prefix() {
    let (bytes, mirror) = scripted_log("matrix");
    let records = mirror.len() - 1;

    let cut_dir = TempDir::new("matrix-cut");
    let mut reachable = std::collections::BTreeSet::new();
    for cut in 0..=bytes.len() {
        std::fs::write(cut_dir.path().join("wal-1.log"), &bytes[..cut]).unwrap();
        let (store, report) = recover(cut_dir.path()).expect("every truncation recovers");
        let n = report.records_replayed as usize;
        assert!(n <= records, "cut {cut} replayed {n} > {records}");
        assert_eq!(store, mirror[n], "cut {cut}: store differs from the {n}-record prefix");
        assert_eq!(bits(&store), bits(&mirror[n]), "cut {cut}: serialized state differs");
        store.artifact_storage().expect("every recovered prefix materializes");

        // Cross-check the torn accounting against the frame decoder.
        let (decoded, clean) = wal::decode_records(&bytes[..cut]);
        assert_eq!(decoded.len(), n, "cut {cut}");
        assert_eq!(report.torn_bytes_truncated as usize, cut - clean, "cut {cut}");
        assert_eq!(report.segments_replayed, [1], "cut {cut}");
        reachable.insert(n);
    }

    // Every prefix length 0..=records is hit by some truncation point — the
    // matrix actually exercised each record boundary.
    assert_eq!(reachable.len(), records + 1);
    assert_eq!(reachable.last(), Some(&records));
}

#[test]
fn full_log_replays_every_record_and_marker() {
    let (bytes, mirror) = scripted_log("full");
    let dir = TempDir::new("full-copy");
    std::fs::write(dir.path().join("wal-1.log"), &bytes).unwrap();
    let (store, report) = recover(dir.path()).unwrap();
    assert_eq!(store, *mirror.last().unwrap());
    assert_eq!(report.records_replayed as usize, mirror.len() - 1);
    assert_eq!(report.torn_bytes_truncated, 0);
    assert_eq!(report.snapshot_seq, None);
    assert_eq!(report.markers, ["step:add_requirement:IR1", "rollback:IR2"]);
    // The delta records materialize to exactly what was put.
    let repo = Repository::open(dir.path(), matrix_options()).unwrap();
    let growing: Vec<String> =
        repo.history(ArtifactKind::EtlFlow, "growing").unwrap().into_iter().map(|a| a.content).collect();
    assert_eq!(growing, [design(6), design(7), design(9), design(8)]);
}

#[test]
fn recovery_is_idempotent() {
    let (bytes, _) = scripted_log("idem");
    let dir = TempDir::new("idem-copy");
    // A mid-record cut: recovery must not mutate anything it then depends on.
    let cut = bytes.len() - 7;
    std::fs::write(dir.path().join("wal-1.log"), &bytes[..cut]).unwrap();
    let (first_store, first_report) = recover(dir.path()).unwrap();
    let (second_store, second_report) = recover(dir.path()).unwrap();
    assert_eq!(first_store, second_store);
    assert_eq!(first_report, second_report);
    assert_eq!(bits(&first_store), bits(&second_store));
}

#[test]
fn reopen_after_torn_tail_truncates_and_keeps_appending() {
    let (bytes, mirror) = scripted_log("reopen");
    let dir = TempDir::new("reopen-copy");
    let cut = bytes.len() - 3; // mid final record
    std::fs::write(dir.path().join("wal-1.log"), &bytes[..cut]).unwrap();

    let repo = Repository::open(dir.path(), matrix_options()).unwrap();
    let report = repo.recovery_report().unwrap();
    let n = report.records_replayed as usize;
    assert_eq!(repo.with_store(Clone::clone), mirror[n]);
    assert!(report.torn_bytes_truncated > 0);
    // The torn tail is gone from disk, not just skipped.
    let (_, clean) = wal::decode_records(&bytes[..cut]);
    assert_eq!(std::fs::metadata(dir.path().join("wal-1.log")).unwrap().len(), clean as u64);

    // New appends after the truncation survive another restart.
    repo.put_artifact(ArtifactKind::Ontology, "domain", "<owl/>").unwrap();
    let live = repo.with_store(Clone::clone);
    repo.sync().unwrap();
    drop(repo);
    let (store, report) = recover(dir.path()).unwrap();
    assert_eq!(store, live);
    assert_eq!(report.records_replayed as usize, n + 1);
    assert_eq!(report.torn_bytes_truncated, 0);
}

#[test]
fn compaction_preserves_state_and_cleans_old_segments() {
    let dir = TempDir::new("compact");
    let options = DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes: 600, batch_interval: 4 };
    let repo = Repository::open(dir.path(), options).unwrap();
    for i in 0..40 {
        repo.put_artifact(ArtifactKind::EtlFlow, &format!("k{}", i % 5), "<xlm with some body text/>").unwrap();
    }
    let live = repo.with_store(Clone::clone);
    repo.sync().unwrap();
    drop(repo);

    assert!(!dir.path().join("wal-1.log").exists(), "compaction removed the first segment");
    let (store, report) = recover(dir.path()).unwrap();
    let seq = report.snapshot_seq.expect("at least one compaction ran");
    assert!(seq > 1);
    assert_eq!(store, live);
    assert_eq!(bits(&store), bits(&live));

    // The compacted directory keeps working as a repository.
    let repo = Repository::open(dir.path(), options).unwrap();
    assert_eq!(repo.with_store(Clone::clone), live);
    repo.put_artifact(ArtifactKind::EtlFlow, "k0", "<xlm post-compaction/>").unwrap();
    assert!(repo.latest(ArtifactKind::EtlFlow, "k0").unwrap().content.contains("post-compaction"));
}

/// Crash window 1: compaction created the next segment but died before the
/// snapshot rename — recovery must replay the old segment plus the empty new
/// one and see the full state; the `.tmp` is garbage.
#[test]
fn compaction_crash_before_snapshot_rename_loses_nothing() {
    let (bytes, mirror) = scripted_log("precrash");
    let dir = TempDir::new("precrash-state");
    std::fs::write(dir.path().join("wal-1.log"), &bytes).unwrap();
    std::fs::write(dir.path().join("wal-2.log"), b"").unwrap();
    std::fs::write(dir.path().join("snapshot-2.json.tmp"), b"{ half-written garb").unwrap();

    let (store, report) = recover(dir.path()).unwrap();
    assert_eq!(store, *mirror.last().unwrap());
    assert_eq!(report.snapshot_seq, None);
    assert_eq!(report.segments_replayed, [1, 2]);

    // Opening for append also clears the leftover tmp file.
    let repo = Repository::open(dir.path(), matrix_options()).unwrap();
    assert_eq!(repo.with_store(Clone::clone), *mirror.last().unwrap());
    drop(repo);
    assert!(!dir.path().join("snapshot-2.json.tmp").exists());
}

/// Crash window 2: the snapshot rename landed but the old segment was never
/// deleted — recovery must prefer the snapshot and skip the stale segment
/// (replaying it on top would double-apply every mutation).
#[test]
fn compaction_crash_after_snapshot_rename_does_not_double_apply() {
    let (bytes, mirror) = scripted_log("postcrash");
    let full = mirror.last().unwrap();
    let dir = TempDir::new("postcrash-state");
    std::fs::write(dir.path().join("wal-1.log"), &bytes).unwrap();
    std::fs::write(dir.path().join("wal-2.log"), b"").unwrap();
    snapshot::write_snapshot(dir.path(), 2, full).unwrap();

    let (store, report) = recover(dir.path()).unwrap();
    assert_eq!(store, *full);
    assert_eq!(bits(&store), bits(full));
    assert_eq!(report.snapshot_seq, Some(2));
    assert_eq!(report.segments_replayed, [2]);
    assert_eq!(report.records_replayed, 0);

    // Reopening cleans the stale covered segment.
    let repo = Repository::open(dir.path(), matrix_options()).unwrap();
    assert_eq!(repo.with_store(Clone::clone), *full);
    drop(repo);
    assert!(!dir.path().join("wal-1.log").exists());
}

/// A torn record in a non-final segment is damage recovery must refuse to
/// paper over — acknowledged records would silently vanish otherwise.
#[test]
fn torn_record_in_a_non_final_segment_is_corruption() {
    let (bytes, _) = scripted_log("midtorn");
    let dir = TempDir::new("midtorn-state");
    std::fs::write(dir.path().join("wal-1.log"), &bytes[..bytes.len() - 5]).unwrap();
    std::fs::write(dir.path().join("wal-2.log"), b"").unwrap();
    match recover(dir.path()) {
        Err(StoreError::Corrupt { path, .. }) => assert!(path.contains("wal-1.log")),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn durable_repository_round_trips_across_restarts() {
    let dir = TempDir::new("restart");
    let options = DurabilityOptions { fsync: FsyncPolicy::Always, compact_bytes: u64::MAX, batch_interval: 1 };
    {
        let repo = Repository::open(dir.path(), options).unwrap();
        repo.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v1/>").unwrap();
        repo.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v2/>").unwrap();
        repo.link_requirement("IR1", ArtifactKind::MdSchema, "unified").unwrap();
    }
    let repo = Repository::open(dir.path(), options).unwrap();
    assert!(repo.is_durable());
    assert_eq!(repo.latest(ArtifactKind::MdSchema, "unified").unwrap().version, 2);
    assert_eq!(repo.history(ArtifactKind::MdSchema, "unified").unwrap().len(), 2);
    assert_eq!(repo.links_for("IR1"), [("md-schema".to_string(), "unified".to_string())]);
    // Version numbering continues where the pre-restart run stopped.
    assert_eq!(repo.put_artifact(ArtifactKind::MdSchema, "unified", "<MDschema v3/>").unwrap().version, 3);
}

/// A directory written by the build before versions could be deltas
/// (`tests/fixtures/parent-format`: a snapshot of eight mutations plus a
/// two-record log, every version `{"key","version","content"}`): it opens,
/// reads back byte for byte, re-serializes to the same snapshot bytes, and
/// takes new versions — deltas against the old whole ones.
#[test]
fn a_directory_in_the_parent_format_opens_reads_and_keeps_growing() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-format");
    let dir = TempDir::new("parent-format");
    for name in ["snapshot-2.json", "wal-2.log"] {
        std::fs::copy(fixture.join(name), dir.path().join(name)).unwrap();
    }
    let snapshot_file = std::fs::read_to_string(fixture.join("snapshot-2.json")).unwrap();
    let snapshot_only = TempDir::new("parent-format-snapshot");
    std::fs::write(snapshot_only.path().join("snapshot-2.json"), &snapshot_file).unwrap();
    assert_eq!(bits(&recover(snapshot_only.path()).unwrap().0), snapshot_file, "snapshot bytes are unchanged");

    let repo = Repository::open(dir.path(), matrix_options()).unwrap();
    let report = repo.recovery_report().unwrap();
    assert_eq!((report.snapshot_seq, report.records_replayed), (Some(2), 2));
    let history = repo.history(ArtifactKind::MdSchema, "unified").unwrap();
    assert_eq!(history.len(), 6);
    for (i, version) in history.iter().enumerate() {
        assert_eq!((version.version, &version.content), (i as u64 + 1, &design(i + 1)));
    }
    assert_eq!(repo.latest(ArtifactKind::Requirement, "IR1").unwrap().content, "<xrq id='IR1' note='é € 😀'/>");
    assert_eq!(repo.latest(ArtifactKind::EtlFlow, "unified").unwrap().content, "<xlm v1/>\n");
    assert_eq!(repo.links_for("IR1"), [("md-schema".to_string(), "unified".to_string())]);

    assert_eq!(repo.put_artifact(ArtifactKind::MdSchema, "unified", &design(7)).unwrap().version, 7);
    repo.sync().unwrap();
    drop(repo);
    let repo = Repository::open(dir.path(), matrix_options()).unwrap();
    assert_eq!(repo.latest(ArtifactKind::MdSchema, "unified").unwrap().content, design(7));
    let stored = repo.with_store(|s| s.artifact_storage()).unwrap();
    let unified = stored.iter().find(|a| a.kind == ArtifactKind::MdSchema).unwrap();
    assert_eq!((unified.versions, unified.deltas), (7, 1), "the new version is a delta against a parent-format one");
}
