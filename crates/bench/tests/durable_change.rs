//! The crash matrix of a durable requirement change.
//!
//! A change is one lifecycle step: the retracted design between its removal
//! and its re-add is never written. So a crash at any record boundary inside
//! the change recovers each unified document as it was before the change or
//! as it is after it, and the change adds exactly one version to each.

use quarry::{Quarry, QuarryConfig};
use quarry_repository::{recover, wal, ArtifactKind, DurabilityOptions, Repository};
use std::path::{Path, PathBuf};

/// A log record is an 8-byte frame header (payload length, checksum)
/// followed by its payload.
const FRAME_HEADER: usize = 8;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("quarry-change-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The unified xMD and xLM a repository holds, with their versions.
type Unified = [(String, u64); 2];

fn unified(repo: &Repository) -> Unified {
    [ArtifactKind::MdSchema, ArtifactKind::EtlFlow].map(|kind| {
        let a = repo.latest(kind, "unified").expect("the unified design is persisted");
        (a.content, a.version)
    })
}

fn log_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("wal-1.log")).expect("one log segment")
}

#[test]
fn a_crash_inside_a_durable_change_recovers_the_design_before_or_after_it() {
    let live = TempDir::new("live");
    let domain = quarry_ontology::tpch::domain();
    let mut cfg = QuarryConfig::tpch(0.01);
    cfg.repository_dir = Some(live.0.clone());
    let mut q = Quarry::try_with_config(domain.ontology, domain.sources, cfg).expect("a fresh directory opens");
    let family = quarry_bench::requirement_family(8);
    for r in &family {
        q.add_requirement(r.clone()).expect("the family integrates");
    }
    q.optimize().expect("the search runs");
    q.repository().sync().unwrap();
    let (start, before) = (log_bytes(&live.0).len(), unified(q.repository()));

    // The benchmark's change: dimensions reversed, slicer dropped.
    let mut changed = family[2].clone();
    changed.dimensions.reverse();
    changed.slicers.clear();
    q.change_requirement(changed).expect("the changed requirement integrates");
    q.repository().sync().unwrap();
    let after = unified(q.repository());
    drop(q);
    let bytes = log_bytes(&live.0);
    assert_eq!(
        std::fs::read_dir(&live.0).unwrap().count(),
        1,
        "the session stays in one segment (no compaction), so the matrix reads all of it"
    );
    for ((text_before, v_before), (text_after, v_after)) in before.iter().zip(&after) {
        assert_ne!(text_before, text_after, "the change changes both unified documents");
        assert_eq!(*v_after, v_before + 1, "a change adds exactly one version to each unified key");
    }

    // Every record boundary from the change's first record to its last.
    let (mutations, clean) = wal::decode_records(&bytes);
    assert_eq!(clean, bytes.len(), "the synced log has no torn tail");
    let mut boundaries = vec![0];
    for m in &mutations {
        boundaries.push(boundaries.last().unwrap() + FRAME_HEADER + m.to_json().to_compact_string().len());
    }
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    let first = boundaries.iter().position(|&b| b == start).expect("the pre-change log ends on a boundary");
    let cuts = &boundaries[first..];
    assert!(cuts.len() > 3, "the change writes several records: {}", cuts.len() - 1);

    let mut seen = Vec::new();
    for (n, &cut) in cuts.iter().enumerate().map(|(i, cut)| (first + i, cut)) {
        let cut_dir = TempDir::new("cut");
        std::fs::write(cut_dir.0.join("wal-1.log"), &bytes[..cut]).unwrap();
        let (_, report) = recover(&cut_dir.0).expect("every cut recovers");
        assert_eq!((report.records_replayed as usize, report.torn_bytes_truncated), (n, 0), "cut at {cut}");
        assert_eq!(wal::decode_records(&bytes[..cut]).1, cut);
        let repo = Repository::open(&cut_dir.0, DurabilityOptions::default()).expect("every cut reopens");
        let got = unified(&repo);
        drop(repo);
        for (i, name) in ["xMD", "xLM"].into_iter().enumerate() {
            assert!(
                got[i] == before[i] || got[i] == after[i],
                "cut after record {n}: the unified {name} (v{}) is neither the pre- nor the post-change design",
                got[i].1
            );
        }
        seen.push(got.map(|(_, version)| version));
    }
    assert_eq!(seen.first(), Some(&before.map(|(_, v)| v)));
    assert_eq!(seen.last(), Some(&after.map(|(_, v)| v)));
}
