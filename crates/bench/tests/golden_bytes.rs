//! Golden bytes of every generated XML document.
//!
//! Stored artifact versions are line deltas against their predecessor, the
//! WAL ratio is a benchmark metric and `latest`/`history` promise
//! byte-identical documents, so the writers may not move a byte. The
//! literals below were computed with the DOM-building writers of the commit
//! before the streaming `XmlWriter` replaced them; each is the FNV-1a 64 of
//! one class of documents over a whole design session, so a change to any
//! document of any step shows.
//!
//! A second session changes and removes requirements on the way, the way the
//! lifecycle benchmark's `design-session` does. Its pins also cover what a
//! step persists beside the documents: the flow epoch and the number of
//! puts of each unified document.

use quarry::Quarry;
use quarry_bench::{high_overlap_family, requirement_family};
use quarry_deployer::{ExecutionPlatform, PostgresPdi};
use quarry_formats::{xlm, xmd, Requirement};
use quarry_repository::ArtifactKind;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one document in, closed by a byte no document contains, so
    /// moving bytes between neighbouring documents changes the hash.
    fn fold(&mut self, doc: &str) {
        for b in doc.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes per document class over one session: every requirement, every
/// partial design, the unified design after every step, and the deployed
/// KTR of the final design.
fn session_hashes(family: Vec<Requirement>) -> [(&'static str, u64); 6] {
    let [mut xrq, mut partial_xmd, mut partial_xlm, mut unified_xmd, mut unified_xlm, mut ktr] = [Fnv::new(); 6];
    let mut q = Quarry::tpch();
    for r in family {
        let partial = q.interpret(&r).expect("the family is MD-compliant");
        xrq.fold(&r.to_string_pretty());
        partial_xmd.fold(&xmd::to_string(&partial.md));
        partial_xlm.fold(&xlm::to_string(&partial.etl));
        q.add_requirement(r).expect("integrates");
        let (md, etl) = q.unified();
        unified_xmd.fold(&xmd::to_string(md));
        unified_xlm.fold(&xlm::to_string(etl));
    }
    let (md, etl) = q.unified();
    let deployed = PostgresPdi::default().deploy(md, etl).expect("the unified design deploys");
    ktr.fold(deployed.file("unified.ktr").expect("the platform emits the KTR"));
    [
        ("xrq", xrq.0),
        ("partial_xmd", partial_xmd.0),
        ("partial_xlm", partial_xlm.0),
        ("unified_xmd", unified_xmd.0),
        ("unified_xlm", unified_xlm.0),
        ("ktr", ktr.0),
    ]
}

/// In [`session_hashes`] order: xrq, partial xMD, partial xLM, unified xMD,
/// unified xLM, KTR.
const HIGH_N8: [u64; 6] = [
    0x5e9f_4076_ec33_02c2,
    0x5d8b_6a29_b3d1_e84f,
    0xc445_fe76_24f6_f33b,
    0x00c0_d954_1a56_d068,
    0x7d5f_c3a1_db1e_618c,
    0x0fea_3645_07a0_e9c7,
];
const LOW_N64: [u64; 6] = [
    0x0eb7_9c6b_ed5f_d61e,
    0x7650_7c86_bfd8_be10,
    0x35ba_4b34_9f57_c3e2,
    0x6a43_3c0d_be9e_2a1e,
    0xb012_5f44_fb0d_5fa9,
    0xb78d_05de_91ee_78a2,
];
/// In [`change_session_hashes`] order: unified xMD, unified xLM, epochs and
/// versions. A change writes one version of each unified document.
const LOW_N64_CHANGES: [u64; 3] = [0x3cb5_e6ec_551e_ab16, 0x2369_ec3e_6312_1bce, 0xdfaf_1823_f310_cdc4];
const TPCH_OWLX: u64 = 0x6f28_fc78_5678_0683;

/// The benchmark's session pattern: after every 8th add, an earlier
/// requirement changes (dimensions reversed, slicer dropped) and another one
/// is removed. After every step the unified xMD and xLM are hashed, and so
/// are the persisted flow epoch and the stored version numbers of both
/// unified documents.
fn change_session_hashes(family: Vec<Requirement>) -> [(&'static str, u64); 3] {
    let [mut unified_xmd, mut unified_xlm, mut epochs] = [Fnv::new(); 3];
    let mut q = Quarry::tpch();
    let mut fold = |q: &Quarry| {
        let (md, etl) = q.unified();
        unified_xmd.fold(&xmd::to_string(md));
        unified_xlm.fold(&xlm::to_string(etl));
        let epoch = q.repository().with_store(|s| {
            let (_, doc) = s.find_by("lifecycle", "name", "flow-epoch").into_iter().next().expect("persisted");
            doc.get("epoch").and_then(|e| e.as_f64()).expect("the epoch is a number")
        });
        let version = |kind| q.repository().latest(kind, "unified").expect("persisted").version;
        epochs.fold(&format!("{epoch} {} {}", version(ArtifactKind::MdSchema), version(ArtifactKind::EtlFlow)));
    };
    for (i, r) in family.iter().enumerate() {
        q.add_requirement(r.clone()).expect("integrates");
        fold(&q);
        if (i + 1) % 8 == 0 {
            let mut changed = family[i - 5].clone();
            changed.dimensions.reverse();
            changed.slicers.clear();
            q.change_requirement(changed).expect("the changed requirement integrates");
            fold(&q);
            q.remove_requirement(&family[i - 2].id).expect("the removal validates");
            fold(&q);
        }
    }
    [("unified_xmd", unified_xmd.0), ("unified_xlm", unified_xlm.0), ("epochs", epochs.0)]
}

fn assert_pinned<const N: usize>(family: &str, got: [(&'static str, u64); N], pinned: [u64; N]) {
    assert!(got.map(|(_, hash)| hash) == pinned, "{family}: documents changed, now {got:#018x?}");
}

#[test]
fn high_overlap_n8_documents_are_byte_identical_to_the_dom_writers() {
    assert_pinned("high N=8", session_hashes(high_overlap_family(8)), HIGH_N8);
}

#[test]
fn low_overlap_n64_documents_are_byte_identical_to_the_dom_writers() {
    assert_pinned("low N=64", session_hashes(requirement_family(64)), LOW_N64);
}

#[test]
fn low_overlap_n64_change_session_is_byte_identical() {
    assert_pinned("low N=64 with changes", change_session_hashes(requirement_family(64)), LOW_N64_CHANGES);
}

#[test]
fn tpch_ontology_document_is_byte_identical_to_the_dom_writer() {
    let mut owl = Fnv::new();
    owl.fold(&quarry_ontology::owlx::to_string(&quarry_ontology::tpch::domain().ontology));
    assert_eq!(owl.0, TPCH_OWLX, "owlx document changed (now {:#018x})", owl.0);
}
