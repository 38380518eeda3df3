//! Correctness checks: every operation the benchmark issues is counted, and
//! every output is compared against an oracle. Nothing here is timed.

use quarry::Quarry;
use quarry_engine::column::ColumnData;
use quarry_engine::{Catalog, Engine, Relation, RowEngine, RunReport};
use quarry_repository::{ArtifactKind, Json, Repository};
use std::collections::BTreeMap;

/// Operations attempted and failed. An op is one service request, one engine
/// run or one oracle comparison.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one op; a failed one keeps its description.
    pub fn op(&mut self, ok: bool, describe: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(describe());
            }
        }
        ok
    }

    pub fn fail(&mut self, what: String) {
        self.op(false, || what);
    }
}

fn mix(h: u64, v: u64) -> u64 {
    let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    mix(h, bytes.len() as u64)
}

pub fn hash_str(s: &str) -> u64 {
    hash_bytes(0xCBF2_9CE4_8422_2325, s.as_bytes())
}

/// Order- and bit-sensitive content hash of a relation: column names, then
/// every cell in column-major order (floats by bit pattern, strings by
/// content whatever their encoding, NULLs distinct from every datum).
pub fn relation_hash(r: &Relation) -> u64 {
    const NULL: u64 = 0x6E75_6C6C_6E75_6C6C;
    let mut h = mix(0xCBF2_9CE4_8422_2325, r.len() as u64);
    for (name, col) in r.schema.names().zip(r.columns()) {
        h = hash_bytes(h, name.as_bytes());
        let n = col.len();
        let cell = |i: usize, v: u64| if col.is_null(i) { NULL } else { v };
        match col.data() {
            ColumnData::Int(v) => (0..n).for_each(|i| h = mix(h, cell(i, v[i] as u64))),
            ColumnData::Float(v) => (0..n).for_each(|i| h = mix(h, cell(i, v[i].to_bits()))),
            ColumnData::Bool(v) => (0..n).for_each(|i| h = mix(h, cell(i, u64::from(v[i])))),
            ColumnData::Date(v) => (0..n).for_each(|i| h = mix(h, cell(i, v[i] as u64))),
            ColumnData::Dict { codes, pool } => {
                let per_code: Vec<u64> = (0..pool.len() as u32).map(|c| hash_str(pool.get(c))).collect();
                (0..n).for_each(|i| h = mix(h, cell(i, per_code[codes[i] as usize])));
            }
            ColumnData::Str(v) => (0..n).for_each(|i| h = mix(h, cell(i, hash_str(&v[i])))),
            ColumnData::Mixed(v) => (0..n).for_each(|i| h = mix(h, hash_str(&v[i].to_string()))),
        }
    }
    h
}

/// `(rows, content hash)` per table, in name order.
pub type Fingerprint = BTreeMap<String, (usize, u64)>;

pub fn catalog_fingerprint(c: &Catalog) -> Fingerprint {
    c.table_names().map(|t| (t.to_string(), fingerprint_of(c.get(t).expect("listed table")))).collect()
}

fn fingerprint_of(r: &Relation) -> (usize, u64) {
    (r.len(), relation_hash(r))
}

/// Fingerprint of the tables a run loaded (the warehouse, not the sources).
pub fn warehouse_fingerprint(engine: &Engine, report: &RunReport) -> Fingerprint {
    report.loaded.iter().filter_map(|(t, _)| engine.catalog.get(t).map(|r| (t.clone(), fingerprint_of(r)))).collect()
}

/// Checks one run's warehouse: it loaded rows into at least one table, and
/// it is bit-identical to the reference warehouse of this fixture (the first
/// run checked becomes the reference). One op.
pub fn check_warehouse(
    reference: &mut Option<Fingerprint>,
    engine: &Engine,
    report: &RunReport,
    label: &str,
    tally: &mut Tally,
) {
    let got = warehouse_fingerprint(engine, report);
    let loaded: usize = got.values().map(|(rows, _)| rows).sum();
    if !tally.op(loaded > 0, || format!("{label}: the run loaded no rows")) {
        return;
    }
    match reference {
        None => *reference = Some(got),
        Some(want) => {
            tally.op(*want == got, || {
                let table = want.iter().find(|(t, fp)| got.get(*t) != Some(fp)).map_or("<table set>", |(t, _)| t);
                format!("{label}: warehouse differs from the reference run (first difference: {table})")
            });
        }
    }
}

/// The set-up oracle: the instance's unified flow over the small catalog,
/// executed by the product path and by the in-tree row-at-a-time interpreter;
/// every loaded table must be cell-for-cell equal. One op.
pub fn row_engine_oracle(q: &Quarry, small: &Catalog, tally: &mut Tally) {
    let columnar = q.run_etl(small.clone());
    let mut row = RowEngine::from_catalog(small);
    let row_report = row.run(q.unified().1);
    match (columnar, row_report) {
        (Ok((engine, report)), Ok(_)) => {
            let differing = report
                .loaded
                .iter()
                .find(|(t, _)| engine.catalog.get(t).is_none() || engine.catalog.get(t) != row.table(t).as_ref());
            let loaded: usize = report.loaded.iter().map(|(_, n)| n).sum();
            tally.op(differing.is_none() && loaded > 0, || match differing {
                Some((t, _)) => format!("set-up oracle: table `{t}` differs between the columnar and the row engine"),
                None => "set-up oracle: the run loaded no rows".to_string(),
            });
        }
        (Err(e), _) => tally.fail(format!("set-up oracle: columnar run failed: {e}")),
        (_, Err(e)) => tally.fail(format!("set-up oracle: row-engine run failed: {e}")),
    }
}

const KINDS: [ArtifactKind; 7] = [
    ArtifactKind::Requirement,
    ArtifactKind::MdSchema,
    ArtifactKind::EtlFlow,
    ArtifactKind::Ontology,
    ArtifactKind::Deployment,
    ArtifactKind::Trace,
    ArtifactKind::Profile,
];

/// `(kind, key) -> (latest version, content hash)` for every artifact.
pub type Acknowledged = BTreeMap<(ArtifactKind, String), (u64, u64)>;

/// What the live repository holds after the final `sync` returned: the
/// latest version of every artifact. All of it was acknowledged.
pub fn acknowledged(repo: &Repository) -> Acknowledged {
    let mut out = Acknowledged::new();
    for kind in KINDS {
        for key in repo.keys(kind) {
            if let Ok(a) = repo.latest(kind, &key) {
                out.insert((kind, key), (a.version, hash_str(&a.content)));
            }
        }
    }
    out
}

/// The reopened repository must return the latest version of every artifact
/// that was acknowledged. One op per artifact.
pub fn check_recovered(want: &Acknowledged, reopened: &Repository, tally: &mut Tally) {
    tally.op(!want.is_empty(), || "recovery: the session acknowledged no artifact".to_string());
    for ((kind, key), (version, hash)) in want {
        let got = reopened.latest(*kind, key).ok().map(|a| (a.version, hash_str(&a.content)));
        tally.op(got == Some((*version, *hash)), || {
            format!(
                "recovery: {}/{key} v{version} was acknowledged but the reopened repository returns {got:?}",
                kind.as_str()
            )
        });
    }
}

/// Total `put_artifact` calls the repository acknowledged (versions are
/// dense per key, so the latest version is the number of puts).
pub fn acknowledged_puts(ack: &Acknowledged) -> u64 {
    ack.values().map(|(version, _)| version).sum()
}

// ---- input pinning -----------------------------------------------------------

/// The pinned inputs of one `(workload, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputDigest {
    pub xrq_hash: u64,
    pub tables: Fingerprint,
}

impl InputDigest {
    pub fn to_json(&self) -> Json {
        let mut tables = Json::object();
        for (t, (rows, hash)) in &self.tables {
            let mut o = Json::object();
            o.set("rows", Json::Number(*rows as f64));
            o.set("hash", Json::String(format!("{hash:016x}")));
            tables.set(t.clone(), o);
        }
        let mut o = Json::object();
        o.set("xrq", Json::String(format!("{:016x}", self.xrq_hash)));
        o.set("tables", tables);
        o
    }
}

/// Compares a digest with the entry `expected_inputs.json` pins for
/// `(workload, seed)`. `Ok(false)` when nothing is pinned for that pair.
pub fn check_pinned(expected: &str, workload: &str, seed: u64, got: &InputDigest) -> Result<bool, String> {
    let doc = Json::parse(expected).map_err(|e| format!("expected_inputs.json does not parse: {e}"))?;
    if doc.path("seed").and_then(Json::as_f64) != Some(seed as f64) {
        return Ok(false);
    }
    let Some(want) = doc.path(&format!("workloads.{workload}")) else {
        return Ok(false);
    };
    if want.to_compact_string() == got.to_json().to_compact_string() {
        return Ok(true);
    }
    let mut diff = Vec::new();
    if want.path("xrq").and_then(Json::as_str) != Some(format!("{:016x}", got.xrq_hash).as_str()) {
        diff.push("xRQ documents".to_string());
    }
    for (t, fp) in &got.tables {
        let rows = want.path(&format!("tables.{t}.rows")).and_then(Json::as_f64);
        let hash = want.path(&format!("tables.{t}.hash")).and_then(Json::as_str).map(str::to_string);
        if rows != Some(fp.0 as f64) || hash != Some(format!("{:016x}", fp.1)) {
            diff.push(format!("table `{t}`"));
        }
    }
    Err(format!(
        "inputs changed for workload `{workload}` seed {seed}: {} no longer match expected_inputs.json \
         (quarry_engine::tpch::generate or a requirement family drifted; if intended, regenerate with --print-inputs)",
        if diff.is_empty() { "table set".to_string() } else { diff.join(", ") }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_engine::Value;
    use quarry_etl::{ColType, Column, Schema};

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::new(vec![Column::new("k", ColType::Integer), Column::new("s", ColType::Text)]);
        Relation::with_rows(schema, rows)
    }

    #[test]
    fn relation_hash_sees_values_order_and_nulls() {
        let a = rel(vec![vec![Value::Int(1), Value::Str("x".into())], vec![Value::Int(2), Value::Str("y".into())]]);
        let same = rel(vec![vec![Value::Int(1), Value::Str("x".into())], vec![Value::Int(2), Value::Str("y".into())]]);
        let swapped =
            rel(vec![vec![Value::Int(2), Value::Str("y".into())], vec![Value::Int(1), Value::Str("x".into())]]);
        let other = rel(vec![vec![Value::Int(1), Value::Str("x".into())], vec![Value::Int(2), Value::Str("z".into())]]);
        let null = rel(vec![vec![Value::Int(1), Value::Str("x".into())], vec![Value::Null, Value::Str("y".into())]]);
        assert_eq!(relation_hash(&a), relation_hash(&same));
        for different in [&swapped, &other, &null] {
            assert_ne!(relation_hash(&a), relation_hash(different));
        }
    }

    #[test]
    fn tally_counts_and_keeps_failures() {
        let mut t = Tally::default();
        assert!(t.op(true, || unreachable!()));
        assert!(!t.op(false, || "boom".into()));
        t.fail("bang".into());
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.failures, ["boom", "bang"]);
    }

    #[test]
    fn pinning_detects_drift() {
        let got = InputDigest { xrq_hash: 7, tables: [("t".to_string(), (3, 9))].into_iter().collect() };
        let mut workloads = Json::object();
        workloads.set("w", got.to_json());
        let mut doc = Json::object();
        doc.set("seed", Json::Number(42.0));
        doc.set("workloads", workloads);
        let expected = doc.to_pretty_string();
        assert_eq!(check_pinned(&expected, "w", 42, &got), Ok(true));
        assert_eq!(check_pinned(&expected, "w", 7, &got), Ok(false));
        assert_eq!(check_pinned(&expected, "unpinned", 42, &got), Ok(false));
        let mut drifted = got.clone();
        drifted.tables.insert("t".into(), (3, 10));
        let err = check_pinned(&expected, "w", 42, &drifted).unwrap_err();
        assert!(err.contains("inputs changed") && err.contains("table `t`"), "{err}");
    }
}
