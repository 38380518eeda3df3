//! Point-in-time snapshots of the document store.
//!
//! A snapshot is one JSON document holding every collection — documents *and*
//! the `next_id` counters, so a store restored from a snapshot assigns the
//! same future ids the original would have. `BTreeMap` iteration makes the
//! serialization deterministic: equal stores produce byte-identical
//! snapshots, which is what lets the recovery tests assert bit-identity by
//! comparing snapshot bytes.
//!
//! Snapshots are written crash-safely: the document goes to a `.tmp` sibling
//! first, is fsynced, and is then atomically renamed into place (followed by
//! a best-effort directory fsync). A crash at any point leaves either no
//! snapshot or a complete one — never a half-written file under the real
//! name. Recovery treats `.tmp` leftovers as garbage and deletes them.

use crate::json::{write_json, write_string, Json};
use crate::store::{DocId, DocumentStore, StoreError};
use crate::wal::io_err;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Serializes a store piece by piece — `emit` sees the snapshot document in
/// order, one document of the store at a time — so writing a snapshot holds
/// neither a second copy of the store nor the whole text. Deterministic:
/// collection and document order follow the `BTreeMap`s.
fn write_store<E>(store: &DocumentStore, mut emit: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    let number = |n: u64, out: &mut String| write_json(&Json::Number(n as f64), out, None, 0);
    let mut piece = String::from("{\"collections\":[");
    for (c, (name, col)) in store.collections.iter().enumerate() {
        piece.push_str(if c > 0 { ",{\"name\":" } else { "{\"name\":" });
        write_string(name, &mut piece);
        piece.push_str(",\"next_id\":");
        number(col.next_id, &mut piece);
        piece.push_str(",\"docs\":[");
        for (d, (id, doc)) in col.docs.iter().enumerate() {
            piece.push_str(if d > 0 { ",{\"id\":" } else { "{\"id\":" });
            number(id.0, &mut piece);
            piece.push_str(",\"doc\":");
            write_json(doc, &mut piece, None, 0);
            piece.push('}');
            emit(&piece)?;
            piece.clear();
        }
        piece.push_str("]}");
    }
    piece.push_str("]}");
    emit(&piece)
}

/// Reads a parsed snapshot document back into a store. `None` means the
/// document is not a valid snapshot (the caller reports the file as
/// corrupt).
pub(crate) fn store_from_json(v: &Json) -> Option<DocumentStore> {
    let mut store = DocumentStore::new();
    for c in v.get("collections")?.as_array()? {
        let name = c.get("name")?.as_str()?;
        let next_id = c.get("next_id")?.as_f64()? as u64;
        for d in c.get("docs")?.as_array()? {
            let id = DocId(d.get("id")?.as_f64()? as u64);
            store.apply_insert(name, id, d.get("doc")?.clone());
        }
        // apply_insert only ratchets past the highest id; restore the exact
        // counter (deletes can leave it above max(id)+1, and a collection
        // may have no surviving documents at all).
        store.collections.entry(name.to_string()).or_default().next_id = next_id;
    }
    Some(store)
}

/// The canonical snapshot bytes for a store — exposed so tests can assert
/// bit-identity of two stores by comparing serialized forms.
pub fn snapshot_bytes(store: &DocumentStore) -> String {
    let mut out = String::new();
    let appended = write_store(store, |piece| {
        out.push_str(piece);
        Ok::<(), std::convert::Infallible>(())
    });
    match appended {
        Ok(()) => out,
        Err(never) => match never {},
    }
}

pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq}.json"))
}

/// Writes `snapshot-<seq>.json` crash-safely (write `.tmp` → fsync → rename
/// → fsync dir). Public so the compaction-crash tests can construct the
/// post-rename state directly.
pub fn write_snapshot(dir: &Path, seq: u64, store: &DocumentStore) -> Result<PathBuf, StoreError> {
    let path = snapshot_path(dir, seq);
    let tmp = dir.join(format!("snapshot-{seq}.json.tmp"));
    {
        let file = std::fs::File::create(&tmp).map_err(|e| io_err("snapshot create", &tmp, e))?;
        let mut f = std::io::BufWriter::with_capacity(256 * 1024, file);
        write_store(store, |piece| f.write_all(piece.as_bytes()))
            .and_then(|()| f.flush())
            .map_err(|e| io_err("snapshot write", &tmp, e))?;
        f.get_ref().sync_data().map_err(|e| io_err("snapshot fsync", &tmp, e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| io_err("snapshot rename", &path, e))?;
    // Make the rename itself durable. Directory fsync is not available on
    // every platform; failing to flush the directory entry only risks the
    // rename, never a torn file, so this is best-effort.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// Reads and validates `snapshot-<seq>.json`.
pub(crate) fn read_snapshot(path: &Path) -> Result<DocumentStore, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err("snapshot read", path, e))?;
    let corrupt = |offset: u64, message: &str| StoreError::Corrupt {
        path: path.display().to_string(),
        offset,
        message: message.to_string(),
    };
    let doc = Json::parse(&text).map_err(|e| corrupt(e.offset as u64, &e.message))?;
    store_from_json(&doc).ok_or_else(|| corrupt(0, "not a snapshot document"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_store() -> DocumentStore {
        let mut s = DocumentStore::new();
        let a = s.insert("alpha", Json::parse(r#"{"k":"x","v":1}"#).unwrap());
        s.insert("alpha", Json::parse(r#"{"k":"y","v":[true,null]}"#).unwrap());
        s.insert("beta", Json::parse(r#"{"nested":{"deep":"€😀"}}"#).unwrap());
        s.delete("alpha", a);
        s
    }

    #[test]
    fn snapshot_roundtrips_including_id_counters() {
        let s = sample_store();
        let restored = store_from_json(&Json::parse(&snapshot_bytes(&s)).unwrap()).unwrap();
        assert_eq!(restored, s);
        assert_eq!(restored.peek_next_id("alpha"), s.peek_next_id("alpha"));
        assert_eq!(snapshot_bytes(&restored), snapshot_bytes(&s));
    }

    #[test]
    fn snapshot_bytes_are_deterministic_and_pinned() {
        assert_eq!(snapshot_bytes(&sample_store()), snapshot_bytes(&sample_store()));
        // The on-disk format: directories written by earlier builds hold
        // exactly these bytes for this store.
        assert_eq!(
            snapshot_bytes(&sample_store()),
            concat!(
                r#"{"collections":[{"name":"alpha","next_id":2,"docs":[{"id":1,"doc":{"k":"y","v":[true,null]}}]},"#,
                r#"{"name":"beta","next_id":1,"docs":[{"id":0,"doc":{"nested":{"deep":"€😀"}}}]}]}"#
            )
        );
        assert_eq!(snapshot_bytes(&DocumentStore::new()), r#"{"collections":[]}"#);
        let mut emptied = DocumentStore::new();
        let id = emptied.insert("c", Json::Null);
        emptied.delete("c", id);
        assert_eq!(snapshot_bytes(&emptied), r#"{"collections":[{"name":"c","next_id":1,"docs":[]}]}"#);
    }

    #[test]
    fn invalid_snapshot_documents_are_rejected() {
        for bad in ["null", "{}", r#"{"collections":[{"name":"c"}]}"#] {
            assert!(store_from_json(&Json::parse(bad).unwrap()).is_none(), "{bad}");
        }
    }
}
