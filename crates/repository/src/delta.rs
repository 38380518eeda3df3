//! Line deltas between consecutive versions of one artifact.
//!
//! A delta is a JSON array that rebuilds a document from the previous
//! version of the same artifact (the *base*): a `[start, len]` pair copies
//! that byte range of the base, a string inserts its text.
//! [`patch`] is the only reader; the repository stores a delta only after
//! `patch(base, delta)` returned the new content byte for byte, so
//! [`encode`] is free to miss matches — it only ever costs bytes, never
//! correctness.
//!
//! Matching is by whole lines and linear in the new document. The designs
//! the lifecycle versions change by tens of small scattered insertions per
//! step, so the matcher follows the base line by line, and where the two
//! documents part it re-anchors on a line that occurs exactly once in the
//! base, growing the match backwards and forwards from there. One hash-map
//! probe per unmatched line is all the searching there is; a document that
//! shares nothing with its base (a trace, an execution profile) is given up
//! on as soon as half of it had to be inserted.

use crate::json::Json;
use std::collections::HashMap;

/// What one copy op is charged when sizing a delta (`[123456,7890],`).
const COPY_COST: usize = 16;

/// Largest document [`patch`] will build: the write-ahead log's record
/// bound. Nothing larger can have been logged, so a stored delta that
/// expands past it is damage, not data.
const MAX_PATCHED_BYTES: usize = 256 * 1024 * 1024;

/// Where the lines of one document start, and a hash of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LineTable {
    /// Byte offset of every line, plus the document length at the end. A
    /// line includes its `\n`; the last one may lack it.
    starts: Vec<u32>,
    hashes: Vec<u64>,
}

impl LineTable {
    /// Splits and hashes `text` in one pass, eight bytes at a time. `None`
    /// for documents whose offsets do not fit the table (≥ 4 GiB); those are
    /// stored whole.
    pub(crate) fn of(text: &str) -> Option<LineTable> {
        const NEWLINES: u64 = 0x0a0a_0a0a_0a0a_0a0a;
        const LOW: u64 = 0x0101_0101_0101_0101;
        const HIGH: u64 = 0x8080_8080_8080_8080;
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        u32::try_from(text.len()).ok()?;
        let bytes = text.as_bytes();
        let mut starts = Vec::with_capacity(bytes.len() / 32 + 2);
        let mut hashes = Vec::with_capacity(bytes.len() / 32 + 1);
        let mut at = 0usize;
        while at < bytes.len() {
            let (mut h, mut i) = (0u64, at);
            // Collisions only cost a failed byte comparison, so the hash is
            // one multiply per word; the last word of a line is cut after
            // its newline.
            let end = loop {
                let word = match bytes.get(i..i + 8) {
                    Some(full) => u64::from_le_bytes(full.try_into().expect("8 bytes")),
                    None => {
                        let mut padded = [0u8; 8];
                        padded[..bytes.len() - i].copy_from_slice(&bytes[i..]);
                        u64::from_le_bytes(padded)
                    }
                };
                // A set high bit marks a `\n` byte; the lowest one is exact.
                let x = word ^ NEWLINES;
                let newline = x.wrapping_sub(LOW) & !x & HIGH;
                if newline != 0 {
                    let through = newline.trailing_zeros() / 8 + 1;
                    let cut = if through == 8 { word } else { word & ((1u64 << (8 * through)) - 1) };
                    h = (h.rotate_left(5) ^ cut).wrapping_mul(K);
                    break i + through as usize;
                }
                h = (h.rotate_left(5) ^ word).wrapping_mul(K);
                i += 8;
                if i >= bytes.len() {
                    break bytes.len();
                }
            };
            starts.push(at as u32);
            hashes.push((h ^ (end - at) as u64).wrapping_mul(K));
            at = end;
        }
        starts.push(at as u32);
        Some(LineTable { starts, hashes })
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Byte offset where line `i` starts (`i == len()` gives the document
    /// length).
    fn start(&self, i: usize) -> usize {
        self.starts[i] as usize
    }

    fn line<'a>(&self, text: &'a str, i: usize) -> &'a [u8] {
        &text.as_bytes()[self.start(i)..self.start(i + 1)]
    }
}

/// The delta that turns `base` into `new`, or `None` when it would not be
/// clearly smaller than `new` itself (under half its size).
pub(crate) fn encode(base: &str, base_lines: &LineTable, new: &str, new_lines: &LineTable) -> Option<Vec<Json>> {
    let budget = new.len() / 2;
    let same = |b: usize, n: usize| {
        base_lines.hashes[b] == new_lines.hashes[n] && base_lines.line(base, b) == new_lines.line(new, n)
    };

    // Base lines that occur once, by hash; `REPEATED` marks the others.
    const REPEATED: u32 = u32::MAX;
    let mut once: HashMap<u64, u32> = HashMap::with_capacity(base_lines.len());
    for (i, &h) in base_lines.hashes.iter().enumerate() {
        once.entry(h).and_modify(|slot| *slot = REPEATED).or_insert(i as u32);
    }

    let mut ops = Vec::new();
    let mut cost = 0usize;
    // New lines `[pending, n)` are not covered by an op yet; `follow` is the
    // base line after the last copy.
    let (mut pending, mut follow, mut n) = (0usize, 0usize, 0usize);
    let insert = |ops: &mut Vec<Json>, cost: &mut usize, from: usize, to: usize| {
        let text = &new[new_lines.start(from)..new_lines.start(to)];
        if !text.is_empty() {
            *cost += text.len();
            ops.push(Json::String(text.to_string()));
        }
    };
    while n < new_lines.len() {
        let anchor = if follow < base_lines.len() && same(follow, n) {
            Some(follow)
        } else {
            once.get(&new_lines.hashes[n]).map(|&b| b as usize).filter(|&b| b != REPEATED as usize && same(b, n))
        };
        let Some(anchor) = anchor else {
            n += 1;
            if cost + new_lines.start(n) - new_lines.start(pending) > budget {
                return None;
            }
            continue;
        };
        let (mut b_from, mut n_from) = (anchor, n);
        while n_from > pending && b_from > 0 && same(b_from - 1, n_from - 1) {
            b_from -= 1;
            n_from -= 1;
        }
        let (mut b_to, mut n_to) = (anchor + 1, n + 1);
        while n_to < new_lines.len() && b_to < base_lines.len() && same(b_to, n_to) {
            b_to += 1;
            n_to += 1;
        }
        n = n_to;
        let (start, end) = (base_lines.start(b_from), base_lines.start(b_to));
        if end - start < COPY_COST {
            continue; // cheaper inserted than copied: leave the lines pending
        }
        insert(&mut ops, &mut cost, pending, n_from);
        ops.push(Json::Array(vec![Json::Number(start as f64), Json::Number((end - start) as f64)]));
        cost += COPY_COST;
        pending = n_to;
        follow = b_to;
    }
    insert(&mut ops, &mut cost, pending, new_lines.len());
    (cost <= budget).then_some(ops)
}

/// Stored size a delta is charged with: inserted text plus a flat cost per
/// copy. Works from the stored form, so a reopened repository charges a
/// chain of deltas exactly what the session that wrote it did.
pub(crate) fn cost(delta: &[Json]) -> usize {
    delta.iter().map(|op| op.as_str().map_or(COPY_COST, str::len)).sum()
}

/// Applies a delta to its base. An `Err` names what is wrong with the
/// delta: an op that is neither a string nor a `[start, len]` pair of
/// non-negative integers, a range outside the base or off a UTF-8 character
/// boundary, or a result past [`MAX_PATCHED_BYTES`].
pub(crate) fn patch(base: &str, delta: &[Json]) -> Result<String, String> {
    let index =
        |v: &Json| v.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64).map(|n| n as usize);
    let mut out = String::with_capacity(base.len());
    for op in delta {
        let piece = match op {
            Json::String(text) => text.as_str(),
            Json::Array(pair) => {
                let (start, len) = match pair.as_slice() {
                    [start, len] => index(start).zip(index(len)),
                    _ => None,
                }
                .ok_or_else(|| format!("delta op `{op}` is not a [start, len] pair of byte counts"))?;
                start.checked_add(len).and_then(|end| base.get(start..end)).ok_or_else(|| {
                    format!(
                        "delta copies {len} bytes at {start} of a {}-byte base: out of range or off a character boundary",
                        base.len()
                    )
                })?
            }
            _ => return Err(format!("delta op `{op}` is neither inserted text nor a [start, len] copy")),
        };
        if out.len() + piece.len() > MAX_PATCHED_BYTES {
            return Err(format!("delta expands past {MAX_PATCHED_BYTES} bytes"));
        }
        out.push_str(piece);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(base: &str, new: &str) -> Option<Vec<Json>> {
        let delta = encode(base, &LineTable::of(base).unwrap(), new, &LineTable::of(new).unwrap())?;
        assert_eq!(patch(base, &delta).as_deref(), Ok(new), "delta {delta:?}");
        Some(delta)
    }

    fn document(lines: impl IntoIterator<Item = usize>) -> String {
        lines.into_iter().map(|i| format!("<op id=\"{i}\" kind=\"Selection\" stamp=\"{}\"/>\n", i * 7919)).collect()
    }

    #[test]
    fn line_table_splits_after_every_newline() {
        let lines = |text: &str| {
            let table = LineTable::of(text).unwrap();
            (0..table.len()).map(|i| std::str::from_utf8(table.line(text, i)).unwrap().to_string()).collect::<Vec<_>>()
        };
        // Every line length around the eight-byte word, with and without a
        // final newline, against the standard splitter.
        for width in 0..20 {
            for count in 0..4 {
                for tail in ["", "x", "12345678", "\n\n"] {
                    let text = format!("{}{tail}", format!("{}\n", "é".repeat(width)).repeat(count));
                    assert_eq!(lines(&text), text.split_inclusive('\n').collect::<Vec<_>>(), "{text:?}");
                }
            }
        }
        let table = LineTable::of("same\nsame\nsame").unwrap();
        assert_eq!(table.hashes[0], table.hashes[1]);
        assert_ne!(table.hashes[1], table.hashes[2], "the unterminated line differs");
        let hash = |text: &str| LineTable::of(text).unwrap().hashes[0];
        assert_ne!(hash("ab"), hash("ab\0"), "zero padding is not content");
    }

    #[test]
    fn scattered_insertions_become_copies_around_inserted_lines() {
        let base = document(0..200);
        let mut lines: Vec<String> = base.split_inclusive('\n').map(str::to_string).collect();
        for at in [190, 120, 77, 3] {
            lines.insert(at, format!("<op id=\"new-{at}\"/>\n"));
        }
        let new = lines.concat();
        let delta = roundtrip(&base, &new).expect("four inserted lines are a small delta");
        assert_eq!(delta.len(), 9, "copy, insert ×4, trailing copy: {delta:?}");
        assert!(cost(&delta) < new.len() / 20);
    }

    #[test]
    fn deletions_moves_and_repeated_lines_roundtrip() {
        let base = document(0..120);
        let lines: Vec<&str> = base.split_inclusive('\n').collect();
        // Delete a block, move a block to the front, repeat a line.
        let mut new: Vec<&str> = lines[60..80].to_vec();
        new.extend(&lines[..30]);
        new.extend(&lines[40..60]);
        new.push(lines[5]);
        new.extend(&lines[80..]);
        assert!(roundtrip(&base, &new.concat()).is_some());
        // Every base line occurs twice: no anchor but the followed prefix.
        let doubled = base.repeat(2);
        assert!(roundtrip(&doubled, &format!("{doubled}<tail/>\n")).is_some());
    }

    #[test]
    fn identical_and_empty_documents() {
        let base = document(0..10);
        assert_eq!(roundtrip(&base, &base).unwrap().len(), 1, "one copy of everything");
        assert_eq!(roundtrip("", ""), Some(vec![]));
        assert_eq!(roundtrip(&base, ""), Some(vec![]));
        assert_eq!(roundtrip("", &base), None, "nothing to copy from");
        assert_eq!(roundtrip("short", "short"), None, "a copy op costs more than five bytes");
    }

    #[test]
    fn rewritten_documents_are_given_up_on() {
        let base = document(0..300);
        let new = document(300..600);
        assert_eq!(roundtrip(&base, &new), None);
        // Half rewritten is still not "clearly smaller".
        let half = format!("{}{}", document(0..100), document(600..720));
        assert_eq!(roundtrip(&base, &half), None);
    }

    #[test]
    fn line_endings_and_multibyte_text_are_copied_on_line_boundaries() {
        let body: String = (0..20).map(|i| format!("α{i} line — € 😀\r\n")).collect();
        let base = format!("{body}δ the very last line, no newline");
        let new = base.replace("α7 line", "β line");
        let delta = roundtrip(&base, &new).unwrap();
        assert!(delta.iter().any(|op| op.as_str().is_some_and(|s| s.ends_with("😀\r\n"))), "{delta:?}");
        // The unterminated last line never equals its terminated twin.
        let grown = format!("{base}\nε appended\n");
        assert!(roundtrip(&base, &grown).is_some());
    }

    #[test]
    fn hostile_deltas_are_errors() {
        let base = "héllo wörld\n";
        let bad = [
            r#"[[0,99]]"#,         // past the base
            r#"[[11,5]]"#,         // start + len past the base
            r#"[[2,1]]"#,          // splits the two-byte é
            r#"[[-1,2]]"#,         // negative
            r#"[[0.5,2]]"#,        // fractional
            r#"[[0,1e300]]"#,      // absurd
            r#"[[0]]"#,            // not a pair
            r#"[[0,1,2]]"#,        // not a pair
            r#"[["0",1]]"#,        // not numbers
            r#"[null]"#,           // not an op
            r#"[{"copy":[0,1]}]"#, // not an op
        ];
        for text in bad {
            let Json::Array(delta) = Json::parse(text).unwrap() else { unreachable!() };
            assert!(patch(base, &delta).is_err(), "{text} must not apply");
        }
        let Json::Array(ok) = Json::parse(r#"[[0,1],"ola ",[7,7]]"#).unwrap() else { unreachable!() };
        assert_eq!(patch(base, &ok).as_deref(), Ok("hola wörld\n"));
    }

    #[test]
    fn cost_charges_inserted_text_and_a_flat_rate_per_copy() {
        let Json::Array(delta) = Json::parse(r#"[[0,1000],"twelve bytes",[2000,5]]"#).unwrap() else { unreachable!() };
        assert_eq!(cost(&delta), 2 * COPY_COST + 12);
    }
}
