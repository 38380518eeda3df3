//! Fixed-width key encoding for hash joins and grouped aggregation.
//!
//! The row engine hashed `Vec<Value>` keys — one heap-allocated clone per
//! probe row. Here every key column is encoded into one `u64` word chosen
//! per column *pair* so that word equality coincides exactly with
//! [`Value`](crate::Value) equality:
//!
//! - `Int` vs `Int` compares exactly, so the word is the raw `i64` bits;
//! - any numeric pair involving a `Float` compares through `f64` bits
//!   (`Value` equality and hashing already promote `Int` to `f64` there);
//! - `Date`/`Bool` pairs widen the payload;
//! - string pairs resolve the probe side to the build side's dictionary
//!   codes — a probe string absent from the build dictionary can never
//!   match and encodes as a [`MISS`] sentinel;
//! - a pair whose runtime types can never be equal (`Int` vs `Str`, say)
//!   makes the whole join matchless without touching a single row;
//! - a `Mixed` column (dirty data) falls back to `Value`-row keys.
//!
//! NULL key slots are tracked per row: joins never match them, while
//! aggregation groups them (NULL == NULL for grouping), which is why group
//! keys carry an extra null-mask word.

use crate::column::{Column, ColumnData, StringPool};
use std::collections::HashMap;

/// Word marking a probe-side string with no build-side dictionary code.
/// Real codes are `< DICT_MAX`, so this never collides.
const MISS: u64 = u64::MAX;

/// Encoded keys for one side of a join (or one relation's group-by):
/// `width` words per row, row-major, plus a per-row "usable" flag.
pub(crate) struct SideKeys {
    pub words: Vec<u64>,
    /// False when the row's key can never match (a NULL slot or a string
    /// missing from the build dictionary).
    pub ok: Vec<bool>,
    pub width: usize,
}

impl SideKeys {
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.width..(i + 1) * self.width]
    }
}

pub(crate) enum JoinKeyPlan {
    /// Some key column pair can never hold equal values: no row matches.
    Never,
    /// A `Mixed` column is involved: fall back to `Value`-row keys.
    Values,
    Encoded {
        left: SideKeys,
        right: SideKeys,
    },
}

/// Plans fixed-width keys for `left ⋈ right` over the picked key columns
/// (pairwise, in key order). `right` is the build side: string words are
/// its dictionary codes. Taking columns instead of whole relations lets a
/// late-materializing caller gather only the key columns.
pub(crate) fn plan_join_keys(l_cols: &[&Column], left_len: usize, r_cols: &[&Column], right_len: usize) -> JoinKeyPlan {
    let width = l_cols.len();
    let mut lw = vec![0u64; left_len * width];
    let mut rw = vec![0u64; right_len * width];
    let mut l_ok = vec![true; left_len];
    let mut r_ok = vec![true; right_len];
    for (j, (&l, &r)) in l_cols.iter().zip(r_cols).enumerate() {
        match classify(l.data(), r.data()) {
            Pair::Values => return JoinKeyPlan::Values,
            Pair::Never => return JoinKeyPlan::Never,
            Pair::Exact => {
                encode_exact(l, j, width, &mut lw, &mut l_ok);
                encode_exact(r, j, width, &mut rw, &mut r_ok);
            }
            Pair::F64 => {
                encode_f64(l, j, width, &mut lw, &mut l_ok);
                encode_f64(r, j, width, &mut rw, &mut r_ok);
            }
            Pair::Str => {
                let resolve = build_str_words(r, j, width, &mut rw, &mut r_ok);
                probe_str_words(l, &resolve, j, width, &mut lw, &mut l_ok);
            }
        }
    }
    JoinKeyPlan::Encoded {
        left: SideKeys { words: lw, ok: l_ok, width },
        right: SideKeys { words: rw, ok: r_ok, width },
    }
}

pub(crate) enum GroupKeyPlan {
    /// A `Mixed` group column: fall back to `Value`-row keys.
    Values,
    /// One word per group column, plus — only when some group column is
    /// nullable — a trailing null-mask word (bit `j` set = column `j` is
    /// NULL in that row). NULL payload words are normalized to zero so all
    /// NULLs land in one group. All-non-null inputs skip the mask word
    /// entirely, which drops common 1–2 column keys a width class.
    Encoded(SideKeys),
}

/// Plans fixed-width group keys over the picked group columns. Within a
/// single column, word equality coincides with `Value` equality: an `Int`
/// column never meets a `Float` cross-type (that would be `Mixed`), and a
/// dictionary column's equal strings always share a code.
pub(crate) fn plan_group_keys(g_cols: &[&Column], n: usize) -> GroupKeyPlan {
    let nullable = g_cols.iter().any(|c| c.validity().is_some());
    let width = g_cols.len() + usize::from(nullable);
    let mut words = vec![0u64; n * width];
    for (j, &c) in g_cols.iter().enumerate() {
        match c.data() {
            ColumnData::Mixed(_) => return GroupKeyPlan::Values,
            ColumnData::Int(v) => stride_write(v, j, width, &mut words, |x| x as u64),
            ColumnData::Float(v) => stride_write(v, j, width, &mut words, |x| x.to_bits()),
            ColumnData::Date(v) => stride_write(v, j, width, &mut words, |x| x as i64 as u64),
            ColumnData::Bool(v) => stride_write(v, j, width, &mut words, |x| x as u64),
            ColumnData::Dict { codes, .. } => stride_write(codes, j, width, &mut words, |c| c as u64),
            ColumnData::Str(v) => {
                // Dictionary-overflow column: intern on the fly so equal
                // strings share a word (id by first occurrence).
                let mut ids: HashMap<&str, u64> = HashMap::new();
                for (i, s) in v.iter().enumerate() {
                    let next = ids.len() as u64;
                    words[i * width + j] = *ids.entry(s.as_str()).or_insert(next);
                }
            }
        }
        if let Some(bm) = c.validity() {
            for i in 0..n {
                if !bm.get(i) {
                    words[i * width + j] = 0;
                    words[i * width + width - 1] |= 1 << j;
                }
            }
        }
    }
    GroupKeyPlan::Encoded(SideKeys { words, ok: Vec::new(), width })
}

enum Pair {
    /// Raw payload bits compare exactly (Int/Int, Date/Date, Bool/Bool).
    Exact,
    /// Compare through `f64` bits (a numeric pair involving Float).
    F64,
    /// String pair: build-side dictionary codes.
    Str,
    /// Runtime types that are never equal: the join is matchless.
    Never,
    /// Mixed (dirty) column: no fixed-width encoding exists.
    Values,
}

fn classify(l: &ColumnData, r: &ColumnData) -> Pair {
    use ColumnData::*;
    match (l, r) {
        (Mixed(_), _) | (_, Mixed(_)) => Pair::Values,
        (Int(_), Int(_)) => Pair::Exact,
        (Int(_) | Float(_), Int(_) | Float(_)) => Pair::F64,
        (Date(_), Date(_)) => Pair::Exact,
        (Bool(_), Bool(_)) => Pair::Exact,
        (Dict { .. } | Str(_), Dict { .. } | Str(_)) => Pair::Str,
        _ => Pair::Never,
    }
}

/// Writes `f(src[i])` to `out[i * width + j]`. Single-column keys
/// (`width == 1`) take a dense loop the compiler can vectorize; the strided
/// multi-column form defeats autovectorization because `width` is runtime.
#[inline]
fn stride_write<T: Copy>(src: &[T], j: usize, width: usize, out: &mut [u64], f: impl Fn(T) -> u64) {
    if width == 1 {
        for (o, &x) in out.iter_mut().zip(src) {
            *o = f(x);
        }
    } else {
        for (i, &x) in src.iter().enumerate() {
            out[i * width + j] = f(x);
        }
    }
}

fn encode_exact(c: &Column, j: usize, width: usize, out: &mut [u64], ok: &mut [bool]) {
    match c.data() {
        ColumnData::Int(v) => stride_write(v, j, width, out, |x| x as u64),
        ColumnData::Date(v) => stride_write(v, j, width, out, |x| x as i64 as u64),
        ColumnData::Bool(v) => stride_write(v, j, width, out, |x| x as u64),
        _ => unreachable!("classified Exact"),
    }
    mask_nulls(c, ok);
}

fn encode_f64(c: &Column, j: usize, width: usize, out: &mut [u64], ok: &mut [bool]) {
    match c.data() {
        ColumnData::Int(v) => stride_write(v, j, width, out, |x| (x as f64).to_bits()),
        ColumnData::Float(v) => stride_write(v, j, width, out, |x| x.to_bits()),
        _ => unreachable!("classified F64"),
    }
    mask_nulls(c, ok);
}

/// Encodes the build side's string words and returns a resolver mapping a
/// probe string to the build word, if it exists on the build side.
fn build_str_words<'a>(c: &'a Column, j: usize, width: usize, out: &mut [u64], ok: &mut [bool]) -> StrResolver<'a> {
    let resolver = match c.data() {
        ColumnData::Dict { codes, pool } => {
            stride_write(codes, j, width, out, |code| code as u64);
            StrResolver::Pool(pool)
        }
        ColumnData::Str(v) => {
            let mut ids: HashMap<&str, u64> = HashMap::new();
            for (i, s) in v.iter().enumerate() {
                let next = ids.len() as u64;
                out[i * width + j] = *ids.entry(s.as_str()).or_insert(next);
            }
            StrResolver::Map(ids)
        }
        _ => unreachable!("classified Str"),
    };
    mask_nulls(c, ok);
    resolver
}

enum StrResolver<'a> {
    Pool(&'a StringPool),
    Map(HashMap<&'a str, u64>),
}

impl StrResolver<'_> {
    fn resolve(&self, s: &str) -> Option<u64> {
        match self {
            StrResolver::Pool(p) => p.code_of(s).map(u64::from),
            StrResolver::Map(m) => m.get(s).copied(),
        }
    }
}

fn probe_str_words(c: &Column, resolve: &StrResolver<'_>, j: usize, width: usize, out: &mut [u64], ok: &mut [bool]) {
    match c.data() {
        ColumnData::Dict { codes, pool } => {
            // Translate per distinct code, not per row.
            let translated: Vec<u64> =
                (0..pool.len() as u32).map(|code| resolve.resolve(pool.get(code)).unwrap_or(MISS)).collect();
            for (i, &code) in codes.iter().enumerate() {
                let w = translated[code as usize];
                out[i * width + j] = w;
                if w == MISS {
                    ok[i] = false;
                }
            }
        }
        ColumnData::Str(v) => {
            for (i, s) in v.iter().enumerate() {
                match resolve.resolve(s) {
                    Some(w) => out[i * width + j] = w,
                    None => {
                        out[i * width + j] = MISS;
                        ok[i] = false;
                    }
                }
            }
        }
        _ => unreachable!("classified Str"),
    }
    mask_nulls(c, ok);
}

fn mask_nulls(c: &Column, ok: &mut [bool]) {
    if let Some(bm) = c.validity() {
        for (i, slot) in ok.iter_mut().enumerate() {
            if !bm.get(i) {
                *slot = false;
            }
        }
    }
}

/// Packs a two-word key into one `u128`.
pub(crate) fn pack2(w: &[u64]) -> u128 {
    (w[0] as u128) << 64 | w[1] as u128
}

/// Packs a three- or four-word key into an inline array (zero-padded), so
/// mid-width group keys hash without a per-row heap allocation.
pub(crate) fn pack4(w: &[u64]) -> [u64; 4] {
    let mut k = [0u64; 4];
    k[..w.len()].copy_from_slice(w);
    k
}

/// The one dispatch on encoded key width: evaluates `$body` with `$pack`
/// bound to the function packing a `$width`-word row ([`SideKeys::row`])
/// into the narrowest hashable key type — `u64`, `u128`, `[u64; 4]`, and
/// only past four words a heap `Box<[u64]>` — and `$part` to that key
/// type's radix partition function over `$npart` partitions. The body is
/// instantiated once per key type, so the hash tables it builds hash
/// machine words.
macro_rules! with_packed_key {
    ($width:expr, $npart:expr, |$pack:ident, $part:ident| $body:expr) => {{
        use $crate::keys::{fold128, fold_words, pack2, pack4, radix_of};
        let npart: usize = $npart;
        match $width {
            1 => {
                let $pack = |w: &[u64]| w[0];
                let $part = move |k: &u64| radix_of(*k, npart);
                $body
            }
            2 => {
                let $pack = pack2;
                let $part = move |k: &u128| radix_of(fold128(*k), npart);
                $body
            }
            3 | 4 => {
                let $pack = pack4;
                let $part = move |k: &[u64; 4]| radix_of(fold_words(k), npart);
                $body
            }
            _ => {
                let $pack = |w: &[u64]| -> Box<[u64]> { w.into() };
                let $part = move |k: &Box<[u64]>| radix_of(fold_words(k), npart);
                $body
            }
        }
    }};
}
pub(crate) use with_packed_key;

/// [`group_ids`] of rows `0..n` keyed on `cols`, with grouping equality
/// (NULL equals NULL): encoded words when the columns allow, `Value` rows
/// only when one of them is `Mixed`.
pub(crate) fn key_group_ids(cols: &[&Column], n: usize) -> (Vec<u32>, usize) {
    match plan_group_keys(cols, n) {
        GroupKeyPlan::Encoded(sk) => with_packed_key!(sk.width, 1, |pack, _part| group_ids(n, |i| pack(sk.row(i)))),
        GroupKeyPlan::Values => group_ids(n, |i| cols.iter().map(|c| c.value(i)).collect::<Vec<_>>()),
    }
}

/// Dense group ids of rows `0..n` under `keyf`, numbered in first-seen
/// order, and the number of groups: row `i` opens a group exactly when
/// `ids[i]` equals the number of groups opened before it. The first-seen
/// dedup behind `Distinct` and the loader's key matching.
fn group_ids<K: Eq + std::hash::Hash>(n: usize, keyf: impl Fn(usize) -> K) -> (Vec<u32>, usize) {
    let mut index: FastMap<K, u32> = FastMap::with_capacity_and_hasher(n, FastHash);
    let ids = (0..n)
        .map(|i| {
            let next = index.len() as u32;
            *index.entry(keyf(i)).or_insert(next)
        })
        .collect();
    (ids, index.len())
}

/// Hasher state for the engine's internal hash tables (join builds, group
/// indexes, upsert key indexes): a multiply-rotate fold per word. The keys
/// hashed here are encoded words or engine-generated rows, so SipHash's
/// flood resistance buys nothing while costing ~20 ns per probe — on a
/// 60k-row probe side that is the join. Not for maps keyed by untrusted
/// external input.
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn fold(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(26) ^ w).wrapping_mul(FIB);
    }
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // hashbrown derives the bucket index from the low bits and the
        // control byte from the top bits; the xor-fold feeds entropy to both.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(w) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`]; plug into [`FastMap`] via
/// `Default`.
#[derive(Default, Clone, Copy)]
pub(crate) struct FastHash;

impl std::hash::BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(0)
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, FastHash>;

/// Fibonacci multiplicative constant (the golden-ratio word) spreading key
/// entropy into the high bits.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplier of [`radix_of`]: odd, and unrelated to [`FIB`].
const RADIX_MIX: u64 = 0xD6E8_FEB8_6659_FD93;

/// The radix partition of a hashed key word: the top `log2(npart)` bits
/// after a multiply. Hashing before taking bits matters — the raw low bits
/// of common keys are degenerate (the `f64` bit pattern of an integral float
/// has an all-zero low mantissa; dictionary codes are dense from zero), and
/// the multiply redistributes them. The multiplier is not [`FIB`]: a
/// one-word key's table hash is `k × FIB`, whose top bits are hashbrown's
/// control byte, and partitioning on those same bits would leave every key
/// of a partition with the same control bits, each probe degenerating into
/// key compares. `npart` must be a power of two; a single partition
/// short-circuits (and keeps the shift in range).
pub(crate) fn radix_of(h: u64, npart: usize) -> usize {
    debug_assert!(npart.is_power_of_two());
    if npart == 1 {
        return 0;
    }
    (h.wrapping_mul(RADIX_MIX) >> (64 - npart.trailing_zeros())) as usize
}

/// Folds a packed two-word key into one word for partitioning.
pub(crate) fn fold128(k: u128) -> u64 {
    (k as u64) ^ ((k >> 64) as u64).wrapping_mul(0x100_0000_01b3)
}

/// Folds an arbitrary-width key into one word for partitioning (FNV-style).
pub(crate) fn fold_words(w: &[u64]) -> u64 {
    w.iter().fold(0xcbf2_9ce4_8422_2325, |acc, &x| (acc ^ x).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::relation::Relation;
    use crate::value::Value;
    use quarry_etl::{ColType, Column as SchemaCol, Schema};

    /// Picks every column of `r` as a key column, in order.
    fn keycols(r: &Relation) -> Vec<&Column> {
        (0..r.columns().len()).map(|i| r.column(i).as_ref()).collect()
    }

    fn rel(cols: Vec<(&str, ColType, Vec<Value>)>) -> Relation {
        let schema = Schema::new(cols.iter().map(|(n, ty, _)| SchemaCol::new(*n, *ty)).collect());
        let columns = cols
            .into_iter()
            .map(|(_, ty, vals)| {
                let mut b = ColumnBuilder::new(ty);
                for v in vals {
                    b.push(v);
                }
                std::sync::Arc::new(b.finish())
            })
            .collect();
        Relation::from_columns(schema, columns)
    }

    #[test]
    fn int_int_pairs_encode_exactly() {
        let l = rel(vec![("k", ColType::Integer, vec![Value::Int(-1), Value::Int(7), Value::Null])]);
        let r = rel(vec![("k", ColType::Integer, vec![Value::Int(7)])]);
        let JoinKeyPlan::Encoded { left, right } = plan_join_keys(&keycols(&l), l.len(), &keycols(&r), r.len()) else {
            panic!("expected encoded plan")
        };
        assert_eq!(left.row(1), right.row(0));
        assert_ne!(left.row(0), right.row(0));
        assert!(!left.ok[2], "NULL key is unmatched");
    }

    #[test]
    fn int_float_pairs_agree_with_value_equality() {
        let l = rel(vec![("k", ColType::Integer, vec![Value::Int(5), Value::Int(6)])]);
        let r = rel(vec![("k", ColType::Decimal, vec![Value::Float(5.0), Value::Float(6.5)])]);
        let JoinKeyPlan::Encoded { left, right } = plan_join_keys(&keycols(&l), l.len(), &keycols(&r), r.len()) else {
            panic!("expected encoded plan")
        };
        assert_eq!(left.row(0), right.row(0), "Int(5) == Float(5.0)");
        assert_ne!(left.row(1), right.row(1), "Int(6) != Float(6.5)");
    }

    #[test]
    fn string_probe_resolves_to_build_codes_or_misses() {
        let l = rel(vec![("s", ColType::Text, vec![Value::Str("a".into()), Value::Str("zzz".into())])]);
        let r = rel(vec![("s", ColType::Text, vec![Value::Str("b".into()), Value::Str("a".into())])]);
        let JoinKeyPlan::Encoded { left, right } = plan_join_keys(&keycols(&l), l.len(), &keycols(&r), r.len()) else {
            panic!("expected encoded plan")
        };
        assert_eq!(left.row(0), right.row(1), "same string, same word");
        assert!(!left.ok[1], "string absent from build side can never match");
    }

    #[test]
    fn incompatible_types_never_match_and_mixed_falls_back() {
        let ints = rel(vec![("k", ColType::Integer, vec![Value::Int(1)])]);
        let strs = rel(vec![("k", ColType::Text, vec![Value::Str("1".into())])]);
        assert!(matches!(plan_join_keys(&keycols(&ints), ints.len(), &keycols(&strs), strs.len()), JoinKeyPlan::Never));

        let mixed = rel(vec![("k", ColType::Integer, vec![Value::Int(1), Value::Str("x".into())])]);
        assert!(matches!(
            plan_join_keys(&keycols(&mixed), mixed.len(), &keycols(&ints), ints.len()),
            JoinKeyPlan::Values
        ));
    }

    #[test]
    fn group_keys_put_all_nulls_in_one_group() {
        let input = rel(vec![("g", ColType::Integer, vec![Value::Int(1), Value::Null, Value::Null, Value::Int(1)])]);
        let GroupKeyPlan::Encoded(keys) = plan_group_keys(&keycols(&input), input.len()) else {
            panic!("expected encoded plan")
        };
        assert_eq!(keys.width, 2);
        assert_eq!(keys.row(1), keys.row(2), "NULL groups with NULL");
        assert_eq!(keys.row(0), keys.row(3));
        assert_ne!(keys.row(0), keys.row(1));
    }

    #[test]
    fn key_group_ids_number_groups_in_first_seen_order() {
        let typed = rel(vec![
            ("a", ColType::Integer, vec![Value::Int(7), Value::Null, Value::Int(7), Value::Null, Value::Int(8)]),
            ("b", ColType::Text, ["x", "y", "x", "y", "x"].iter().map(|s| Value::Str((*s).into())).collect()),
        ]);
        assert_eq!(key_group_ids(&keycols(&typed), 5), (vec![0, 1, 0, 1, 2], 3));
        // A `Mixed` column groups by `Value` equality: Int(5) == Float(5.0).
        let mixed = rel(vec![("k", ColType::Integer, vec![Value::Int(5), Value::Float(6.5), Value::Float(5.0)])]);
        assert_eq!(key_group_ids(&keycols(&mixed), 3), (vec![0, 1, 0], 2));
        // Six words take the boxed key class.
        let wide =
            rel((0..6).map(|_| ("c", ColType::Integer, vec![Value::Int(1), Value::Int(1), Value::Int(2)])).collect());
        assert_eq!(key_group_ids(&keycols(&wide), 3), (vec![0, 0, 1], 2));
    }

    #[test]
    fn fast_hash_is_deterministic_and_separates_strings() {
        use std::hash::{BuildHasher, Hash};
        let h = |v: &dyn Fn(&mut FastHasher)| {
            let mut hasher = FastHash.build_hasher();
            v(&mut hasher);
            std::hash::Hasher::finish(&hasher)
        };
        assert_eq!(h(&|s| 42u64.hash(s)), h(&|s| 42u64.hash(s)));
        assert_ne!(h(&|s| 42u64.hash(s)), h(&|s| 43u64.hash(s)));
        assert_ne!(h(&|s| ("ab", "c").hash(s)), h(&|s| ("a", "bc").hash(s)));
        assert_ne!(h(&|s| pack4(&[1, 2, 3]).hash(s)), h(&|s| pack4(&[1, 2, 4]).hash(s)));
        assert_eq!(h(&|s| pack4(&[1, 2, 3]).hash(s)), h(&|s| pack4(&[1, 2, 3, 0]).hash(s)));
    }

    /// hashbrown's control byte is the top seven bits of the table hash. A
    /// partition whose keys shared most of them would probe by key compare.
    #[test]
    fn radix_partitions_keep_their_control_bytes_spread() {
        use std::hash::BuildHasher;
        let mut control: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 64];
        for k in 1..=100_000u64 {
            control[radix_of(k, 64)].insert(FastHash.hash_one(k) >> 57);
        }
        for (p, bytes) in control.iter().enumerate() {
            assert!(bytes.len() >= 64, "partition {p}: {} distinct control bytes", bytes.len());
        }
    }

    #[test]
    fn plain_string_group_keys_intern_consistently() {
        let input = rel(vec![(
            "g",
            ColType::Text,
            vec![Value::Str("x".into()), Value::Str("y".into()), Value::Str("x".into())],
        )]);
        let GroupKeyPlan::Encoded(keys) = plan_group_keys(&keycols(&input), input.len()) else {
            panic!("expected encoded plan")
        };
        assert_eq!(keys.row(0), keys.row(2));
        assert_ne!(keys.row(0), keys.row(1));
    }
}
