//! Columnar storage: typed value vectors with a validity bitmap.
//!
//! A [`Column`] stores one relation attribute as a typed vector —
//! `Int(Vec<i64>)`, `Float(Vec<f64>)`, `Date(Vec<i32>)`, `Bool(Vec<bool>)`,
//! or dictionary-encoded strings over an interned [`StringPool`] — plus an
//! optional validity bitmap marking NULL slots. Two escape hatches keep the
//! dirty-data semantics of the row engine intact:
//!
//! - a dictionary that would exceed [`DICT_MAX`] distinct strings overflows
//!   to plain `Str(Vec<String>)` storage;
//! - a column whose cells mix runtime types (a declared `Date` column
//!   carrying `Str("not-a-date")`, say) demotes to `Mixed(Vec<Value>)`,
//!   where every cell keeps its exact [`Value`] — including `Null`s, so a
//!   `Mixed` column never carries a validity bitmap.
//!
//! Columns are immutable once built and shared via `Arc`, which is what
//! makes extraction/projection a zero-copy column pick in the executor.

use crate::value::Value;
use quarry_etl::ColType;
use std::collections::HashMap;
use std::sync::Arc;

/// Distinct-string limit for dictionary encoding; one more unique string
/// overflows the column to plain `Str` storage.
pub const DICT_MAX: usize = 1 << 16;

/// Sentinel gather index meaning "emit NULL" (left-join padding).
pub const NULL_IDX: u32 = u32::MAX;

/// A packed validity bitmap: bit set = value present, clear = NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// An all-set bitmap of `len` bits.
    pub fn all_valid(len: usize) -> Self {
        let mut b = Bitmap { bits: vec![u64::MAX; len.div_ceil(64)], len };
        b.trim_tail();
        b
    }

    /// An all-clear bitmap of `len` bits: every slot NULL.
    fn all_null(len: usize) -> Self {
        Bitmap { bits: vec![0; len.div_ceil(64)], len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        if valid {
            *self.bits.last_mut().expect("pushed above") |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    pub fn count_set(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn trim_tail(&mut self) {
        // Clear bits past `len` so popcounts stay honest.
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Builds a bitmap from pre-packed words. Bits past `len` are cleared,
    /// so callers may hand over words with dirty tails.
    pub(crate) fn from_words(mut bits: Vec<u64>, len: usize) -> Self {
        bits.truncate(len.div_ceil(64));
        debug_assert_eq!(bits.len(), len.div_ceil(64));
        let mut b = Bitmap { bits, len };
        b.trim_tail();
        b
    }

    /// Word-wise AND of two optional validity maps over `len` slots (`None`
    /// = all valid). Returns `None` when the result is all-set, matching the
    /// column-level normalization.
    pub(crate) fn and_opt(a: Option<&Bitmap>, b: Option<&Bitmap>, len: usize) -> Option<Bitmap> {
        let out = match (a, b) {
            (None, None) => return None,
            (Some(x), None) | (None, Some(x)) => x.clone(),
            (Some(x), Some(y)) => {
                debug_assert_eq!(x.len, len);
                debug_assert_eq!(y.len, len);
                Bitmap { bits: x.bits.iter().zip(&y.bits).map(|(p, q)| p & q).collect(), len }
            }
        };
        if out.all_set() {
            None
        } else {
            Some(out)
        }
    }
}

/// The contiguous ascending run covered by `indices`, if they are exactly
/// `start, start+1, …` with no [`NULL_IDX`] padding entries. Gathers over
/// such runs degrade to cheap slices (or whole-column shares).
pub(crate) fn contiguous_run(indices: &[u32]) -> Option<std::ops::Range<usize>> {
    let (&first, &last) = (indices.first()?, indices.last()?);
    if last == NULL_IDX {
        return None;
    }
    let start = first as usize;
    // Equality against `start + k` rejects NULL_IDX interior entries too:
    // every index equals `last - (len-1-k) < NULL_IDX`.
    let run = indices.iter().enumerate().all(|(k, &i)| i as usize == start + k);
    run.then(|| start..start + indices.len())
}

/// An interned pool of distinct strings backing dictionary-encoded columns.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct StringPool {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl StringPool {
    pub fn new() -> Self {
        StringPool::default()
    }

    /// Interns `s`, returning its code. `None` once the pool is full
    /// ([`DICT_MAX`] distinct strings) and `s` is not already present.
    pub fn intern(&mut self, s: &str) -> Option<u32> {
        if let Some(&code) = self.index.get(s) {
            return Some(code);
        }
        if self.strings.len() >= DICT_MAX {
            return None;
        }
        let code = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), code);
        Some(code)
    }

    /// Code of `s` if it is already interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    pub fn get(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Estimated heap footprint of the pool (strings plus the intern index).
    pub fn estimated_bytes(&self) -> usize {
        // Each distinct string is stored twice (vector + index key), plus
        // `String` headers and the index entry itself.
        self.strings.iter().map(|s| 2 * s.len() + 2 * 24 + 8).sum()
    }
}

/// The typed storage behind one column.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
    /// Dictionary-encoded strings: per-row codes into a shared pool.
    Dict {
        codes: Vec<u32>,
        pool: Arc<StringPool>,
    },
    /// Plain strings — the dictionary-overflow representation.
    Str(Vec<String>),
    /// Heterogeneous cells kept as exact runtime values (dirty data).
    /// Carries its own NULLs; never paired with a validity bitmap.
    Mixed(Vec<Value>),
}

/// One column: typed data plus an optional validity bitmap (`None` = every
/// slot valid). Invalid slots hold an arbitrary placeholder datum.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
}

impl Column {
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Self {
        let c = Column { data, validity };
        debug_assert!(c.validity.as_ref().is_none_or(|b| b.len() == c.len()));
        debug_assert!(!(matches!(c.data, ColumnData::Mixed(_)) && c.validity.is_some()));
        c
    }

    /// An empty column typed after a declared schema type.
    pub fn empty(ty: ColType) -> Self {
        let data = match ty {
            ColType::Integer => ColumnData::Int(Vec::new()),
            ColType::Decimal => ColumnData::Float(Vec::new()),
            ColType::Date => ColumnData::Date(Vec::new()),
            ColType::Boolean => ColumnData::Bool(Vec::new()),
            ColType::Text => ColumnData::Dict { codes: Vec::new(), pool: Arc::new(StringPool::new()) },
        };
        Column { data, validity: None }
    }

    /// A column of `len` NULLs, typed after `ty` — the column a
    /// [`ColumnBuilder`] fed `len` NULLs builds, filled in one allocation.
    pub fn nulls(ty: ColType, len: usize) -> Self {
        let empty = Column::empty(ty);
        if len == 0 {
            return empty;
        }
        Column::nulls_typed(&empty.data, len)
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated heap footprint of the column in bytes: typed vector plus
    /// dictionary pool (counted in full — pools may be `Arc`-shared across
    /// columns, so sums over relations can overcount shared storage) plus
    /// the validity bitmap. An estimate for budget accounting, not an exact
    /// allocator measurement.
    pub fn estimated_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len() * 4,
            ColumnData::Dict { codes, pool } => codes.len() * 4 + pool.estimated_bytes(),
            ColumnData::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
            ColumnData::Mixed(v) => v.iter().map(|cell| 32 + if let Value::Str(s) = cell { s.len() } else { 0 }).sum(),
        };
        data + self.validity.as_ref().map_or(0, |b| b.bits.len() * 8)
    }

    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => v[i].is_null(),
            _ => self.validity.as_ref().is_some_and(|b| !b.get(i)),
        }
    }

    /// The exact runtime value of slot `i` (strings cloned).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Dict { codes, pool } => Value::Str(pool.get(codes[i]).to_string()),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Streams the display form of slot `i` into `w`, byte-identical to
    /// `Value::to_string` — the surrogate-key hash reads columns through
    /// this without materializing any value.
    pub fn write_display(&self, i: usize, w: &mut impl std::fmt::Write) -> std::fmt::Result {
        if self.is_null(i) {
            return w.write_str("NULL");
        }
        match &self.data {
            ColumnData::Int(v) => write!(w, "{}", v[i]),
            ColumnData::Float(v) => write!(w, "{}", v[i]),
            ColumnData::Bool(v) => write!(w, "{}", v[i]),
            ColumnData::Date(v) => write!(w, "{}", Value::Date(v[i])),
            ColumnData::Dict { codes, pool } => w.write_str(pool.get(codes[i])),
            ColumnData::Str(v) => w.write_str(&v[i]),
            ColumnData::Mixed(v) => write!(w, "{}", v[i]),
        }
    }

    /// Gathers `indices` into a new column. [`NULL_IDX`] entries emit NULL
    /// (left-join padding). Dictionary columns gather codes and share the
    /// pool `Arc` — no string is copied.
    pub fn gather(&self, indices: &[u32]) -> Column {
        // High-selectivity filters and morsel splits routinely gather
        // contiguous ascending runs; take the slice path instead of an
        // element-wise gather.
        if let Some(rg) = contiguous_run(indices) {
            if rg.end <= self.len() {
                return self.slice(rg);
            }
        }
        let validity = self.gathered_validity(indices);
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(gather_data(v, indices, 0)),
            ColumnData::Float(v) => ColumnData::Float(gather_data(v, indices, 0.0)),
            ColumnData::Bool(v) => ColumnData::Bool(gather_data(v, indices, false)),
            ColumnData::Date(v) => ColumnData::Date(gather_data(v, indices, 0)),
            ColumnData::Dict { codes, pool } => {
                ColumnData::Dict { codes: gather_data(codes, indices, 0), pool: Arc::clone(pool) }
            }
            ColumnData::Str(v) => ColumnData::Str(
                indices.iter().map(|&i| if i == NULL_IDX { String::new() } else { v[i as usize].clone() }).collect(),
            ),
            ColumnData::Mixed(v) => {
                return Column::new(
                    ColumnData::Mixed(
                        indices
                            .iter()
                            .map(|&i| if i == NULL_IDX { Value::Null } else { v[i as usize].clone() })
                            .collect(),
                    ),
                    None,
                );
            }
        };
        Column::new(data, validity)
    }

    /// A contiguous sub-range of the column — the morsel view. Cheaper than
    /// [`Column::gather`]: fixed-width data copies as one `memcpy`-style
    /// slice extend, and dictionary columns share their pool.
    pub fn slice(&self, rg: std::ops::Range<usize>) -> Column {
        let validity = match &self.validity {
            None => None,
            Some(bm) => {
                let mut out = Bitmap::new();
                for i in rg.clone() {
                    out.push(bm.get(i));
                }
                if out.all_set() {
                    None
                } else {
                    Some(out)
                }
            }
        };
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(v[rg].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[rg].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[rg].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[rg].to_vec()),
            ColumnData::Dict { codes, pool } => ColumnData::Dict { codes: codes[rg].to_vec(), pool: Arc::clone(pool) },
            ColumnData::Str(v) => ColumnData::Str(v[rg].to_vec()),
            ColumnData::Mixed(v) => return Column::new(ColumnData::Mixed(v[rg].to_vec()), None),
        };
        Column::new(data, validity)
    }

    fn gathered_validity(&self, indices: &[u32]) -> Option<Bitmap> {
        let has_pad = indices.contains(&NULL_IDX);
        match (&self.validity, has_pad) {
            (None, false) => None,
            (v, _) => {
                let mut b = Bitmap::new();
                for &i in indices {
                    b.push(i != NULL_IDX && v.as_ref().is_none_or(|bm| bm.get(i as usize)));
                }
                if b.all_set() {
                    None
                } else {
                    Some(b)
                }
            }
        }
    }

    /// Concatenates columns in order. Same-representation parts extend
    /// directly (dictionary parts sharing one pool extend codes verbatim;
    /// dictionary parts over different pools re-code into one pool, interning
    /// each distinct string once); anything else re-builds through a
    /// [`ColumnBuilder`], demoting to `Mixed` only when the parts genuinely
    /// mix runtime types.
    pub fn concat(parts: &[&Column], ty: ColType) -> Column {
        // Empty parts contribute nothing and would only defeat the
        // same-representation fast path (an empty dictionary never shares
        // a pool with a populated one).
        let parts: Vec<&Column> = parts.iter().filter(|p| !p.is_empty()).copied().collect();
        if parts.is_empty() {
            return Column::empty(ty);
        }
        if parts.len() == 1 {
            return parts[0].clone();
        }
        if let Some(c) = Self::concat_fast(&parts).or_else(|| Self::concat_dicts(&parts)) {
            return c;
        }
        let mut b = ColumnBuilder::new(ty);
        for p in parts {
            for i in 0..p.len() {
                b.push(p.value(i));
            }
        }
        b.finish()
    }

    fn concat_fast(parts: &[&Column]) -> Option<Column> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let any_nulls = parts.iter().any(|p| p.validity.is_some());
        let validity = if any_nulls {
            let mut b = Bitmap::new();
            for p in parts {
                for i in 0..p.len() {
                    b.push(p.validity.as_ref().is_none_or(|bm| bm.get(i)));
                }
            }
            Some(b)
        } else {
            None
        };
        macro_rules! extend_same {
            ($variant:ident, $ty:ty) => {{
                let mut out: Vec<$ty> = Vec::with_capacity(total);
                for p in parts {
                    match &p.data {
                        ColumnData::$variant(v) => out.extend_from_slice(v),
                        _ => return None,
                    }
                }
                Some(Column::new(ColumnData::$variant(out), validity))
            }};
        }
        match &parts[0].data {
            ColumnData::Int(_) => extend_same!(Int, i64),
            ColumnData::Float(_) => extend_same!(Float, f64),
            ColumnData::Bool(_) => extend_same!(Bool, bool),
            ColumnData::Date(_) => extend_same!(Date, i32),
            ColumnData::Dict { pool, .. } => {
                let mut codes: Vec<u32> = Vec::with_capacity(total);
                for p in parts {
                    match &p.data {
                        ColumnData::Dict { codes: c, pool: p2 } if Arc::ptr_eq(pool, p2) => codes.extend_from_slice(c),
                        _ => return None,
                    }
                }
                Some(Column::new(ColumnData::Dict { codes, pool: Arc::clone(pool) }, validity))
            }
            ColumnData::Str(_) | ColumnData::Mixed(_) => None,
        }
    }

    /// Concatenates dictionary parts whose pools differ into one pool: the
    /// strings intern in row order, once per distinct code of each part, so
    /// the result is the column a [`ColumnBuilder`] fed the same cells would
    /// build — without cloning a string per cell. `None` when a part is not
    /// a dictionary or the unified pool would overflow [`DICT_MAX`].
    fn concat_dicts(parts: &[&Column]) -> Option<Column> {
        let total = parts.iter().map(|p| p.len()).sum();
        let mut unified = StringPool::new();
        let mut codes: Vec<u32> = Vec::with_capacity(total);
        let mut validity = Bitmap::new();
        for p in parts {
            let ColumnData::Dict { codes: part_codes, pool } = &p.data else { return None };
            const UNSEEN: u32 = u32::MAX;
            let mut recoded = vec![UNSEEN; pool.len()];
            for (i, &c) in part_codes.iter().enumerate() {
                let valid = p.validity.as_ref().is_none_or(|bm| bm.get(i));
                validity.push(valid);
                if !valid {
                    codes.push(0);
                    continue;
                }
                let slot = &mut recoded[c as usize];
                if *slot == UNSEEN {
                    *slot = unified.intern(pool.get(c))?;
                }
                codes.push(*slot);
            }
        }
        let validity = if validity.all_set() { None } else { Some(validity) };
        Some(Column::new(ColumnData::Dict { codes, pool: Arc::new(unified) }, validity))
    }
}

fn gather_data<T: Copy>(src: &[T], indices: &[u32], pad: T) -> Vec<T> {
    indices.iter().map(|&i| if i == NULL_IDX { pad } else { src[i as usize] }).collect()
}

/// Incremental column construction from runtime values.
///
/// The representation is decided by the *first non-NULL value* pushed, not
/// by the declared type — so a column declared `Date` that actually carries
/// strings ends up `Mixed` (or `Dict` if every cell is a string) without
/// ever mangling a value. Leading NULLs are buffered and back-filled once
/// the representation is known; an all-NULL column types after the declared
/// `ColType` with an all-clear validity bitmap.
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: ColType,
    /// NULLs seen before the first non-NULL value fixed the representation.
    leading_nulls: usize,
    state: BuilderState,
}

#[derive(Debug)]
enum BuilderState {
    /// No non-NULL value yet; representation undecided.
    Start,
    Int(Vec<i64>, Bitmap),
    Float(Vec<f64>, Bitmap),
    Bool(Vec<bool>, Bitmap),
    Date(Vec<i32>, Bitmap),
    Dict(Vec<u32>, StringPool, Bitmap),
    Str(Vec<String>, Bitmap),
    Mixed(Vec<Value>),
}

impl ColumnBuilder {
    pub fn new(ty: ColType) -> Self {
        ColumnBuilder { ty, leading_nulls: 0, state: BuilderState::Start }
    }

    pub fn push(&mut self, v: Value) {
        use BuilderState::*;
        if matches!(self.state, Start) {
            if v.is_null() {
                self.leading_nulls += 1;
                return;
            }
            self.state = self.fresh_state_for(&v);
        }
        match (&mut self.state, v) {
            (Int(data, bm), Value::Int(x)) => {
                data.push(x);
                bm.push(true);
            }
            (Int(data, bm), Value::Null) => {
                data.push(0);
                bm.push(false);
            }
            (Float(data, bm), Value::Float(x)) => {
                data.push(x);
                bm.push(true);
            }
            (Float(data, bm), Value::Null) => {
                data.push(0.0);
                bm.push(false);
            }
            (Bool(data, bm), Value::Bool(x)) => {
                data.push(x);
                bm.push(true);
            }
            (Bool(data, bm), Value::Null) => {
                data.push(false);
                bm.push(false);
            }
            (Date(data, bm), Value::Date(x)) => {
                data.push(x);
                bm.push(true);
            }
            (Date(data, bm), Value::Null) => {
                data.push(0);
                bm.push(false);
            }
            (Dict(codes, pool, bm), Value::Str(s)) => match pool.intern(&s) {
                Some(code) => {
                    codes.push(code);
                    bm.push(true);
                }
                None => {
                    // Dictionary overflow: fall back to plain strings.
                    self.overflow_dict_to_str();
                    self.push(Value::Str(s));
                }
            },
            (Dict(codes, _, bm), Value::Null) => {
                codes.push(0);
                bm.push(false);
            }
            (Str(data, bm), Value::Str(s)) => {
                data.push(s);
                bm.push(true);
            }
            (Str(data, bm), Value::Null) => {
                data.push(String::new());
                bm.push(false);
            }
            (Mixed(data), v) => data.push(v),
            // Type mismatch: demote everything built so far to Mixed and
            // keep the value exactly as it came.
            (_, v) => {
                self.demote_to_mixed();
                self.push(v);
            }
        }
    }

    fn fresh_state_for(&self, v: &Value) -> BuilderState {
        let mut bm = Bitmap::new();
        for _ in 0..self.leading_nulls {
            bm.push(false);
        }
        let n = self.leading_nulls;
        match v {
            Value::Int(_) => BuilderState::Int(vec![0; n], bm),
            Value::Float(_) => BuilderState::Float(vec![0.0; n], bm),
            Value::Bool(_) => BuilderState::Bool(vec![false; n], bm),
            Value::Date(_) => BuilderState::Date(vec![0; n], bm),
            Value::Str(_) => BuilderState::Dict(vec![0; n], StringPool::new(), bm),
            Value::Null => unreachable!("handled by the caller"),
        }
    }

    fn overflow_dict_to_str(&mut self) {
        if let BuilderState::Dict(codes, pool, bm) = std::mem::replace(&mut self.state, BuilderState::Start) {
            let data: Vec<String> = codes
                .iter()
                .enumerate()
                .map(|(i, &c)| if bm.get(i) { pool.get(c).to_string() } else { String::new() })
                .collect();
            self.state = BuilderState::Str(data, bm);
        }
    }

    fn demote_to_mixed(&mut self) {
        let col = std::mem::replace(self, ColumnBuilder::new(self.ty)).finish();
        let values: Vec<Value> = (0..col.len()).map(|i| col.value(i)).collect();
        self.state = BuilderState::Mixed(values);
    }

    pub fn finish(self) -> Column {
        use BuilderState::*;
        let finish_typed = |data: ColumnData, bm: Bitmap| {
            let validity = if bm.all_set() { None } else { Some(bm) };
            Column::new(data, validity)
        };
        match self.state {
            // Nothing but NULLs (or nothing at all): type after the declared
            // schema type.
            Start => Column::nulls(self.ty, self.leading_nulls),
            Int(d, bm) => finish_typed(ColumnData::Int(d), bm),
            Float(d, bm) => finish_typed(ColumnData::Float(d), bm),
            Bool(d, bm) => finish_typed(ColumnData::Bool(d), bm),
            Date(d, bm) => finish_typed(ColumnData::Date(d), bm),
            Dict(codes, pool, bm) => finish_typed(ColumnData::Dict { codes, pool: Arc::new(pool) }, bm),
            Str(d, bm) => finish_typed(ColumnData::Str(d), bm),
            Mixed(d) => Column::new(ColumnData::Mixed(d), None),
        }
    }
}

impl Column {
    /// A column of `len` NULL slots with the same representation as `like`.
    fn nulls_typed(like: &ColumnData, len: usize) -> Column {
        let data = match like {
            ColumnData::Int(_) => ColumnData::Int(vec![0; len]),
            ColumnData::Float(_) => ColumnData::Float(vec![0.0; len]),
            ColumnData::Bool(_) => ColumnData::Bool(vec![false; len]),
            ColumnData::Date(_) => ColumnData::Date(vec![0; len]),
            ColumnData::Dict { pool, .. } => ColumnData::Dict { codes: vec![0; len], pool: Arc::clone(pool) },
            ColumnData::Str(_) => ColumnData::Str(vec![String::new(); len]),
            ColumnData::Mixed(_) => return Column::new(ColumnData::Mixed(vec![Value::Null; len]), None),
        };
        Column::new(data, Some(Bitmap::all_null(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(ty: ColType, values: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::new(ty);
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    #[test]
    fn typed_roundtrip_preserves_values() {
        let vals = vec![Value::Int(3), Value::Null, Value::Int(-7)];
        let c = build(ColType::Integer, vals.clone());
        assert!(matches!(c.data(), ColumnData::Int(_)));
        assert_eq!((0..c.len()).map(|i| c.value(i)).collect::<Vec<_>>(), vals);
        assert!(c.is_null(1));
    }

    #[test]
    fn strings_dictionary_encode_and_share_pool_on_gather() {
        let c = build(
            ColType::Text,
            vec![Value::Str("Spain".into()), Value::Str("France".into()), Value::Str("Spain".into())],
        );
        let ColumnData::Dict { codes, pool } = c.data() else { panic!("expected dict") };
        assert_eq!(codes[0], codes[2], "repeated strings share a code");
        assert_eq!(pool.len(), 2);
        let g = c.gather(&[2, 0]);
        let ColumnData::Dict { pool: gpool, .. } = g.data() else { panic!("gather keeps dict") };
        assert!(Arc::ptr_eq(pool, gpool), "gather shares the pool, no string copied");
        assert_eq!(g.value(0), Value::Str("Spain".into()));
    }

    #[test]
    fn dict_overflow_falls_back_to_plain_strings() {
        let mut b = ColumnBuilder::new(ColType::Text);
        for i in 0..(DICT_MAX + 10) {
            b.push(Value::Str(format!("s{i}")));
        }
        let c = b.finish();
        assert!(matches!(c.data(), ColumnData::Str(_)), "dictionary overflow demotes to plain strings");
        assert_eq!(c.len(), DICT_MAX + 10);
        assert_eq!(c.value(DICT_MAX + 9), Value::Str(format!("s{}", DICT_MAX + 9)));
        assert_eq!(c.value(0), Value::Str("s0".into()));
    }

    #[test]
    fn mixed_types_demote_and_preserve_exact_values() {
        // A declared Date column carrying dirty text: the row engine keeps
        // the exact values, and so must the columnar one.
        let vals = vec![Value::date(1995, 6, 17), Value::Str("not-a-date".into()), Value::Null];
        let c = build(ColType::Date, vals.clone());
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        assert_eq!((0..c.len()).map(|i| c.value(i)).collect::<Vec<_>>(), vals);
    }

    #[test]
    fn all_null_column_types_after_declared_type() {
        let c = build(ColType::Decimal, vec![Value::Null, Value::Null]);
        assert!(matches!(c.data(), ColumnData::Float(_)));
        assert_eq!(c.len(), 2);
        assert!(c.is_null(0) && c.is_null(1));
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn leading_nulls_backfill_into_the_chosen_representation() {
        let c = build(ColType::Text, vec![Value::Null, Value::Null, Value::Str("x".into())]);
        assert!(matches!(c.data(), ColumnData::Dict { .. }));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(2), Value::Str("x".into()));
    }

    #[test]
    fn gather_with_null_sentinel_pads() {
        let c = build(ColType::Integer, vec![Value::Int(10), Value::Int(20)]);
        let g = c.gather(&[1, NULL_IDX, 0]);
        assert_eq!((0..3).map(|i| g.value(i)).collect::<Vec<_>>(), vec![Value::Int(20), Value::Null, Value::Int(10)]);
    }

    #[test]
    fn concat_extends_matching_representations() {
        let a = build(ColType::Integer, vec![Value::Int(1), Value::Null]);
        let b = build(ColType::Integer, vec![Value::Int(3)]);
        let c = Column::concat(&[&a, &b], ColType::Integer);
        assert!(matches!(c.data(), ColumnData::Int(_)));
        assert_eq!((0..3).map(|i| c.value(i)).collect::<Vec<_>>(), vec![Value::Int(1), Value::Null, Value::Int(3)]);
    }

    #[test]
    fn concat_unifies_disagreeing_representations() {
        let a = build(ColType::Text, vec![Value::Str("a".into()), Value::Null, Value::Str("b".into())]);
        let b = build(ColType::Text, vec![Value::Str("b".into()), Value::Str("c".into())]); // different pool
        let c = Column::concat(&[&a, &b], ColType::Text);
        let ColumnData::Dict { codes, pool } = c.data() else { panic!("dictionaries unify into a dictionary") };
        assert_eq!((pool.len(), codes[2]), (3, codes[3]), "one code per distinct string across the parts");
        let strs =
            |v: &[Option<&str>]| v.iter().map(|s| s.map_or(Value::Null, |s| Value::Str(s.into()))).collect::<Vec<_>>();
        assert_eq!(
            (0..5).map(|i| c.value(i)).collect::<Vec<_>>(),
            strs(&[Some("a"), None, Some("b"), Some("b"), Some("c")])
        );

        let d = build(ColType::Integer, vec![Value::Int(1)]);
        let e = build(ColType::Integer, vec![Value::Float(2.5)]);
        let f = Column::concat(&[&d, &e], ColType::Integer);
        assert!(matches!(f.data(), ColumnData::Mixed(_)), "true type mix demotes");
        assert_eq!(f.value(1), Value::Float(2.5));
    }

    #[test]
    fn write_display_matches_value_display() {
        let vals = vec![
            Value::Int(-3),
            Value::Float(2.5),
            Value::Str("Spain".into()),
            Value::Bool(true),
            Value::date(1995, 6, 17),
            Value::Null,
        ];
        for v in vals {
            let c = build(ColType::Text, vec![v.clone()]);
            let mut s = String::new();
            c.write_display(0, &mut s).unwrap();
            assert_eq!(s, v.to_string(), "display mismatch for {v:?}");
        }
    }

    #[test]
    fn typed_null_fill_equals_the_built_column() {
        let types = [ColType::Integer, ColType::Decimal, ColType::Date, ColType::Boolean, ColType::Text];
        for ty in types {
            for len in [0, 1, 63, 64, 65, 75_000] {
                let filled = Column::nulls(ty, len);
                assert_eq!(filled, build(ty, vec![Value::Null; len]), "{ty} × {len}");
                // The bits a slot-by-slot build pushes, word for word.
                let mut pushed = Bitmap::new();
                (0..len).for_each(|_| pushed.push(false));
                assert_eq!(filled.validity(), (len > 0).then_some(&pushed), "{ty} × {len}");
                assert!((0..len).all(|i| filled.is_null(i)));
            }
        }
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && !b.get(1) && b.get(129) && !b.get(128));
        assert_eq!(b.count_set(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(!b.all_set());
        assert!(Bitmap::all_valid(130).all_set());
    }
}
