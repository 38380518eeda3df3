//! The cross-run subflow result cache.
//!
//! Quarry's consolidation story makes shared subflows cheap *within* one run;
//! this module extends the saving *across* runs: a memory-budgeted store of
//! materialized operator outputs (`Arc<Relation>`, zero-copy to publish)
//! keyed per run by [`PhysicalPlan::cache_keys`](crate::PhysicalPlan::cache_keys):
//! the operator's signature hash folded with its inputs' keys, the per-flow
//! epoch and the per-source epochs — so a hit is only possible when the same
//! computation over the same source state is requested again, and
//! invalidation is pure key rotation: epoch bumps make old entries
//! unreachable (and [`ResultCache::set_flow_epoch`] purges them for hygiene).
//!
//! Admission asks for demand and room, nothing else. An output the executor
//! already holds materialized is admitted whenever it fits the budget; a late
//! batch is gathered and admitted only on its fingerprint's second miss, so a
//! cold run never pays a gather for a reuse that is still speculative.
//! Eviction under the byte budget is cost-weighted LRU: the entry with the
//! least modeled saving per byte, discounted by staleness, goes first. That
//! ranking is the only reader of the plan's modeled cone costs
//! ([`PlanNode::cone_cost`](crate::PlanNode::cone_cost)).

use crate::catalog::Catalog;
use crate::relation::Relation;
use quarry_etl::OpKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Bound on the fingerprint-demand map (admission state, not correctness
/// state); past it the counts reset wholesale.
const DEMAND_CAP: usize = 1 << 16;

/// Operator kinds whose outputs are worth keying: pipeline breakers (join
/// builds feed them, aggregations collapse them) and post-filter scans.
/// Streaming pass-throughs (projection, derivation) are never cached — their
/// upstream breaker already is, and their own cost is near zero.
pub(crate) fn cacheable(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Join { .. }
            | OpKind::Aggregation { .. }
            | OpKind::Selection { .. }
            | OpKind::Distinct
            | OpKind::Sort { .. }
            | OpKind::Union
    )
}

/// Misses a fingerprint must accumulate before a late batch is gathered
/// for admission (see [`ResultCache::would_admit`]).
const LATE_ADMIT_MIN_DEMAND: u32 = 2;

/// A content stamp for one catalog table: row count, schema, and the
/// identities of its shared columns. Folding this into the per-source epoch
/// makes a cache hit physically contingent on the very column vectors the
/// cached result was computed from — replacing a table's data rotates its
/// column `Arc`s and therefore the stamp, so stale data cannot hit (at worst
/// an unchanged table re-generated from scratch misses: false negatives
/// only).
pub(crate) fn table_stamp(catalog: &Catalog, name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    match catalog.get_shared(name) {
        Some(rel) => {
            1u8.hash(&mut h);
            rel.len().hash(&mut h);
            for col in rel.schema.columns.iter() {
                col.name.hash(&mut h);
                col.ty.hash(&mut h);
            }
            for col in rel.columns() {
                (Arc::as_ptr(col) as usize).hash(&mut h);
            }
        }
        None => 0u8.hash(&mut h),
    }
    h.finish()
}

#[derive(Debug)]
struct Entry {
    relation: Arc<Relation>,
    bytes: usize,
    saved: f64,
    last_used: u64,
    flow_epoch: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    /// Times each fingerprint was looked up and missed — what a late batch
    /// waits on before admission.
    demand: HashMap<u64, u32>,
    hits: u64,
    misses: u64,
    inserts: u64,
    rejects: u64,
    evictions: u64,
}

/// Snapshot of one cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub enabled: bool,
    pub budget_bytes: usize,
    pub entries: usize,
    pub bytes: usize,
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    /// Offers declined because the result alone exceeds the budget.
    pub rejects: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; zero before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The budgeted fingerprint-keyed store. Shareable across engines and runs
/// via `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct ResultCache {
    enabled: bool,
    budget_bytes: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    pub fn new(enabled: bool, budget_bytes: usize) -> Self {
        ResultCache { enabled, budget_bytes, inner: Mutex::new(Inner::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a fingerprint. A miss also records demand — the admission
    /// signal that this subflow keeps being asked for.
    pub fn lookup(&self, fp: u64) -> Option<Arc<Relation>> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&fp) {
            entry.last_used = tick;
            let relation = Arc::clone(&entry.relation);
            inner.hits += 1;
            return Some(relation);
        }
        inner.misses += 1;
        if inner.demand.len() >= DEMAND_CAP {
            inner.demand.clear();
        }
        *inner.demand.entry(fp).or_insert(0) += 1;
        None
    }

    /// Whether a late batch for `fp` is worth gathering: its fingerprint has
    /// missed at least twice. The executor asks this *before* paying the
    /// gather; a materialized output needs no such history.
    pub fn would_admit(&self, fp: u64) -> bool {
        self.enabled && self.lock().demand.get(&fp).is_some_and(|&d| d >= LATE_ADMIT_MIN_DEMAND)
    }

    /// Offers one computed result for admission. `saved` is the modeled cost
    /// of the result's upstream cone, kept for eviction to rank by. Admitted
    /// when it fits the budget; then evicts cost-weighted-LRU until under
    /// budget. Returns whether the entry is resident afterwards.
    pub fn admit(&self, fp: u64, relation: &Arc<Relation>, saved: f64, flow_epoch: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let bytes = relation.estimated_bytes();
        let mut inner = self.lock();
        if inner.entries.contains_key(&fp) {
            return true; // already resident (a concurrent lane admitted it)
        }
        if bytes > self.budget_bytes {
            inner.rejects += 1;
            return false;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.bytes += bytes;
        inner.inserts += 1;
        inner.entries.insert(fp, Entry { relation: Arc::clone(relation), bytes, saved, last_used: tick, flow_epoch });
        self.evict_over_budget(&mut inner);
        inner.entries.contains_key(&fp)
    }

    /// Evicts until total bytes fit the budget. The victim is the entry with
    /// the least modeled saving per byte, discounted by how long ago it was
    /// last used — cost-weighted LRU.
    fn evict_over_budget(&self, inner: &mut Inner) {
        while inner.bytes > self.budget_bytes && !inner.entries.is_empty() {
            let now = inner.tick;
            let victim = inner
                .entries
                .iter()
                .map(|(&fp, e)| {
                    let age = now.saturating_sub(e.last_used) as f64;
                    (fp, (e.saved / e.bytes.max(1) as f64) / (1.0 + age))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(fp, _)| fp);
            let Some(fp) = victim else { break };
            if let Some(entry) = inner.entries.remove(&fp) {
                inner.bytes -= entry.bytes;
                inner.evictions += 1;
                crate::events::emit(crate::events::EngineEvent::CacheEvict { bytes: entry.bytes as u64 });
            }
        }
    }

    /// Announces the current flow epoch: entries admitted under any other
    /// epoch are purged. Their fingerprints could never hit again anyway
    /// (the epoch folds into every key); purging frees their memory the
    /// moment the lifecycle commits a new design. A purge is invalidation,
    /// not a budget eviction, so `evictions` does not count it. Demand is
    /// forgotten on every call, epoch moved or not.
    pub fn set_flow_epoch(&self, epoch: u64) {
        let mut inner = self.lock();
        inner.entries.retain(|_, e| e.flow_epoch == epoch);
        inner.bytes = inner.entries.values().map(|e| e.bytes).sum();
        inner.demand.clear();
    }

    /// Drops every entry (and the demand heuristics).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.demand.clear();
        inner.bytes = 0;
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            enabled: self.enabled,
            budget_bytes: self.budget_bytes,
            entries: inner.entries.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            rejects: inner.rejects,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::value::Value;
    use quarry_etl::{ColType, Column, Schema};

    fn rel(n: usize) -> Arc<Relation> {
        let schema = Schema::new(vec![Column::new("x", ColType::Integer)]);
        Arc::new(Relation::with_rows(schema, (0..n).map(|i| vec![Value::Int(i as i64)]).collect()))
    }

    #[test]
    fn lookup_miss_then_admit_then_hit() {
        let cache = ResultCache::new(true, 1 << 20);
        assert!(cache.lookup(7).is_none());
        assert!(cache.admit(7, &rel(10), 1000.0, 1));
        let hit = cache.lookup(7).expect("admitted entry hits");
        assert_eq!(hit.len(), 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        assert!(s.bytes > 0 && s.entries == 1);
    }

    #[test]
    fn disabled_cache_never_stores_or_counts() {
        let cache = ResultCache::new(false, 1 << 20);
        assert!(cache.lookup(1).is_none());
        assert!(!cache.admit(1, &rel(4), 1e9, 1));
        assert!(cache.lookup(1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 0, 0, 0));
    }

    #[test]
    fn materialized_outputs_are_admitted_whenever_they_fit() {
        let cache = ResultCache::new(true, 1 << 20);
        // No demand history and no modeled saving: a result the executor
        // already holds is admitted on room alone.
        assert!(cache.admit(1, &rel(4), 0.0, 1));
        cache.lookup(2);
        assert!(cache.admit(2, &rel(4), 10.0, 1));
        let s = cache.stats();
        assert_eq!((s.inserts, s.rejects, s.entries), (2, 0, 2));
    }

    #[test]
    fn costly_admission_requires_repeated_demand() {
        let cache = ResultCache::new(true, 1 << 20);
        // Never asked for, or asked once: a late batch stays late…
        assert!(!cache.would_admit(9));
        cache.lookup(9);
        assert!(!cache.would_admit(9));
        // …a second miss is enough history to pay its gather.
        cache.lookup(9);
        assert!(cache.would_admit(9));
        assert!(!ResultCache::new(false, 1 << 20).would_admit(9), "a disabled cache gathers nothing");
    }

    #[test]
    fn budget_eviction_prefers_low_value_entries() {
        let budget = rel(64).estimated_bytes() * 2 + 64;
        let cache = ResultCache::new(true, budget);
        assert!(cache.admit(1, &rel(64), 10.0, 1), "low value");
        assert!(cache.admit(2, &rel(64), 1e6, 1), "high value");
        // A third entry forces an eviction; the low-value entry goes.
        assert!(cache.admit(3, &rel(64), 1e6, 1));
        assert!(cache.stats().evictions >= 1);
        assert!(cache.lookup(1).is_none(), "low-value entry evicted");
        assert!(cache.lookup(2).is_some() || cache.lookup(3).is_some());
        assert!(cache.stats().bytes <= budget, "occupancy within budget");
    }

    #[test]
    fn oversized_entries_are_rejected_outright() {
        let cache = ResultCache::new(true, 16);
        assert!(!cache.admit(1, &rel(1024), 1e9, 1));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn flow_epoch_change_purges_old_entries() {
        let cache = ResultCache::new(true, 1 << 20);
        assert!(cache.admit(1, &rel(8), 100.0, 1));
        assert!(cache.admit(2, &rel(8), 100.0, 1));
        cache.set_flow_epoch(2);
        let s = cache.stats();
        assert_eq!(s.entries, 0, "stale-epoch entries purged");
        assert_eq!(s.bytes, 0);
        assert_eq!(s.evictions, 0, "a purge is invalidation, not a budget eviction");
        assert!(cache.lookup(1).is_none() && cache.lookup(2).is_none());
    }

    #[test]
    fn table_stamp_tracks_data_identity() {
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![Column::new("x", ColType::Integer)]);
        catalog.put("t", Relation::with_rows(schema.clone(), vec![vec![Value::Int(1)]]));
        let a = table_stamp(&catalog, "t");
        assert_eq!(a, table_stamp(&catalog, "t"), "stamps are stable");
        let shared = catalog.clone();
        assert_eq!(a, table_stamp(&shared, "t"), "clones share columns, so stamps agree");
        // Replacing the data rotates the stamp even at equal row counts.
        catalog.put("t", Relation::with_rows(schema, vec![vec![Value::Int(2)]]));
        assert_ne!(a, table_stamp(&catalog, "t"));
        assert_ne!(a, table_stamp(&catalog, "missing"));
    }
}
