//! The flight recorder: an always-on, fixed-capacity, lock-free ring buffer
//! of structured events — the system's "black box".
//!
//! Metrics aggregate and spans require an enabled recorder plus lexical
//! nesting; neither answers *"what were the last ten thousand things the
//! process did?"* when a run panics or a store write fails. The flight
//! recorder does: every subsystem appends compact events (span open/close,
//! pool queue-depth transitions, WAL fsync batches, optimizer move
//! acceptances, engine kernel fallbacks) into per-worker ring shards, and a
//! drain reconstructs the global order from a monotonic sequence counter.
//!
//! Design constraints, matching the rest of the crate:
//!
//! - **bounded** — capacity is fixed at construction; memory never grows
//!   with event volume. Past capacity the ring overwrites its oldest slots
//!   and *counts* the overwrites ([`FlightLog::dropped`]) instead of
//!   silently losing history.
//! - **lock-free recording** — [`FlightRecorder::record`] is a handful of
//!   relaxed atomic stores guarded by a per-slot seqlock version; there is
//!   no mutex on the event path. Labels are interned strings: resolving a
//!   [`LabelId`] with [`FlightRecorder::label`] takes a short lock once,
//!   after which recording with it is lock-free
//!   ([`FlightRecorder::record_named`] is the convenience shim that interns
//!   per call — fine at per-operator frequency, not per row).
//! - **shared-nothing writers** — writer threads spread over shards by a
//!   per-thread slot, so engine workers do not contend on one cache line.
//! - **torn reads are detected, not returned** — a drain concurrent with
//!   writers validates each slot's seqlock version and reports slots it
//!   could not read consistently as [`FlightLog::torn`].
//!
//! The process-wide recorder ([`recorder`]) is the one the lifecycle, the
//! engine hooks, and the `GET /debug/events` endpoint share; it has no off
//! switch ("always-on"). [`install_panic_dump`] chains a panic
//! hook that prints the tail of the log to stderr — the black-box dump.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default shard count for the global recorder: enough that one worker pool
/// spreads out, small enough to stay cache-friendly at drain time.
pub const DEFAULT_SHARDS: usize = 8;
/// Default slots per shard; the global recorder holds
/// `DEFAULT_SHARDS × DEFAULT_SLOTS` events (~1 MiB).
pub const DEFAULT_SLOTS: usize = 2048;
/// Interned-label table cap: beyond it new names collapse into `<other>` so
/// a label leak cannot grow memory unboundedly.
const MAX_LABELS: u32 = 4096;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What kind of thing happened. The payload meaning of `a`/`b` is
/// kind-specific and documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A lifecycle span opened (`a` = depth).
    SpanOpen,
    /// A lifecycle span closed (`a` = elapsed µs).
    SpanClose,
    /// An engine operator finished (`a` = rows in, `b` = rows out).
    OpFinish,
    /// A pool region transition (`a` = queue depth after, `b` = jobs).
    QueueDepth,
    /// A WAL fsync batch hit the platter (`a` = latency µs, `b` = fsyncs so far).
    WalFsync,
    /// The annealer accepted a move (`a` = chain, `b` = signed cost delta ‰).
    OptimizerMove,
    /// A vectorized kernel fell back to the scalar path (`a` = fallbacks so far).
    KernelFallback,
    /// A drift analyzer flagged an operator (`a` = estimated rows, `b` = actual rows).
    Drift,
    /// The result cache served an operator's output (`a` = rows).
    CacheHit,
    /// The result cache was consulted and had nothing (`a`/`b` unused).
    CacheMiss,
    /// The result cache admitted an operator output (`a` = bytes).
    CacheInsert,
    /// The result cache evicted an entry under budget pressure (`a` = bytes).
    CacheEvict,
    /// Anything else (tests, ad-hoc markers).
    Custom,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::OpFinish => "op_finish",
            EventKind::QueueDepth => "queue_depth",
            EventKind::WalFsync => "wal_fsync",
            EventKind::OptimizerMove => "optimizer_move",
            EventKind::KernelFallback => "kernel_fallback",
            EventKind::Drift => "drift",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheInsert => "cache_insert",
            EventKind::CacheEvict => "cache_evict",
            EventKind::Custom => "custom",
        }
    }

    fn code(self) -> u64 {
        match self {
            EventKind::SpanOpen => 1,
            EventKind::SpanClose => 2,
            EventKind::OpFinish => 3,
            EventKind::QueueDepth => 4,
            EventKind::WalFsync => 5,
            EventKind::OptimizerMove => 6,
            EventKind::KernelFallback => 7,
            EventKind::Drift => 8,
            EventKind::Custom => 9,
            EventKind::CacheHit => 10,
            EventKind::CacheMiss => 11,
            EventKind::CacheInsert => 12,
            EventKind::CacheEvict => 13,
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::SpanOpen,
            2 => EventKind::SpanClose,
            3 => EventKind::OpFinish,
            4 => EventKind::QueueDepth,
            5 => EventKind::WalFsync,
            6 => EventKind::OptimizerMove,
            7 => EventKind::KernelFallback,
            8 => EventKind::Drift,
            9 => EventKind::Custom,
            10 => EventKind::CacheHit,
            11 => EventKind::CacheMiss,
            12 => EventKind::CacheInsert,
            13 => EventKind::CacheEvict,
            _ => return None,
        })
    }
}

/// One drained event, label resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (total order across all shards).
    pub seq: u64,
    /// Microseconds since the recorder's construction.
    pub micros: u64,
    pub kind: EventKind,
    /// The interned label (operator name, span name, …).
    pub label: String,
    /// Worker lane that recorded the event (0 for non-pool threads).
    pub lane: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: i64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: i64,
}

/// A drained snapshot of the ring: events in global sequence order plus the
/// loss accounting that makes overflow visible instead of silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightLog {
    /// Events in ascending `seq` order.
    pub events: Vec<FlightEvent>,
    /// Events overwritten by ring wrap-around since the last clear. Zero
    /// means the log is complete.
    pub dropped: u64,
    /// Slots skipped because a writer was mid-store during the drain.
    pub torn: u64,
    /// Total events ever recorded (`= events + dropped + torn` when no
    /// writer raced the drain).
    pub recorded: u64,
    /// Ring capacity in events.
    pub capacity: usize,
}

// ---------------------------------------------------------------------------
// Ring storage
// ---------------------------------------------------------------------------

/// One ring slot, written under a seqlock version: odd while a writer is
/// mid-store, bumped to even when the payload is complete. A reader that
/// observes a version change (or an odd version) discards the slot.
#[derive(Debug)]
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    micros: AtomicU64,
    /// `kind code << 32 | lane`.
    kind_lane: AtomicU64,
    label: AtomicU64,
    a: AtomicI64,
    b: AtomicI64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            micros: AtomicU64::new(0),
            kind_lane: AtomicU64::new(0),
            label: AtomicU64::new(0),
            a: AtomicI64::new(0),
            b: AtomicI64::new(0),
        }
    }
}

#[derive(Debug)]
struct Shard {
    /// Events ever claimed in this shard; slot = `head % slots.len()`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// Process-wide monotonically assigned writer slots (separate from the
/// registry's stripe slots so shard spread does not depend on metric use).
static NEXT_WRITER_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WRITER_SLOT: usize = NEXT_WRITER_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A pre-interned label handle; recording with one is lock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelId(u32);

#[derive(Debug, Default)]
struct LabelTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

/// The flight recorder. See the module docs for the full contract.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Global monotonic sequence counter — the total order a drain rebuilds.
    seq: AtomicU64,
    shards: Box<[Shard]>,
    labels: Mutex<LabelTable>,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder with `shards × slots` total event capacity.
    pub fn with_capacity(shards: usize, slots: usize) -> FlightRecorder {
        let shards = shards.max(1);
        let slots = slots.max(1);
        FlightRecorder {
            seq: AtomicU64::new(0),
            shards: (0..shards)
                .map(|_| Shard { head: AtomicU64::new(0), slots: (0..slots).map(|_| Slot::new()).collect() })
                .collect(),
            labels: Mutex::new(LabelTable::default()),
            epoch: Instant::now(),
        }
    }

    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_SHARDS, DEFAULT_SLOTS)
    }

    /// Total event capacity before wrap-around.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Interns `name`, returning a handle that records lock-free. The table
    /// is capped: past [`MAX_LABELS`] distinct names everything interns as
    /// `<other>` rather than growing without bound.
    pub fn label(&self, name: &str) -> LabelId {
        let mut table = self.labels.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = table.by_name.get(name) {
            return LabelId(id);
        }
        if table.names.len() as u32 >= MAX_LABELS {
            let overflow = "<other>";
            if let Some(&id) = table.by_name.get(overflow) {
                return LabelId(id);
            }
            let id = table.names.len() as u32;
            table.names.push(overflow.to_string());
            table.by_name.insert(overflow.to_string(), id);
            return LabelId(id);
        }
        let id = table.names.len() as u32;
        table.names.push(name.to_string());
        table.by_name.insert(name.to_string(), id);
        LabelId(id)
    }

    /// Appends one event. Lock-free: a global sequence fetch-add, a shard
    /// head fetch-add, and seven relaxed stores under the slot's seqlock.
    pub fn record(&self, kind: EventKind, label: LabelId, lane: u32, a: i64, b: i64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let micros = self.epoch.elapsed().as_micros() as u64;
        let shard = &self.shards[WRITER_SLOT.with(|s| *s) % self.shards.len()];
        let idx = shard.head.fetch_add(1, Ordering::Relaxed);
        let slot = &shard.slots[(idx % shard.slots.len() as u64) as usize];
        // Seqlock write: odd while storing, even (and changed) when done.
        // Two writers lapping each other on one slot can interleave — that
        // only happens past capacity, where the slot's old event is already
        // accounted as dropped; the reader's version re-check rejects any
        // interleaved result.
        slot.version.fetch_add(1, Ordering::Acquire);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.micros.store(micros, Ordering::Relaxed);
        slot.kind_lane.store(kind.code() << 32 | lane as u64, Ordering::Relaxed);
        slot.label.store(label.0 as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.version.fetch_add(1, Ordering::Release);
    }

    /// [`FlightRecorder::record`] with per-call label interning — the
    /// convenience path for call sites at per-operator (not per-row)
    /// frequency.
    pub fn record_named(&self, kind: EventKind, name: &str, lane: u32, a: i64, b: i64) {
        let label = self.label(name);
        self.record(kind, label, lane, a, b);
    }

    /// Non-destructive drain: snapshots every readable slot, reconstructs
    /// the global order by sequence number, and accounts for what is *not*
    /// in the result (overwritten and torn slots). Safe to call while
    /// writers are active; a post-quiescence drain below capacity returns
    /// every event exactly once.
    pub fn drain(&self) -> FlightLog {
        let table = {
            let t = self.labels.lock().unwrap_or_else(|p| p.into_inner());
            t.names.clone()
        };
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut torn = 0u64;
        for shard in self.shards.iter() {
            let head = shard.head.load(Ordering::Acquire);
            let cap = shard.slots.len() as u64;
            dropped += head.saturating_sub(cap);
            for slot in shard.slots.iter().take(head.min(cap) as usize) {
                let v1 = slot.version.load(Ordering::Acquire);
                if v1 == 0 || v1 % 2 == 1 {
                    // Never written, or a writer is mid-store right now.
                    if v1 % 2 == 1 {
                        torn += 1;
                    }
                    continue;
                }
                let seq = slot.seq.load(Ordering::Relaxed);
                let micros = slot.micros.load(Ordering::Relaxed);
                let kind_lane = slot.kind_lane.load(Ordering::Relaxed);
                let label = slot.label.load(Ordering::Relaxed);
                let a = slot.a.load(Ordering::Relaxed);
                let b = slot.b.load(Ordering::Relaxed);
                if slot.version.load(Ordering::Acquire) != v1 {
                    torn += 1;
                    continue;
                }
                let Some(kind) = EventKind::from_code(kind_lane >> 32) else {
                    torn += 1;
                    continue;
                };
                events.push(FlightEvent {
                    seq,
                    micros,
                    kind,
                    label: table.get(label as usize).cloned().unwrap_or_else(|| format!("label#{label}")),
                    lane: (kind_lane & 0xffff_ffff) as u32,
                    a,
                    b,
                });
            }
        }
        events.sort_by_key(|e| e.seq);
        FlightLog { events, dropped, torn, recorded: self.seq.load(Ordering::Relaxed), capacity: self.capacity() }
    }

    /// Resets the ring (heads, slots, counters; interned labels are kept).
    /// Not linearizable against concurrent writers — meant for test setup
    /// and explicit operator resets, not the hot path.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.head.store(0, Ordering::Relaxed);
            for slot in shard.slots.iter() {
                slot.version.store(0, Ordering::Relaxed);
            }
        }
        self.seq.store(0, Ordering::Relaxed);
    }

    /// Renders the tail of the log as indented text — what the panic hook
    /// and the `StoreError` path print.
    pub fn render_tail(&self, max_events: usize) -> String {
        let log = self.drain();
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder: {} of {} recorded events ({} dropped, {} torn)\n",
            log.events.len(),
            log.recorded,
            log.dropped,
            log.torn
        ));
        let skip = log.events.len().saturating_sub(max_events);
        for e in &log.events[skip..] {
            out.push_str(&format!(
                "  [{:>10}µs] #{:<6} {:<15} {:<24} lane={} a={} b={}\n",
                e.micros,
                e.seq,
                e.kind.as_str(),
                e.label,
                e.lane,
                e.a,
                e.b
            ));
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

// ---------------------------------------------------------------------------
// The process-wide recorder
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder every subsystem shares. Always-on from
/// first touch; capacity [`DEFAULT_SHARDS`]` × `[`DEFAULT_SLOTS`].
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(FlightRecorder::new)
}

static PANIC_DUMP: OnceLock<()> = OnceLock::new();
/// Tail length of black-box dumps (panic hook, `StoreError` path).
pub const DUMP_TAIL: usize = 64;

/// Installs (once per process) a panic hook that dumps the flight-recorder
/// tail to stderr before delegating to the previous hook — the black box
/// surviving the crash.
pub fn install_panic_dump() {
    PANIC_DUMP.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprintln!("{}", recorder().render_tail(DUMP_TAIL));
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_drain_in_global_sequence_order() {
        // A single-threaded writer lands on one shard, so that shard alone
        // must hold everything.
        let r = FlightRecorder::with_capacity(4, 128);
        let label = r.label("op");
        for i in 0..100 {
            r.record(EventKind::Custom, label, 0, i, -i);
        }
        let log = r.drain();
        assert_eq!(log.events.len(), 100);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.torn, 0);
        assert_eq!(log.recorded, 100);
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.a, i as i64);
            assert_eq!(e.b, -(i as i64));
            assert_eq!(e.label, "op");
        }
    }

    #[test]
    fn overflow_is_reported_not_silent() {
        let r = FlightRecorder::with_capacity(1, 16);
        let label = r.label("x");
        for i in 0..40 {
            r.record(EventKind::Custom, label, 0, i, 0);
        }
        let log = r.drain();
        assert_eq!(log.capacity, 16);
        assert_eq!(log.recorded, 40);
        assert_eq!(log.dropped, 24, "overwrites are counted");
        assert_eq!(log.events.len(), 16, "the ring keeps the newest window");
        // The surviving window is the newest events.
        let min_seq = log.events.iter().map(|e| e.seq).min().unwrap();
        assert_eq!(min_seq, 24);
        assert_eq!(log.events.last().unwrap().seq, 39);
    }

    #[test]
    fn clear_resets_the_ring_but_keeps_labels() {
        let r = FlightRecorder::with_capacity(2, 8);
        let label = r.label("keep");
        r.record(EventKind::Custom, label, 0, 1, 2);
        r.clear();
        assert!(r.drain().events.is_empty());
        r.record(EventKind::SpanOpen, label, 3, 4, 5);
        let log = r.drain();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].label, "keep");
        assert_eq!(log.events[0].kind, EventKind::SpanOpen);
        assert_eq!(log.events[0].lane, 3);
    }

    #[test]
    fn label_table_caps_at_other() {
        let r = FlightRecorder::with_capacity(1, 8);
        for i in 0..(MAX_LABELS + 10) {
            r.label(&format!("label-{i}"));
        }
        let overflowed = r.label("one-more");
        assert_eq!(overflowed, r.label("and-another"), "past the cap everything is <other>");
        r.record(EventKind::Custom, overflowed, 0, 0, 0);
        assert_eq!(r.drain().events[0].label, "<other>");
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            EventKind::SpanOpen,
            EventKind::SpanClose,
            EventKind::OpFinish,
            EventKind::QueueDepth,
            EventKind::WalFsync,
            EventKind::OptimizerMove,
            EventKind::KernelFallback,
            EventKind::Drift,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::CacheInsert,
            EventKind::CacheEvict,
            EventKind::Custom,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(99), None);
    }

    #[test]
    fn render_tail_truncates_to_the_newest() {
        let r = FlightRecorder::with_capacity(1, 64);
        for i in 0..10 {
            r.record_named(EventKind::Custom, &format!("ev{i}"), 0, i, 0);
        }
        let tail = r.render_tail(3);
        assert!(tail.contains("10 of 10 recorded"), "{tail}");
        assert!(!tail.contains("ev6"), "{tail}");
        assert!(tail.contains("ev7") && tail.contains("ev9"), "{tail}");
    }

    #[test]
    fn global_recorder_is_always_on() {
        assert!(recorder().capacity() >= DEFAULT_SLOTS);
    }
}
