//! The flight recorder: an always-on, fixed-capacity ring buffer of
//! structured events — the system's "black box".
//!
//! Metrics aggregate and spans require an enabled recorder plus lexical
//! nesting; neither answers *"what were the last ten thousand things the
//! process did?"* when a run panics or a store write fails. The flight
//! recorder does: every subsystem appends compact events (engine operator
//! finishes, pool queue-depth transitions, WAL fsync batches, optimizer move
//! acceptances, engine kernel fallbacks, result-cache traffic) into one ring,
//! each stamped with a sequence number that totally orders them.
//!
//! Design constraints, matching the rest of the crate:
//!
//! - **bounded** — capacity is fixed at construction; memory never grows
//!   past it. Past capacity the ring overwrites its oldest events and
//!   *counts* the overwrites ([`FlightLog::dropped`]) instead of silently
//!   losing history. Any one thread may fill the whole ring.
//! - **one lock per event** — [`FlightRecorder::record`] takes the ring's
//!   mutex, interns the label (the table is capped: past 4096 distinct
//!   names a label records as `<other>`), and stores one compact event. A
//!   run records a few hundred events, so the lock is a fraction of a
//!   percent of it; call sites record per operator, never per row.
//! - **consistent drains** — [`FlightRecorder::drain`] copies the ring out
//!   under the same lock, so it never returns half an event.
//!
//! The process-wide recorder ([`recorder`]) is the one the lifecycle, the
//! engine hooks, and the `GET /debug/events` endpoint share; it has no off
//! switch ("always-on"). [`install_panic_dump`] chains a panic
//! hook that prints the tail of the log to stderr — the black-box dump.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::time::Instant;

/// Event capacity of the global recorder (~640 KiB once full).
pub const DEFAULT_CAPACITY: usize = 16_384;
/// Interned-label table cap: beyond it new names collapse into `<other>` so
/// a label leak cannot grow memory unboundedly.
const MAX_LABELS: usize = 4096;
/// How many times a black-box dump tries the ring's lock before it reports
/// the recorder busy instead of blocking a crashing thread.
const DUMP_TRIES: usize = 1000;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What kind of thing happened. The payload meaning of `a`/`b` is
/// kind-specific and documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An engine operator finished (`a` = rows in, `b` = rows out).
    OpFinish,
    /// A pool region transition (`a` = queue depth after, `b` = jobs).
    QueueDepth,
    /// A WAL fsync batch hit the platter (`a` = latency µs, `b` = fsyncs so far).
    WalFsync,
    /// The optimizer's search kept a move (`a` = its proposal number, `b` =
    /// its signed cost delta in thousandths of the search's starting cost).
    OptimizerMove,
    /// A vectorized kernel fell back to the scalar path (`a` = fallbacks so far).
    KernelFallback,
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
            EventKind::OpFinish => "op_finish",
            EventKind::QueueDepth => "queue_depth",
            EventKind::WalFsync => "wal_fsync",
            EventKind::OptimizerMove => "optimizer_move",
            EventKind::KernelFallback => "kernel_fallback",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheInsert => "cache_insert",
            EventKind::CacheEvict => "cache_evict",
            EventKind::Custom => "custom",
        }
    }
}

/// One drained event, label resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Sequence number: the order events were recorded in.
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

/// A drained snapshot of the ring: events in sequence order plus the loss
/// accounting that makes overflow visible instead of silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightLog {
    /// Events in ascending `seq` order.
    pub events: Vec<FlightEvent>,
    /// Events overwritten by ring wrap-around since the last clear. Zero
    /// means the log is complete.
    pub dropped: u64,
    /// Total events ever recorded (`= events + dropped`).
    pub recorded: u64,
    /// Ring capacity in events.
    pub capacity: usize,
}

// ---------------------------------------------------------------------------
// Ring storage
// ---------------------------------------------------------------------------

/// One stored event; its `seq` is implied by its slot.
#[derive(Debug, Clone, Copy)]
struct Stored {
    micros: u64,
    kind: EventKind,
    label: u32,
    lane: u32,
    a: i64,
    b: i64,
}

#[derive(Debug, Default)]
struct Ring {
    /// Event `seq` lives in slot `seq % capacity`; the vector is allocated
    /// at its capacity, filled, and then overwritten in place.
    events: Vec<Stored>,
    /// Events recorded since the last clear — the next event's `seq`.
    recorded: u64,
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl Ring {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let name = if self.names.len() >= MAX_LABELS { "<other>" } else { name };
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Copies the ring out, oldest event first.
    fn log(&self, capacity: usize) -> FlightLog {
        let first = self.recorded - self.events.len() as u64;
        let (newer, older) = self.events.split_at((first % capacity as u64) as usize);
        let events = (older.iter().chain(newer).zip(first..))
            .map(|(e, seq)| FlightEvent {
                seq,
                micros: e.micros,
                kind: e.kind,
                label: self.names[e.label as usize].clone(),
                lane: e.lane,
                a: e.a,
                b: e.b,
            })
            .collect();
        FlightLog { events, dropped: first, recorded: self.recorded, capacity }
    }
}

/// The flight recorder. See the module docs for the full contract.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder holding the newest `capacity` events.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let ring = Ring { events: Vec::with_capacity(capacity), ..Ring::default() };
        FlightRecorder { ring: Mutex::new(ring), capacity, epoch: Instant::now() }
    }

    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// Total event capacity before wrap-around.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        // Every step of `record` leaves the ring readable (a label id is
        // pushed before it is used, `recorded` moves last), so a panic under
        // the lock loses at most the event being recorded.
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event, overwriting the oldest one once the ring is full.
    pub fn record(&self, kind: EventKind, label: &str, lane: u32, a: i64, b: i64) {
        let mut ring = self.ring();
        let label = ring.intern(label);
        let event = Stored { micros: self.epoch.elapsed().as_micros() as u64, kind, label, lane, a, b };
        let slot = (ring.recorded % self.capacity as u64) as usize;
        match ring.events.get_mut(slot) {
            Some(old) => *old = event,
            None => ring.events.push(event),
        }
        ring.recorded += 1;
    }

    /// Non-destructive drain: every event still in the ring, in `seq`
    /// order, plus how many were overwritten.
    pub fn drain(&self) -> FlightLog {
        self.ring().log(self.capacity)
    }

    /// Empties the ring and restarts `seq` at zero; interned labels are kept.
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.events.clear();
        ring.recorded = 0;
    }

    /// Renders the tail of the log as indented text — what the panic hook
    /// and the `StoreError` path print. Never blocks: if the ring's lock
    /// stays taken for `DUMP_TRIES` attempts (say the crashing thread
    /// panicked inside [`FlightRecorder::record`]), it says the recorder
    /// was busy instead.
    pub fn render_tail(&self, max_events: usize) -> String {
        let log = (0..DUMP_TRIES).find_map(|_| match self.ring.try_lock() {
            Ok(ring) => Some(ring.log(self.capacity)),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner().log(self.capacity)),
            Err(TryLockError::WouldBlock) => {
                std::thread::yield_now();
                None
            }
        });
        let Some(log) = log else {
            return "flight recorder: busy, no events dumped\n".to_string();
        };
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder: {} of {} recorded events ({} dropped)\n",
            log.events.len(),
            log.recorded,
            log.dropped
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
/// first touch; capacity [`DEFAULT_CAPACITY`].
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
        let r = FlightRecorder::with_capacity(128);
        for i in 0..100 {
            r.record(EventKind::Custom, "op", 0, i, -i);
        }
        let log = r.drain();
        assert_eq!(log.events.len(), 100);
        assert_eq!(log.dropped, 0);
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
        let r = FlightRecorder::with_capacity(16);
        for i in 0..40 {
            r.record(EventKind::Custom, "x", 0, i, 0);
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
    fn one_writer_fills_the_whole_ring() {
        let r = FlightRecorder::with_capacity(16);
        for i in 0..100 {
            r.record(EventKind::Custom, "x", 0, i, 0);
        }
        let log = r.drain();
        assert_eq!((log.capacity, log.recorded, log.dropped), (16, 100, 84));
        assert_eq!(log.events.iter().map(|e| e.seq).collect::<Vec<_>>(), (84..=99).collect::<Vec<_>>());
        assert!(log.events.iter().all(|e| e.a == e.seq as i64), "each slot holds its own event");

        let r = FlightRecorder::new();
        for i in 0..16_000 {
            r.record(EventKind::Custom, "x", 0, i, 0);
        }
        let log = r.drain();
        assert_eq!((log.events.len(), log.dropped, log.capacity), (16_000, 0, DEFAULT_CAPACITY));
    }

    #[test]
    fn drains_are_non_destructive_and_in_seq_order_across_the_wrap() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..13 {
            r.record(EventKind::Custom, "x", 0, i, 0);
        }
        let first = r.drain();
        assert_eq!(first, r.drain(), "a drain leaves the ring as it was");
        assert_eq!(first.events.iter().map(|e| e.a).collect::<Vec<_>>(), (5..13).collect::<Vec<_>>());
        assert!(first.events.windows(2).all(|w| w[0].seq + 1 == w[1].seq && w[0].micros <= w[1].micros));
    }

    #[test]
    fn clear_resets_the_ring_but_keeps_labels() {
        let r = FlightRecorder::with_capacity(16);
        r.record(EventKind::Custom, "keep", 0, 1, 2);
        r.clear();
        assert!(r.drain().events.is_empty());
        r.record(EventKind::OpFinish, "keep", 3, 4, 5);
        let log = r.drain();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[0].label, "keep");
        assert_eq!(log.events[0].kind, EventKind::OpFinish);
        assert_eq!(log.events[0].lane, 3);
        assert_eq!(r.ring().names, ["keep"]);
    }

    #[test]
    fn label_table_caps_at_other() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..(MAX_LABELS + 10) {
            r.record(EventKind::Custom, &format!("label-{i}"), 0, 0, 0);
        }
        r.record(EventKind::Custom, "one-more", 0, 0, 0);
        r.record(EventKind::Custom, "and-another", 0, 0, 0);
        let labels: Vec<String> = r.drain().events.into_iter().map(|e| e.label).collect();
        assert_eq!(labels[labels.len() - 2..], ["<other>", "<other>"], "past the cap everything is <other>");
        assert_eq!(r.ring().names.len(), MAX_LABELS + 1);
    }

    #[test]
    fn render_tail_truncates_to_the_newest() {
        let r = FlightRecorder::with_capacity(64);
        for i in 0..10 {
            r.record(EventKind::Custom, &format!("ev{i}"), 0, i, 0);
        }
        let tail = r.render_tail(3);
        assert!(tail.contains("10 of 10 recorded"), "{tail}");
        assert!(!tail.contains("ev6"), "{tail}");
        assert!(tail.contains("ev7") && tail.contains("ev9"), "{tail}");
    }

    #[test]
    fn render_tail_does_not_wait_for_a_held_lock() {
        let r = FlightRecorder::with_capacity(8);
        r.record(EventKind::Custom, "x", 0, 0, 0);
        let held = r.ring();
        assert_eq!(r.render_tail(8), "flight recorder: busy, no events dumped\n");
        drop(held);
        assert!(r.render_tail(8).starts_with("flight recorder: 1 of 1 recorded events (0 dropped)\n"));
    }

    #[test]
    fn global_recorder_is_always_on() {
        assert_eq!(recorder().capacity(), DEFAULT_CAPACITY);
    }
}
