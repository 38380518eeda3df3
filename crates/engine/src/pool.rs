//! A tiny scoped-thread worker pool with a global helper-thread budget.
//!
//! Both layers of the executor's parallelism draw helper threads from one
//! process-wide budget of `threads() - 1` tokens: each operator fans out its
//! morsels through [`run_indexed`], and the run scheduler
//! (`schedule.rs`) keeps helpers on independent operators, each holding
//! one `Token` while it works and none while it has nothing to do. A
//! region that finds the budget empty simply runs its jobs inline on the
//! calling thread. Nothing ever blocks waiting for a token, so nesting cannot
//! deadlock, and the number of threads doing work never exceeds `threads()`.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Explicit thread-count override; 0 means "not set".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Helper threads currently checked out of the budget.
static IN_USE: AtomicUsize = AtomicUsize::new(0);

// Lifetime instrumentation counters (process-wide, monotonic). Three relaxed
// adds per [`run_indexed`] region — cheap enough to stay always-on, so the
// observability layer can snapshot pool behaviour without any hook wiring.
static REGIONS: AtomicU64 = AtomicU64::new(0);
static JOBS: AtomicU64 = AtomicU64::new(0);
static HELPERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

// Live-state gauges (process-wide, instantaneous). Scraped by the live
// `/metrics` endpoint mid-run, so they move up *and* down: queued jobs not
// yet claimed, workers currently executing a job, and jobs claimed but not
// yet finished (morsels in flight).
static QUEUE_DEPTH: AtomicI64 = AtomicI64::new(0);
static ACTIVE_WORKERS: AtomicI64 = AtomicI64::new(0);
static IN_FLIGHT: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// This thread's lane within the innermost active [`run_indexed`] region:
    /// 0 for a caller running inline, `h` for helper `h` (1-based). Nested
    /// regions that get no helpers keep the enclosing slot, so per-operator
    /// timings attribute to the lane that really ran them.
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// The pool lane the current thread occupies (0 = the calling thread).
/// Meaningful while inside a [`run_indexed`] job; 0 otherwise.
pub fn worker_slot() -> usize {
    WORKER_SLOT.with(|s| s.get())
}

/// A snapshot of the pool's live gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGauges {
    /// Jobs queued in open regions and not yet claimed by any worker.
    pub queue_depth: i64,
    /// Worker threads (helpers + inline callers) currently inside a job.
    pub active_workers: i64,
    /// Jobs claimed but not yet completed (morsels in flight).
    pub in_flight: i64,
}

/// Instantaneous pool gauges (see [`PoolGauges`]).
pub fn gauges() -> PoolGauges {
    PoolGauges {
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        active_workers: ACTIVE_WORKERS.load(Ordering::Relaxed),
        in_flight: IN_FLIGHT.load(Ordering::Relaxed),
    }
}

/// A snapshot of the pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `run_indexed` regions entered.
    pub regions: u64,
    /// Total jobs executed across all regions.
    pub jobs: u64,
    /// Helper threads spawned (a region that finds the budget empty spawns
    /// none and runs inline).
    pub helpers_spawned: u64,
}

/// Lifetime pool counters since process start.
pub fn stats() -> PoolStats {
    PoolStats {
        regions: REGIONS.load(Ordering::Relaxed),
        jobs: JOBS.load(Ordering::Relaxed),
        helpers_spawned: HELPERS_SPAWNED.load(Ordering::Relaxed),
    }
}

/// The target degree of parallelism: the configured override if set (see
/// [`set_threads`]), else the `QUARRY_THREADS` environment variable, else
/// the machine's available parallelism. Always at least 1.
pub fn threads() -> usize {
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("QUARRY_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pins the degree of parallelism for every subsequent run (process-wide).
/// `set_threads(1)` makes the whole executor run inline; benchmark scaling
/// series sweep this. `set_threads(0)` restores auto-detection.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// Takes up to `want` helper tokens from the budget without blocking.
fn acquire(want: usize) -> usize {
    let cap = threads().saturating_sub(1);
    loop {
        let used = IN_USE.load(Ordering::Relaxed);
        let take = want.min(cap.saturating_sub(used));
        if take == 0 {
            return 0;
        }
        if IN_USE.compare_exchange(used, used + take, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            return take;
        }
    }
}

fn release(n: usize) {
    if n > 0 {
        IN_USE.fetch_sub(n, Ordering::Relaxed);
    }
}

/// One helper token held outside a [`run_indexed`] region, by a thread that
/// works on `lane` for as long as it holds it. Dropping it returns the token
/// to the budget and the thread to the lane it was on.
pub(crate) struct Token {
    prev_slot: usize,
}

impl Token {
    /// Takes one token without blocking and puts the current thread on `lane`.
    pub(crate) fn take(lane: usize) -> Option<Token> {
        (acquire(1) == 1).then(|| Token::seat(lane))
    }

    /// Puts the current thread on `lane`, for a token already acquired.
    fn seat(lane: usize) -> Token {
        Token { prev_slot: WORKER_SLOT.with(|s| s.replace(lane)) }
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        WORKER_SLOT.with(|s| s.set(self.prev_slot));
        release(1);
    }
}

/// Spawns a scoped helper thread on `lane` if the budget has a token for it;
/// the thread starts out holding that token. Returns whether it spawned.
pub(crate) fn spawn_helper<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    lane: usize,
    f: impl FnOnce(Token) + Send + 'scope,
) -> bool {
    if acquire(1) == 0 {
        return false;
    }
    HELPERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    scope.spawn(move || f(Token::seat(lane))); // the lane is the new thread's
    true
}

/// Runs `jobs` independent jobs `f(0) .. f(jobs - 1)` and returns their
/// results in index order. Work is claimed from a shared counter, so cheap
/// and expensive jobs balance across however many helper threads the budget
/// grants (possibly zero, in which case everything runs inline).
pub fn run_indexed<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    REGIONS.fetch_add(1, Ordering::Relaxed);
    JOBS.fetch_add(jobs as u64, Ordering::Relaxed);
    let depth = QUEUE_DEPTH.fetch_add(jobs as i64, Ordering::Relaxed) + jobs as i64;
    // One event per region transition (open/close), never per job.
    crate::events::emit(crate::events::EngineEvent::QueueDepth { depth, jobs: jobs as u64 });
    let helpers = acquire(jobs - 1);
    if helpers == 0 {
        ACTIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
        let out = (0..jobs)
            .map(|i| {
                QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
                let v = f(i);
                IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
                v
            })
            .collect();
        ACTIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
        crate::events::emit(crate::events::EngineEvent::QueueDepth {
            depth: QUEUE_DEPTH.load(Ordering::Relaxed),
            jobs: 0,
        });
        return out;
    }
    HELPERS_SPAWNED.fetch_add(helpers as u64, Ordering::Relaxed);
    let next = AtomicUsize::new(0);
    // `slot` is the worker's lane for span attribution: helpers take 1-based
    // lanes, the caller (slot 0 here) keeps whatever lane it already holds so
    // nested regions attribute to the outer lane that really ran them.
    let run_worker = |slot: usize| {
        let prev_slot = WORKER_SLOT.with(|s| if slot == 0 { s.get() } else { s.replace(slot) });
        ACTIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
        let mut done: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
            IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
            done.push((i, f(i)));
            IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        }
        ACTIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
        WORKER_SLOT.with(|s| s.set(prev_slot));
        done
    };
    let mut all: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|h| s.spawn(move || run_worker(h + 1))).collect();
        let mut all = run_worker(0);
        for h in handles {
            all.extend(h.join().expect("pool workers do not panic"));
        }
        all
    });
    release(helpers);
    crate::events::emit(crate::events::EngineEvent::QueueDepth { depth: QUEUE_DEPTH.load(Ordering::Relaxed), jobs: 0 });
    all.sort_unstable_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls `settled` for up to ~10 s. The pool's state is process-wide and
    /// other tests of this binary open regions concurrently, so an instant
    /// reading can see their workers; a quiet instant always comes.
    fn eventually(mut settled: impl FnMut() -> bool) -> bool {
        for _ in 0..10_000 {
            if settled() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_regions_and_jobs() {
        // Exact in a window no concurrent test disturbed.
        assert!(eventually(|| {
            let before = stats();
            run_indexed(10, |i| i);
            run_indexed(0, |i| i); // empty regions are not counted
            let after = stats();
            assert!(after.helpers_spawned >= before.helpers_spawned);
            (after.regions, after.jobs) == (before.regions + 1, before.jobs + 10)
        }));
    }

    #[test]
    fn zero_and_one_job_run_inline() {
        assert_eq!(run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_regions_share_the_budget() {
        // Inner regions may get zero helpers but must still complete and
        // preserve ordering.
        let out = run_indexed(8, |i| run_indexed(8, move |j| i * 8 + j));
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..8).map(|j| i * 8 + j).collect::<Vec<_>>());
        }
        assert!(eventually(|| IN_USE.load(Ordering::Relaxed) == 0), "all tokens returned");
    }

    #[test]
    fn gauges_return_to_zero_after_a_region() {
        run_indexed(32, |i| i * 2);
        let zero = PoolGauges { queue_depth: 0, active_workers: 0, in_flight: 0 };
        assert!(eventually(|| gauges() == zero), "gauges did not settle to zero: {:?}", gauges());
    }

    #[test]
    fn gauges_move_while_jobs_run() {
        let peak_in_flight = AtomicU64::new(0);
        run_indexed(64, |_| {
            let g = gauges();
            assert!(g.in_flight >= 1, "the running job itself is in flight");
            assert!(g.active_workers >= 1);
            peak_in_flight.fetch_max(g.in_flight as u64, Ordering::Relaxed);
        });
        assert!(peak_in_flight.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn worker_slots_stay_within_the_lane_count_and_reset() {
        assert_eq!(worker_slot(), 0, "caller thread starts on lane 0");
        let budget = threads();
        let slots = run_indexed(64, |_| {
            std::thread::yield_now();
            worker_slot()
        });
        for slot in &slots {
            assert!(*slot < budget.max(1), "slot {slot} exceeds lane count {budget}");
        }
        assert_eq!(worker_slot(), 0, "caller lane restored after the region");
        // Nested regions that run inline keep the enclosing lane.
        let nested = run_indexed(4, |_| {
            let outer = worker_slot();
            let inner = run_indexed(2, |_| worker_slot());
            (outer, inner)
        });
        for (outer, inner) in nested {
            for lane in inner {
                assert!(lane == outer || lane > 0, "inline nested jobs keep lane {outer}, got {lane}");
            }
        }
    }

    #[test]
    fn a_held_token_is_one_helper_on_its_lane_until_dropped() {
        if threads() < 2 {
            return; // no helper budget on this machine
        }
        // Sibling tests borrow from the same budget; a free token comes.
        let mut held = None;
        assert!(eventually(|| {
            held = Token::take(5);
            held.is_some()
        }));
        assert_eq!(worker_slot(), 5);
        assert!(IN_USE.load(Ordering::Relaxed) >= 1);
        drop(held);
        assert_eq!(worker_slot(), 0, "the thread is back on the lane it came from");
        assert!(eventually(|| IN_USE.load(Ordering::Relaxed) == 0), "the token went back");
    }

    #[test]
    fn spawned_threads_stay_within_budget() {
        let budget = threads();
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        run_indexed(64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= budget,
            "{} workers exceeded budget {budget}",
            peak.load(Ordering::SeqCst)
        );
    }
}
