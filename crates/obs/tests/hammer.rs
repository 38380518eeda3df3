//! Concurrency hammer for the metric registry: many threads bumping
//! the same handles must lose no updates, and histogram quantiles must stay
//! within one bucket of the exact value. The flight recorder gets the same
//! treatment: concurrent writers below capacity must lose no events, and
//! above capacity the loss must be *reported*, never silent.

use quarry_obs::flight::{EventKind, FlightRecorder};
use quarry_obs::{Metric, Obs};
use std::collections::HashSet;
use std::sync::Barrier;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 50_000;

#[test]
fn concurrent_counter_bumps_lose_no_updates() {
    let obs = Obs::new(true);
    let shared = obs.counter("hammer.shared");
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shared = shared.clone();
            let per_thread = obs.counter(&format!("hammer.thread_{t}"));
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..OPS_PER_THREAD {
                    shared.inc();
                    per_thread.add(i % 3);
                }
            });
        }
    });
    assert_eq!(shared.value(), THREADS as u64 * OPS_PER_THREAD);
    let per_thread_expected: u64 = (0..OPS_PER_THREAD).map(|i| i % 3).sum();
    for t in 0..THREADS {
        assert_eq!(obs.metric(&format!("hammer.thread_{t}")), Some(Metric::Counter(per_thread_expected)));
    }
}

#[test]
fn concurrent_histogram_observations_lose_no_updates() {
    let obs = Obs::new(true);
    let hist = obs.histogram("hammer.seconds");
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let hist = hist.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                // Each thread observes the same deterministic value set,
                // interleaved with every other thread.
                for i in 0..OPS_PER_THREAD {
                    let v = (1 + (i + t as u64) % 1000) as f64 / 1000.0; // 0.001 ..= 1.000
                    hist.observe(v);
                }
            });
        }
    });
    let snap = hist.snapshot();
    let total = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(snap.count, total, "no observation lost");
    // Every thread's value multiset is (almost) uniform over 0.001..=1.000,
    // so the grand sum is exactly computable.
    let mut exact_sum = 0.0;
    for t in 0..THREADS as u64 {
        for i in 0..OPS_PER_THREAD {
            exact_sum += (1 + (i + t) % 1000) as f64 / 1000.0;
        }
    }
    assert!((snap.sum - exact_sum).abs() < 1e-6 * exact_sum, "sum {} vs exact {exact_sum}", snap.sum);
    assert_eq!(snap.min, Some(0.001));
    assert_eq!(snap.max, Some(1.0));
    // Quantiles within one bucket (≤ 12.5% relative width) of the exact
    // value of the uniform distribution.
    for (q, exact) in [(0.5, 0.5), (0.9, 0.9), (0.95, 0.95), (0.99, 0.99)] {
        let est = snap.quantile(q).expect("non-empty");
        assert!(est >= exact * (1.0 - 0.125) && est <= exact * (1.0 + 0.125), "q{q}: estimated {est}, exact {exact}");
    }
    // Bucket counts account for every observation.
    let bucketed: u64 = snap.buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(bucketed, total);
}

#[test]
fn concurrent_mixed_workload_with_snapshots_in_flight() {
    let obs = Obs::new(true);
    let counter = obs.counter("mixed.count");
    let gauge = obs.gauge("mixed.depth");
    let hist = obs.histogram("mixed.seconds");
    let barrier = Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let (counter, gauge, hist) = (counter.clone(), gauge.clone(), hist.clone());
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..10_000u64 {
                    counter.inc();
                    gauge.add(1);
                    hist.observe(0.001 * (1 + i % 10) as f64);
                    gauge.sub(1);
                }
            });
        }
        // A reader thread snapshots continuously while writers hammer.
        let obs_reader = obs.clone();
        let barrier = &barrier;
        s.spawn(move || {
            barrier.wait();
            for _ in 0..200 {
                let metrics = obs_reader.metrics();
                for (_, m) in &metrics {
                    if let Metric::Histogram(h) = m {
                        // Mid-flight snapshots must stay well-formed: the
                        // quantile walk terminates and extrema exist once
                        // anything was observed.
                        if h.count > 0 {
                            assert!(h.quantile(0.5).is_some());
                            assert!(h.min.is_some() && h.max.is_some());
                        }
                    }
                }
            }
        });
    });
    assert_eq!(counter.value(), THREADS as u64 * 10_000);
    assert_eq!(gauge.value(), 0, "adds and subs balance");
    assert_eq!(hist.snapshot().count, THREADS as u64 * 10_000);
}

#[test]
fn flight_recorder_below_capacity_loses_no_events() {
    const WRITERS: usize = 8;
    const EVENTS_PER_WRITER: u64 = 1000;
    // Capacity comfortably above the total so nothing wraps.
    let recorder = FlightRecorder::with_capacity(2 * WRITERS * EVENTS_PER_WRITER as usize);
    let barrier = Barrier::new(WRITERS);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                let label = format!("writer-{t}");
                barrier.wait();
                for i in 0..EVENTS_PER_WRITER {
                    recorder.record(EventKind::Custom, &label, t as u32, t as i64, i as i64);
                }
            });
        }
    });
    let log = recorder.drain();
    let total = WRITERS as u64 * EVENTS_PER_WRITER;
    assert_eq!(log.recorded, total);
    assert_eq!(log.dropped, 0, "below capacity nothing may be lost");
    assert_eq!(log.events.len(), total as usize);
    // The global sequence is a total order: every seq exactly once, sorted.
    let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "drain is sorted and duplicate-free");
    assert_eq!(seqs[0], 0);
    assert_eq!(*seqs.last().unwrap(), total - 1);
    // Every writer's per-thread payload sequence survived intact.
    for t in 0..WRITERS {
        let bs: Vec<i64> = log.events.iter().filter(|e| e.a == t as i64).map(|e| e.b).collect();
        assert_eq!(bs.len(), EVENTS_PER_WRITER as usize, "writer {t}");
        let mut sorted = bs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..EVENTS_PER_WRITER as i64).collect::<Vec<_>>(), "writer {t}");
        // One writer's events are in its own program order within the global order.
        assert_eq!(bs, sorted, "writer {t} events keep program order");
        assert!(log.events.iter().filter(|e| e.a == t as i64).all(|e| e.lane == t as u32));
    }
}

#[test]
fn flight_recorder_above_capacity_reports_the_overflow() {
    const WRITERS: usize = 4;
    const EVENTS_PER_WRITER: u64 = 5000;
    let recorder = FlightRecorder::with_capacity(512); // hammered with 20k events
    let barrier = Barrier::new(WRITERS);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..EVENTS_PER_WRITER {
                    recorder.record(EventKind::Custom, "overflow", t as u32, t as i64, i as i64);
                }
            });
        }
    });
    let log = recorder.drain();
    let total = WRITERS as u64 * EVENTS_PER_WRITER;
    assert_eq!(log.recorded, total);
    assert!(log.dropped > 0, "overflow must be reported, not silent");
    // Loss accounting is exact: the ring is full, and every recorded event
    // is either drained or reported dropped.
    assert_eq!(log.events.len(), log.capacity);
    assert_eq!(log.events.len() as u64 + log.dropped, log.recorded);
    // No fabricated events: seqs are unique and within range.
    let seqs: HashSet<u64> = log.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs.len(), log.events.len(), "no duplicate sequence numbers");
    assert!(log.events.iter().all(|e| e.seq < total));
}

#[test]
fn flight_recorder_drains_concurrently_with_writers() {
    const WRITERS: usize = 4;
    let recorder = FlightRecorder::with_capacity(WRITERS * 512);
    let barrier = Barrier::new(WRITERS + 1);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let recorder = &recorder;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..20_000i64 {
                    recorder.record(EventKind::Custom, "live", t as u32, t as i64, i);
                }
            });
        }
        let recorder = &recorder;
        let barrier = &barrier;
        s.spawn(move || {
            barrier.wait();
            // Mid-flight drains must stay well-formed: sorted, in-range, and
            // never returning a half-written event.
            for _ in 0..50 {
                let log = recorder.drain();
                assert!(log.events.windows(2).all(|w| w[0].seq < w[1].seq));
                for e in &log.events {
                    assert_eq!(e.label, "live");
                    assert!(e.a >= 0 && e.a < WRITERS as i64);
                    assert!(e.b >= 0 && e.b < 20_000);
                }
            }
        });
    });
}
