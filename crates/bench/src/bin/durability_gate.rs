//! CI smoke gate for the durable repository (experiment E15).
//!
//! The write-ahead log buys crash consistency; this gate bounds what it may
//! cost. It runs the E15 `put_artifact` throughput workload in all three
//! repository modes — in-memory baseline, WAL with batched fsyncs (the
//! default), WAL with an fsync per append — best-of-[`REPS`] each, persists the
//! measured points to `BENCH_repository.json`, and fails with exit code 1 if
//! the *batched* mode acknowledges fewer than [`MIN_BATCHED_PUTS_PER_SEC`]
//! versions per second. The bound is absolute, not a ratio to the in-memory
//! mode: both modes encode each version against its predecessor, and a
//! shared cost that large would hide any WAL overhead behind it (the
//! O(versions) scan the ratio gate used to divide by did exactly that).
//! `wal-always` is recorded for the experiment table but not gated: an
//! fsync per acknowledged mutation is a durability choice whose price is
//! the disk's, not the implementation's.

use quarry_bench::{repository_throughput, RepoMode, RepoThroughputPoint};
use quarry_repository::Json;

/// Floor for the default durability policy: what the batched-fsync WAL
/// sustained on this workload's predecessor (one repeated 320-byte payload)
/// when the gate was first recorded. Growing ~18 KB documents must not be
/// slower per put than that was.
const MIN_BATCHED_PUTS_PER_SEC: f64 = 15_600.0;
/// `put_artifact` calls per timed run: long enough that batched mode
/// crosses many fsync batch boundaries, short enough for a smoke gate.
const PUTS: usize = 6000;
const REPS: usize = 5;

fn point_to_json(p: &RepoThroughputPoint) -> Json {
    let mut row = Json::object();
    row.set("mode", Json::String(p.mode.as_str().to_string()));
    row.set("puts", Json::Number(p.puts as f64));
    row.set("ms", Json::Number(p.ms));
    row.set("puts_per_sec", Json::Number(p.puts_per_sec));
    row
}

/// Best-of-`REPS` per mode, with the reps *interleaved* across modes (and a
/// discarded warm-up round first) so CPU-frequency and cache drift hits all
/// modes alike instead of biasing whichever ran last.
fn measure() -> [RepoThroughputPoint; 3] {
    let modes = [RepoMode::Memory, RepoMode::WalBatched, RepoMode::WalAlways];
    let mut best = modes.map(|m| RepoThroughputPoint { mode: m, puts: PUTS, ms: f64::INFINITY, puts_per_sec: 0.0 });
    for m in modes {
        let _ = repository_throughput(m, PUTS / 8, 1);
    }
    for _ in 0..REPS {
        for (slot, m) in best.iter_mut().zip(modes) {
            let p = repository_throughput(m, PUTS, 1);
            if p.ms < slot.ms {
                *slot = p;
            }
        }
    }
    best
}

fn main() {
    let [memory, batched, always] = measure();
    let ratio = batched.ms / memory.ms;

    for p in [&memory, &batched, &always] {
        println!(
            "durability gate: {:<11} {} puts in {:>8.3} ms ({:>10.0} puts/s)",
            p.mode.as_str(),
            p.puts,
            p.ms,
            p.puts_per_sec
        );
    }
    println!("durability gate: batched/memory ratio {ratio:.3}x (recorded, not gated)");

    let mut doc = Json::object();
    doc.set("experiment", Json::String("E15 durable repository".to_string()));
    doc.set(
        "workload",
        Json::String(format!(
            "{PUTS} versioned put_artifact calls over 16 rotating keys, each a design growing by one fact per version, best of {REPS}"
        )),
    );
    doc.set("points", Json::Array(vec![&memory, &batched, &always].into_iter().map(point_to_json).collect()));
    doc.set("batched_over_memory_ratio", Json::Number(ratio));
    doc.set("min_batched_puts_per_sec", Json::Number(MIN_BATCHED_PUTS_PER_SEC));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repository.json");
    if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
        eprintln!("could not write {path}: {e}");
    }

    if batched.puts_per_sec < MIN_BATCHED_PUTS_PER_SEC {
        eprintln!(
            "FAIL: the batched-fsync WAL acknowledged {:.0} puts/s on the E15 workload — \
             the default durability policy is below its {MIN_BATCHED_PUTS_PER_SEC} puts/s floor",
            batched.puts_per_sec
        );
        std::process::exit(1);
    }
    println!("OK: default durability policy sustains at least {MIN_BATCHED_PUTS_PER_SEC} puts/s");
}
