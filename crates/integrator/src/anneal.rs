//! Simulated-annealing search over the rewrite-move neighborhood.
//!
//! The optimizer treats the unified flow as a state in the space of
//! semantically-equivalent designs reachable through
//! [`quarry_etl::rewrite::Move`]s and walks that space with the classic
//! Metropolis schedule: a proposed move is always accepted when it lowers the
//! modeled cost, and accepted with probability `exp(-delta / temperature)`
//! when it raises it, where the temperature decays geometrically per step.
//! The uphill acceptances are what let a chain escape the greedy local
//! optimum the canonical form already sits in (e.g. temporarily hoisting a
//! selection so a join swap becomes legal).
//!
//! Several independent chains run concurrently on the engine worker pool
//! ([`quarry_engine::pool::run_indexed`]), each from its own deterministic
//! RNG stream; the best end state across chains wins, ties broken by chain
//! index so the reduction is order-stable. With the step budget as the
//! primary termination criterion the search is fully deterministic for a
//! given `(flow, stats, options)` triple; `budget_ms` is a wall-clock safety
//! valve for adversarially large flows and is the only nondeterministic
//! exit (it can only truncate a chain, never change the legality of what was
//! found — every reachable state is execution-equivalent by construction).

use quarry_etl::cost::SourceStats;
use quarry_etl::rewrite::RewriteState;
use quarry_etl::{Flow, FlowError};
use std::time::Instant;

/// Per-chain move-log cap: enough to explain a search without letting a long
/// budget turn the report into a transcript.
const LOG_CAP_PER_CHAIN: usize = 64;

/// Tuning knobs of the annealing search. The defaults match the lifecycle's
/// `optimizer.*` configuration keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealOptions {
    /// Independent Metropolis chains, fanned out on the engine pool.
    pub chains: usize,
    /// Proposal steps per chain (the deterministic termination criterion).
    pub steps: usize,
    /// Wall-clock safety valve per optimization, milliseconds. Chains check
    /// it every few steps and stop early when exhausted.
    pub budget_ms: u64,
    /// Base RNG seed; chain `i` draws from stream `seed + i`.
    pub seed: u64,
    /// Initial temperature as a fraction of the starting cost.
    pub init_temp_frac: f64,
    /// Geometric cooling factor applied per step.
    pub cooling: f64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            chains: 4,
            steps: 384,
            budget_ms: 250,
            seed: 0x5151_AA17_C0DE_D161,
            init_temp_frac: 0.02,
            cooling: 0.985,
        }
    }
}

/// One proposal a chain evaluated (kept for `optimize --explain`).
#[derive(Debug, Clone, PartialEq)]
pub struct MoveRecord {
    pub chain: usize,
    pub step: usize,
    /// Human-readable move label (op names at proposal time).
    pub describe: String,
    /// Modeled cost delta of the move (negative = improvement); `None` when
    /// the move's legality analysis rejected it.
    pub delta: Option<f64>,
    pub accepted: bool,
}

/// The result of one annealing search.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Lowest-cost flow reached by any chain (not yet re-canonicalized).
    pub flow: Flow,
    /// Source statistics as maintained by the winning chain: absolute
    /// observations recorded for operations its moves restructured are
    /// dropped (a reshaped operation's old measurement no longer describes
    /// it), while selections keep their position-independent observed
    /// ratios. `cost` is the cost of `flow` under *these* stats; a caller
    /// committing `flow` must commit the stats with it or its own re-cost
    /// will disagree.
    pub stats: SourceStats,
    /// Modeled cost of `flow` under `stats`.
    pub cost: f64,
    /// Modeled cost of the input flow.
    pub start_cost: f64,
    /// Moves proposed across all chains (including illegal ones).
    pub proposed: u64,
    /// Moves accepted across all chains.
    pub accepted: u64,
    /// Chains actually run.
    pub chains: usize,
    /// Index of the winning chain.
    pub best_chain: usize,
    /// Capped per-chain move logs, concatenated in chain order.
    pub log: Vec<MoveRecord>,
}

/// SplitMix64: a tiny, high-quality, allocation-free PRNG. Deterministic per
/// seed, so two runs of the same search propose identical move sequences.
#[derive(Debug, Clone, Copy)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// What one chain returns to the reduction.
struct ChainResult {
    best_flow: Flow,
    best_stats: SourceStats,
    best_cost: f64,
    proposed: u64,
    accepted: u64,
    log: Vec<MoveRecord>,
}

/// Runs one Metropolis chain from `base`, returning its best-seen state — not
/// a snapshot: the moves accepted since the best are undone newest-first.
fn run_chain(base: &RewriteState, chain: usize, opts: &AnnealOptions, deadline: Instant) -> ChainResult {
    let mut st = base.clone();
    let mut rng = SplitMix64(opts.seed.wrapping_add(chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let start_cost = st.cost();
    let mut since_best = Vec::new();
    let mut best_cost = start_cost;
    let temp0 = (opts.init_temp_frac * start_cost).max(f64::MIN_POSITIVE);
    let mut temp = temp0;
    let mut proposed = 0u64;
    let mut accepted = 0u64;
    let mut log = Vec::new();
    // Accepted moves go to the flight recorder so a post-hoc drain shows
    // *when* the search moved, interleaved with engine and WAL events.
    let flight = quarry_obs::flight::recorder();
    let cost_scale = if start_cost > 0.0 { start_cost } else { 1.0 };

    // The neighborhood depends on the flow alone, and a rejected or illegal
    // proposal leaves the flow as it was: re-enumerate only after an accept.
    let mut moves = st.candidate_moves();
    for step in 0..opts.steps {
        // The deadline check is amortized: an `Instant::now()` per step would
        // cost more than many of the incremental move evaluations it guards.
        if step % 16 == 0 && Instant::now() >= deadline {
            break;
        }
        if moves.is_empty() {
            break;
        }
        let mv = moves[rng.pick(moves.len())];
        let describe = (log.len() < LOG_CAP_PER_CHAIN).then(|| st.describe(&mv));
        proposed += 1;
        match st.apply(&mv) {
            Ok(applied) => {
                let delta = applied.delta;
                // Metropolis acceptance: downhill always, uphill with
                // probability exp(-delta / temp).
                let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp).exp();
                if accept {
                    accepted += 1;
                    flight.record(
                        quarry_obs::flight::EventKind::OptimizerMove,
                        "anneal",
                        chain as u32,
                        chain as i64,
                        (delta / cost_scale * 1000.0) as i64,
                    );
                    if st.cost() < best_cost {
                        best_cost = st.cost();
                        since_best.clear();
                    } else {
                        since_best.push(applied);
                    }
                    moves = st.candidate_moves();
                } else {
                    st.undo(applied);
                }
                if let Some(describe) = describe {
                    log.push(MoveRecord { chain, step, describe, delta: Some(delta), accepted: accept });
                }
            }
            Err(_) => {
                // Illegal or deep-invalid: the state was left (or rolled
                // back) unchanged; the proposal just didn't fire.
                if let Some(describe) = describe {
                    log.push(MoveRecord { chain, step, describe, delta: None, accepted: false });
                }
            }
        }
        temp = (temp * opts.cooling).max(f64::MIN_POSITIVE);
    }
    since_best.into_iter().rev().for_each(|applied| st.undo(applied));
    let (best_flow, best_stats) = st.into_parts();
    ChainResult { best_flow, best_stats, best_cost, proposed, accepted, log }
}

/// Anneals `flow` under the ETL cost model, fanning `opts.chains`
/// independent chains out on the engine worker pool. Returns the best flow
/// found across chains — possibly the input itself when no chain improved
/// on it.
pub fn anneal(flow: &Flow, stats: &SourceStats, opts: &AnnealOptions) -> Result<AnnealOutcome, FlowError> {
    Ok(anneal_from(&RewriteState::new(flow.clone(), stats.clone())?, opts))
}

/// [`anneal`] from an already-built search state (whose full initial pass
/// the caller may want to read schemas off before the search starts).
pub fn anneal_from(base: &RewriteState, opts: &AnnealOptions) -> AnnealOutcome {
    let start_cost = base.cost();
    let chains = opts.chains.max(1);
    let deadline = Instant::now() + std::time::Duration::from_millis(opts.budget_ms.max(1));
    let mut results = quarry_engine::pool::run_indexed(chains, |i| run_chain(base, i, opts, deadline));

    let (mut best_chain, mut best_cost) = (0usize, results[0].best_cost);
    let mut proposed = 0u64;
    let mut accepted = 0u64;
    let mut log = Vec::new();
    for (i, r) in results.iter_mut().enumerate() {
        proposed += r.proposed;
        accepted += r.accepted;
        log.append(&mut r.log);
        // Strictly-lower wins; ties keep the earlier chain, so the reduction
        // is independent of completion order (run_indexed is index-ordered).
        if r.best_cost < best_cost {
            (best_chain, best_cost) = (i, r.best_cost);
        }
    }
    let winner = results.swap_remove(best_chain);
    AnnealOutcome {
        flow: winner.best_flow,
        stats: winner.best_stats,
        cost: winner.best_cost,
        start_cost,
        proposed,
        accepted,
        chains,
        best_chain,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{parse_expr, ColType, Column, JoinKind, OpKind, Schema};

    /// A stacked inner-join spine where the canonical join order is wrong:
    /// the highly selective Spain filter sits on the *outer* build side, so
    /// swapping it inward is a large modeled win the greedy integrator never
    /// takes.
    fn spine() -> (Flow, SourceStats) {
        let mut f = Flow::new("spine");
        let ps = f
            .add_op(
                "DS_partsupp",
                OpKind::Datastore {
                    datastore: "partsupp".into(),
                    schema: Schema::new(vec![
                        Column::new("ps_partkey", ColType::Integer),
                        Column::new("ps_suppkey", ColType::Integer),
                        Column::new("ps_supplycost", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let pt = f
            .add_op(
                "DS_part",
                OpKind::Datastore {
                    datastore: "part".into(),
                    schema: Schema::new(vec![
                        Column::new("p_partkey", ColType::Integer),
                        Column::new("p_name", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let sp = f
            .add_op(
                "DS_supplier",
                OpKind::Datastore {
                    datastore: "supplier".into(),
                    schema: Schema::new(vec![
                        Column::new("s_suppkey", ColType::Integer),
                        Column::new("s_name", ColType::Text),
                        Column::new("s_nation", ColType::Text),
                    ]),
                },
            )
            .unwrap();
        let j1 = f
            .add_op(
                "JOIN_part",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["ps_partkey".into()],
                    right_on: vec!["p_partkey".into()],
                },
            )
            .unwrap();
        f.connect(ps, j1).unwrap();
        f.connect(pt, j1).unwrap();
        let sel = f
            .append(sp, "SEL_spain", OpKind::Selection { predicate: parse_expr("s_nation = 'Spain'").unwrap() })
            .unwrap();
        let j2 = f
            .add_op(
                "JOIN_supp",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["ps_suppkey".into()],
                    right_on: vec!["s_suppkey".into()],
                },
            )
            .unwrap();
        f.connect(j1, j2).unwrap();
        f.connect(sel, j2).unwrap();
        let agg = f
            .append(
                j2,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["p_name".into()],
                    aggregates: vec![quarry_etl::AggSpec::new("SUM", parse_expr("ps_supplycost").unwrap(), "total")],
                },
            )
            .unwrap();
        f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
        f.validate().unwrap();
        let stats = SourceStats::new()
            .with_table("partsupp", 8_000.0)
            .with_table("part", 2_000.0)
            .with_table("supplier", 100.0)
            .with_unique("part", &["p_partkey"])
            .with_unique("supplier", &["s_suppkey"]);
        (f, stats)
    }

    #[test]
    fn annealing_finds_the_join_swap_win() {
        let (flow, stats) = spine();
        let opts = AnnealOptions::default();
        let out = anneal(&flow, &stats, &opts).unwrap();
        assert!(
            out.cost < out.start_cost * 0.9,
            "the spine swap is worth >10%: start {} best {}",
            out.start_cost,
            out.cost
        );
        assert!(out.accepted > 0 && out.proposed >= out.accepted);
        // The result is a valid flow whose full re-cost matches the claim.
        out.flow.validate().unwrap();
        let recost = RewriteState::new(out.flow.clone(), stats).unwrap().cost();
        assert!((recost - out.cost).abs() <= 1e-9 * recost.abs().max(1.0));
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let (flow, stats) = spine();
        // A budget long enough that the step count, not the clock, terminates.
        let opts = AnnealOptions { budget_ms: 60_000, ..AnnealOptions::default() };
        let a = anneal(&flow, &stats, &opts).unwrap();
        let b = anneal(&flow, &stats, &opts).unwrap();
        assert_eq!(a.flow, b.flow);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.best_chain, b.best_chain);
        assert_eq!(a.proposed, b.proposed);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn chain_count_is_respected_and_zero_is_clamped() {
        let (flow, stats) = spine();
        let opts = AnnealOptions { chains: 0, steps: 8, ..AnnealOptions::default() };
        let out = anneal(&flow, &stats, &opts).unwrap();
        assert_eq!(out.chains, 1);
        assert!(out.cost <= out.start_cost, "the best state never regresses below the start");
    }

    #[test]
    fn move_log_is_capped_per_chain() {
        let (flow, stats) = spine();
        let opts = AnnealOptions { chains: 2, steps: 2_000, budget_ms: 60_000, ..AnnealOptions::default() };
        let out = anneal(&flow, &stats, &opts).unwrap();
        assert!(out.log.len() <= 2 * LOG_CAP_PER_CHAIN, "log stays bounded: {}", out.log.len());
        assert!(out.log.iter().any(|r| r.accepted), "an explain log without accepted moves explains nothing");
    }

    /// A chain hands back its best state without having snapshotted it: the
    /// test walks the same chain — same draws, same accept decisions — and
    /// clones the state itself at every new best. In most chains the best
    /// comes mid-chain and uphill accepts follow it, so the chain has to undo
    /// its way back.
    #[test]
    fn a_chain_returns_the_state_a_snapshot_takes_at_its_best() {
        let (flow, stats) = spine();
        let base = RewriteState::new(flow, stats).unwrap();
        let opts = AnnealOptions { steps: 256, init_temp_frac: 0.2, cooling: 0.99, ..AnnealOptions::default() };
        let deadline = Instant::now() + std::time::Duration::from_secs(600);
        let mut undone_back = 0;
        for chain in 0..8 {
            let got = run_chain(&base, chain, &opts, deadline);

            let mut st = base.clone();
            // The chain's own stream: any other fails the comparison below.
            let mut rng = SplitMix64(opts.seed.wrapping_add(chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut temp = (opts.init_temp_frac * st.cost()).max(f64::MIN_POSITIVE);
            let (mut snapshot, mut best_step, mut last_uphill) = (st.clone(), None, None);
            let mut moves = st.candidate_moves();
            for step in 0..opts.steps {
                let mv = moves[rng.pick(moves.len())];
                if let Ok(applied) = st.apply(&mv) {
                    let delta = applied.delta;
                    if delta <= 0.0 || rng.next_f64() < (-delta / temp).exp() {
                        if st.cost() < snapshot.cost() {
                            (snapshot, best_step) = (st.clone(), Some(step));
                        } else if delta > 0.0 {
                            last_uphill = Some(step);
                        }
                        moves = st.candidate_moves();
                    } else {
                        st.undo(applied);
                    }
                }
                temp = (temp * opts.cooling).max(f64::MIN_POSITIVE);
            }
            undone_back += usize::from(best_step.is_some() && last_uphill > best_step);
            assert_eq!(&got.best_flow, snapshot.flow(), "chain {chain}");
            assert_eq!(&got.best_stats, snapshot.stats(), "chain {chain}");
            assert_eq!(got.best_cost.to_bits(), snapshot.cost().to_bits(), "chain {chain}");
        }
        assert!(undone_back >= 4, "{undone_back} of 8 chains met uphill accepts after their best");
    }

    /// The same pin `optimizer_equivalence.rs` holds for the requirement
    /// families, on this file's fixture: recorded before the search stopped
    /// cloning the flow per proposal, and unchanged by it.
    #[test]
    fn seeded_search_on_the_spine_is_pinned() {
        let (flow, stats) = spine();
        let opts = AnnealOptions { budget_ms: 10_000, ..AnnealOptions::default() };
        let out = anneal(&flow, &stats, &opts).unwrap();
        assert_eq!((out.proposed, out.accepted, out.best_chain), (1536, 283, 0));
        assert_eq!(out.cost.to_bits(), 0x40d0_1288_3126_e978);
        let xlm = quarry_formats::xlm::to_string(&out.flow);
        let fnv = xlm.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fnv, 0x8236_59fe_fa21_b7bd);
    }
}
