//! The run scheduler: [`Engine::execute`] runs a compiled
//! [`PhysicalPlan`] against a catalog, starting every operator as soon as
//! its inputs have finished; [`Engine::run`] compiles a flow, then executes.
//!
//! Each executing operator has a fixed *position* — cache hits first, then
//! the executing operators in plan order (level by level, pure operators
//! before loaders, flow order within) — and a count of unfinished input edges.
//! A pure operator whose count reaches zero is ready; the calling thread and
//! up to `threads() - 1` helpers claim ready operators, smallest position
//! first. Whatever touches the catalog — sources, then loaders — runs on the
//! calling thread, each once every operation positioned before it has
//! finished. Pure operators are functions of their inputs alone, so the
//! loaded tables — also those a failing run leaves behind — and the report,
//! the cache admissions and the error (all assembled or retired in position
//! order) are the same at every thread count, in whatever order the
//! operators happened to finish.
//!
//! The executing members of a [`FusedGroup`](crate::FusedGroup) run as one
//! keyed pass, claimed at the first member's position once every member
//! positioned before the failure limit has its input. Each member still
//! finishes as itself: its own output, consumers, cache offer and timing,
//! which charges it an equal share of the pass's elapsed time. Members the
//! cache answers are not in the pass; a member whose evaluation fails fails
//! at its own position, while a panic fails the pass at its first member.

use crate::cache::{cacheable, table_stamp, ResultCache};
use crate::catalog::Catalog;
use crate::column::Column as Col;
use crate::events::{emit, EngineEvent};
use crate::exec::{
    check_row_capacity, execute_aggregations, execute_pure, read_source, upsert, AggMember, Batch, EngineError,
};
use crate::plan::{mix, PhysicalPlan, PlanNode};
use crate::pool;
use crate::relation::Relation;
use quarry_etl::{Flow, OpKind, Operation};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Wall-clock timing and row counts of one executed operation.
///
/// `elapsed` is measured around the operation's own work, from the instant
/// a thread starts executing it — never the time it spent in the ready set
/// waiting for a free thread, or (a loader) for its turn.
#[derive(Debug, Clone)]
pub struct OpTiming {
    pub op: String,
    pub kind: &'static str,
    /// Total rows across the operation's inputs (0 for datastores).
    pub rows_in: usize,
    pub rows_out: usize,
    /// When the operation started executing, as an offset from the start of
    /// the run (zero for a cache-served result).
    pub started: Duration,
    pub elapsed: Duration,
    /// Pool lane the operation ran on (see [`pool::worker_slot`]): 0 for the
    /// calling/serial thread, `h` for helper lane `h`.
    pub worker: usize,
}

impl OpTiming {
    /// The record of one finished operation, announced to the event stream.
    fn finished(
        op: &Operation,
        rows_in: usize,
        rows_out: usize,
        started: Duration,
        elapsed: Duration,
        worker: usize,
    ) -> Self {
        emit(EngineEvent::OpFinish {
            op: &op.name,
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            lane: worker as u32,
        });
        OpTiming { op: op.name.clone(), kind: op.kind.type_name(), rows_in, rows_out, started, elapsed, worker }
    }
}

/// The result of executing a flow.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Rows loaded per target table, in load order.
    pub loaded: Vec<(String, usize)>,
    /// Per-operation timings in position order (see the module docs),
    /// whatever order the operations finished in.
    pub timings: Vec<OpTiming>,
    /// Total wall-clock time of the run.
    pub total: Duration,
    /// Total rows emitted across all operations (work proxy).
    pub rows_processed: usize,
    /// Most operator outputs held at once (each lives until its last claim).
    pub peak_held: usize,
}

impl RunReport {
    pub fn rows_loaded(&self, table: &str) -> usize {
        self.loaded.iter().filter(|(t, _)| t == table).map(|(_, n)| n).sum()
    }

    /// Time each lane spent executing operations (index = [`OpTiming::worker`]);
    /// `total` minus a lane's entry is the time it idled or scheduled.
    pub fn lane_busy(&self) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; self.timings.iter().map(|t| t.worker + 1).max().unwrap_or(1)];
        for t in &self.timings {
            busy[t.worker] += t.elapsed;
        }
        busy
    }
}

/// The execution engine: owns a catalog and runs flows against it.
#[derive(Debug, Default)]
pub struct Engine {
    pub catalog: Catalog,
    /// The cross-run result cache, consulted at pipeline-breaker boundaries.
    cache: Option<CacheBinding>,
}

/// An installed result cache and the epochs this engine's runs key it with.
#[derive(Debug)]
struct CacheBinding {
    cache: Arc<ResultCache>,
    flow_epoch: u64,
    /// Per-source counters, mixed with the catalog's table stamps.
    source_epochs: HashMap<String, u64>,
}

/// The executor-facing outcome of one pre-run cache consultation, by plan
/// position: which ops the cache already answers and which still execute.
struct CachePass {
    /// This run's cache key per position ([`PhysicalPlan::cache_keys`]).
    keys: Vec<u64>,
    /// Cache-served results, published without executing the op.
    hits: Vec<Option<Arc<Relation>>>,
    /// Ops whose results must be *available*: sinks, plus — transitively —
    /// the inputs of every available op the cache did not answer. Everything
    /// else is skipped: it only feeds subflows the cache already holds.
    needed: Vec<bool>,
}

/// Why an operation did not finish: its own error, or a panic to re-raise on
/// the calling thread once the run has drained.
enum Failure {
    Error(EngineError),
    Panic(Box<dyn Any + Send>),
}

/// What one claim executes: an operation, or the members of a fused pass,
/// each with its inputs, in position order.
type Claimed = Vec<(usize, Vec<Batch>)>;

/// How one claimed operation ended: its timing and output, or its failure.
type Outcome = Result<(OpTiming, Batch), Failure>;

/// What the threads of one run share. Operations are addressed by position.
struct Run<'a> {
    /// Cache hits, then the executing operations, in position order.
    ops: Vec<&'a PlanNode>,
    /// Producer positions per operation, one per input edge, in edge order.
    inputs: Vec<Vec<usize>>,
    /// Consumer positions per operation, one per output edge.
    consumers: Vec<Vec<usize>>,
    /// The executing members of each fused pass that has two or more, in
    /// position order, and the pass each position belongs to.
    passes: Vec<Vec<usize>>,
    pass_of: Vec<Option<usize>>,
    /// Cacheable executing operations with their cache keys; admission is
    /// offered in this order.
    offers: Vec<(usize, u64)>,
    cache: Option<&'a CacheBinding>,
    /// Helpers this run may keep (`threads() - 1`).
    width: usize,
    start: Instant,
    state: Mutex<State>,
    wake: Condvar,
}

#[derive(Default)]
struct State {
    /// Unfinished input edges per operation.
    pending: Vec<usize>,
    /// Claims pending per output: one per consumer edge, plus its offer.
    uses: Vec<usize>,
    /// Output of every finished operation until its last claim.
    outputs: Vec<Option<Batch>>,
    /// Outputs held now, and at most.
    held: usize,
    peak_held: usize,
    /// Timing of every finished operation.
    timings: Vec<Option<OpTiming>>,
    /// Pure operations whose inputs have all finished, not yet claimed; a
    /// fused pass by its first member.
    ready: BTreeSet<usize>,
    /// Which fused passes have been claimed.
    claimed_passes: Vec<bool>,
    /// Every operation before this position has finished.
    frontier: usize,
    /// Smallest position that failed (`ops.len()` while none has): nothing
    /// at or after it starts any more.
    limit: usize,
    failure: Option<Failure>,
    /// Operations claimed and not yet recorded, offers of theirs included.
    running: usize,
    /// How many of `offers` have been retired, and whether a thread is at it.
    offered: usize,
    offering: bool,
    helpers: usize,
    /// The calling thread has nothing to do until something finishes.
    caller_waits: bool,
    finished: bool,
}

impl State {
    /// Keeps an output for its claims; one nothing will claim is handed back.
    fn hold(&mut self, pos: usize, out: Batch) -> Option<Batch> {
        if self.uses[pos] == 0 {
            return Some(out);
        }
        self.outputs[pos] = Some(out);
        self.held += 1;
        self.peak_held = self.peak_held.max(self.held);
        None
    }

    /// One claim on the output at `pos`: a clone while others remain, the
    /// output itself for the last, so the scheduler lets go of it there.
    fn claim_output(&mut self, pos: usize) -> Batch {
        self.uses[pos] -= 1;
        let last = self.uses[pos] == 0;
        self.held -= usize::from(last);
        let out = if last { self.outputs[pos].take() } else { self.outputs[pos].clone() };
        out.expect("an output is held until its last claim")
    }
}

/// Ends the run for the helpers when the calling thread leaves it, unwinding
/// or not.
struct Finish<'a>(&'a Run<'a>);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).finished = true;
        self.0.wake.notify_all();
    }
}

impl<'a> Run<'a> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("operators run, and panic, outside the scheduler lock")
    }

    fn wait<'g>(&self, g: MutexGuard<'g, State>) -> MutexGuard<'g, State> {
        self.wake.wait(g).expect("operators run, and panic, outside the scheduler lock")
    }

    /// Readies the pure operation at `pos`, whose inputs have all finished —
    /// or, a member of a fused pass, the pass, once every member positioned
    /// before the failure limit has its inputs and the pass is unclaimed.
    fn release(&self, g: &mut State, pos: usize) {
        let Some(pass) = self.pass_of[pos] else {
            g.ready.insert(pos);
            return;
        };
        let members = &self.passes[pass];
        let mut due = members.iter().take_while(|&&m| m < g.limit).peekable();
        if !g.claimed_passes[pass] && due.peek().is_some() && due.all(|&m| g.pending[m] == 0) {
            g.ready.insert(members[0]);
        }
    }

    /// Claims the ready operation with the smallest position — a fused pass
    /// with its members before the failure limit — unless a failure before
    /// it has stopped the run.
    fn claim(&self, g: &mut State) -> Option<Claimed> {
        let pos = g.ready.first().copied().filter(|&p| p < g.limit)?;
        g.ready.remove(&pos);
        g.running += 1;
        let members = match self.pass_of[pos] {
            Some(pass) => {
                g.claimed_passes[pass] = true;
                &self.passes[pass][..]
            }
            None => std::slice::from_ref(&pos),
        };
        let limit = g.limit;
        let due = members.iter().take_while(|&&m| m < limit);
        Some(due.map(|&m| (m, self.inputs[m].iter().map(|&i| g.claim_output(i)).collect())).collect())
    }

    /// Executes a claim of pure operations: one operation, or a fused pass.
    fn execute(&self, claimed: &[(usize, Vec<Batch>)]) -> Vec<Result<Batch, EngineError>> {
        let node = self.ops[claimed[0].0];
        match (&node.op.kind, claimed) {
            (_, [(_, inputs)]) => vec![execute_pure(&node.op.name, &node.op.kind, &node.schema, inputs)],
            (OpKind::Aggregation { group_by, .. }, members) => {
                let members: Vec<AggMember> = (members.iter())
                    .map(|(pos, inputs)| {
                        let node = self.ops[*pos];
                        let OpKind::Aggregation { aggregates, .. } = &node.op.kind else {
                            unreachable!("a fused pass holds aggregations only")
                        };
                        AggMember { name: &node.op.name, aggregates, schema: &node.schema, input: &inputs[0] }
                    })
                    .collect();
                execute_aggregations(group_by, &members)
            }
            _ => unreachable!("only aggregations fuse"),
        }
    }

    /// Runs `f` on a claim — timing its work, catching its panic — and
    /// records each operation's outcome: releases its consumers, calls for
    /// helpers if more became ready than threads are free, and retires
    /// whatever cache offers are now due. The operations of a fused pass
    /// share its elapsed time equally, back to back; a panic fails the
    /// first. Inputs are dropped before the lock is taken: a producer's last
    /// claim frees its output there.
    fn perform<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        claimed: Claimed,
        f: impl FnOnce(&[(usize, Vec<Batch>)]) -> Vec<Result<Batch, EngineError>>,
    ) {
        let t0 = Instant::now();
        let outs = catch_unwind(AssertUnwindSafe(|| f(&claimed)));
        let elapsed = t0.elapsed();
        let (started, k) = (t0.duration_since(self.start), claimed.len() as u32);
        let outcomes: Vec<(usize, Outcome)> = match outs {
            Err(payload) => vec![(claimed[0].0, Err(Failure::Panic(payload)))],
            Ok(outs) => (claimed.iter().zip(outs).zip(0..))
                .map(|(((pos, inputs), out), i)| {
                    let share = if i + 1 == k { elapsed - elapsed / k * (k - 1) } else { elapsed / k };
                    let timing = |out: &Batch| {
                        let rows_in = inputs.iter().map(Batch::len).sum();
                        let at = started + elapsed / k * i;
                        OpTiming::finished(&self.ops[*pos].op, rows_in, out.len(), at, share, pool::worker_slot())
                    };
                    (*pos, out.map(|out| (timing(&out), out)).map_err(Failure::Error))
                })
                .collect(),
        };
        drop(claimed);
        // Declared before the guard, so dropped after it: an output nothing
        // claims is freed outside the lock.
        let mut _unclaimed = Vec::new();
        let mut g = self.lock();
        let limit = g.limit;
        for (pos, outcome) in outcomes {
            match outcome {
                Ok((timing, out)) => {
                    g.timings[pos] = Some(timing);
                    for &c in &self.consumers[pos] {
                        g.pending[c] -= 1;
                        if g.pending[c] == 0 && !self.ops[c].op.kind.is_sink() {
                            self.release(&mut g, c);
                        }
                    }
                    _unclaimed.extend(g.hold(pos, out));
                }
                Err(failure) if pos < g.limit => (g.limit, g.failure) = (pos, Some(failure)),
                Err(_) => {}
            }
        }
        while g.timings.get(g.frontier).is_some_and(Option::is_some) {
            g.frontier += 1;
        }
        if g.limit < limit {
            // A pass no longer waits for members at or past the failure.
            self.passes.iter().for_each(|members| self.release(&mut g, members[0]));
        }
        // This thread takes one ready operation next, every other idle
        // thread one more; the rest is worth a new helper each.
        let idle = 2 + g.helpers - g.running;
        for _ in idle..g.ready.range(..g.limit).count().min(idle + self.width - g.helpers) {
            let lane = g.helpers + 1;
            if !pool::spawn_helper(scope, lane, move |token| self.help(scope, lane, token)) {
                break;
            }
            g.helpers += 1;
        }
        self.wake.notify_all();
        g = self.retire_offers(g);
        g.running -= 1;
        if g.running == 0 {
            self.wake.notify_all();
        }
    }

    /// Offers finished results to the cache in `offers` order, one thread at
    /// a time, so admission — which depends on what was admitted before —
    /// is a function of the flow, not of which operator finished first. The
    /// consumers are not kept waiting: a late column gathers once
    /// (`LateCol` memoizes), whoever asks first. An offer is a claim.
    fn retire_offers<'g>(&'g self, mut g: MutexGuard<'g, State>) -> MutexGuard<'g, State> {
        let Some(cache) = self.cache.filter(|_| !g.offering) else { return g };
        g.offering = true;
        while let Some(&(pos, key)) = self.offers.get(g.offered).filter(|(pos, _)| g.timings[*pos].is_some()) {
            g.offered += 1;
            let out = g.claim_output(pos);
            drop(g);
            cache_offer(cache, self.ops[pos], key, out);
            g = self.lock();
        }
        g.offering = false;
        g
    }

    /// A helper's life: claim and execute while operations are ready, hold
    /// no token while none is — an operator that runs alone finds the whole
    /// budget free for its morsels. For the same reason the last ready
    /// operation is left to a calling thread that has nothing else to do.
    fn help<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, lane: usize, token: pool::Token) {
        let mut token = Some(token);
        let mut g = self.lock();
        while !g.finished {
            if g.ready.range(..g.limit).nth(usize::from(g.caller_waits)).is_some() {
                token = token.or_else(|| pool::Token::take(lane));
            } else {
                token = None;
            }
            match token.as_ref().and_then(|_| self.claim(&mut g)) {
                Some(claimed) => {
                    drop(g);
                    self.perform(scope, claimed, |claimed| self.execute(claimed));
                    g = self.lock();
                }
                None => g = self.wait(g),
            }
        }
    }
}

impl Engine {
    pub fn new(catalog: Catalog) -> Self {
        Engine { catalog, cache: None }
    }

    /// Installs the cross-run result cache. A run keys it per operation
    /// ([`PhysicalPlan::cache_keys`]) with `flow_epoch` — admitted entries are
    /// tagged with it for [`ResultCache::set_flow_epoch`] to purge — and, per
    /// source, the catalog table's content stamp mixed with the source's
    /// counter in `source_epochs` (zero when absent).
    pub fn set_result_cache(&mut self, cache: Arc<ResultCache>, flow_epoch: u64, source_epochs: HashMap<String, u64>) {
        self.cache = Some(CacheBinding { cache, flow_epoch, source_epochs });
    }

    /// Consults the cache before execution: walks the plan backwards, looks
    /// up every *reachable* cacheable operator (one not already covered by a
    /// downstream hit) and derives the set of ops that still execute.
    /// Returns `None` when no cache is installed or it is disabled.
    fn cache_prepass(&self, plan: &PhysicalPlan) -> Option<CachePass> {
        let binding = self.cache.as_ref().filter(|b| b.cache.enabled())?;
        let keys = plan.cache_keys(binding.flow_epoch, |source| {
            mix(binding.source_epochs.get(source).copied().unwrap_or(0), table_stamp(&self.catalog, source))
        });
        let n = plan.nodes().len();
        let mut pass = CachePass { keys, hits: vec![None; n], needed: vec![false; n] };
        for (pos, node) in plan.nodes().iter().enumerate().rev() {
            let op = &node.op;
            pass.needed[pos] |= op.kind.is_sink();
            if !pass.needed[pos] {
                continue; // feeds only cache-served subflows: never runs
            }
            if cacheable(&op.kind) {
                if let Some(rel) = binding.cache.lookup(pass.keys[pos]) {
                    emit(EngineEvent::CacheHit { op: &op.name, rows: rel.len() as u64 });
                    pass.hits[pos] = Some(rel);
                    continue; // inputs stay un-needed unless used elsewhere
                }
                emit(EngineEvent::CacheMiss { op: &op.name });
            }
            node.inputs.iter().for_each(|&i| pass.needed[i] = true);
        }
        Some(pass)
    }

    /// Compiles `flow` ([`PhysicalPlan::compile`], costed with the catalog's
    /// statistics when a result cache is installed), then executes it. A
    /// flow error is returned before any operator starts.
    pub fn run(&mut self, flow: &Flow) -> Result<RunReport, EngineError> {
        let stats = self.cache.as_ref().map(|_| self.catalog.statistics());
        let plan = PhysicalPlan::compile(flow, stats.as_ref())?;
        self.execute(&plan)
    }

    /// Executes a compiled plan: sources read from the catalog, loaders
    /// append to (auto-creating) target tables. Returns the run report.
    ///
    /// One scheduler for every plan and width (see the module docs). Both
    /// layers of parallelism — independent operators here, morsels inside
    /// each — draw threads from one budget, so nesting never oversubscribes
    /// the machine. After a failure nothing positioned later starts, what is
    /// in flight drains, and the error with the smallest position is returned.
    pub fn execute(&mut self, plan: &PhysicalPlan) -> Result<RunReport, EngineError> {
        let pass = self.cache_prepass(plan);
        let start = Instant::now();
        let Engine { catalog, cache } = self;
        let nodes = plan.nodes();

        // Run positions: the cache hits, then the executing operations, each
        // in plan order.
        let hit = |p: usize| pass.as_ref().and_then(|c| c.hits[p].as_ref());
        let mut order: Vec<usize> = (0..nodes.len()).filter(|&p| hit(p).is_some()).collect();
        let hits = order.len();
        order.extend((0..nodes.len()).filter(|&p| pass.as_ref().is_none_or(|c| c.needed[p] && hit(p).is_none())));
        let mut pos_of = vec![0; nodes.len()];
        order.iter().enumerate().for_each(|(pos, &p)| pos_of[p] = pos);
        let ops: Vec<&PlanNode> = order.iter().map(|&p| &nodes[p]).collect();
        let n = ops.len();
        let inputs: Vec<Vec<usize>> = (ops.iter().enumerate())
            .map(|(pos, node)| if pos < hits { &[][..] } else { &node.inputs[..] })
            .map(|ins| ins.iter().map(|&i| pos_of[i]).collect())
            .collect();
        let mut consumers = vec![Vec::new(); n];
        for (pos, ins) in inputs.iter().enumerate() {
            ins.iter().for_each(|&i| consumers[i].push(pos));
        }
        // Sources and loaders touch the catalog; the rest is pure.
        let pure: Vec<usize> = (hits..n).filter(|&p| !touches_catalog(&ops[p].op)).collect();
        let cache = cache.as_ref().filter(|_| pass.is_some());
        let offers: Vec<(usize, u64)> = (pass.as_ref())
            .map(|c| pure.iter().filter(|&&p| cacheable(&ops[p].op.kind)).map(|&p| (p, c.keys[order[p]])).collect())
            .unwrap_or_default();
        let passes: Vec<Vec<usize>> = (plan.fused_groups().iter())
            .map(|group| {
                let executing = group.members.iter().filter(|&&p| pos_of[p] >= hits && order[pos_of[p]] == p);
                executing.map(|&p| pos_of[p]).collect()
            })
            .filter(|members: &Vec<usize>| members.len() > 1)
            .collect();

        let mut state = State {
            pending: inputs.iter().map(|ins| ins.iter().filter(|&&i| i >= hits).count()).collect(),
            uses: consumers.iter().map(Vec::len).collect(),
            outputs: vec![None; n],
            timings: vec![None; n],
            frontier: hits,
            limit: n,
            claimed_passes: vec![false; passes.len()],
            ..State::default()
        };
        offers.iter().for_each(|&(p, _)| state.uses[p] += 1);
        for (pos, &p) in order.iter().enumerate().take(hits) {
            // A cache-served result: zero rows in, the cached relation out,
            // no measurable elapsed work.
            let (op, rel) = (&nodes[p].op, hit(p).expect("hits come from a cache pass"));
            state.timings[pos] = Some(OpTiming::finished(op, 0, rel.len(), Duration::ZERO, Duration::ZERO, 0));
            state.hold(pos, Batch::Rel(Arc::clone(rel)));
        }
        let mut pass_of = vec![None; n];
        for (pass, members) in passes.iter().enumerate() {
            members.iter().for_each(|&m| pass_of[m] = Some(pass));
        }
        let run = Run {
            offers,
            cache,
            ops,
            inputs,
            consumers,
            passes,
            pass_of,
            width: pool::threads().saturating_sub(1),
            start,
            state: Mutex::new(state),
            wake: Condvar::new(),
        };

        std::thread::scope(|scope| {
            let _finish = Finish(&run);
            let mut g = run.lock();
            for &p in &pure {
                if g.pending[p] == 0 {
                    run.release(&mut g, p);
                }
            }
            loop {
                g.caller_waits = false;
                let pos = g.frontier;
                // A source or loader runs here, and only once everything
                // before it has finished: the catalog changes in position
                // order, and a failure leaves exactly the loads before it.
                if pos < g.limit && touches_catalog(&run.ops[pos].op) {
                    g.running += 1;
                    let inputs = run.inputs[pos].iter().map(|&i| g.claim_output(i)).collect();
                    drop(g);
                    let node = run.ops[pos];
                    run.perform(scope, vec![(pos, inputs)], |claimed| {
                        let inputs = &claimed[0].1;
                        vec![match &node.op.kind {
                            OpKind::Loader { table, key } => {
                                let mat = inputs[0].materialize();
                                load(catalog, table, key, &mat, node.distinct).map(|()| Batch::Rel(mat))
                            }
                            OpKind::Datastore { datastore, schema } => read_source(catalog, datastore, schema),
                            _ => unreachable!("only sources and loaders touch the catalog"),
                        }]
                    });
                } else if let Some(claimed) = run.claim(&mut g) {
                    drop(g);
                    run.perform(scope, claimed, |claimed| run.execute(claimed));
                } else if g.running == 0 {
                    break; // finished, or stopped by a failure and drained
                } else {
                    g.caller_waits = true;
                    g = run.wait(g);
                    continue;
                }
                g = run.lock();
            }
            drop(g); // before `_finish` takes the lock
        });

        let state = run.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        match state.failure {
            Some(Failure::Error(e)) => return Err(e),
            Some(Failure::Panic(payload)) => resume_unwind(payload),
            None => {}
        }
        let mut report = RunReport { peak_held: state.peak_held, ..RunReport::default() };
        for (node, timing) in run.ops.iter().zip(state.timings) {
            let timing = timing.expect("a run without a failure finishes every operation");
            report.rows_processed += timing.rows_out;
            if let OpKind::Loader { table, .. } = &node.op.kind {
                report.loaded.push((table.clone(), timing.rows_out));
            }
            report.timings.push(timing);
        }
        report.total = start.elapsed();
        Ok(report)
    }
}

fn touches_catalog(op: &Operation) -> bool {
    op.kind.is_source() || op.kind.is_sink()
}

/// Offers one freshly computed batch for admission under `key`. A
/// materialized batch is offered as it is (storing is an `Arc` clone); a late
/// batch is gathered for it only once its key has missed twice, so a cold run
/// never pays a gather for a reuse that is still speculative.
fn cache_offer(binding: &CacheBinding, node: &PlanNode, key: u64, out: Batch) {
    if matches!(out, Batch::Lazy(_)) && !binding.cache.would_admit(key) {
        return; // stay late
    }
    let rel = out.materialize();
    if binding.cache.admit(key, &rel, node.cone_cost, binding.flow_epoch) {
        emit(EngineEvent::CacheInsert { op: &node.op.name, bytes: rel.estimated_bytes() as u64 });
    }
}

/// Loader execution: append (empty key, strict schema) or upsert.
/// `distinct` is the plan's proof that no two input rows share a key
/// ([`PlanNode::distinct`]).
fn load(
    catalog: &mut Catalog,
    table: &str,
    key: &[String],
    input: &Arc<Relation>,
    distinct: bool,
) -> Result<(), EngineError> {
    if !key.is_empty() {
        // The merge plan indexes `old ++ input` with `u32` positions.
        check_row_capacity(catalog.get(table).map_or(0, Relation::len) + input.len())?;
        return upsert(catalog, table, input, key, distinct)
            .map_err(|detail| EngineError::LoadSchemaMismatch { table: table.to_string(), detail });
    }
    let Some(existing) = catalog.get_mut(table) else {
        // First load into a fresh table: share the relation. A later append
        // copies-on-write only if the flow result is still alive.
        catalog.put_shared(table.to_string(), Arc::clone(input));
        return Ok(());
    };
    if existing.schema.names().collect::<Vec<_>>() != input.schema.names().collect::<Vec<_>>() {
        return Err(EngineError::LoadSchemaMismatch {
            table: table.to_string(),
            detail: format!("target is {}, input is {}", existing.schema, input.schema),
        });
    }
    if existing.is_empty() {
        // Appending to an empty table adopts the input's columns: zero
        // values copied.
        existing.columns = input.columns().to_vec();
        existing.nrows = input.len();
    } else {
        let columns: Vec<Arc<Col>> = existing
            .columns
            .iter()
            .zip(input.columns())
            .zip(&existing.schema.columns)
            .map(|((a, b), sc)| Arc::new(Col::concat(&[a.as_ref(), b.as_ref()], sc.ty)))
            .collect();
        existing.columns = columns;
        existing.nrows += input.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use quarry_etl::{parse_expr, ColType, Column, Schema};

    fn numbers(rows: i64) -> (Catalog, Schema) {
        let schema = Schema::new(vec![Column::new("k", ColType::Integer)]);
        let mut c = Catalog::new();
        c.put("t", Relation::with_rows(schema.clone(), (0..rows).map(|k| vec![Value::Int(k)]).collect()));
        (c, schema)
    }

    fn sel(predicate: &str) -> OpKind {
        OpKind::Selection { predicate: parse_expr(predicate).unwrap() }
    }

    fn append_to(table: &str) -> OpKind {
        OpKind::Loader { table: table.into(), key: vec![] }
    }

    #[test]
    fn the_report_lists_operations_by_position_whatever_finished_first() {
        let (c, schema) = numbers(100);
        let mut f = Flow::new("positions");
        let src = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema }).unwrap();
        // The deep branch comes first in the flow and runs first on one thread.
        let deep = f.append(src, "DEEP_1", sel("k >= 10")).unwrap();
        let deep = f.append(deep, "DEEP_2", sel("k >= 20")).unwrap();
        f.append(deep, "LOAD_deep", append_to("out")).unwrap();
        let flat = f.append(src, "FLAT", sel("k < 5")).unwrap();
        f.append(flat, "LOAD_flat", append_to("out")).unwrap();
        f.append(src, "LOAD_src", append_to("out")).unwrap();
        let mut engine = Engine::new(c);
        let report = engine.run(&f).unwrap();
        let ops: Vec<&str> = report.timings.iter().map(|t| t.op.as_str()).collect();
        // Level by level, pure operations before the level's loaders.
        assert_eq!(ops, ["SRC", "DEEP_1", "FLAT", "LOAD_src", "DEEP_2", "LOAD_flat", "LOAD_deep"]);
        assert_eq!(report.loaded, [("out".to_string(), 100), ("out".to_string(), 5), ("out".to_string(), 80)]);
        assert_eq!(report.rows_processed, 100 + 90 + 5 + 100 + 80 + 5 + 80);
        assert_eq!(engine.catalog.get("out").unwrap().len(), 185);
        assert_eq!(report.lane_busy().iter().sum::<Duration>(), report.timings.iter().map(|t| t.elapsed).sum());
        assert!(report.timings.iter().all(|t| t.started + t.elapsed <= report.total));
    }

    #[test]
    fn a_consumer_waits_for_every_edge_not_every_producer() {
        let (c, schema) = numbers(10);
        let mut f = Flow::new("self_union");
        let src = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema }).unwrap();
        let half = f.append(src, "HALF", sel("k < 5")).unwrap();
        // HALF ∪ HALF: bridging the step away leaves two edges HALF → UNION.
        let union = f.append(half, "UNION", OpKind::Union).unwrap();
        let step = f.append(half, "STEP", OpKind::Distinct).unwrap();
        f.connect(step, union).unwrap();
        f.remove_bridging(step);
        assert_eq!(f.inputs_of(union), [half, half]);
        f.append(union, "LOAD", append_to("out")).unwrap();
        let mut engine = Engine::new(c);
        let report = engine.run(&f).unwrap();
        assert_eq!(report.rows_loaded("out"), 10);
        let keys = engine.catalog.get("out").unwrap().column_values("k");
        assert_eq!(keys, (0..5).chain(0..5).map(Value::Int).collect::<Vec<_>>());
    }

    /// Two edges from one producer are two claims: the first gets a clone,
    /// the second the output itself, and only then does the scheduler let go.
    #[test]
    fn a_self_union_output_is_released_at_its_second_claim() {
        let (c, _) = numbers(10);
        let out = Batch::Rel(Arc::new(c.get("t").unwrap().clone()));
        let mut s = State { uses: vec![2], outputs: vec![None], ..State::default() };
        assert!(s.hold(0, out).is_none());
        let first = s.claim_output(0);
        assert!(s.outputs[0].is_some() && s.held == 1, "one edge is still unclaimed");
        let second = s.claim_output(0);
        assert!(s.outputs[0].is_none() && s.held == 0 && s.peak_held == 1, "both edges claimed");
        assert_eq!(first.len() + second.len(), 20);
        // An output nothing claims is never held.
        let mut s = State { uses: vec![0], outputs: vec![None], ..State::default() };
        assert!(s.hold(0, first).is_some() && s.peak_held == 0);
    }

    /// A chain of 30 operations: each output is dropped as its consumer
    /// starts, so at most two are ever held, at any width.
    #[test]
    fn a_chain_holds_at_most_two_outputs() {
        let (c, schema) = numbers(100);
        let mut f = Flow::new("chain");
        let mut tip = f.add_op("SRC", OpKind::Datastore { datastore: "t".into(), schema }).unwrap();
        for i in 0..28 {
            tip = f.append(tip, format!("SEL{i}"), sel(&format!("k >= {i}"))).unwrap();
        }
        f.append(tip, "LOAD", append_to("out")).unwrap();
        let mut engine = Engine::new(c);
        let report = engine.run(&f).unwrap();
        assert_eq!(report.timings.len(), 30);
        assert_eq!(report.rows_loaded("out"), 73);
        assert!((1..=2).contains(&report.peak_held), "held {} outputs at once", report.peak_held);
    }
}
