//! Incremental consolidation state (the tentpole of incremental, indexed
//! design consolidation).
//!
//! The one-shot integrators re-derive full-design facts every step: the ETL
//! side clones, re-normalizes, and re-dedupes the whole unified flow before
//! matching against it with linear scans. [`ConsolidationState`] turns that
//! into maintain-an-index-across-steps: the unified flow is kept permanently
//! in *canonical form* ([`quarry_etl::rules::canonicalize`] — established
//! once, repaired incrementally on insert), and a hash index
//! `(merge_key, input ids) → OpId` makes per-op matching O(1). The index is
//! updated in place as ops are matched/added/widened, and pruned in place
//! when a requirement is retracted through [`ConsolidationState::retract`].
//! An optimizer commit hands over the facts its commit check derived of the
//! committed (canonical) flow, and the index is built beside them
//! ([`ConsolidationState::adopt`]): nothing is re-canonicalized or
//! re-derived. It is fully rebuilt only after other out-of-band mutation of
//! the unified design (a rollback), which callers signal via
//! [`ConsolidationState::invalidate`].
//! The flow's per-operation schemas, cardinalities, cost parts and ranks
//! live and die with the index ([`quarry_etl::facts::FlowFacts`], the same
//! index the optimizer's moves repair): a step under a maintained index
//! validates and costs what it added or widened and what that reaches, and
//! rolls back through the flow's edit journal, so nothing in it is
//! proportional to the design.
//!
//! Why the invariant survives insertion without re-normalizing: a matched op
//! gains a consumer, so every sole-consumer-gated rewrite (selection
//! push-down, adjacent-selection/projection merging) stays blocked at and
//! below it; copied ops replicate an already-normalized partial region whose
//! consumer counts carry over unchanged; and an index miss is precisely the
//! canonical dedupe criterion, so inserting the copy preserves key
//! uniqueness. Widening never changes an op's merge key.
//!
//! Retraction only prunes whole sub-branches: every surviving op keeps its
//! inputs, hence its merge key, schema, cardinality and cost part, its rank
//! stays above its inputs', and no two survivors can come to share a key. What can change is a
//! survivor's consumer count, and a survivor left with a sole consumer may
//! unblock a sole-consumer-gated rewrite; that case is checked locally
//! ([`rules::canonical_after_losing_consumers`]) and falls back to a rebuild.
//!
//! Both paths produce bit-identical unified designs and reports — proven by
//! the randomized suite in `tests/incremental_equivalence.rs`.

use crate::etl::{
    canonicalize_pair, consolidate_into, ConsolidateOutcome, EtlIndex, EtlIntegrationOptions, EtlIntegrationReport,
};
use crate::md::{integrate_md, MdIntegration};
use crate::IntegrateError;
use quarry_etl::cost::{EtlCostModel, SourceStats};
use quarry_etl::facts::FlowFacts;
use quarry_etl::rules;
use quarry_etl::{Flow, FlowError};
use quarry_md::{CostModel, MdSchema};
use quarry_obs::{Counter, Obs};

/// Cumulative consolidation counters, surfaced as `integrator.*` metrics by
/// the lifecycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidationStats {
    /// Partial ETL ops matched onto existing unified ops via the index.
    pub etl_index_hits: u64,
    /// Partial ETL ops not in the index (copied into the unified flow).
    pub etl_index_misses: u64,
    /// Full index rebuilds (first step, or after invalidation).
    pub etl_index_rebuilds: u64,
    /// Partial MD elements paired by the lookup maps.
    pub md_map_hits: u64,
    /// Partial MD elements with no unified counterpart.
    pub md_map_misses: u64,
}

/// Pre-resolved metric handles mirroring [`ConsolidationStats`]: resolved
/// once by [`ConsolidationState::bind_metrics`], bumped via relaxed atomics
/// at the same sites that maintain the plain counters — no name lookup on
/// the consolidation path.
#[derive(Debug, Clone)]
struct BoundMetrics {
    etl_index_hits: Counter,
    etl_index_misses: Counter,
    etl_index_rebuilds: Counter,
    md_map_hits: Counter,
    md_map_misses: Counter,
}

impl BoundMetrics {
    fn resolve(obs: &Obs) -> Self {
        BoundMetrics {
            etl_index_hits: obs.counter("integrator.etl_index_hits"),
            etl_index_misses: obs.counter("integrator.etl_index_misses"),
            etl_index_rebuilds: obs.counter("integrator.etl_index_rebuilds"),
            md_map_hits: obs.counter("integrator.md_map_hits"),
            md_map_misses: obs.counter("integrator.md_map_misses"),
        }
    }
}

/// The maintained ETL side: the index, the alignment flavor it was built
/// under, and a cheap shape fingerprint of the flow it describes.
#[derive(Debug, Clone)]
struct EtlState {
    index: EtlIndex,
    aligned: bool,
    /// `(op_count, edge_count)` of the unified flow after the last step —
    /// a safety net that forces a rebuild if the flow was mutated behind
    /// the state's back without an explicit `invalidate`.
    fingerprint: (usize, usize),
}

/// Incremental consolidation state, owned by the design lifecycle. ETL steps
/// mutate the unified flow in place under a maintained index; MD steps run
/// the (map-based, delta-scored) integrator and count pairing traffic. Any
/// out-of-band mutation of the unified design must be followed by
/// [`ConsolidationState::adopt`] (an optimizer commit that handed its facts
/// over) or [`ConsolidationState::invalidate`].
#[derive(Debug, Clone, Default)]
pub struct ConsolidationState {
    etl: Option<EtlState>,
    stats: ConsolidationStats,
    metrics: Option<BoundMetrics>,
    /// Monotonic unified-flow epoch: bumped on every successful ETL step,
    /// retraction, [`ConsolidationState::adopt`] and
    /// [`ConsolidationState::invalidate`]. The engine-side result
    /// cache folds this into its fingerprints, so any consolidation commit
    /// or out-of-band mutation re-keys (and thereby invalidates) every
    /// cached subflow.
    flow_epoch: u64,
}

impl ConsolidationState {
    pub fn new() -> Self {
        ConsolidationState::default()
    }

    /// Resolves `integrator.*` metric handles on `obs` once; subsequent steps
    /// publish counter movement through them (cheap relaxed atomics, gated on
    /// the recorder's enabled flag) instead of string-keyed lookups.
    pub fn bind_metrics(&mut self, obs: &Obs) {
        self.metrics = Some(BoundMetrics::resolve(obs));
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> ConsolidationStats {
        self.stats
    }

    /// Whether the ETL index currently mirrors a unified flow (false before
    /// the first step and after invalidation).
    pub fn etl_index_ready(&self) -> bool {
        self.etl.is_some()
    }

    /// Compares the maintained index with what `EtlIndex::build` derives
    /// from `flow`; `Err` says what differs, or that there is no index. The
    /// oracle the maintained index is tested against.
    pub fn audit_etl_index(&self, flow: &Flow) -> Result<(), String> {
        self.etl.as_ref().ok_or("no maintained index")?.index.audit(flow)
    }

    /// The per-operation schemas and cost parts kept beside the ETL index
    /// (`None` before the first step and after invalidation).
    pub fn etl_facts(&self) -> Option<&FlowFacts> {
        self.etl.as_ref().map(|s| s.index.facts())
    }

    /// Drops the maintained ETL index. Call after any mutation of the
    /// unified flow that did not go through [`ConsolidationState::etl_step`],
    /// [`ConsolidationState::retract`] or [`ConsolidationState::adopt`]
    /// (a snapshot rollback, an optimizer commit that handed no facts over);
    /// the next step rebuilds canonical form and index from scratch, which is
    /// exactly the one-shot integrator's per-step behavior.
    pub fn invalidate(&mut self) {
        self.etl = None;
        self.flow_epoch += 1;
    }

    /// Takes over `unified` as an optimizer commit left it, with `facts`,
    /// the derivation
    /// [`optimize_flow`](crate::optimize::optimize_flow) returns beside a
    /// commit of a flow canonical to a fixpoint under rule alignment. Builds
    /// the index over `unified` beside those facts, so the next step neither
    /// re-canonicalizes the flow nor re-derives a fact. The flow epoch
    /// advances as under [`invalidate`](Self::invalidate). The next step
    /// still rebuilds under the other alignment flavor or when the flow
    /// changed since, and facts derived under another model or statistics
    /// are re-derived on their next refresh.
    pub fn adopt(&mut self, unified: &Flow, facts: FlowFacts) {
        self.etl = Some(EtlState {
            index: EtlIndex::with_facts(unified, facts),
            aligned: true,
            fingerprint: (unified.op_count(), unified.edge_count()),
        });
        self.flow_epoch += 1;
    }

    /// Retracts requirement `req` from `unified`, validates what is left and
    /// returns its cost under `cost` and `stats`. The flow epoch advances by
    /// exactly one, as under [`invalidate`](Self::invalidate).
    ///
    /// Under a reusable index nothing is re-derived: the pruned ops leave
    /// the index and the kept facts, the survivors' entries stand (they keep
    /// their inputs), and the flow is validated and costed through those
    /// facts, so the next step reuses the index. It falls back to
    /// [`invalidate`](Self::invalidate) and one fresh derivation of the whole
    /// flow ([`FlowFacts::of`]) when there is no reusable index (before the
    /// first step, after an invalidation), when a survivor left with a sole
    /// consumer would let a canonical rule fire, or when a survivor lost an
    /// input (which the satisfier-set invariant of
    /// [`Flow::retract_requirement`] rules out). Either way the cost has the
    /// bits [`EtlCostModel::cost`] gives the retracted flow. On error the
    /// flow stays retracted and the index is dropped; the caller restores
    /// its own snapshot.
    pub fn retract(
        &mut self,
        unified: &mut Flow,
        req: &str,
        cost: &dyn EtlCostModel,
        stats: &SourceStats,
    ) -> Result<f64, IntegrateError> {
        self.flow_epoch += 1;
        let fingerprint = (unified.op_count(), unified.edge_count());
        let kept = self.etl.take().filter(|s| s.fingerprint == fingerprint);
        let retraction = unified.retract_requirement(req);
        debug_assert!(retraction.lost_inputs.is_empty(), "survivors keep their inputs: {:?}", retraction.lost_inputs);
        let invalid = |e: FlowError| IntegrateError::InvalidResult(vec![e.to_string()]);
        let mut state = kept.filter(|_| retraction.lost_inputs.is_empty());
        if let Some(state) = &mut state {
            state.index.forget(unified, &retraction.pruned, cost, stats).map_err(invalid)?;
        }
        // A survivor left with a sole consumer may let a canonical rule fire.
        let lost = &retraction.lost_consumers;
        let state = state.filter(|s| {
            !s.aligned || rules::canonical_after_losing_consumers(unified, lost, s.index.facts().schemas())
        });
        let fresh;
        let facts = match &state {
            Some(state) => state.index.facts(),
            None => {
                fresh = FlowFacts::of(unified, cost, stats).map_err(invalid)?;
                &fresh
            }
        };
        unified.check_outputs_consumed().map_err(invalid)?;
        let total = facts.cost(unified, cost, stats).map_err(invalid)?;
        self.etl = state.map(|state| EtlState { fingerprint: (unified.op_count(), unified.edge_count()), ..state });
        Ok(total)
    }

    /// The cost of `unified` under `cost` and `stats`, read off the facts
    /// kept beside the index when it still describes `unified` (the same
    /// shape guard as [`etl_step`](Self::etl_step)): their refresh re-derives
    /// nothing when nothing moved, and everything after the statistics
    /// changed, which the next step would do anyway. Without a kept index —
    /// before the first step, after a rollback — the whole flow is priced
    /// from scratch.
    pub fn etl_cost(&mut self, unified: &Flow, cost: &dyn EtlCostModel, stats: &SourceStats) -> Result<f64, FlowError> {
        let fingerprint = (unified.op_count(), unified.edge_count());
        let Some(state) = self.etl.as_mut().filter(|s| s.fingerprint == fingerprint) else {
            return cost.cost(unified, stats);
        };
        // Nothing pruned: `forget` only brings the facts in line.
        let priced =
            state.index.forget(unified, &[], cost, stats).and_then(|()| state.index.facts().cost(unified, cost, stats));
        if priced.is_err() {
            // A half-done refresh describes nothing; the next step rebuilds.
            self.etl = None;
        }
        priced
    }

    /// The current unified-flow epoch (see the field docs). Exposed so the
    /// lifecycle can key its result cache on it; restored via
    /// [`ConsolidationState::set_flow_epoch`] after durable recovery.
    pub fn flow_epoch(&self) -> u64 {
        self.flow_epoch
    }

    /// Restores the flow epoch to `epoch` (used by durable recovery so a
    /// restarted repository never reuses an epoch that pre-dates a commit).
    /// Only ever moves forward.
    pub fn set_flow_epoch(&mut self, epoch: u64) {
        self.flow_epoch = self.flow_epoch.max(epoch);
    }

    /// One incremental ETL consolidation step: integrates `partial` into
    /// `unified` *in place*. Behaviorally identical to
    /// [`crate::etl::integrate_etl`] — on error the flow is restored
    /// bit-identical and the state invalidated.
    ///
    /// Under a reusable index the step costs what it touches: it only adds
    /// operations and widens matched ones, which the flow's edit journal
    /// records and takes back on error, and it validates and costs through
    /// the facts kept beside the index. Pass the same cost model on every
    /// step (or [`invalidate`](Self::invalidate) when swapping it); changed
    /// source statistics are noticed.
    pub fn etl_step(
        &mut self,
        unified: &mut Flow,
        partial: &Flow,
        cost: &dyn EtlCostModel,
        stats: &SourceStats,
        options: EtlIntegrationOptions,
    ) -> Result<EtlIntegrationReport, IntegrateError> {
        let fingerprint = (unified.op_count(), unified.edge_count());
        let reusable =
            self.etl.as_ref().is_some_and(|s| s.aligned == options.align_with_rules && s.fingerprint == fingerprint);
        // Rebuilding the index canonicalizes the flow, which the journal does
        // not record; that (rare) step keeps a copy to fall back to.
        let backup = (!reusable).then(|| unified.clone());
        if reusable {
            unified.begin_journal();
        }
        let result = self.etl_step_inner(unified, partial, cost, stats, options, reusable);
        let journal = unified.take_journal();
        if result.is_ok() {
            self.flow_epoch += 1;
        } else {
            match backup {
                Some(backup) => *unified = backup,
                None => unified.revert(journal),
            }
            self.invalidate();
        }
        result
    }

    fn etl_step_inner(
        &mut self,
        unified: &mut Flow,
        partial: &Flow,
        cost: &dyn EtlCostModel,
        stats: &SourceStats,
        options: EtlIntegrationOptions,
        reusable: bool,
    ) -> Result<EtlIntegrationReport, IntegrateError> {
        let mut part = partial.clone();
        if reusable {
            // Unified is already canonical under this alignment flavor; only
            // the (small) partial needs aligning.
            rules::canonicalize(&mut part, options.align_with_rules)
                .map_err(|e| IntegrateError::MalformedPartial(e.to_string()))?;
        } else {
            if unified.name.is_empty() {
                unified.name = "unified".to_string();
            }
            canonicalize_pair(unified, &mut part, options.align_with_rules)?;
            self.etl = Some(EtlState {
                index: EtlIndex::build(unified),
                aligned: options.align_with_rules,
                fingerprint: (0, 0), // refreshed below
            });
            self.stats.etl_index_rebuilds += 1;
            if let Some(m) = &self.metrics {
                m.etl_index_rebuilds.inc();
            }
        }

        let state = self.etl.as_mut().expect("index built above");
        let mut outcome = ConsolidateOutcome::default();
        let report = consolidate_into(unified, &part, &mut state.index, cost, stats, &mut outcome)?;
        state.fingerprint = (unified.op_count(), unified.edge_count());
        self.stats.etl_index_hits += outcome.hits;
        self.stats.etl_index_misses += outcome.misses;
        if let Some(m) = &self.metrics {
            m.etl_index_hits.add(outcome.hits);
            m.etl_index_misses.add(outcome.misses);
        }
        Ok(report)
    }

    /// One MD consolidation step. The MD integrator is stateless (its lookup
    /// maps are rebuilt per step in O(unified)); this wrapper exists for
    /// symmetry and counter upkeep. The caller assigns `result.schema` —
    /// typically only after the paired ETL step also succeeded, keeping the
    /// whole lifecycle step transactional.
    pub fn md_step(
        &mut self,
        unified: &MdSchema,
        partial: &MdSchema,
        cost: &dyn CostModel,
    ) -> Result<MdIntegration, IntegrateError> {
        let result = integrate_md(unified, partial, cost)?;
        let elements = (partial.facts.len() + partial.dimensions.len()) as u64;
        let hits = result.report.pairings_discovered as u64;
        self.stats.md_map_hits += hits;
        self.stats.md_map_misses += elements.saturating_sub(hits);
        if let Some(m) = &self.metrics {
            m.md_map_hits.add(hits);
            m.md_map_misses.add(elements.saturating_sub(hits));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::integrate_etl;
    use quarry_etl::cost::EstimatedTime;
    use quarry_etl::{parse_expr, ColType, Column, OpKind, Schema};
    use quarry_md::StructuralComplexity;

    fn pipeline(filter: &str, table: &str, req: &str) -> Flow {
        let mut f = Flow::new("p");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: Schema::new(vec![
                        Column::new("l_orderkey", ColType::Integer),
                        Column::new("l_discount", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let e =
            f.append(d, "EX", OpKind::Extraction { columns: vec!["l_orderkey".into(), "l_discount".into()] }).unwrap();
        let s = f.append(e, "SEL", OpKind::Selection { predicate: parse_expr(filter).unwrap() }).unwrap();
        f.append(s, "LOAD", OpKind::Loader { table: table.into(), key: vec![] }).unwrap();
        f.stamp_requirement(req);
        f
    }

    fn stats() -> SourceStats {
        SourceStats::new().with_table("lineitem", 60_000.0)
    }

    #[test]
    fn incremental_steps_match_one_shot_integration() {
        let parts = [
            pipeline("l_discount > 0.05", "t1", "IR1"),
            pipeline("l_discount > 0.05", "t2", "IR2"),
            pipeline("l_discount > 0.07", "t3", "IR3"),
        ];
        let model = EstimatedTime::new();
        let opts = EtlIntegrationOptions::default();

        let mut seed = Flow::new("unified");
        let mut state = ConsolidationState::new();
        let mut incremental = Flow::new("unified");
        for p in &parts {
            let one_shot = integrate_etl(&seed, p, &model, &stats(), opts).unwrap();
            let step = state.etl_step(&mut incremental, p, &model, &stats(), opts).unwrap();
            assert_eq!(one_shot.flow, incremental);
            assert_eq!(one_shot.report, step);
            seed = one_shot.flow;
        }
        let s = state.stats();
        assert_eq!(s.etl_index_rebuilds, 1, "index built once, maintained after");
        assert!(s.etl_index_hits > 0 && s.etl_index_misses > 0);
    }

    #[test]
    fn invalidation_forces_a_rebuild() {
        let model = EstimatedTime::new();
        let opts = EtlIntegrationOptions::default();
        let mut state = ConsolidationState::new();
        let mut unified = Flow::new("unified");
        state.etl_step(&mut unified, &pipeline("l_discount > 0.05", "t1", "IR1"), &model, &stats(), opts).unwrap();
        assert!(state.etl_index_ready());
        state.invalidate();
        assert!(!state.etl_index_ready());
        state.etl_step(&mut unified, &pipeline("l_discount > 0.06", "t2", "IR2"), &model, &stats(), opts).unwrap();
        assert_eq!(state.stats().etl_index_rebuilds, 2);
    }

    #[test]
    fn out_of_band_mutation_is_caught_by_the_fingerprint() {
        let model = EstimatedTime::new();
        let opts = EtlIntegrationOptions::default();
        let mut state = ConsolidationState::new();
        let mut unified = Flow::new("unified");
        state.etl_step(&mut unified, &pipeline("l_discount > 0.05", "t1", "IR1"), &model, &stats(), opts).unwrap();
        // Mutate the flow without telling the state.
        unified.retract_requirement("IR1");
        state.etl_step(&mut unified, &pipeline("l_discount > 0.06", "t2", "IR2"), &model, &stats(), opts).unwrap();
        assert_eq!(state.stats().etl_index_rebuilds, 2, "shape change triggers a rebuild");
        unified.validate().unwrap();
    }

    #[test]
    fn flow_epoch_advances_on_steps_and_invalidation() {
        let model = EstimatedTime::new();
        let opts = EtlIntegrationOptions::default();
        let mut state = ConsolidationState::new();
        assert_eq!(state.flow_epoch(), 0);
        let mut unified = Flow::new("unified");
        state.etl_step(&mut unified, &pipeline("l_discount > 0.05", "t1", "IR1"), &model, &stats(), opts).unwrap();
        assert_eq!(state.flow_epoch(), 1, "successful step bumps the epoch");
        state.invalidate();
        assert_eq!(state.flow_epoch(), 2, "out-of-band mutation bumps the epoch");
        state.set_flow_epoch(10);
        assert_eq!(state.flow_epoch(), 10, "recovery fast-forwards");
        state.set_flow_epoch(3);
        assert_eq!(state.flow_epoch(), 10, "recovery never rewinds");
    }

    #[test]
    fn md_step_counts_map_traffic() {
        use quarry_md::{DimLink, Fact, Level, Measure};
        let mk = |fact: &str, concept: &str, req: &str| {
            let mut s = MdSchema::new(format!("partial_{req}"));
            let atomic = Level::new("Part", "PartID", quarry_md::MdDataType::Integer).with_concept("Part");
            s.dimensions.push(quarry_md::Dimension::new("Part", atomic));
            let mut f = Fact::new(fact);
            f.concept = Some(concept.to_string());
            f.measures.push(Measure::new("m", format!("expr_{fact}")));
            f.dimensions.push(DimLink::new("Part", "Part"));
            s.facts.push(f);
            s.stamp_requirement(req);
            s
        };
        let mut state = ConsolidationState::new();
        let mut unified = MdSchema::new("unified");
        let cost = StructuralComplexity::new();
        let r1 = state.md_step(&unified, &mk("f1", "Lineitem", "IR1"), &cost).unwrap();
        unified = r1.schema;
        let r2 = state.md_step(&unified, &mk("f2", "Lineitem", "IR2"), &cost).unwrap();
        let _ = r2;
        let s = state.stats();
        assert_eq!(s.md_map_misses, 2, "first step finds nothing to pair");
        assert_eq!(s.md_map_hits, 2, "second step pairs fact and dimension");
    }
}
