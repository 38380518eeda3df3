//! The MD Schema Integrator: matching facts, matching dimensions,
//! complementing the MD schema design, and integration (paper §2.3, \[6\]).
//!
//! Matching (stages 1–2) runs on name/concept lookup maps instead of nested
//! scans, and candidate scoring (stage 3) uses per-element cost deltas when
//! the model exposes an additive decomposition
//! ([`quarry_md::AdditiveCostModel`]) — full candidate schemas are then only
//! constructed for the winning alternative. Models without a decomposition
//! fall back to whole-schema costing; both paths choose identical designs.

use crate::IntegrateError;
use quarry_md::{AdditiveCostModel, CostModel, Dimension, Fact, MdSchema, StructuralComplexity};
use std::collections::{BTreeMap, HashMap};

/// A decided match between a partial element and a unified element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdMatch {
    /// Partial fact merged into an existing fact.
    Fact { partial: String, unified: String },
    /// Partial dimension merged into an existing dimension.
    Dimension { partial: String, unified: String },
}

/// What the integration did; returned next to the schema so callers (and the
/// demo UI) can narrate the decision.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MdIntegrationReport {
    pub matches: Vec<MdMatch>,
    pub new_facts: Vec<String>,
    pub new_dimensions: Vec<String>,
    /// Levels added to existing dimensions while complementing.
    pub added_levels: Vec<(String, String)>,
    /// Measures added to existing facts.
    pub added_measures: Vec<(String, String)>,
    /// Cost-model alternatives evaluated during integration.
    pub alternatives_considered: usize,
    /// Pairings found by the matching stages (before merge/keep decisions).
    pub pairings_discovered: usize,
    /// Cost of the chosen solution under the supplied model.
    pub cost: f64,
}

/// The result of one MD integration step.
#[derive(Debug, Clone)]
pub struct MdIntegration {
    pub schema: MdSchema,
    pub report: MdIntegrationReport,
}

/// A candidate pairing discovered by the matching stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Merge,
    KeepSeparate,
}

/// Pairings discovered by stages 1–2 as element indices:
/// `(partial index, unified index)`.
#[derive(Debug, Default)]
struct Pairings {
    facts: Vec<(usize, usize)>,
    dimensions: Vec<(usize, usize)>,
}

/// Stages 1–2: match facts by grain concept (or name) and dimensions by name
/// (or atomic concept) via lookup maps; the maps store the *earliest* unified
/// element per key, reproducing first-match scan semantics. Pairings landing
/// on the same unified element are then reduced to the best-scoring one so
/// two partial elements can never silently double-merge.
fn discover_pairings(unified: &MdSchema, partial: &MdSchema, cost: &dyn CostModel) -> Pairings {
    let mut fact_by_name: HashMap<&str, usize> = HashMap::new();
    let mut fact_by_concept: HashMap<&str, usize> = HashMap::new();
    for (ui, uf) in unified.facts.iter().enumerate() {
        fact_by_name.entry(uf.name.as_str()).or_insert(ui);
        if let Some(c) = &uf.concept {
            fact_by_concept.entry(c.as_str()).or_insert(ui);
        }
    }
    let mut dim_by_name: HashMap<&str, usize> = HashMap::new();
    let mut dim_by_concept: HashMap<&str, usize> = HashMap::new();
    for (ui, ud) in unified.dimensions.iter().enumerate() {
        dim_by_name.entry(ud.name.as_str()).or_insert(ui);
        if let Some(c) = ud.level(&ud.atomic).and_then(|l| l.concept.as_deref()) {
            dim_by_concept.entry(c).or_insert(ui);
        }
    }
    // The earliest unified element satisfying either clause wins, exactly as
    // a front-to-back scan over `name == … || concept == …` would pick it.
    let earliest = |by_name: Option<usize>, by_concept: Option<usize>| match (by_name, by_concept) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    let mut pairings = Pairings::default();
    for (pi, pf) in partial.facts.iter().enumerate() {
        let by_name = fact_by_name.get(pf.name.as_str()).copied();
        let by_concept = pf.concept.as_deref().and_then(|c| fact_by_concept.get(c).copied());
        if let Some(ui) = earliest(by_name, by_concept) {
            pairings.facts.push((pi, ui));
        }
    }
    for (pi, pd) in partial.dimensions.iter().enumerate() {
        let by_name = dim_by_name.get(pd.name.as_str()).copied();
        let p_concept = pd.level(&pd.atomic).and_then(|l| l.concept.as_deref());
        let by_concept = p_concept.and_then(|c| dim_by_concept.get(c).copied());
        if let Some(ui) = earliest(by_name, by_concept) {
            pairings.dimensions.push((pi, ui));
        }
    }

    resolve_collisions(
        &mut pairings.facts,
        |pi, ui| MdMatch::Fact { partial: partial.facts[pi].name.clone(), unified: unified.facts[ui].name.clone() },
        unified,
        partial,
        cost,
    );
    resolve_collisions(
        &mut pairings.dimensions,
        |pi, ui| MdMatch::Dimension {
            partial: partial.dimensions[pi].name.clone(),
            unified: unified.dimensions[ui].name.clone(),
        },
        unified,
        partial,
        cost,
    );
    pairings
}

/// Keeps at most one pairing per unified target: when several partial
/// elements map onto the same unified element, each contender is scored by
/// the cost of merging it alone and only the cheapest valid pairing survives
/// (ties favor the earlier partial element). Losers fall back to
/// keep-separate, i.e. they enter the design as new elements.
fn resolve_collisions(
    pairs: &mut Vec<(usize, usize)>,
    make_match: impl Fn(usize, usize) -> MdMatch,
    unified: &MdSchema,
    partial: &MdSchema,
    cost: &dyn CostModel,
) {
    let mut by_target: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (pos, &(_, ui)) in pairs.iter().enumerate() {
        by_target.entry(ui).or_default().push(pos);
    }
    let mut dropped: Vec<usize> = Vec::new();
    for (_, contenders) in by_target {
        if contenders.len() < 2 {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for &pos in &contenders {
            let (pi, ui) = pairs[pos];
            let probe = [make_match(pi, ui)];
            let candidate = apply(unified, partial, &probe, &[Choice::Merge]);
            let score = if candidate.validate().iter().any(|v| v.kind.is_error()) {
                f64::INFINITY
            } else {
                cost.cost(&candidate)
            };
            if best.is_none_or(|(bs, _)| score < bs) {
                best = Some((score, pos));
            }
        }
        let keep = best.expect("non-empty contender group").1;
        dropped.extend(contenders.into_iter().filter(|&pos| pos != keep));
    }
    if !dropped.is_empty() {
        dropped.sort_unstable();
        for pos in dropped.into_iter().rev() {
            pairs.remove(pos);
        }
    }
}

/// Integrates a partial MD schema (one requirement's design) into the
/// unified schema, exploring merge/keep alternatives and choosing the
/// combination that minimizes `cost`.
pub fn integrate_md(
    unified: &MdSchema,
    partial: &MdSchema,
    cost: &dyn CostModel,
) -> Result<MdIntegration, IntegrateError> {
    // Stages 1–2: pairing discovery over lookup maps.
    let pairings = discover_pairings(unified, partial, cost);

    // Stage 3: complementing — enumerate merge/keep alternatives for every
    // discovered pairing and score candidates. Dimensions a matched fact
    // references must merge together with the fact, so the exploration space
    // is per-pair binary; enumerate exhaustively up to a budget, then fall
    // back to greedy.
    let pairs: Vec<MdMatch> = pairings
        .facts
        .iter()
        .map(|&(pi, ui)| MdMatch::Fact {
            partial: partial.facts[pi].name.clone(),
            unified: unified.facts[ui].name.clone(),
        })
        .chain(pairings.dimensions.iter().map(|&(pi, ui)| MdMatch::Dimension {
            partial: partial.dimensions[pi].name.clone(),
            unified: unified.dimensions[ui].name.clone(),
        }))
        .collect();

    let k = pairs.len();
    // Scoring engine: element-delta scoring when the model decomposes and
    // the unified schema is clean (candidate violations then stem only from
    // merged/new elements), whole-candidate costing otherwise.
    let scorer = match cost.decompose() {
        Some(am) if !unified.validate().iter().any(|v| v.kind.is_error()) => {
            Evaluator::Incremental(Box::new(IncrementalScorer::new(unified, partial, &pairings, am)))
        }
        _ => Evaluator::Full { unified, partial, pairs: &pairs, cost },
    };

    let mut best: Option<(f64, Vec<Choice>)> = None;
    let mut considered = 0usize;
    let mut tally = |choices: &[Choice], score: Option<f64>, best: &mut Option<(f64, Vec<Choice>)>| {
        if let Some(c) = score {
            considered += 1;
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                *best = Some((c, choices.to_vec()));
            }
        }
    };

    if k <= 6 {
        // In mask order, so the lowest mask wins a tie.
        for mask in 0..1usize << k {
            let choices = choices_of(mask, k);
            tally(&choices, scorer.eval(&choices), &mut best);
        }
    } else {
        // Greedy: start all-merge, flip each pair if it improves.
        let mut choices = vec![Choice::Merge; k];
        tally(&choices, scorer.eval(&choices), &mut best);
        for i in 0..k {
            let mut flipped = choices.clone();
            flipped[i] = Choice::KeepSeparate;
            let before = best.as_ref().map(|(c, _)| *c);
            tally(&flipped, scorer.eval(&flipped), &mut best);
            if best.as_ref().map(|(c, _)| *c) != before {
                choices = flipped;
            }
        }
    }

    let (_, choices) = best.ok_or_else(|| {
        IntegrateError::InvalidResult(
            apply(unified, partial, &pairs, &vec![Choice::Merge; k])
                .validate()
                .iter()
                .map(ToString::to_string)
                .collect(),
        )
    })?;

    // Only the winning alternative is materialized; its recorded cost is the
    // whole-schema cost, so reports agree bit-for-bit across scoring paths.
    let schema = apply(unified, partial, &pairs, &choices);
    let chosen_cost = cost.cost(&schema);

    // Stage 4 bookkeeping: the report.
    let mut report = MdIntegrationReport {
        alternatives_considered: considered,
        pairings_discovered: k,
        cost: chosen_cost,
        ..Default::default()
    };
    for (pair, choice) in pairs.iter().zip(&choices) {
        if *choice == Choice::Merge {
            report.matches.push(pair.clone());
        }
    }
    for pf in &partial.facts {
        let merged = report.matches.iter().any(|m| matches!(m, MdMatch::Fact { partial, .. } if *partial == pf.name));
        if merged {
            for m in &pf.measures {
                report.added_measures.push((pf.name.clone(), m.name.clone()));
            }
        } else {
            report.new_facts.push(pf.name.clone());
        }
    }
    for pd in &partial.dimensions {
        let merged =
            report.matches.iter().any(|m| matches!(m, MdMatch::Dimension { partial, .. } if *partial == pd.name));
        if merged {
            for l in &pd.levels {
                report.added_levels.push((pd.name.clone(), l.name.clone()));
            }
        } else {
            report.new_dimensions.push(pd.name.clone());
        }
    }

    Ok(MdIntegration { schema, report })
}

/// Decodes an exhaustive-enumeration mask into a decision vector (bit set =
/// merge), matching the historical bit convention so tie-breaks on equal
/// cost pick the same alternative.
fn choices_of(mask: usize, k: usize) -> Vec<Choice> {
    (0..k).map(|i| if mask & (1 << i) != 0 { Choice::Merge } else { Choice::KeepSeparate }).collect()
}

/// Scores one decision vector: `None` when the candidate violates MD
/// constraints, `Some(cost)` otherwise.
enum Evaluator<'a> {
    /// Construct the full candidate schema, validate it, cost it.
    Full { unified: &'a MdSchema, partial: &'a MdSchema, pairs: &'a [MdMatch], cost: &'a dyn CostModel },
    /// Score by element deltas against the unified schema. Boxed: the scorer
    /// carries all its precomputed per-element tables.
    Incremental(Box<IncrementalScorer<'a>>),
}

impl Evaluator<'_> {
    fn eval(&self, choices: &[Choice]) -> Option<f64> {
        match self {
            Evaluator::Full { unified, partial, pairs, cost } => {
                let candidate = apply(unified, partial, pairs, choices);
                if candidate.validate().iter().any(|v| v.kind.is_error()) {
                    None
                } else {
                    Some(cost.cost(&candidate))
                }
            }
            Evaluator::Incremental(scorer) => scorer.eval(choices),
        }
    }
}

/// Precomputed per-pair merge results for delta scoring.
struct MergedDimInfo {
    dim: Dimension,
    cost: f64,
    depth: usize,
    has_error: bool,
    /// Merging turns a non-temporal unified dimension temporal, which can
    /// invalidate summarizability of *unchanged* facts linking it.
    temporal_flip: bool,
    /// Partial level name → unified level name, as `apply` would rewire.
    renames: BTreeMap<String, String>,
}

/// Delta scorer: assumes the unified schema is violation-free, so a
/// candidate's violations can only originate in merged or new elements (or
/// in unchanged facts whose linked dimension turned temporal). Costs are the
/// unified totals plus per-element deltas — exact for additive models, and
/// O(partial) per alternative instead of O(unified).
struct IncrementalScorer<'a> {
    unified: &'a MdSchema,
    partial: &'a MdSchema,
    am: &'a dyn AdditiveCostModel,
    fact_pairs: &'a [(usize, usize)],
    dim_pairs: &'a [(usize, usize)],
    base_fact_cost: f64,
    base_dim_cost: f64,
    u_fact_cost: Vec<f64>,
    u_dim_cost: Vec<f64>,
    u_dim_depth: Vec<usize>,
    /// Max depth over unified dimensions not targeted by any pairing.
    base_depth: usize,
    u_dim_by_name: HashMap<&'a str, usize>,
    merged: Vec<MergedDimInfo>,
    /// Per unified fact: all measures tolerate a temporal dimension.
    u_fact_temporal_ok: Vec<bool>,
    /// Per dim pairing: unified facts linking the target dimension.
    linking_facts: Vec<Vec<usize>>,
    /// Per partial dim: standalone violations / cost / depth / pairing.
    p_dim_err: Vec<bool>,
    p_dim_cost: Vec<f64>,
    p_dim_depth: Vec<usize>,
    p_dim_pair: Vec<Option<usize>>,
    /// Per partial fact: pairing position, and whether it is invalid as a
    /// standalone fact (no dims/measures, duplicate measure names).
    p_fact_pair: Vec<Option<usize>>,
    p_fact_err: Vec<bool>,
}

/// Violations of a dimension in isolation (uniqueness of its level names
/// plus the hierarchy checks), exactly as schema validation would flag them.
fn dim_has_errors(d: &Dimension) -> bool {
    let mut probe = MdSchema::new("probe");
    probe.dimensions.push(d.clone());
    probe.validate().iter().any(|v| v.kind.is_error())
}

impl<'a> IncrementalScorer<'a> {
    fn new(
        unified: &'a MdSchema,
        partial: &'a MdSchema,
        pairings: &'a Pairings,
        am: &'a dyn AdditiveCostModel,
    ) -> Self {
        let u_fact_cost: Vec<f64> = unified.facts.iter().map(|f| am.fact_cost(f)).collect();
        let u_dim_cost: Vec<f64> = unified.dimensions.iter().map(|d| am.dimension_cost(d)).collect();
        let u_dim_depth: Vec<usize> = unified.dimensions.iter().map(|d| d.depth()).collect();
        let paired_dims: Vec<usize> = pairings.dimensions.iter().map(|&(_, ui)| ui).collect();
        let base_depth = unified
            .dimensions
            .iter()
            .enumerate()
            .filter(|(ui, _)| !paired_dims.contains(ui))
            .map(|(_, d)| d.depth())
            .max()
            .unwrap_or(0);
        let mut u_dim_by_name: HashMap<&str, usize> = HashMap::new();
        for (ui, ud) in unified.dimensions.iter().enumerate() {
            u_dim_by_name.entry(ud.name.as_str()).or_insert(ui);
        }

        let mut merged = Vec::with_capacity(pairings.dimensions.len());
        let mut linking_facts = Vec::with_capacity(pairings.dimensions.len());
        for &(pi, ui) in &pairings.dimensions {
            let mut dim = unified.dimensions[ui].clone();
            let renames = merge_dimension(&mut dim, &partial.dimensions[pi]);
            linking_facts.push(
                unified
                    .facts
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.links_dimension(&dim.name))
                    .map(|(fi, _)| fi)
                    .collect(),
            );
            merged.push(MergedDimInfo {
                cost: am.dimension_cost(&dim),
                depth: dim.depth(),
                has_error: dim_has_errors(&dim),
                temporal_flip: dim.temporal && !unified.dimensions[ui].temporal,
                renames,
                dim,
            });
        }

        let u_fact_temporal_ok =
            unified.facts.iter().map(|f| f.measures.iter().all(|m| m.additivity.allows(m.default_agg, true))).collect();

        let mut p_dim_pair = vec![None; partial.dimensions.len()];
        for (pos, &(pi, _)) in pairings.dimensions.iter().enumerate() {
            p_dim_pair[pi] = Some(pos);
        }
        let mut p_fact_pair = vec![None; partial.facts.len()];
        for (pos, &(pi, _)) in pairings.facts.iter().enumerate() {
            p_fact_pair[pi] = Some(pos);
        }
        let p_fact_err = partial
            .facts
            .iter()
            .map(|f| {
                f.dimensions.is_empty()
                    || f.measures.is_empty()
                    || f.measures.iter().enumerate().any(|(i, m)| f.measures[..i].iter().any(|o| o.name == m.name))
            })
            .collect();

        IncrementalScorer {
            unified,
            partial,
            am,
            fact_pairs: &pairings.facts,
            dim_pairs: &pairings.dimensions,
            base_fact_cost: u_fact_cost.iter().sum(),
            base_dim_cost: u_dim_cost.iter().sum(),
            u_fact_cost,
            u_dim_cost,
            u_dim_depth,
            base_depth,
            u_dim_by_name,
            merged,
            u_fact_temporal_ok,
            linking_facts,
            p_dim_err: partial.dimensions.iter().map(dim_has_errors).collect(),
            p_dim_cost: partial.dimensions.iter().map(|d| am.dimension_cost(d)).collect(),
            p_dim_depth: partial.dimensions.iter().map(|d| d.depth()).collect(),
            p_dim_pair,
            p_fact_pair,
            p_fact_err,
        }
    }

    fn eval(&self, choices: &[Choice]) -> Option<f64> {
        let kf = self.fact_pairs.len();
        let merged_dim = |pos: usize| choices[kf + pos] == Choice::Merge;

        // Dimensions: unified totals, adjusted per pairing; new dims append.
        let mut cost = self.base_fact_cost + self.base_dim_cost;
        let mut max_depth = self.base_depth;
        for (pos, &(_, ui)) in self.dim_pairs.iter().enumerate() {
            if merged_dim(pos) {
                let m = &self.merged[pos];
                if m.has_error {
                    return None;
                }
                cost += m.cost - self.u_dim_cost[ui];
                max_depth = max_depth.max(m.depth);
            } else {
                max_depth = max_depth.max(self.u_dim_depth[ui]);
            }
        }
        // Kept-separate partial dims enter as new dimensions; track their
        // final (collision-renamed) names so links resolve as in `apply`.
        let mut added_dims: Vec<(usize, String)> = Vec::new();
        for (di, pd) in self.partial.dimensions.iter().enumerate() {
            if self.p_dim_pair[di].is_some_and(&merged_dim) {
                continue;
            }
            if self.p_dim_err[di] {
                return None;
            }
            let mut name = pd.name.clone();
            while self.u_dim_by_name.contains_key(name.as_str()) || added_dims.iter().any(|(_, n)| *n == name) {
                name.push('\'');
            }
            added_dims.push((di, name));
            cost += self.p_dim_cost[di];
            max_depth = max_depth.max(self.p_dim_depth[di]);
        }

        // Link-rewiring context, as `apply` would compute it for this mask.
        let mut dim_targets: BTreeMap<String, String> = BTreeMap::new();
        let mut level_renames: BTreeMap<(String, String), String> = BTreeMap::new();
        for (pos, &(pi, ui)) in self.dim_pairs.iter().enumerate() {
            if merged_dim(pos) {
                let ud_name = &self.unified.dimensions[ui].name;
                dim_targets.insert(self.partial.dimensions[pi].name.clone(), ud_name.clone());
                for (from, to) in &self.merged[pos].renames {
                    level_renames.insert((ud_name.clone(), from.clone()), to.clone());
                }
            }
        }

        // Merged facts: rebuild (O(partial)) and recheck links/summarizability
        // against the candidate dimensions.
        let merged_fact_targets: Vec<usize> = self
            .fact_pairs
            .iter()
            .enumerate()
            .filter(|&(pos, _)| choices[pos] == Choice::Merge)
            .map(|(_, &(_, ui))| ui)
            .collect();
        for (pos, &(pi, ui)) in self.fact_pairs.iter().enumerate() {
            if choices[pos] != Choice::Merge {
                continue;
            }
            let mut f = self.unified.facts[ui].clone();
            merge_fact(&mut f, &self.partial.facts[pi], &dim_targets, &level_renames);
            if !self.fact_ok(&f, choices, kf, &added_dims) {
                return None;
            }
            cost += self.am.fact_cost(&f) - self.u_fact_cost[ui];
        }
        // A dimension turning temporal invalidates non-temporal-safe
        // unchanged facts that link it (merged facts were rechecked above).
        for (pos, _) in self.dim_pairs.iter().enumerate() {
            if merged_dim(pos) && self.merged[pos].temporal_flip {
                for &fi in &self.linking_facts[pos] {
                    if !merged_fact_targets.contains(&fi) && !self.u_fact_temporal_ok[fi] {
                        return None;
                    }
                }
            }
        }
        // New facts: rewire links and check as `apply` + validation would.
        for (pi, pf) in self.partial.facts.iter().enumerate() {
            if self.p_fact_pair[pi].is_some_and(|pos| choices[pos] == Choice::Merge) {
                continue;
            }
            if self.p_fact_err[pi] {
                return None;
            }
            let mut f = pf.clone();
            for link in &mut f.dimensions {
                if let Some(target) = dim_targets.get(&link.dimension) {
                    link.dimension = target.clone();
                }
                if let Some(level) = level_renames.get(&(link.dimension.clone(), link.level.clone())) {
                    link.level = level.clone();
                }
            }
            if !self.fact_ok(&f, choices, kf, &added_dims) {
                return None;
            }
            cost += self.am.fact_cost(&f);
        }

        Some(cost + self.am.depth_term(max_depth))
    }

    /// Candidate-schema view of a dimension by name: unified dimensions
    /// (with the mask's merged overlay) shadow kept-separate partial ones,
    /// matching validation's first-by-name resolution.
    fn resolve_dim(
        &self,
        name: &str,
        choices: &[Choice],
        kf: usize,
        added_dims: &[(usize, String)],
    ) -> Option<&Dimension> {
        if let Some(&ui) = self.u_dim_by_name.get(name) {
            for (pos, &(_, target)) in self.dim_pairs.iter().enumerate() {
                if target == ui && choices[kf + pos] == Choice::Merge {
                    return Some(&self.merged[pos].dim);
                }
            }
            return Some(&self.unified.dimensions[ui]);
        }
        added_dims.iter().find(|(_, n)| n == name).map(|&(di, _)| &self.partial.dimensions[di])
    }

    /// The fact-level checks of schema validation, against this mask's
    /// candidate dimensions.
    fn fact_ok(&self, f: &Fact, choices: &[Choice], kf: usize, added_dims: &[(usize, String)]) -> bool {
        for link in &f.dimensions {
            let Some(d) = self.resolve_dim(&link.dimension, choices, kf, added_dims) else {
                return false;
            };
            if d.level(&link.level).is_none() {
                return false;
            }
            for m in &f.measures {
                if !m.additivity.allows(m.default_agg, d.temporal) {
                    return false;
                }
            }
        }
        true
    }
}

/// Applies one merge/keep decision vector, producing a candidate schema.
fn apply(unified: &MdSchema, partial: &MdSchema, pairs: &[MdMatch], choices: &[Choice]) -> MdSchema {
    let mut out = unified.clone();
    out.name = if unified.name.is_empty() { "unified".to_string() } else { unified.name.clone() };

    let mut fact_targets: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut dim_targets: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    for (pair, choice) in pairs.iter().zip(choices) {
        if *choice != Choice::Merge {
            continue;
        }
        match pair {
            MdMatch::Fact { partial, unified } => {
                fact_targets.insert(partial.clone(), unified.clone());
            }
            MdMatch::Dimension { partial, unified } => {
                dim_targets.insert(partial.clone(), unified.clone());
            }
        }
    }

    // Dimensions first (facts reference them). Collect level renames so
    // fact links can follow merged levels.
    let mut level_renames: std::collections::BTreeMap<(String, String), String> = std::collections::BTreeMap::new();
    for pd in &partial.dimensions {
        match dim_targets.get(&pd.name) {
            Some(target) => {
                let target = target.to_string();
                let ud = out.dimension_mut(&target).expect("pair targets exist in the unified schema");
                for (from, to) in merge_dimension(ud, pd) {
                    level_renames.insert((target.clone(), from), to);
                }
            }
            None => {
                let mut d = pd.clone();
                // Keep names unique when kept separate next to a same-named
                // unified dimension.
                while out.dimension(&d.name).is_some() {
                    d.name.push('\'');
                }
                out.dimensions.push(d);
            }
        }
    }

    for pf in &partial.facts {
        match fact_targets.get(&pf.name) {
            Some(target) => {
                let target = target.to_string();
                let uf = out.fact_mut(&target).expect("pair targets exist in the unified schema");
                merge_fact(uf, pf, &dim_targets, &level_renames);
            }
            None => {
                let mut f = pf.clone();
                while out.fact(&f.name).is_some() {
                    f.name.push('\'');
                }
                // Rewire links to merged dimensions and renamed levels.
                for link in &mut f.dimensions {
                    if let Some(target) = dim_targets.get(&link.dimension) {
                        link.dimension = target.clone();
                    }
                    if let Some(level) = level_renames.get(&(link.dimension.clone(), link.level.clone())) {
                        link.level = level.clone();
                    }
                }
                out.facts.push(f);
            }
        }
    }
    out
}

/// Merges a partial dimension into a unified one: union of levels (matched
/// by name or by ontology concept), attributes (by name), roll-ups (with
/// endpoints rewritten through level matches), satisfier sets. Returns the
/// level renames (partial level name → unified level name) so fact links can
/// be rewired.
fn merge_dimension(unified: &mut Dimension, partial: &Dimension) -> std::collections::BTreeMap<String, String> {
    let mut renames = std::collections::BTreeMap::new();
    unified.satisfies.extend(partial.satisfies.iter().cloned());
    unified.temporal |= partial.temporal;
    for pl in &partial.levels {
        let target = unified
            .levels
            .iter()
            .find(|ul| ul.name == pl.name || (pl.concept.is_some() && ul.concept == pl.concept))
            .map(|ul| ul.name.clone());
        match target {
            Some(t) => {
                if t != pl.name {
                    renames.insert(pl.name.clone(), t.clone());
                }
                let ul = unified.level_mut(&t).expect("target found above");
                ul.satisfies.extend(pl.satisfies.iter().cloned());
                for pa in &pl.attributes {
                    match ul.attributes.iter_mut().find(|a| a.name == pa.name) {
                        Some(ua) => ua.satisfies.extend(pa.satisfies.iter().cloned()),
                        None => ul.attributes.push(pa.clone()),
                    }
                }
            }
            None => unified.levels.push(pl.clone()),
        }
    }
    for pr in &partial.rollups {
        let child = renames.get(&pr.child).unwrap_or(&pr.child).clone();
        let parent = renames.get(&pr.parent).unwrap_or(&pr.parent).clone();
        if !unified.rollups.iter().any(|r| r.child == child && r.parent == parent) {
            let mut rollup = pr.clone();
            rollup.child = child;
            rollup.parent = parent;
            unified.rollups.push(rollup);
        }
    }
    renames
}

/// Merges a partial fact into a unified one.
fn merge_fact(
    unified: &mut Fact,
    partial: &Fact,
    dim_targets: &std::collections::BTreeMap<String, String>,
    level_renames: &std::collections::BTreeMap<(String, String), String>,
) {
    unified.satisfies.extend(partial.satisfies.iter().cloned());
    for pm in &partial.measures {
        match unified.measures.iter_mut().find(|m| m.name == pm.name) {
            Some(um) if um.expression == pm.expression => {
                um.satisfies.extend(pm.satisfies.iter().cloned());
            }
            Some(_) => {
                // Same name, different derivation: keep both, disambiguated.
                let mut renamed = pm.clone();
                while unified.measures.iter().any(|m| m.name == renamed.name) {
                    renamed.name.push('\'');
                }
                unified.measures.push(renamed);
            }
            None => unified.measures.push(pm.clone()),
        }
    }
    for pl in &partial.dimensions {
        let dim_name = dim_targets.get(&pl.dimension).unwrap_or(&pl.dimension).to_string();
        let level = level_renames.get(&(dim_name.clone(), pl.level.clone())).unwrap_or(&pl.level).to_string();
        match unified.dimensions.iter_mut().find(|d| d.dimension == dim_name) {
            Some(ud) => ud.satisfies.extend(pl.satisfies.iter().cloned()),
            None => {
                let mut link = pl.clone();
                link.dimension = dim_name;
                link.level = level;
                unified.dimensions.push(link);
            }
        }
    }
}

/// Convenience: integrate with the paper's default quality factor.
pub fn integrate_md_default(unified: &MdSchema, partial: &MdSchema) -> Result<MdIntegration, IntegrateError> {
    integrate_md(unified, partial, &StructuralComplexity::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_md::{Attribute, DimLink, Level, MdDataType, Measure, OpCountComplexity};

    fn dim(name: &str, concept: &str, attrs: &[&str]) -> Dimension {
        let mut atomic = Level::new(name, format!("{name}ID"), MdDataType::Integer).with_concept(concept);
        for a in attrs {
            atomic.attributes.push(Attribute::new(*a, MdDataType::Text));
        }
        Dimension::new(name, atomic)
    }

    fn schema(req: &str, fact: &str, concept: &str, measure: &str, dims: &[(&str, &str, &[&str])]) -> MdSchema {
        let mut s = MdSchema::new(format!("partial_{req}"));
        for (name, c, attrs) in dims {
            s.dimensions.push(dim(name, c, attrs));
        }
        let mut f = Fact::new(fact);
        f.concept = Some(concept.to_string());
        f.measures.push(Measure::new(measure, format!("expr_{measure}")));
        for (name, _, _) in dims {
            f.dimensions.push(DimLink::new(*name, *name));
        }
        s.facts.push(f);
        s.stamp_requirement(req);
        s
    }

    #[test]
    fn disjoint_schemas_concatenate() {
        let a = schema("IR1", "fact_table_revenue", "Lineitem", "revenue", &[("Part", "Part", &["p_name"])]);
        let b = schema("IR2", "fact_table_stock", "Inventory", "stock", &[("Depot", "Depot", &["d_name"])]);
        let r = integrate_md_default(&a, &b).unwrap();
        assert_eq!(r.schema.facts.len(), 2);
        assert_eq!(r.schema.dimensions.len(), 2);
        assert_eq!(r.report.new_facts, ["fact_table_stock"]);
        assert_eq!(r.report.new_dimensions, ["Depot"]);
        assert!(r.report.matches.is_empty());
    }

    #[test]
    fn same_grain_facts_merge_and_union_measures() {
        let a = schema("IR1", "fact_table_revenue", "Lineitem", "revenue", &[("Part", "Part", &["p_name"])]);
        let b = schema("IR2", "fact_table_quantity", "Lineitem", "quantity", &[("Part", "Part", &["p_brand"])]);
        let r = integrate_md_default(&a, &b).unwrap();
        assert_eq!(r.schema.facts.len(), 1, "same grain merges under structural complexity");
        let f = &r.schema.facts[0];
        assert_eq!(f.measures.len(), 2);
        assert!(f.satisfies.contains("IR1") && f.satisfies.contains("IR2"));
        // Dimension merged too; attributes unioned.
        assert_eq!(r.schema.dimensions.len(), 1);
        let d = r.schema.dimension("Part").unwrap();
        assert!(d.levels[0].attribute("p_name").is_some() && d.levels[0].attribute("p_brand").is_some());
    }

    #[test]
    fn conformed_dimension_is_shared_across_facts() {
        let a = schema("IR1", "fact_table_revenue", "Lineitem", "revenue", &[("Part", "Part", &["p_name"])]);
        let b = schema("IR2", "fact_table_netprofit", "Partsupp", "netprofit", &[("Part", "Part", &["p_name"])]);
        let r = integrate_md_default(&a, &b).unwrap();
        assert_eq!(r.schema.facts.len(), 2, "different grains stay separate facts");
        assert_eq!(r.schema.dimensions.len(), 1, "Part is conformed");
        assert!(r.schema.facts.iter().all(|f| f.links_dimension("Part")));
        let d = r.schema.dimension("Part").unwrap();
        assert!(d.satisfies.contains("IR1") && d.satisfies.contains("IR2"));
    }

    #[test]
    fn dimension_matching_by_concept_handles_renames() {
        let a = schema("IR1", "f1", "Lineitem", "m1", &[("Product", "Part", &["p_name"])]);
        let b = schema("IR2", "f2", "Orders", "m2", &[("Part", "Part", &["p_brand"])]);
        let r = integrate_md_default(&a, &b).unwrap();
        assert_eq!(r.schema.dimensions.len(), 1, "same atomic concept merges despite names");
        assert_eq!(r.schema.dimensions[0].name, "Product", "unified name wins");
        // The new fact's link is rewired to the unified dimension.
        assert!(r.schema.fact("f2").unwrap().links_dimension("Product"));
    }

    #[test]
    fn merged_hierarchies_union_levels_and_rollups() {
        let mut a = schema("IR1", "f1", "Lineitem", "m1", &[("Customer", "Customer", &["c_name"])]);
        let mut b = schema("IR2", "f2", "Lineitem", "m2", &[("Customer", "Customer", &[])]);
        b.dimension_mut("Customer").unwrap().add_level_above(
            "Customer",
            Level::new("Nation", "n_nationkey", MdDataType::Integer).with_concept("Nation"),
        );
        b.stamp_requirement("IR2"); // restamp the added level
        let r = integrate_md_default(&a, &b).unwrap();
        let d = r.schema.dimension("Customer").unwrap();
        assert!(d.level("Nation").is_some());
        assert_eq!(d.rollups.len(), 1);
        assert!(r.schema.is_sound());
        a.facts.clear(); // silence unused-mut lints in some toolchains
        let _ = a;
    }

    #[test]
    fn measure_name_clash_with_different_expression_is_disambiguated() {
        let a = schema("IR1", "f", "Lineitem", "amount", &[("Part", "Part", &[])]);
        let mut b = schema("IR2", "f", "Lineitem", "amount", &[("Part", "Part", &[])]);
        b.facts[0].measures[0].expression = "a_different_expression".into();
        let r = integrate_md_default(&a, &b).unwrap();
        let f = &r.schema.facts[0];
        assert_eq!(f.measures.len(), 2);
        assert!(f.measures.iter().any(|m| m.name == "amount'"));
    }

    #[test]
    fn identical_requirement_is_idempotent() {
        let a = schema("IR1", "f", "Lineitem", "m", &[("Part", "Part", &["p_name"])]);
        let b = schema("IR1", "f", "Lineitem", "m", &[("Part", "Part", &["p_name"])]);
        let r = integrate_md_default(&a, &b).unwrap();
        assert_eq!(r.schema.size(), a.size(), "re-integrating the same design adds nothing");
    }

    #[test]
    fn integration_into_empty_unified_schema() {
        let empty = MdSchema::new("unified");
        let b = schema("IR1", "f", "Lineitem", "m", &[("Part", "Part", &[])]);
        let r = integrate_md_default(&empty, &b).unwrap();
        assert_eq!(r.schema.facts.len(), 1);
        assert_eq!(r.report.new_facts, ["f"]);
    }

    #[test]
    fn cost_model_decides_merge_vs_separate() {
        // Under structural complexity, merging wins; under a degenerate
        // model preferring many elements, both alternatives are evaluated
        // and reported.
        let a = schema("IR1", "fa", "Lineitem", "m1", &[("Part", "Part", &[])]);
        let b = schema("IR2", "fb", "Lineitem", "m2", &[("Part", "Part", &[])]);
        let merged = integrate_md_default(&a, &b).unwrap();
        assert!(merged.report.alternatives_considered >= 4);
        assert_eq!(merged.schema.facts.len(), 1);

        struct Antimodel;
        impl CostModel for Antimodel {
            fn name(&self) -> &str {
                "anti"
            }
            fn cost(&self, s: &MdSchema) -> f64 {
                -(OpCountComplexity.cost(s))
            }
        }
        let separate = integrate_md(&a, &b, &Antimodel).unwrap();
        assert_eq!(separate.schema.facts.len(), 2, "the cost model drives the decision");
    }

    #[test]
    fn five_pairings_score_every_alternative_in_mask_order() {
        // One fact and four dimensions pair up: 2^5 alternatives, all valid,
        // scored on the calling thread. Structural complexity merges all
        // five; whole-schema costing (a model without a decomposition)
        // considers and chooses the same.
        let dims: [(&str, &str, &[&str]); 4] = [
            ("Part", "Part", &["p_name"]),
            ("Supplier", "Supplier", &["s_name"]),
            ("Customer", "Customer", &["c_name"]),
            ("Orders", "Orders", &["o_status"]),
        ];
        let unified = schema("IR1", "fact_sales", "Lineitem", "revenue", &dims);
        let partial = schema("IR2", "fact_quantity", "Lineitem", "quantity", &dims);
        let merged = integrate_md_default(&unified, &partial).unwrap();
        assert_eq!(merged.report.pairings_discovered, 5);
        assert_eq!(merged.report.alternatives_considered, 1 << 5);
        let mut expected = vec![MdMatch::Fact { partial: "fact_quantity".into(), unified: "fact_sales".into() }];
        expected.extend(dims.iter().map(|(d, _, _)| MdMatch::Dimension { partial: (*d).into(), unified: (*d).into() }));
        assert_eq!(merged.report.matches, expected);
        assert_eq!((merged.schema.facts.len(), merged.schema.dimensions.len()), (1, 4));

        struct Whole;
        impl CostModel for Whole {
            fn name(&self) -> &str {
                "whole"
            }
            fn cost(&self, s: &MdSchema) -> f64 {
                StructuralComplexity::new().cost(s)
            }
        }
        let whole = integrate_md(&unified, &partial, &Whole).unwrap();
        assert_eq!(whole.report, merged.report);
    }

    #[test]
    fn colliding_partial_facts_do_not_double_merge() {
        // Two partial facts share the unified fact's grain concept. The old
        // order-dependent `.find` paired both onto it, and the all-merge
        // alternative silently collapsed two distinct partial facts into
        // one. Now only the best-scoring pairing survives; the other partial
        // fact enters the design as a new fact.
        let unified = schema("IR1", "fact_sales", "Lineitem", "revenue", &[("Part", "Part", &[])]);
        let mut partial = schema("IR2", "fact_a", "Lineitem", "m_a", &[("Part", "Part", &[])]);
        let mut fb = Fact::new("fact_b");
        fb.concept = Some("Lineitem".to_string());
        fb.measures.push(quarry_md::Measure::new("m_b", "expr_m_b"));
        fb.dimensions.push(DimLink::new("Part", "Part"));
        partial.facts.push(fb);
        partial.stamp_requirement("IR2");

        let r = integrate_md_default(&unified, &partial).unwrap();
        let fact_merges: Vec<&MdMatch> =
            r.report.matches.iter().filter(|m| matches!(m, MdMatch::Fact { .. })).collect();
        assert_eq!(fact_merges.len(), 1, "only one pairing per unified fact: {:?}", r.report.matches);
        assert_eq!(
            fact_merges[0],
            &MdMatch::Fact { partial: "fact_a".into(), unified: "fact_sales".into() },
            "ties favor the earlier partial element"
        );
        assert_eq!(r.schema.facts.len(), 2, "the losing contender stays a separate fact");
        assert_eq!(r.report.new_facts, ["fact_b"]);
        assert!(r.schema.is_sound());
    }

    #[test]
    fn colliding_partial_dimensions_do_not_double_merge() {
        let unified = schema("IR1", "f1", "Lineitem", "m1", &[("Part", "Part", &["p_name"])]);
        // Two partial dims with the same atomic concept as the unified Part.
        let partial = schema(
            "IR2",
            "f2",
            "Orders",
            "m2",
            &[("Product", "Part", &["p_brand"]), ("Component", "Part", &["p_size"])],
        );
        let r = integrate_md_default(&unified, &partial).unwrap();
        let dim_merges = r.report.matches.iter().filter(|m| matches!(m, MdMatch::Dimension { .. })).count();
        assert!(dim_merges <= 1, "at most one pairing per unified dimension: {:?}", r.report.matches);
        assert_eq!(r.schema.dimensions.len(), 2, "the other contender stays separate");
        assert!(r.schema.is_sound());
    }

    #[test]
    fn report_lists_added_measures_and_levels() {
        let a = schema("IR1", "f", "Lineitem", "m1", &[("Part", "Part", &["p_name"])]);
        let b = schema("IR2", "f", "Lineitem", "m2", &[("Part", "Part", &["p_brand"])]);
        let r = integrate_md_default(&a, &b).unwrap();
        assert!(r.report.added_measures.contains(&("f".into(), "m2".into())));
        assert!(r.report.added_levels.iter().any(|(d, _)| d == "Part"));
        assert!(r.report.cost > 0.0);
    }
}
