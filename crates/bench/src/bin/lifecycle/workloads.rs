//! The four workloads and their seeded input generators.
//!
//! The generators are owned by this directory on purpose: they are seeded
//! copies of `quarry_bench::{high_overlap_family, requirement_family}`, not
//! imports, so no later change to product or shared-library code can move a
//! workload. `expected_inputs.json` pins what they (and the TPC-H generator)
//! produce for the default seed.
//!
//! Every workload runs the same protocol (see `protocol.rs`); a workload is a
//! point in the space of inputs the system's behaviour depends on: how much
//! work the requirements share, how many there are, how much data the flow
//! moves, and how the working set compares with the result-cache budget.

use quarry_engine::{tpch::NATIONS, Catalog, Value};
use quarry_formats::{MeasureSpec, Requirement, Slicer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Identical dimensions and slicer, different measures: each requirement
    /// reuses the whole extract/join spine and adds a thin tail.
    HighOverlap,
    /// Measures, dimension pairs and slicers rotate: wide flow, little reuse.
    LowOverlap,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    /// Requirements added over the session.
    pub n: usize,
    /// TPC-H scale factor of the source catalog.
    pub sf: f64,
    pub cache_budget_bytes: usize,
    /// Refresh cycles per checkpoint: more where a cycle is short beside the
    /// session around it, so a run still samples every execution metric
    /// often enough for its fastest sample to be an undisturbed one.
    pub refresh_cycles: usize,
    /// Warm runs between a cycle's cold run and its source-epoch bump.
    pub warm_runs: usize,
    /// `optimizer.budget_ms` of the instance's configuration.
    pub optimizer_budget_ms: u64,
}

/// The optimizer's wall-clock safety valve, raised far above what the search
/// needs (~0.25 s on the reference box, where the product default of 250 ms
/// would cut it short on some passes and not others): the search then always
/// runs its full, seeded schedule, so `optimize_s` measures a fixed amount
/// of work and every pass executes the same optimized flow.
pub const OPTIMIZER_BUDGET_MS: u64 = 10_000;

/// Requirements integrated before the execution checkpoint, and the period
/// of the session's maintenance block (change, remove, deploy).
pub const BLOCK: usize = 8;

/// Sizes come from probes on the 2-core / 15 GB reference container: every
/// cold execute at the stated scale factor is at least 60 ms (30x the old
/// gates' 2 ms), and a pass is short enough that a 20 s run holds at least
/// twelve of them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "demo-high-overlap",
        why: "paper demo: 8 requirements on one join spine; the optimizer is ~60% of a pass, the cache fits trivially",
        family: Family::HighOverlap,
        n: 8,
        sf: 0.25,
        cache_budget_bytes: 256 << 20,
        refresh_cycles: 1,
        warm_runs: 5,
        optimizer_budget_ms: OPTIMIZER_BUDGET_MS,
    },
    Workload {
        name: "wide-low-overlap",
        why: "8 requirements sharing little: a wide flow whose engine time is >70% of a pass; cached working set fits",
        family: Family::LowOverlap,
        n: 8,
        sf: 0.05,
        cache_budget_bytes: 256 << 20,
        refresh_cycles: 1,
        warm_runs: 1,
        optimizer_budget_ms: OPTIMIZER_BUDGET_MS,
    },
    Workload {
        name: "refresh-under-budget",
        why: "wide-low-overlap with a cache budget ~5x below the working set: admission and eviction beside reads",
        family: Family::LowOverlap,
        n: 8,
        sf: 0.05,
        cache_budget_bytes: 8 << 20,
        refresh_cycles: 1,
        warm_runs: 1,
        optimizer_budget_ms: OPTIMIZER_BUDGET_MS,
    },
    Workload {
        name: "design-session",
        why: "64-requirement durable design session on tiny data: formats, integrator, repository WAL and recovery dominate",
        family: Family::LowOverlap,
        n: 64,
        sf: 0.01,
        cache_budget_bytes: 256 << 20,
        refresh_cycles: 3,
        warm_runs: 1,
        optimizer_budget_ms: OPTIMIZER_BUDGET_MS,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` variant: tiny data, a session of two blocks, and an
    /// optimizer cut off after a few milliseconds (an unoptimized build runs
    /// the full search for seconds; any prefix of it still yields a flow
    /// whose warehouse is bit-identical, which is all the smoke run checks).
    pub fn quick(&self) -> Workload {
        Workload {
            sf: 0.002,
            n: self.n.min(2 * BLOCK),
            cache_budget_bytes: self.cache_budget_bytes.min(1 << 20),
            optimizer_budget_ms: 20,
            ..*self
        }
    }
}

/// The nation the family's slicers select, taken from the generated data:
/// the one whose supplier and customer counts are nearest the expected 1/25
/// share. The generator draws nation keys at random, so a fixed name would
/// select 100 +/- 10 suppliers at sf = 0.25 and everything downstream of the
/// slicer would do 10% more or less work from one seed to the next; with the
/// calibrated choice every seed selects the same share of its own data, and
/// runs with different seeds measure the same amount of work.
pub fn slicer_nation(catalog: &Catalog) -> &'static str {
    // Per nation: how far its share of the table's rows is from 1/25.
    let share_off = |table: &str, column: &str| -> Vec<f64> {
        let keys = catalog.get(table).map(|t| t.column_values(column)).unwrap_or_default();
        let mut hits = [0usize; NATIONS.len()];
        for key in &keys {
            if let Value::Int(k) = key {
                hits[(*k as usize).min(NATIONS.len() - 1)] += 1;
            }
        }
        hits.iter().map(|&h| (h as f64 * NATIONS.len() as f64 / keys.len().max(1) as f64 - 1.0).abs()).collect()
    };
    let (suppliers, customers) = (share_off("supplier", "s_nationkey"), share_off("customer", "c_nationkey"));
    let off = |nation: usize| suppliers[nation] + customers[nation];
    let best = (0..NATIONS.len()).min_by(|a, b| off(*a).total_cmp(&off(*b))).expect("25 nations");
    NATIONS[best].0
}

fn requirement(id: String, measure: (String, &str), dims: &[&str], slicer: Option<(&str, &str, &str)>) -> Requirement {
    let mut r = Requirement::new(id);
    r.measures.push(MeasureSpec { id: measure.0, function: measure.1.into() });
    r.dimensions.extend(dims.iter().map(|d| d.to_string()));
    if let Some((concept, op, value)) = slicer {
        r.slicers.push(Slicer { concept: concept.into(), operator: op.into(), value: value.into() });
    }
    r
}

/// The requirement family. The *shape* (which measure, dimensions and slicer
/// kind requirement `i` has) is fixed, so every seed yields the same design
/// structure and `md_complexity` is comparable across seeds; the seed reaches
/// the documents through `nation` (see [`slicer_nation`]) and, through the
/// catalog, every row the flow touches.
pub fn family(family: Family, n: usize, nation: &str) -> Vec<Requirement> {
    match family {
        Family::HighOverlap => {
            let measures = [
                ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
                ("gross", "Lineitem_l_extendedpriceATRIBUT"),
                ("taxed", "Lineitem_l_extendedpriceATRIBUT * (1 + Lineitem_l_taxATRIBUT)"),
                ("quantity", "Lineitem_l_quantityATRIBUT"),
                ("discounted", "Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT"),
                ("volume", "Lineitem_l_quantityATRIBUT * Lineitem_l_extendedpriceATRIBUT"),
                ("net", "Lineitem_l_extendedpriceATRIBUT - Lineitem_l_taxATRIBUT"),
                ("spread", "Lineitem_l_extendedpriceATRIBUT / (1 + Lineitem_l_taxATRIBUT)"),
            ];
            (0..n)
                .map(|i| {
                    let (name, expr) = measures[i % measures.len()];
                    requirement(
                        format!("IR{i}"),
                        (format!("{name}_{i}"), expr),
                        &["Part_p_nameATRIBUT", "Supplier_s_nameATRIBUT"],
                        Some(("Nation_n_nameATRIBUT", "=", nation)),
                    )
                })
                .collect()
        }
        Family::LowOverlap => {
            let measures = [
                ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
                ("quantity", "Lineitem_l_quantityATRIBUT"),
                ("gross", "Lineitem_l_extendedpriceATRIBUT"),
                ("taxed", "Lineitem_l_extendedpriceATRIBUT * (1 + Lineitem_l_taxATRIBUT)"),
                ("netprofit", "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT"),
            ];
            let dims = [
                "Part_p_nameATRIBUT",
                "Supplier_s_nameATRIBUT",
                "Customer_c_mktsegmentATRIBUT",
                "Orders_o_orderpriorityATRIBUT",
                "Part_p_brandATRIBUT",
                "Nation_n_nameATRIBUT",
            ];
            let slicers = [("Nation_n_nameATRIBUT", "=", nation), ("Lineitem_l_quantityATRIBUT", ">", "10")];
            (0..n)
                .map(|i| {
                    let (name, expr) = measures[i % measures.len()];
                    requirement(
                        format!("IR{i}"),
                        (format!("{name}_{i}"), expr),
                        &[dims[i % dims.len()], dims[(i + 2) % dims.len()]],
                        (i % 3 == 0).then(|| slicers[i % slicers.len()]),
                    )
                })
                .collect()
        }
    }
}

/// One step of the scripted design session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `AddRequirement` with `Script::docs[i]`.
    Add(usize),
    /// Optimize, deploy and run the refresh cycle on the design so far.
    Checkpoint,
    /// `ChangeRequirement` with `Script::changes[i]`.
    Change(usize),
    Remove(String),
    Deploy,
}

/// The session a designer drives: xRQ text in, one request at a time.
#[derive(Debug, Clone)]
pub struct Script {
    pub docs: Vec<String>,
    pub changes: Vec<String>,
    pub steps: Vec<Step>,
    /// Bytes of xRQ text the session submits (adds and changes).
    pub user_bytes: usize,
}

/// `n` adds; the execution checkpoint right after the first [`BLOCK`] of
/// them; after every `BLOCK`th add one change (an earlier requirement with
/// its dimensions reversed and its slicer dropped), one removal and one
/// deploy request. Changed and removed requirements are distinct and never
/// touched again, so no request of the script can fail.
pub fn script(w: &Workload, nation: &str) -> Script {
    let reqs = family(w.family, w.n, nation);
    let mut s = Script { docs: Vec::new(), changes: Vec::new(), steps: Vec::new(), user_bytes: 0 };
    for (i, r) in reqs.iter().enumerate() {
        s.docs.push(r.to_string_pretty());
        s.steps.push(Step::Add(i));
        if i + 1 == BLOCK {
            s.steps.push(Step::Checkpoint);
        }
        if (i + 1) % BLOCK == 0 {
            let mut changed = reqs[i - 5].clone();
            changed.dimensions.reverse();
            changed.slicers.clear();
            s.changes.push(changed.to_string_pretty());
            s.steps.push(Step::Change(s.changes.len() - 1));
            s.steps.push(Step::Remove(reqs[i - 2].id.clone()));
            s.steps.push(Step::Deploy);
        }
    }
    s.user_bytes = s.docs.iter().chain(&s.changes).map(String::len).sum();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry::Quarry;

    #[test]
    fn names_are_unique_and_fixed() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ["demo-high-overlap", "wide-low-overlap", "refresh-under-budget", "design-session"]);
        assert!(find("design-session").is_some() && find("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_and_the_nation_comes_from_the_data() {
        let (a, b) = (quarry_engine::tpch::generate(0.01, 5), quarry_engine::tpch::generate(0.01, 5));
        assert_eq!(slicer_nation(&a), slicer_nation(&b));
        let w = &WORKLOADS[3];
        assert_eq!(script(w, slicer_nation(&a)).docs, script(w, slicer_nation(&b)).docs);
        assert!(NATIONS.iter().any(|(n, _)| *n == slicer_nation(&a)));
        assert!(script(w, "Spain").docs[0].contains("Spain") && script(w, "Kenya").docs != script(w, "Spain").docs);
        // The calibrated nation holds close to 1/25 of the suppliers.
        let keys = a.get("supplier").unwrap().column_values("s_nationkey");
        let nation = NATIONS.iter().position(|(n, _)| *n == slicer_nation(&a)).unwrap() as i64;
        let hits = keys.iter().filter(|k| **k == Value::Int(nation)).count();
        assert!((hits as f64 * 25.0 / keys.len() as f64 - 1.0).abs() < 0.35, "{hits} of {}", keys.len());
    }

    #[test]
    fn script_shape() {
        let s = script(&WORKLOADS[3], "Spain");
        assert_eq!(s.steps.len(), 64 + 1 + 3 * 8);
        assert_eq!(s.steps[8], Step::Checkpoint);
        assert_eq!(s.steps[9..12], [Step::Change(0), Step::Remove("IR5".into()), Step::Deploy]);
        let s = script(&WORKLOADS[0], "Spain");
        assert_eq!(s.steps.len(), 8 + 1 + 3);
        assert_eq!(s.user_bytes, s.docs.iter().chain(&s.changes).map(String::len).sum::<usize>());
        assert_eq!(s.steps.iter().filter(|s| **s == Step::Checkpoint).count(), 1);
    }

    /// Seeds 0..8 (and the default 42) all produce MD-compliant families: a
    /// block of each family integrates without a rejected requirement.
    #[test]
    fn families_are_md_compliant_for_seeds_0_to_8() {
        for seed in (0..9).chain([42]) {
            let nation = slicer_nation(&quarry_engine::tpch::generate(0.002, seed));
            for f in [Family::HighOverlap, Family::LowOverlap] {
                let mut q = Quarry::tpch();
                for r in family(f, BLOCK, nation) {
                    let id = r.id.clone();
                    q.add_requirement(r).unwrap_or_else(|e| panic!("{f:?} seed {seed} ({nation}) {id}: {e}"));
                }
                assert!(q.unified().0.is_sound(), "{f:?} seed {seed}");
                q.unified().1.validate().expect("unified flow validates");
            }
        }
    }
}
