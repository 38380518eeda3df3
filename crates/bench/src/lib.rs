//! Shared workload builders for the Quarry benchmark harness.
//!
//! Every bench target regenerates one experiment of DESIGN.md's per-figure /
//! per-scenario index (E1–E10); this crate holds the requirement families
//! and domain builders they share, and [`at_width`], the pool-width lock of
//! the equivalence suites. Bench mains first *print* the experiment's
//! series (the rows EXPERIMENTS.md records), then run the Criterion timing
//! groups.

#![forbid(unsafe_code)]

use quarry::Quarry;
use quarry_formats::{MeasureSpec, Requirement, Slicer};
use std::sync::Mutex;

/// A compact builder for TPC-H requirements.
pub fn requirement(id: &str, measure: (&str, &str), dims: &[&str], slicer: Option<(&str, &str, &str)>) -> Requirement {
    let mut r = Requirement::new(id);
    r.measures.push(MeasureSpec { id: measure.0.into(), function: measure.1.into() });
    r.dimensions.extend(dims.iter().map(|d| d.to_string()));
    if let Some((concept, op, value)) = slicer {
        r.slicers.push(Slicer { concept: concept.into(), operator: op.into(), value: value.into() });
    }
    r
}

/// A family of `n` distinct, MD-compliant TPC-H requirements with realistic
/// overlap: measures rotate over Lineitem-grain quantities, dimension pairs
/// rotate over shared contexts, every third requirement carries a slicer.
pub fn requirement_family(n: usize) -> Vec<Requirement> {
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
    let slicers = [("Nation_n_nameATRIBUT", "=", "Spain"), ("Lineitem_l_quantityATRIBUT", ">", "10")];
    (0..n)
        .map(|i| {
            let (mname, mexpr) = measures[i % measures.len()];
            let slicer = (i % 3 == 0).then(|| slicers[i % slicers.len()]);
            requirement(
                &format!("IR{i}"),
                (&format!("{mname}_{i}"), mexpr),
                &[dims[i % dims.len()], dims[(i + 2) % dims.len()]],
                slicer,
            )
        })
        .collect()
}

/// A TPC-H Quarry instance with `n` integrated requirements.
pub fn quarry_with(n: usize) -> Quarry {
    let mut q = Quarry::tpch();
    for r in requirement_family(n) {
        q.add_requirement(r).expect("the family is MD-compliant");
    }
    q
}

/// A family of `n` requirements with *high* mutual overlap: identical
/// analysis dimensions and slicer, different measures — the demo's
/// "accommodating changes" shape, where each new requirement reuses almost
/// the whole existing flow (extraction, joins, keys) and adds only its
/// derivation + aggregation + loader.
pub fn high_overlap_family(n: usize) -> Vec<Requirement> {
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
            let (mname, mexpr) = measures[i % measures.len()];
            requirement(
                &format!("IR{i}"),
                (&format!("{mname}_{i}"), mexpr),
                &["Part_p_nameATRIBUT", "Supplier_s_nameATRIBUT"],
                Some(("Nation_n_nameATRIBUT", "=", "Spain")),
            )
        })
        .collect()
}

/// Runs `f` with the engine pool pinned to `threads`. The width is
/// process-wide and the tests of one binary run concurrently, so every test
/// that pins it goes through here, one at a time; without the lock a
/// "4 threads" leg could run at another test's width.
pub fn at_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static WIDTH: Mutex<()> = Mutex::new(());
    let _pinned = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    quarry_engine::pool::set_threads(threads);
    let out = f();
    quarry_engine::pool::set_threads(0); // restore auto-detection
    out
}

/// The Figure 3 pair: revenue + netprofit over conformed Partsupp/Orders.
pub fn figure3_pair() -> (Requirement, Requirement) {
    (
        requirement(
            "IR1",
            ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
            &["Partsupp_ps_availqtyATRIBUT", "Orders_o_orderdateATRIBUT"],
            None,
        ),
        requirement(
            "IR2",
            ("netprofit", "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT"),
            &["Partsupp_ps_availqtyATRIBUT", "Orders_o_orderdateATRIBUT"],
            None,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_valid_at_every_benchmarked_size() {
        for n in [1, 4, 16, 32] {
            let q = quarry_with(n);
            assert_eq!(q.requirement_ids().len(), n);
            assert!(q.unified().0.is_sound());
            q.unified().1.validate().expect("unified flow validates");
        }
    }

    #[test]
    fn figure3_pair_integrates() {
        let (a, b) = figure3_pair();
        let mut q = Quarry::tpch();
        q.add_requirement(a).expect("IR1");
        q.add_requirement(b).expect("IR2");
    }
}
