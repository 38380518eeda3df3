//! Experiment E10: accommodating a DW design to changes (demo scenario 2) —
//! requirements are added, changed and removed; after every step the design
//! satisfies exactly the surviving requirements, stays MD-compliant and
//! executable.

use quarry::{Quarry, QuarryError};
use quarry_formats::{MeasureSpec, Requirement, Slicer};

fn req(id: &str, measure: (&str, &str), dims: &[&str]) -> Requirement {
    let mut r = Requirement::new(id);
    r.measures.push(MeasureSpec { id: measure.0.into(), function: measure.1.into() });
    r.dimensions.extend(dims.iter().map(|d| d.to_string()));
    r
}

fn family() -> Vec<Requirement> {
    vec![
        req(
            "IR1",
            ("revenue", "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)"),
            &["Part_p_nameATRIBUT", "Supplier_s_nameATRIBUT"],
        ),
        req("IR2", ("quantity", "Lineitem_l_quantityATRIBUT"), &["Part_p_nameATRIBUT"]),
        req(
            "IR3",
            ("netprofit", "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT"),
            &["Supplier_s_nameATRIBUT"],
        ),
        req("IR4", ("balance", "Customer_c_acctbalATRIBUT"), &["Customer_c_mktsegmentATRIBUT", "Nation_n_nameATRIBUT"]),
    ]
}

#[test]
fn removal_prunes_exactly_the_exclusive_elements() {
    let mut quarry = Quarry::tpch();
    for r in family() {
        quarry.add_requirement(r).expect("family integrates");
    }
    let (md_before, etl_before) = {
        let (m, e) = quarry.unified();
        (m.clone(), e.clone())
    };

    quarry.remove_requirement("IR4").expect("IR4 exists");
    let (md, etl) = quarry.unified();

    // IR4's private dimension is gone, shared elements survive.
    assert!(md.dimension("Customer").is_none());
    assert!(md.dimension("Part").is_some());
    assert!(md.dimension("Supplier").is_some());
    assert!(etl.op_count() < etl_before.op_count());
    assert!(!etl.ops().any(|o| o.satisfies.contains("IR4")));
    assert!(md.is_sound());
    etl.validate().expect("still valid");

    // Satisfied set is exactly {IR1, IR2, IR3}.
    let satisfied = md.satisfied_requirements();
    assert_eq!(satisfied.iter().map(String::as_str).collect::<Vec<_>>(), ["IR1", "IR2", "IR3"]);
    drop(md_before);
}

#[test]
fn readding_a_removed_requirement_restores_satisfaction() {
    let mut quarry = Quarry::tpch();
    for r in family() {
        quarry.add_requirement(r).expect("integrates");
    }
    quarry.remove_requirement("IR2").expect("exists");
    assert!(!quarry.unified().0.satisfied_requirements().contains("IR2"));
    quarry.add_requirement(family().remove(1)).expect("re-integrates");
    assert!(quarry.unified().0.satisfied_requirements().contains("IR2"));
    assert!(quarry.unified().0.is_sound());
}

#[test]
fn change_narrows_a_requirement_with_a_new_slicer() {
    let mut quarry = Quarry::tpch();
    for r in family() {
        quarry.add_requirement(r).expect("integrates");
    }
    let mut narrowed = family().remove(0);
    narrowed.slicers.push(Slicer {
        concept: "Nation_n_nameATRIBUT".into(),
        operator: "=".into(),
        value: "Spain".into(),
    });
    quarry.change_requirement(narrowed).expect("change integrates");
    let (_, etl) = quarry.unified();
    assert!(
        etl.ops().any(|o| matches!(
            &o.kind,
            quarry_etl::OpKind::Selection { predicate } if predicate.to_string().contains("Spain")
        )),
        "the new slicer materialized as a selection"
    );
    // All four requirements still satisfied.
    assert_eq!(quarry.requirement_ids().len(), 4);
}

#[test]
fn every_intermediate_design_executes() {
    let mut quarry = Quarry::tpch();
    let catalog = quarry_engine::tpch::generate(0.002, 99);
    for r in family() {
        quarry.add_requirement(r).expect("integrates");
        let (_, report) = quarry.run_etl(catalog.clone()).expect("intermediate design runs");
        assert!(report.rows_processed > 0);
    }
    for id in ["IR1", "IR3"] {
        quarry.remove_requirement(id).expect("exists");
        let (_, report) = quarry.run_etl(catalog.clone()).expect("post-removal design runs");
        assert!(report.rows_processed > 0);
    }
}

#[test]
fn lifecycle_errors_leave_the_design_untouched() {
    let mut quarry = Quarry::tpch();
    quarry.add_requirement(family().remove(0)).expect("integrates");
    let before = quarry.unified().0.clone();

    // Unknown removal.
    assert!(matches!(quarry.remove_requirement("IRX"), Err(QuarryError::UnknownRequirement(_))));
    // Duplicate addition.
    assert!(matches!(quarry.add_requirement(family().remove(0)), Err(QuarryError::DuplicateRequirement(_))));
    // Invalid new requirement.
    let mut bad = req("IR9", ("m", "Ghost_xATRIBUT"), &["Part_p_nameATRIBUT"]);
    bad.id = "IR9".into();
    assert!(matches!(quarry.add_requirement(bad), Err(QuarryError::Interpret(_))));

    assert_eq!(*quarry.unified().0, before);
}

#[test]
fn repository_versions_grow_with_every_step() {
    let mut quarry = Quarry::tpch();
    for r in family() {
        quarry.add_requirement(r).expect("integrates");
    }
    quarry.remove_requirement("IR1").expect("exists");
    let history = quarry.repository().history(quarry_repository::ArtifactKind::MdSchema, "unified").unwrap();
    assert_eq!(history.len(), 5, "four additions + one removal");
    // The last version no longer carries IR1's measure (the merged fact's
    // *name* is sticky — it was named after the first head measure — but
    // the revenue measure itself is pruned).
    let last = quarry_formats::xmd::parse(&history.last().expect("non-empty").content).expect("stored xMD parses");
    assert!(last.facts.iter().all(|f| f.measure("revenue").is_none()), "revenue measure must be pruned");
    assert!(!last.satisfied_requirements().contains("IR1"));
}
