//! Experiment E5: the paper's Figure 3 deployment — the unified design over
//! Partsupp and Orders becomes PostgreSQL DDL with the exact snippet shape
//! (`fact_table_revenue (Partsupp_PartsuppID BIGINT …, PRIMARY
//! KEY(Partsupp_PartsuppID, Orders_OrdersID))`) plus a Pentaho PDI
//! transformation.

use quarry::Quarry;
use quarry_formats::{MeasureSpec, Requirement};

fn figure3_quarry() -> Quarry {
    let mut quarry = Quarry::tpch();
    let mut revenue = Requirement::new("IR1");
    revenue.measures.push(MeasureSpec {
        id: "revenue".into(),
        function: "Lineitem_l_extendedpriceATRIBUT * (1 - Lineitem_l_discountATRIBUT)".into(),
    });
    revenue.dimensions.push("Partsupp_ps_availqtyATRIBUT".into());
    revenue.dimensions.push("Orders_o_orderdateATRIBUT".into());
    quarry.add_requirement(revenue).expect("IR1 integrates");

    let mut netprofit = Requirement::new("IR2");
    netprofit.measures.push(MeasureSpec {
        id: "netprofit".into(),
        function: "Orders_o_totalpriceATRIBUT - Partsupp_ps_supplycostATRIBUT".into(),
    });
    netprofit.dimensions.push("Partsupp_ps_availqtyATRIBUT".into());
    netprofit.dimensions.push("Orders_o_orderdateATRIBUT".into());
    quarry.add_requirement(netprofit).expect("IR2 integrates");
    quarry
}

#[test]
fn ddl_reproduces_the_figure3_snippet() {
    let quarry = figure3_quarry();
    let artifacts = quarry.deploy("postgres-pdi").expect("design deploys");
    let sql = artifacts.file("schema.sql").expect("DDL present");

    // The paper's fact shape, verbatim elements.
    assert!(sql.contains("CREATE DATABASE demo;"), "{sql}");
    assert!(sql.contains("CREATE TABLE fact_table_revenue ("), "{sql}");
    assert!(sql.contains("Partsupp_PartsuppID BIGINT"), "{sql}");
    assert!(sql.contains("Orders_OrdersID BIGINT"), "{sql}");
    assert!(sql.contains("revenue double precision"), "{sql}");
    assert!(
        sql.contains("PRIMARY KEY( Orders_OrdersID, Partsupp_PartsuppID )")
            || sql.contains("PRIMARY KEY( Partsupp_PartsuppID, Orders_OrdersID )"),
        "composite PK over both FKs: {sql}"
    );
    // The netprofit measure landed too (Figure 3 shows both facts).
    assert!(sql.contains("netprofit double precision"), "{sql}");
}

#[test]
fn ktr_reproduces_the_figure3_snippet() {
    let quarry = figure3_quarry();
    let artifacts = quarry.deploy("postgres-pdi").expect("design deploys");
    let ktr = artifacts.file("unified.ktr").expect("KTR present");
    for needle in [
        "<transformation>",
        "<database>demo</database>",
        "<hop>",
        "<from>DATASTORE_Partsupp</from>",
        "<to>EXTRACTION_Partsupp</to>",
        "<enabled>Y</enabled>",
        "<name>DATASTORE_Partsupp</name>",
        "<type>TableInput</type>",
    ] {
        assert!(ktr.contains(needle), "missing `{needle}` in the KTR");
    }
    quarry_xml::parse(ktr).expect("KTR is well-formed XML");
}

#[test]
fn deployment_is_recorded_in_the_metadata_repository() {
    let quarry = figure3_quarry();
    quarry.deploy("postgres-pdi").expect("deploys");
    let repo = quarry.repository();
    let stored = repo.latest(quarry_repository::ArtifactKind::Deployment, "postgres-pdi/schema.sql").expect("recorded");
    assert!(stored.content.contains("fact_table_revenue"));
    // Deploying twice versions the artifacts.
    quarry.deploy("postgres-pdi").expect("deploys again");
    assert_eq!(repo.history(quarry_repository::ArtifactKind::Deployment, "postgres-pdi/schema.sql").unwrap().len(), 2);
}

#[test]
fn generated_ddl_and_engine_layout_agree_on_the_fact_table() {
    let quarry = figure3_quarry();
    let artifacts = quarry.deploy("postgres-pdi").expect("deploys");
    let sql = artifacts.file("schema.sql").expect("present");
    let (engine, _) = quarry.run_etl(quarry_engine::tpch::generate(0.002, 42)).expect("runs");
    let fact = engine.catalog.get("fact_table_revenue").expect("loaded");
    for col in fact.schema.names() {
        assert!(sql.contains(col), "engine column `{col}` must appear in the DDL");
    }
}
