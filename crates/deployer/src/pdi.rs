//! Pentaho PDI (Kettle) transformation generation.
//!
//! Emits `.ktr` XML in the shape of the paper's Figure 3 snippet:
//!
//! ```xml
//! <transformation>
//!   <connection>… <database>demo</database> …</connection>
//!   <order>
//!     <hop>
//!       <from>DATASTORE_Partsupp</from>
//!       <to>EXTRACTION_Partsupp</to>
//!       <enabled>Y</enabled>
//!     </hop> …
//!   </order>
//!   <step>
//!     <name>DATASTORE_Partsupp</name>
//!     <type>TableInput</type> …
//!   </step> …
//! </transformation>
//! ```
//!
//! Each logical operation maps to the PDI step type reported by
//! [`quarry_formats::xlm::pdi_optype`] with a per-type configuration block.

use quarry_etl::{AggFn, AggSpec, Flow, OpKind};
use quarry_formats::xlm::pdi_optype;
use quarry_xml::Element;

/// Generates the `.ktr` document for a logical flow. The flow must validate
/// ([`Flow::validate`]): the deployer facade checks that before calling.
pub fn generate_ktr(flow: &Flow, database: &str) -> String {
    let mut root = Element::new("transformation");

    let info = Element::new("info")
        .with_text_child("name", &flow.name)
        .with_text_child("trans_version", "1.0")
        .with_text_child("trans_type", "Normal");
    root.push_child(info);

    let connection = Element::new("connection")
        .with_text_child("name", "quarry")
        .with_text_child("server", "localhost")
        .with_text_child("type", "POSTGRESQL")
        .with_text_child("database", database)
        .with_text_child("port", "5432")
        .with_text_child("username", "quarry");
    root.push_child(connection);

    let mut order = Element::new("order");
    for (from, to) in flow.edges() {
        order.push_child(
            Element::new("hop")
                .with_text_child("from", &flow.op(*from).name)
                .with_text_child("to", &flow.op(*to).name)
                .with_text_child("enabled", "Y"),
        );
    }
    root.push_child(order);

    for op in flow.ops() {
        let mut step =
            Element::new("step").with_text_child("name", &op.name).with_text_child("type", pdi_optype(&op.kind));
        configure_step(&mut step, &op.kind);
        root.push_child(step);
    }

    root.to_pretty_string()
}

/// Per-step-type configuration, following PDI's element vocabulary.
fn configure_step(step: &mut Element, kind: &OpKind) {
    match kind {
        OpKind::Datastore { datastore, schema } => {
            let cols: Vec<&str> = schema.names().collect();
            step.push_child(Element::new("connection").with_text("quarry"));
            step.push_child(Element::new("sql").with_text(format!("SELECT {} FROM {datastore}", cols.join(", "))));
        }
        OpKind::Extraction { columns } | OpKind::Projection { columns } => {
            let mut fields = Element::new("fields");
            for c in columns {
                fields.push_child(Element::new("field").with_text_child("name", c));
            }
            step.push_child(fields);
        }
        OpKind::Selection { predicate } => {
            step.push_child(Element::new("condition").with_text(predicate.to_string()));
        }
        OpKind::Derivation { column, expr } => {
            step.push_child(
                Element::new("calculation")
                    .with_text_child("field_name", column)
                    .with_text_child("formula", expr.to_string()),
            );
        }
        OpKind::Join { kind, left_on, right_on } => {
            step.push_child(Element::new("join_type").with_text(match kind {
                quarry_etl::JoinKind::Inner => "INNER",
                quarry_etl::JoinKind::Left => "LEFT OUTER",
            }));
            let mut keys1 = Element::new("keys_1");
            for k in left_on {
                keys1.push_child(Element::new("key").with_text(k));
            }
            step.push_child(keys1);
            let mut keys2 = Element::new("keys_2");
            for k in right_on {
                keys2.push_child(Element::new("key").with_text(k));
            }
            step.push_child(keys2);
        }
        OpKind::Aggregation { group_by, aggregates } => {
            let mut group = Element::new("group");
            for g in group_by {
                group.push_child(Element::new("field").with_text_child("aggregate", g));
            }
            step.push_child(group);
            let mut fields = Element::new("fields");
            for a in aggregates {
                fields.push_child(
                    Element::new("field")
                        .with_text_child("aggregate", &a.output)
                        .with_text_child("subject", a.input.to_string())
                        .with_text_child("type", pdi_agg_type(a)),
                );
            }
            step.push_child(fields);
        }
        OpKind::Union => {}
        OpKind::Distinct => {
            step.push_child(Element::new("count_rows").with_text("N"));
        }
        OpKind::Sort { columns } => {
            let mut fields = Element::new("fields");
            for c in columns {
                fields.push_child(Element::new("field").with_text_child("name", c).with_text_child("ascending", "Y"));
            }
            step.push_child(fields);
        }
        OpKind::SurrogateKey { natural, output } => {
            step.push_child(Element::new("valuename").with_text(output));
            let mut fields = Element::new("fields");
            for n in natural {
                fields.push_child(Element::new("field").with_text_child("name", n));
            }
            step.push_child(fields);
        }
        OpKind::Loader { table, key } => {
            step.push_child(Element::new("connection").with_text("quarry"));
            step.push_child(Element::new("table").with_text(table));
            step.push_child(Element::new("commit").with_text("1000"));
            if !key.is_empty() {
                // Upsert loaders map to PDI's InsertUpdate lookup keys.
                let mut lookup = Element::new("lookup");
                for k in key {
                    lookup.push_child(Element::new("key").with_text_child("name", k));
                }
                step.push_child(lookup);
            }
        }
    }
}

/// PDI GroupBy aggregate type codes. Generation runs on validated flows, so
/// the function name always parses.
fn pdi_agg_type(spec: &AggSpec) -> &'static str {
    match spec.agg_fn().expect("validated before generation") {
        AggFn::Sum => "SUM",
        AggFn::Avg => "AVERAGE",
        AggFn::Min => "MIN",
        AggFn::Max => "MAX",
        AggFn::Count => "COUNT_ALL",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{parse_expr, AggSpec, ColType, Column, Schema};

    fn flow() -> Flow {
        let mut f = Flow::new("unified");
        let d = f
            .add_op(
                "DATASTORE_Partsupp",
                OpKind::Datastore {
                    datastore: "partsupp".into(),
                    schema: Schema::new(vec![
                        Column::new("ps_partkey", ColType::Integer),
                        Column::new("ps_supplycost", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let e = f
            .append(
                d,
                "EXTRACTION_Partsupp",
                OpKind::Extraction { columns: vec!["ps_partkey".into(), "ps_supplycost".into()] },
            )
            .unwrap();
        let s = f
            .append(e, "SELECTION_cost", OpKind::Selection { predicate: parse_expr("ps_supplycost > 10").unwrap() })
            .unwrap();
        let a = f
            .append(
                s,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["ps_partkey".into()],
                    aggregates: vec![AggSpec::new("AVERAGE", parse_expr("ps_supplycost").unwrap(), "avg_cost")],
                },
            )
            .unwrap();
        f.append(a, "LOADER_fact", OpKind::Loader { table: "fact_table_netprofit".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn ktr_matches_the_paper_snippet_shape() {
        let ktr = generate_ktr(&flow(), "demo");
        for needle in [
            "<transformation>",
            "<database>demo</database>",
            "<order>",
            "<hop>",
            "<from>DATASTORE_Partsupp</from>",
            "<to>EXTRACTION_Partsupp</to>",
            "<enabled>Y</enabled>",
            "<name>DATASTORE_Partsupp</name>",
            "<type>TableInput</type>",
        ] {
            assert!(ktr.contains(needle), "missing `{needle}` in\n{ktr}");
        }
    }

    #[test]
    fn step_types_follow_the_pdi_vocabulary() {
        let ktr = generate_ktr(&flow(), "demo");
        for ty in ["TableInput", "SelectValues", "FilterRows", "GroupBy", "TableOutput"] {
            assert!(ktr.contains(&format!("<type>{ty}</type>")), "missing step type {ty}\n{ktr}");
        }
    }

    #[test]
    fn table_input_embeds_extraction_sql() {
        let ktr = generate_ktr(&flow(), "demo");
        assert!(ktr.contains("SELECT ps_partkey, ps_supplycost FROM partsupp"), "{ktr}");
    }

    #[test]
    fn group_by_carries_aggregate_configuration() {
        let ktr = generate_ktr(&flow(), "demo");
        assert!(ktr.contains("<type>AVERAGE</type>"), "{ktr}");
        assert!(ktr.contains("<subject>ps_supplycost</subject>"), "{ktr}");
    }

    #[test]
    fn generated_ktr_is_well_formed_xml() {
        let ktr = generate_ktr(&flow(), "demo");
        let doc = quarry_xml::parse(&ktr).unwrap();
        assert_eq!(doc.name, "transformation");
        assert_eq!(doc.children_named("step").count(), 5);
        assert_eq!(doc.child("order").unwrap().children_named("hop").count(), 4);
    }

    #[test]
    fn loader_step_targets_its_table() {
        let ktr = generate_ktr(&flow(), "demo");
        assert!(ktr.contains("<table>fact_table_netprofit</table>"));
    }
}
