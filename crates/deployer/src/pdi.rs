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

use crate::DeployError;
use quarry_etl::{AggFn, AggSpec, Flow, JoinKind, OpKind};
use quarry_formats::xlm::pdi_optype;
use quarry_xml::XmlWriter;

/// Generates the `.ktr` document for a logical flow. Only what the document
/// itself depends on is checked here (aggregate function names); the
/// deployer facade runs the full [`Flow::validate`] first.
pub fn generate_ktr(flow: &Flow, database: &str) -> Result<String, DeployError> {
    let mut w = XmlWriter::pretty();
    w.open("transformation");

    w.open("info");
    w.leaf("name", &flow.name);
    w.leaf("trans_version", "1.0");
    w.leaf("trans_type", "Normal");
    w.close();

    w.open("connection");
    w.leaf("name", "quarry");
    w.leaf("server", "localhost");
    w.leaf("type", "POSTGRESQL");
    w.leaf("database", database);
    w.leaf("port", "5432");
    w.leaf("username", "quarry");
    w.close();

    w.open("order");
    for (from, to) in flow.edges() {
        w.open("hop");
        w.leaf("from", &flow.op(*from).name);
        w.leaf("to", &flow.op(*to).name);
        w.leaf("enabled", "Y");
        w.close();
    }
    w.close();

    for op in flow.ops() {
        w.open("step");
        w.leaf("name", &op.name);
        w.leaf("type", pdi_optype(&op.kind));
        configure_step(&mut w, &op.name, &op.kind)?;
        w.close();
    }

    w.close();
    Ok(w.finish())
}

/// `<tag><item><name>value</name></item>…</tag>`: PDI's field-list shape.
fn write_fields(w: &mut XmlWriter<'_>, tag: &'static str, item: &'static str, name: &'static str, values: &[String]) {
    w.open(tag);
    for v in values {
        w.open(item);
        w.leaf(name, v);
        w.close();
    }
    w.close();
}

/// Per-step-type configuration, following PDI's element vocabulary.
fn configure_step(w: &mut XmlWriter<'_>, op: &str, kind: &OpKind) -> Result<(), DeployError> {
    match kind {
        OpKind::Datastore { datastore, schema } => {
            w.leaf("connection", "quarry");
            let cols: Vec<&str> = schema.names().collect();
            w.leaf("sql", format_args!("SELECT {} FROM {datastore}", cols.join(", ")));
        }
        OpKind::Extraction { columns } | OpKind::Projection { columns } => {
            write_fields(w, "fields", "field", "name", columns);
        }
        OpKind::Selection { predicate } => w.leaf("condition", format_args!("{predicate}")),
        OpKind::Derivation { column, expr } => {
            w.open("calculation");
            w.leaf("field_name", column);
            w.leaf("formula", format_args!("{expr}"));
            w.close();
        }
        OpKind::Join { kind, left_on, right_on } => {
            w.leaf(
                "join_type",
                match kind {
                    JoinKind::Inner => "INNER",
                    JoinKind::Left => "LEFT OUTER",
                },
            );
            for (tag, keys) in [("keys_1", left_on), ("keys_2", right_on)] {
                w.open(tag);
                for k in keys {
                    w.leaf("key", k);
                }
                w.close();
            }
        }
        OpKind::Aggregation { group_by, aggregates } => {
            write_fields(w, "group", "field", "aggregate", group_by);
            w.open("fields");
            for a in aggregates {
                w.open("field");
                w.leaf("aggregate", &a.output);
                w.leaf("subject", format_args!("{}", a.input));
                w.leaf("type", pdi_agg_type(op, a)?);
                w.close();
            }
            w.close();
        }
        OpKind::Union => {}
        OpKind::Distinct => w.leaf("count_rows", "N"),
        OpKind::Sort { columns } => {
            w.open("fields");
            for c in columns {
                w.open("field");
                w.leaf("name", c);
                w.leaf("ascending", "Y");
                w.close();
            }
            w.close();
        }
        OpKind::SurrogateKey { natural, output } => {
            w.leaf("valuename", output);
            write_fields(w, "fields", "field", "name", natural);
        }
        OpKind::Loader { table, key } => {
            w.leaf("connection", "quarry");
            w.leaf("table", table);
            w.leaf("commit", "1000");
            if !key.is_empty() {
                // Upsert loaders map to PDI's InsertUpdate lookup keys.
                write_fields(w, "lookup", "key", "name", key);
            }
        }
    }
    Ok(())
}

/// PDI GroupBy aggregate type codes.
fn pdi_agg_type(op: &str, spec: &AggSpec) -> Result<&'static str, DeployError> {
    Ok(match spec.agg_fn() {
        Some(AggFn::Sum) => "SUM",
        Some(AggFn::Avg) => "AVERAGE",
        Some(AggFn::Min) => "MIN",
        Some(AggFn::Max) => "MAX",
        Some(AggFn::Count) => "COUNT_ALL",
        None => {
            return Err(DeployError::InvalidDesign(format!(
                "operation `{op}` uses unknown aggregation function `{}`",
                spec.function
            )))
        }
    })
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
        let ktr = generate_ktr(&flow(), "demo").unwrap();
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
        let ktr = generate_ktr(&flow(), "demo").unwrap();
        for ty in ["TableInput", "SelectValues", "FilterRows", "GroupBy", "TableOutput"] {
            assert!(ktr.contains(&format!("<type>{ty}</type>")), "missing step type {ty}\n{ktr}");
        }
    }

    #[test]
    fn table_input_embeds_extraction_sql() {
        let ktr = generate_ktr(&flow(), "demo").unwrap();
        assert!(ktr.contains("SELECT ps_partkey, ps_supplycost FROM partsupp"), "{ktr}");
    }

    #[test]
    fn group_by_carries_aggregate_configuration() {
        let ktr = generate_ktr(&flow(), "demo").unwrap();
        assert!(ktr.contains("<type>AVERAGE</type>"), "{ktr}");
        assert!(ktr.contains("<subject>ps_supplycost</subject>"), "{ktr}");
    }

    #[test]
    fn generated_ktr_is_well_formed_xml() {
        let ktr = generate_ktr(&flow(), "demo").unwrap();
        let doc = quarry_xml::parse(&ktr).unwrap();
        assert_eq!(doc.name, "transformation");
        assert_eq!(doc.children_named("step").count(), 5);
        assert_eq!(doc.child("order").unwrap().children_named("hop").count(), 4);
    }

    /// `flow()` with the aggregate renamed to a function nobody knows and a
    /// join that has only one input: what `Flow::validate` would refuse.
    fn unvalidated_flow() -> Flow {
        let mut f = flow();
        let agg = f.id_by_name("AGG").unwrap();
        let OpKind::Aggregation { aggregates, .. } = &mut f.op_mut(agg).kind else { panic!("AGG aggregates") };
        aggregates[0].function = "MEDIAN".into();
        let sel = f.id_by_name("SELECTION_cost").unwrap();
        let join = OpKind::Join {
            kind: quarry_etl::JoinKind::Inner,
            left_on: vec!["ps_partkey".into()],
            right_on: vec!["ps_partkey".into()],
        };
        let j = f.append(sel, "JOIN_half", join).unwrap();
        f.append(j, "LOADER_half", OpKind::Loader { table: "half".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn unvalidated_flows_are_refused_not_panicked_on() {
        let mut f = unvalidated_flow();
        assert!(f.validate().is_err());
        let err = generate_ktr(&f, "demo").unwrap_err();
        assert!(matches!(&err, DeployError::InvalidDesign(d) if d.contains("MEDIAN") && d.contains("AGG")), "{err}");
        // The join is short of an input; the KTR only lists its keys, so it
        // renders once the aggregate is known again.
        let agg = f.id_by_name("AGG").unwrap();
        let OpKind::Aggregation { aggregates, .. } = &mut f.op_mut(agg).kind else { panic!("AGG aggregates") };
        aggregates[0].function = "SUM".into();
        assert!(f.validate().is_err());
        assert!(generate_ktr(&f, "demo").unwrap().contains("<name>JOIN_half</name>"));
    }

    #[test]
    fn loader_step_targets_its_table() {
        let ktr = generate_ktr(&flow(), "demo").unwrap();
        assert!(ktr.contains("<table>fact_table_netprofit</table>"));
    }
}
