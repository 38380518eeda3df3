//! xLM: the XML encoding of logical ETL flows \[12\].
//!
//! The dialect matches the paper's Figure 3/4 snippets:
//!
//! ```xml
//! <design>
//!   <metadata><name>unified</name></metadata>
//!   <edges>
//!     <edge>
//!       <from>DATASTORE_Partsupp</from>
//!       <to>EXTRACTION_Partsupp</to>
//!       <enabled>Y</enabled>
//!     </edge>
//!   </edges>
//!   <nodes>
//!     <node>
//!       <name>DATASTORE_Partsupp</name>
//!       <type>Datastore</type>
//!       <optype>TableInput</optype>
//!       …
//!     </node>
//!   </nodes>
//! </design>
//! ```
//!
//! `<optype>` carries the platform-flavoured operator name (the PDI step
//! type the Design Deployer would emit), while `<type>` is the logical
//! operation class; parameters live in per-kind child elements.

use crate::error::FormatError;
use quarry_etl::{parse_expr, AggSpec, ColType, Column, Flow, JoinKind, OpKind, ReqSet, Schema};
use quarry_xml::{Element, XmlWriter};

/// The PDI-flavoured `<optype>` for a logical operation (used verbatim by
/// the deployer's KTR generator).
pub fn pdi_optype(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::Datastore { .. } => "TableInput",
        OpKind::Extraction { .. } => "SelectValues",
        OpKind::Selection { .. } => "FilterRows",
        OpKind::Projection { .. } => "SelectValues",
        OpKind::Derivation { .. } => "Calculator",
        OpKind::Join { .. } => "MergeJoin",
        OpKind::Aggregation { .. } => "GroupBy",
        OpKind::Union => "Append",
        OpKind::Distinct => "Unique",
        OpKind::Sort { .. } => "SortRows",
        OpKind::SurrogateKey { .. } => "AddSequence",
        OpKind::Loader { .. } => "TableOutput",
    }
}

fn write_columns(w: &mut XmlWriter<'_>, tag: &'static str, columns: &[String]) {
    w.open(tag);
    for c in columns {
        w.leaf("column", c);
    }
    w.close();
}

fn columns_from_xml(parent: &Element, tag: &str) -> Vec<String> {
    parent
        .child(tag)
        .map(|e| e.children_named("column").filter_map(Element::text).map(str::to_string).collect())
        .unwrap_or_default()
}

fn schema_from_xml(parent: &Element) -> Result<Schema, FormatError> {
    let e = parent.child("schema").ok_or_else(|| FormatError::structure("datastore node without <schema>"))?;
    let mut columns = Vec::new();
    for c in e.children_named("column") {
        let name = c.attr("name").ok_or_else(|| FormatError::structure("<column> without name"))?;
        let ty = c
            .attr("type")
            .and_then(ColType::parse)
            .ok_or_else(|| FormatError::structure(format!("column `{name}` without a valid type")))?;
        columns.push(Column::new(name, ty));
    }
    Ok(Schema::new(columns))
}

fn write_kind(w: &mut XmlWriter<'_>, kind: &OpKind) {
    match kind {
        OpKind::Datastore { datastore, schema } => {
            w.leaf("datastore", datastore);
            w.open("schema");
            for c in &schema.columns {
                w.open("column");
                w.attr("name", &c.name);
                w.attr("type", c.ty.as_str());
                w.close();
            }
            w.close();
        }
        OpKind::Extraction { columns } | OpKind::Projection { columns } | OpKind::Sort { columns } => {
            write_columns(w, "columns", columns);
        }
        OpKind::Selection { predicate } => w.leaf("predicate", format_args!("{predicate}")),
        OpKind::Derivation { column, expr } => {
            w.leaf("column", column);
            w.leaf("expression", format_args!("{expr}"));
        }
        OpKind::Join { kind, left_on, right_on } => {
            w.leaf("joinKind", kind.as_str());
            write_columns(w, "leftOn", left_on);
            write_columns(w, "rightOn", right_on);
        }
        OpKind::Aggregation { group_by, aggregates } => {
            write_columns(w, "groupBy", group_by);
            w.open("aggregates");
            for a in aggregates {
                w.open("aggregate");
                w.leaf("function", &a.function);
                w.leaf("input", format_args!("{}", a.input));
                w.leaf("output", &a.output);
                w.close();
            }
            w.close();
        }
        OpKind::Union | OpKind::Distinct => {}
        OpKind::SurrogateKey { natural, output } => {
            write_columns(w, "natural", natural);
            w.leaf("output", output);
        }
        OpKind::Loader { table, key } => {
            w.leaf("table", table);
            if !key.is_empty() {
                write_columns(w, "upsertKey", key);
            }
        }
    }
}

fn kind_from_xml(type_name: &str, node: &Element) -> Result<OpKind, FormatError> {
    let text = |tag: &str| -> Result<String, FormatError> {
        node.child_text(tag)
            .map(str::to_string)
            .ok_or_else(|| FormatError::structure(format!("<node> of type {type_name} missing <{tag}>")))
    };
    Ok(match type_name {
        "Datastore" => OpKind::Datastore { datastore: text("datastore")?, schema: schema_from_xml(node)? },
        "Extraction" => OpKind::Extraction { columns: columns_from_xml(node, "columns") },
        "Selection" => OpKind::Selection { predicate: parse_expr(&text("predicate")?)? },
        "Projection" => OpKind::Projection { columns: columns_from_xml(node, "columns") },
        "Derivation" => OpKind::Derivation { column: text("column")?, expr: parse_expr(&text("expression")?)? },
        "Join" => OpKind::Join {
            kind: node
                .child_text("joinKind")
                .and_then(JoinKind::parse)
                .ok_or_else(|| FormatError::structure("join node without a valid <joinKind>"))?,
            left_on: columns_from_xml(node, "leftOn"),
            right_on: columns_from_xml(node, "rightOn"),
        },
        "Aggregation" => {
            let mut aggregates = Vec::new();
            if let Some(aggs) = node.child("aggregates") {
                for a in aggs.children_named("aggregate") {
                    let function = a
                        .child_text("function")
                        .ok_or_else(|| FormatError::structure("<aggregate> missing <function>"))?;
                    let input =
                        a.child_text("input").ok_or_else(|| FormatError::structure("<aggregate> missing <input>"))?;
                    let output =
                        a.child_text("output").ok_or_else(|| FormatError::structure("<aggregate> missing <output>"))?;
                    aggregates.push(AggSpec::new(function, parse_expr(input)?, output));
                }
            }
            OpKind::Aggregation { group_by: columns_from_xml(node, "groupBy"), aggregates }
        }
        "Union" => OpKind::Union,
        "Distinct" => OpKind::Distinct,
        "Sort" => OpKind::Sort { columns: columns_from_xml(node, "columns") },
        "SurrogateKey" => OpKind::SurrogateKey { natural: columns_from_xml(node, "natural"), output: text("output")? },
        "Loader" => OpKind::Loader { table: text("table")?, key: columns_from_xml(node, "upsertKey") },
        other => return Err(FormatError::structure(format!("unknown node type `{other}`"))),
    })
}

/// Serializes a flow to an xLM document string.
pub fn to_string(flow: &Flow) -> String {
    let mut w = XmlWriter::pretty();
    w.open("design");
    w.open("metadata");
    w.leaf("name", &flow.name);
    w.close();
    w.open("edges");
    for (from, to) in flow.edges() {
        w.open("edge");
        w.leaf("from", &flow.op(*from).name);
        w.leaf("to", &flow.op(*to).name);
        w.leaf("enabled", "Y");
        w.close();
    }
    w.close();
    w.open("nodes");
    for op in flow.ops() {
        w.open("node");
        w.leaf("name", &op.name);
        w.leaf("type", op.kind.type_name());
        w.leaf("optype", pdi_optype(&op.kind));
        write_kind(&mut w, &op.kind);
        if !op.satisfies.is_empty() {
            w.open("satisfies");
            for r in &op.satisfies {
                w.leaf("req", r);
            }
            w.close();
        }
        w.close();
    }
    w.close();
    w.close();
    w.finish()
}

/// Parses a flow from the xLM DOM.
pub fn from_xml(root: &Element) -> Result<Flow, FormatError> {
    if root.name != "design" {
        return Err(FormatError::structure(format!("expected <design>, found <{}>", root.name)));
    }
    let name = root.path(&["metadata", "name"]).and_then(Element::text).unwrap_or("design");
    let mut flow = Flow::new(name);
    let nodes = root.child("nodes").ok_or_else(|| FormatError::structure("<design> without <nodes>"))?;
    for node in nodes.children_named("node") {
        let op_name = node.child_text("name").ok_or_else(|| FormatError::structure("<node> without <name>"))?;
        let type_name = node.child_text("type").ok_or_else(|| FormatError::structure("<node> without <type>"))?;
        let kind = kind_from_xml(type_name, node)?;
        let id = flow.add_op(op_name, kind).map_err(|e| FormatError::structure(e.to_string()))?;
        let mut reqs = ReqSet::new();
        if let Some(s) = node.child("satisfies") {
            for r in s.children_named("req") {
                if let Some(t) = r.text() {
                    reqs.insert(t.to_string());
                }
            }
        }
        flow.op_mut(id).satisfies = reqs;
    }
    if let Some(edges) = root.child("edges") {
        for edge in edges.children_named("edge") {
            if edge.child_text("enabled") == Some("N") {
                continue;
            }
            let from = edge.child_text("from").ok_or_else(|| FormatError::structure("<edge> without <from>"))?;
            let to = edge.child_text("to").ok_or_else(|| FormatError::structure("<edge> without <to>"))?;
            let from_id = flow
                .id_by_name(from)
                .ok_or_else(|| FormatError::structure(format!("edge from unknown node `{from}`")))?;
            let to_id =
                flow.id_by_name(to).ok_or_else(|| FormatError::structure(format!("edge to unknown node `{to}`")))?;
            flow.connect(from_id, to_id).map_err(|e| FormatError::structure(e.to_string()))?;
        }
    }
    Ok(flow)
}

/// Parses an xLM document string.
pub fn parse(xml: &str) -> Result<Flow, FormatError> {
    from_xml(&quarry_xml::parse(xml)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::Expr;

    fn partsupp_schema() -> Schema {
        Schema::new(vec![
            Column::new("ps_partkey", ColType::Integer),
            Column::new("ps_suppkey", ColType::Integer),
            Column::new("ps_supplycost", ColType::Decimal),
        ])
    }

    /// The Figure 3 prefix: DATASTORE_Partsupp → EXTRACTION_Partsupp → … → loader.
    fn sample_flow() -> Flow {
        let mut f = Flow::new("unified");
        let ds = f
            .add_op("DATASTORE_Partsupp", OpKind::Datastore { datastore: "partsupp".into(), schema: partsupp_schema() })
            .unwrap();
        let ex = f
            .append(
                ds,
                "EXTRACTION_Partsupp",
                OpKind::Extraction { columns: vec!["ps_partkey".into(), "ps_suppkey".into(), "ps_supplycost".into()] },
            )
            .unwrap();
        let sel = f
            .append(ex, "SELECTION_cost", OpKind::Selection { predicate: parse_expr("ps_supplycost > 10").unwrap() })
            .unwrap();
        let agg = f
            .append(
                sel,
                "AGGREGATION_cost",
                OpKind::Aggregation {
                    group_by: vec!["ps_partkey".into()],
                    aggregates: vec![AggSpec::new("AVERAGE", parse_expr("ps_supplycost").unwrap(), "avg_cost")],
                },
            )
            .unwrap();
        f.append(agg, "LOADER_fact", OpKind::Loader { table: "fact_table_netprofit".into(), key: vec![] }).unwrap();
        let mut f2 = f;
        f2.stamp_requirement("IR2");
        f2
    }

    #[test]
    fn roundtrip_preserves_flow() {
        let f = sample_flow();
        let xml = to_string(&f);
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed.op_count(), f.op_count());
        assert_eq!(parsed.edge_count(), f.edge_count());
        for op in f.ops() {
            let p = parsed.op_by_name(&op.name).unwrap_or_else(|| panic!("{} lost", op.name));
            assert_eq!(p.kind, op.kind, "{}", op.name);
            assert_eq!(p.satisfies, op.satisfies);
        }
        parsed.validate().unwrap();
    }

    #[test]
    fn shape_matches_paper_snippet() {
        let xml = to_string(&sample_flow());
        for needle in [
            "<design>",
            "<metadata>",
            "<from>DATASTORE_Partsupp</from>",
            "<to>EXTRACTION_Partsupp</to>",
            "<enabled>Y</enabled>",
            "<name>DATASTORE_Partsupp</name>",
            "<type>Datastore</type>",
            "<optype>TableInput</optype>",
        ] {
            assert!(xml.contains(needle), "missing `{needle}` in\n{xml}");
        }
    }

    #[test]
    fn binary_ops_keep_input_order() {
        let mut f = Flow::new("j");
        let a = f
            .add_op(
                "A",
                OpKind::Datastore {
                    datastore: "a".into(),
                    schema: Schema::new(vec![Column::new("x", ColType::Integer)]),
                },
            )
            .unwrap();
        let b = f
            .add_op(
                "B",
                OpKind::Datastore {
                    datastore: "b".into(),
                    schema: Schema::new(vec![Column::new("y", ColType::Integer)]),
                },
            )
            .unwrap();
        let j = f
            .add_op("J", OpKind::Join { kind: JoinKind::Left, left_on: vec!["x".into()], right_on: vec!["y".into()] })
            .unwrap();
        f.connect(a, j).unwrap();
        f.connect(b, j).unwrap();
        f.append(j, "L", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let parsed = parse(&to_string(&f)).unwrap();
        let inputs = parsed.inputs_of(parsed.id_by_name("J").unwrap());
        assert_eq!(parsed.op(inputs[0]).name, "A");
        assert_eq!(parsed.op(inputs[1]).name, "B");
        parsed.validate().unwrap();
    }

    #[test]
    fn all_op_kinds_roundtrip() {
        let mut f = Flow::new("all");
        let ds = f.add_op("DS", OpKind::Datastore { datastore: "t".into(), schema: partsupp_schema() }).unwrap();
        let dv = f
            .append(ds, "DV", OpKind::Derivation { column: "c".into(), expr: parse_expr("ps_supplycost * 2").unwrap() })
            .unwrap();
        let sk = f
            .append(
                dv,
                "SK",
                OpKind::SurrogateKey {
                    natural: vec!["ps_partkey".into(), "ps_suppkey".into()],
                    output: "PartsuppID".into(),
                },
            )
            .unwrap();
        let so = f.append(sk, "SO", OpKind::Sort { columns: vec!["PartsuppID".into()] }).unwrap();
        let di = f.append(so, "DI", OpKind::Distinct).unwrap();
        let pr = f.append(di, "PR", OpKind::Projection { columns: vec!["PartsuppID".into(), "c".into()] }).unwrap();
        f.append(pr, "LD", OpKind::Loader { table: "dim".into(), key: vec![] }).unwrap();
        let parsed = parse(&to_string(&f)).unwrap();
        for op in f.ops() {
            assert_eq!(parsed.op_by_name(&op.name).unwrap().kind, op.kind);
        }
        parsed.validate().unwrap();
    }

    #[test]
    fn union_roundtrips() {
        let mut f = Flow::new("u");
        let a = f.add_op("A", OpKind::Datastore { datastore: "t".into(), schema: partsupp_schema() }).unwrap();
        let b = f.add_op("B", OpKind::Datastore { datastore: "t".into(), schema: partsupp_schema() }).unwrap();
        let u = f.add_op("U", OpKind::Union).unwrap();
        f.connect(a, u).unwrap();
        f.connect(b, u).unwrap();
        f.append(u, "L", OpKind::Loader { table: "x".into(), key: vec![] }).unwrap();
        let parsed = parse(&to_string(&f)).unwrap();
        assert_eq!(parsed.op_by_name("U").unwrap().kind, OpKind::Union);
    }

    #[test]
    fn disabled_edges_are_skipped() {
        let xml = r#"<design><metadata><name>d</name></metadata>
          <edges>
            <edge><from>A</from><to>L</to><enabled>N</enabled></edge>
          </edges>
          <nodes>
            <node><name>A</name><type>Distinct</type></node>
            <node><name>L</name><type>Loader</type><table>t</table></node>
          </nodes></design>"#;
        let parsed = parse(xml).unwrap();
        assert_eq!(parsed.edge_count(), 0);
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(parse("<notdesign/>"), Err(FormatError::Structure(_))));
        assert!(matches!(parse("<design/>"), Err(FormatError::Structure(_))));
        let unknown_type = r#"<design><nodes><node><name>X</name><type>Mystery</type></node></nodes></design>"#;
        assert!(matches!(parse(unknown_type), Err(FormatError::Structure(_))));
        let bad_edge = r#"<design><edges><edge><from>Ghost</from><to>X</to></edge></edges>
            <nodes><node><name>X</name><type>Distinct</type></node></nodes></design>"#;
        assert!(matches!(parse(bad_edge), Err(FormatError::Structure(_))));
        let bad_expr = r#"<design><nodes><node><name>S</name><type>Selection</type><predicate>a +</predicate></node></nodes></design>"#;
        assert!(matches!(parse(bad_expr), Err(FormatError::Expr(_))));
    }

    #[test]
    fn predicates_roundtrip_through_text() {
        let pred = parse_expr("a > 1 AND (b = 'x' OR c <= 2.5)").unwrap();
        let mut f = Flow::new("p");
        let ds = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "t".into(),
                    schema: Schema::new(vec![
                        Column::new("a", ColType::Integer),
                        Column::new("b", ColType::Text),
                        Column::new("c", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let s = f.append(ds, "S", OpKind::Selection { predicate: pred.clone() }).unwrap();
        f.append(s, "L", OpKind::Loader { table: "x".into(), key: vec![] }).unwrap();
        let parsed = parse(&to_string(&f)).unwrap();
        match &parsed.op_by_name("S").unwrap().kind {
            OpKind::Selection { predicate } => assert_eq!(*predicate, pred),
            other => panic!("{other:?}"),
        }
        let _ = Expr::Null; // silence unused import lint paths in some cfgs
    }
}
