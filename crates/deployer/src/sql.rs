//! SQL export of logical ETL flows (paper §2.5 names SQL among the external
//! notations the Communication & Metadata layer's plug-in parsers support).
//!
//! Each loader becomes one `INSERT` statement whose upstream operations are
//! rendered as a `WITH` chain of CTEs in topological order; upsert loaders
//! become `INSERT … ON CONFLICT (key) DO UPDATE`. The dialect is PostgreSQL
//! (matching the demo's deployment platform): surrogate keys use
//! `hashtext`-based derivation — deterministic *within* the database like the
//! engine's FNV hash is within a run, though the two hash families differ
//! (documented in DESIGN.md).

use quarry_etl::{AggFn, Expr, Flow, FlowError, JoinKind, OpId, OpKind, Schema};
use std::collections::HashMap;
use std::fmt::Write;

/// Quotes an identifier only when necessary (mirrors `postgres::ident`).
fn ident(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// A CTE-safe name for an operation.
fn cte_name(flow: &Flow, id: OpId) -> String {
    ident(&flow.op(id).name.to_lowercase())
}

fn expr_sql(e: &Expr) -> String {
    // The expression language's display form is already SQL-compatible
    // (`<>`, AND/OR, quoted strings, function calls PostgreSQL knows:
    // ABS/COALESCE/CONCAT; YEAR/MONTH/DAY become EXTRACT).
    let mut text = e.to_string();
    for (ours, pg) in
        [("YEAR(", "EXTRACT(YEAR FROM "), ("MONTH(", "EXTRACT(MONTH FROM "), ("DAY(", "EXTRACT(DAY FROM ")]
    {
        text = text.replace(ours, pg);
    }
    text
}

fn surrogate_sql(natural: &[String]) -> String {
    let args: Vec<String> = natural.iter().map(|c| format!("{}::text", ident(c))).collect();
    format!("abs(hashtext(concat_ws(E'\\x1f', {})))::bigint", args.join(", "))
}

/// Renders one operation as the body of its CTE. `schemas` is the flow's
/// own [`Flow::schemas`], so every operation has its inputs; what that
/// propagation does not rule out is reported, not assumed away.
fn op_sql(flow: &Flow, schemas: &HashMap<OpId, Schema>, id: OpId) -> Result<String, FlowError> {
    let op = flow.op(id);
    let inputs = flow.inputs_of(id);
    let invalid = |detail: String| FlowError::InvalidOp { op: op.name.clone(), detail };
    let input = |i: usize| cte_name(flow, inputs[i]);
    Ok(match &op.kind {
        OpKind::Datastore { datastore, schema } => {
            let cols: Vec<String> = schema.names().map(ident).collect();
            format!("SELECT {} FROM {}", cols.join(", "), ident(datastore))
        }
        OpKind::Extraction { columns } | OpKind::Projection { columns } => {
            let cols: Vec<String> = columns.iter().map(|c| ident(c)).collect();
            format!("SELECT {} FROM {}", cols.join(", "), input(0))
        }
        OpKind::Selection { predicate } => {
            format!("SELECT * FROM {} WHERE {}", input(0), expr_sql(predicate))
        }
        OpKind::Derivation { column, expr } => {
            format!("SELECT *, {} AS {} FROM {}", expr_sql(expr), ident(column), input(0))
        }
        OpKind::Join { kind, left_on, right_on } => {
            let join_kw = match kind {
                JoinKind::Inner => "JOIN",
                JoinKind::Left => "LEFT JOIN",
            };
            let on: Vec<String> =
                left_on.iter().zip(right_on).map(|(l, r)| format!("l.{} = r.{}", ident(l), ident(r))).collect();
            // Same-name equi-joined keys survive once (left copy), so the
            // right side's surviving columns are listed explicitly.
            let right_schema =
                schemas.get(&inputs[1]).ok_or_else(|| invalid("right input has no propagated schema".into()))?;
            let kept = quarry_etl::join_kept_right_indices(right_schema, left_on, right_on);
            let mut select = vec!["l.*".to_string()];
            select.extend(kept.iter().map(|&i| format!("r.{}", ident(&right_schema.columns[i].name))));
            format!("SELECT {} FROM {} l {join_kw} {} r ON {}", select.join(", "), input(0), input(1), on.join(" AND "))
        }
        OpKind::Aggregation { group_by, aggregates } => {
            let mut select: Vec<String> = group_by.iter().map(|g| ident(g)).collect();
            for spec in aggregates {
                let func = match spec.agg_fn() {
                    Some(AggFn::Sum) => "SUM",
                    Some(AggFn::Avg) => "AVG",
                    Some(AggFn::Min) => "MIN",
                    Some(AggFn::Max) => "MAX",
                    Some(AggFn::Count) => {
                        select.push(format!("COUNT(*) AS {}", ident(&spec.output)));
                        continue;
                    }
                    None => return Err(invalid(format!("unknown aggregation function `{}`", spec.function))),
                };
                select.push(format!("{func}({}) AS {}", expr_sql(&spec.input), ident(&spec.output)));
            }
            let mut sql = format!("SELECT {} FROM {}", select.join(", "), input(0));
            if !group_by.is_empty() {
                let groups: Vec<String> = group_by.iter().map(|g| ident(g)).collect();
                let _ = write!(sql, " GROUP BY {}", groups.join(", "));
            }
            sql
        }
        OpKind::Union => format!("SELECT * FROM {} UNION ALL SELECT * FROM {}", input(0), input(1)),
        OpKind::Distinct => format!("SELECT DISTINCT * FROM {}", input(0)),
        OpKind::Sort { columns } => {
            let cols: Vec<String> = columns.iter().map(|c| ident(c)).collect();
            format!("SELECT * FROM {} ORDER BY {}", input(0), cols.join(", "))
        }
        OpKind::SurrogateKey { natural, output } => {
            format!("SELECT *, {} AS {} FROM {}", surrogate_sql(natural), ident(output), input(0))
        }
        OpKind::Loader { .. } => return Err(invalid("a loader feeds another operation".into())),
    })
}

/// Renders a whole flow as a SQL script: one INSERT per loader, each with
/// its upstream operations as a `WITH` chain. Fails (returns the flow error)
/// when the flow does not validate.
pub fn generate_sql(flow: &Flow) -> Result<String, quarry_etl::FlowError> {
    let order = flow.topo_order()?;
    let schemas = flow.schemas()?; // column names in the emitted SQL are validated
    let mut out = String::new();
    let _ = writeln!(out, "-- generated by quarry from flow `{}`", flow.name);
    for &sink in order.iter().filter(|&&id| flow.op(id).kind.is_sink()) {
        let op = flow.op(sink);
        let OpKind::Loader { table, key } = &op.kind else { unreachable!("sinks are loaders") };
        // The sink's upstream cone, in topological order.
        let upstream = flow.upstream_of(sink);
        let ctes: Vec<OpId> = order.iter().copied().filter(|id| upstream.contains(id)).collect();
        let _ = writeln!(out, "\n-- loader {}", op.name);
        let _ = write!(out, "WITH ");
        for (i, id) in ctes.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ",\n     ");
            }
            let _ = write!(out, "{} AS (\n  {}\n)", cte_name(flow, *id), op_sql(flow, &schemas, *id)?);
        }
        let source = cte_name(flow, *ctes.last().expect("loaders have upstream operations"));
        let columns: Vec<String> = schemas[&sink].names().map(ident).collect();
        let _ = write!(
            out,
            "\nINSERT INTO {} ({})\nSELECT {} FROM {}",
            ident(table),
            columns.join(", "),
            columns.join(", "),
            source
        );
        if !key.is_empty() {
            let keys: Vec<String> = key.iter().map(|k| ident(k)).collect();
            let updates: Vec<String> = schemas[&sink]
                .names()
                .filter(|c| !key.contains(&c.to_string()))
                .map(|c| format!("{} = EXCLUDED.{}", ident(c), ident(c)))
                .collect();
            let _ = write!(out, "\nON CONFLICT ({}) DO UPDATE SET {}", keys.join(", "), updates.join(", "));
        }
        let _ = writeln!(out, ";");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{parse_expr, AggSpec, ColType, Column, Schema};

    fn sample_flow() -> Flow {
        let mut f = Flow::new("unified");
        let d = f
            .add_op(
                "DATASTORE_Lineitem",
                OpKind::Datastore {
                    datastore: "lineitem".into(),
                    schema: Schema::new(vec![
                        Column::new("l_orderkey", ColType::Integer),
                        Column::new("l_extendedprice", ColType::Decimal),
                        Column::new("l_discount", ColType::Decimal),
                    ]),
                },
            )
            .unwrap();
        let s = f
            .append(d, "SEL_discount", OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() })
            .unwrap();
        let dv = f
            .append(
                s,
                "DERIVE_revenue",
                OpKind::Derivation {
                    column: "revenue".into(),
                    expr: parse_expr("l_extendedprice * (1 - l_discount)").unwrap(),
                },
            )
            .unwrap();
        let sk = f
            .append(dv, "SK", OpKind::SurrogateKey { natural: vec!["l_orderkey".into()], output: "OrderID".into() })
            .unwrap();
        let a = f
            .append(
                sk,
                "AGG",
                OpKind::Aggregation {
                    group_by: vec!["OrderID".into()],
                    aggregates: vec![
                        AggSpec::new("AVERAGE", parse_expr("revenue").unwrap(), "avg_rev"),
                        AggSpec::new("COUNT", parse_expr("1").unwrap(), "n"),
                    ],
                },
            )
            .unwrap();
        f.append(a, "LOADER_fact", OpKind::Loader { table: "fact_revenue".into(), key: vec!["OrderID".into()] })
            .unwrap();
        f
    }

    #[test]
    fn renders_a_with_chain_per_loader() {
        let sql = generate_sql(&sample_flow()).unwrap();
        assert!(sql.contains("WITH datastore_lineitem AS ("), "{sql}");
        assert!(sql.contains("SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem"), "{sql}");
        assert!(sql.contains("WHERE l_discount > 0.05"), "{sql}");
        assert!(sql.contains("l_extendedprice * (1 - l_discount) AS revenue"), "{sql}");
        assert!(sql.contains("AVG(revenue) AS avg_rev"), "{sql}");
        assert!(sql.contains("COUNT(*) AS n"), "{sql}");
        assert!(sql.contains("GROUP BY OrderID"), "{sql}");
        assert!(sql.contains("INSERT INTO fact_revenue (OrderID, avg_rev, n)"), "{sql}");
    }

    #[test]
    fn upsert_loaders_emit_on_conflict() {
        let sql = generate_sql(&sample_flow()).unwrap();
        assert!(
            sql.contains("ON CONFLICT (OrderID) DO UPDATE SET avg_rev = EXCLUDED.avg_rev, n = EXCLUDED.n"),
            "{sql}"
        );
    }

    #[test]
    fn surrogate_keys_use_hashtext() {
        let sql = generate_sql(&sample_flow()).unwrap();
        assert!(sql.contains("abs(hashtext(concat_ws(E'\\x1f', l_orderkey::text)))::bigint AS OrderID"), "{sql}");
    }

    #[test]
    fn joins_render_with_qualified_on_clauses() {
        let mut f = Flow::new("j");
        let l = f
            .add_op(
                "L",
                OpKind::Datastore {
                    datastore: "a".into(),
                    schema: Schema::new(vec![Column::new("x", ColType::Integer)]),
                },
            )
            .unwrap();
        let r = f
            .add_op(
                "R",
                OpKind::Datastore {
                    datastore: "b".into(),
                    schema: Schema::new(vec![Column::new("y", ColType::Integer)]),
                },
            )
            .unwrap();
        let j = f
            .add_op("J", OpKind::Join { kind: JoinKind::Left, left_on: vec!["x".into()], right_on: vec!["y".into()] })
            .unwrap();
        f.connect(l, j).unwrap();
        f.connect(r, j).unwrap();
        f.append(j, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        let sql = generate_sql(&f).unwrap();
        assert!(sql.contains("SELECT l.*, r.y FROM l l LEFT JOIN r r ON l.x = r.y"), "{sql}");
        assert!(!sql.contains("ON CONFLICT"), "append loaders have no conflict clause");
    }

    #[test]
    fn date_functions_become_extract() {
        let mut f = Flow::new("d");
        let ds = f
            .add_op(
                "DS",
                OpKind::Datastore { datastore: "t".into(), schema: Schema::new(vec![Column::new("d", ColType::Date)]) },
            )
            .unwrap();
        let dv = f
            .append(
                ds,
                "DV",
                OpKind::Derivation { column: "yk".into(), expr: parse_expr("YEAR(d) * 100 + MONTH(d)").unwrap() },
            )
            .unwrap();
        f.append(dv, "LOAD", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        let sql = generate_sql(&f).unwrap();
        assert!(sql.contains("EXTRACT(YEAR FROM d) * 100 + EXTRACT(MONTH FROM d)"), "{sql}");
    }

    #[test]
    fn every_loader_gets_its_own_insert() {
        let mut f = sample_flow();
        let agg = f.id_by_name("AGG").unwrap();
        f.append(agg, "LOADER_copy", OpKind::Loader { table: "fact_copy".into(), key: vec![] }).unwrap();
        let sql = generate_sql(&f).unwrap();
        assert_eq!(sql.matches("INSERT INTO").count(), 2);
        assert_eq!(sql.matches("WITH ").count(), 2);
    }

    #[test]
    fn invalid_flows_are_rejected() {
        let mut f = Flow::new("bad");
        let d = f
            .add_op(
                "DS",
                OpKind::Datastore {
                    datastore: "t".into(),
                    schema: Schema::new(vec![Column::new("x", ColType::Integer)]),
                },
            )
            .unwrap();
        let s = f.append(d, "S", OpKind::Selection { predicate: parse_expr("ghost > 1").unwrap() }).unwrap();
        f.append(s, "L", OpKind::Loader { table: "o".into(), key: vec![] }).unwrap();
        assert!(generate_sql(&f).is_err());
    }

    #[test]
    fn unknown_aggregates_and_short_joins_are_flow_errors() {
        let mut unknown = sample_flow();
        let agg = unknown.id_by_name("AGG").unwrap();
        let OpKind::Aggregation { aggregates, .. } = &mut unknown.op_mut(agg).kind else { panic!("AGG aggregates") };
        aggregates[0].function = "MEDIAN".into();
        assert!(matches!(generate_sql(&unknown), Err(FlowError::InvalidOp { .. })));

        let mut short = sample_flow();
        let sk = short.id_by_name("SK").unwrap();
        let join =
            OpKind::Join { kind: JoinKind::Inner, left_on: vec!["OrderID".into()], right_on: vec!["OrderID".into()] };
        let j = short.append(sk, "JOIN_half", join).unwrap();
        short.append(j, "LOADER_half", OpKind::Loader { table: "half".into(), key: vec![] }).unwrap();
        assert!(matches!(generate_sql(&short), Err(FlowError::Arity { .. })));
        // The renderer itself refuses an aggregate it cannot name.
        let schemas = sample_flow().schemas().unwrap();
        assert!(matches!(op_sql(&unknown, &schemas, agg), Err(FlowError::InvalidOp { .. })));

        // A loader behind a loader validates (a loader passes its input on)
        // but has no CTE form: an error, where `unreachable!` used to be.
        let mut chained = sample_flow();
        let loader = chained.id_by_name("LOADER_fact").unwrap();
        chained.append(loader, "LOADER_again", OpKind::Loader { table: "again".into(), key: vec![] }).unwrap();
        chained.validate().unwrap();
        assert!(matches!(generate_sql(&chained), Err(FlowError::InvalidOp { .. })));
    }

    #[test]
    fn the_full_interpreter_flow_renders() {
        let domain = quarry_ontology::tpch::domain();
        let design = quarry_interpreter::Interpreter::new(&domain.ontology, &domain.sources)
            .interpret(&quarry_formats::xrq::figure4_requirement())
            .expect("figure 4 interprets");
        let sql = generate_sql(&design.etl).unwrap();
        assert!(sql.contains("INSERT INTO fact_table_revenue"), "{sql}");
        assert!(sql.contains("INSERT INTO dim_part"), "{sql}");
        assert!(sql.contains("n_name = 'Spain'"), "{sql}");
    }
}
