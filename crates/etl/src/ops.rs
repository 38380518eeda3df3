//! The logical operation taxonomy of the xLM layer.

use crate::expr::Expr;
use crate::flow::FlowError;
use crate::schema::{ColType, Column, Schema};
use std::borrow::Borrow;
use std::fmt;

/// Join kinds supported by the logical layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
}

impl JoinKind {
    pub fn as_str(self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::Left => "left",
        }
    }

    pub fn parse(s: &str) -> Option<JoinKind> {
        match s {
            "inner" => Some(JoinKind::Inner),
            "left" => Some(JoinKind::Left),
            _ => None,
        }
    }
}

/// One aggregate computed by an [`OpKind::Aggregation`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregation function name: SUM, AVERAGE, MIN, MAX, COUNT.
    pub function: String,
    /// Input expression over the input schema (empty column set for COUNT).
    pub input: Expr,
    /// Output column name.
    pub output: String,
}

impl AggSpec {
    pub fn new(function: impl Into<String>, input: Expr, output: impl Into<String>) -> Self {
        AggSpec { function: function.into(), input, output: output.into() }
    }

    /// The aggregate function [`AggSpec::function`] names, case-insensitively
    /// (`AVG` and `AVERAGE` both mean [`AggFn::Avg`]); `None` for any other
    /// name. This is the only place the name is parsed: schema propagation
    /// rejects `None`, so the engines and deployers, which run on validated
    /// flows, never see it.
    pub fn agg_fn(&self) -> Option<AggFn> {
        Some(match self.function.to_ascii_uppercase().as_str() {
            "SUM" => AggFn::Sum,
            "AVG" | "AVERAGE" => AggFn::Avg,
            "MIN" => AggFn::Min,
            "MAX" => AggFn::Max,
            "COUNT" => AggFn::Count,
            _ => return None,
        })
    }
}

/// An aggregate function an [`AggSpec`] can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Sum,
    Avg,
    Min,
    Max,
    Count,
}

/// The kind (and parameters) of a logical ETL operation.
///
/// Arity: `Datastore` is a source (0 inputs); `Join` and `Union` are binary;
/// `Loader` is a sink (1 input, 0 consumers required); everything else is
/// unary.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Binding to a source datastore with its extraction schema.
    Datastore { datastore: String, schema: Schema },
    /// Extraction of a subset of the datastore's columns into the flow
    /// (the paper's `DATASTORE_x → EXTRACTION_x` pattern).
    Extraction { columns: Vec<String> },
    /// Row filter.
    Selection { predicate: Expr },
    /// Column subset / reordering.
    Projection { columns: Vec<String> },
    /// Computed column appended to the schema.
    Derivation { column: String, expr: Expr },
    /// Equi-join of two inputs on positionally paired columns.
    Join { kind: JoinKind, left_on: Vec<String>, right_on: Vec<String> },
    /// Group-by aggregation.
    Aggregation { group_by: Vec<String>, aggregates: Vec<AggSpec> },
    /// Union of two schema-compatible inputs.
    Union,
    /// Duplicate elimination over the full row.
    Distinct,
    /// Sort (logical ordering hint; deployers map it to platform sorters).
    Sort { columns: Vec<String> },
    /// Surrogate-key generation from a natural key (how the Partsupp
    /// composite key becomes the single `PartsuppID` of the paper's DDL).
    SurrogateKey { natural: Vec<String>, output: String },
    /// Sink into a target table. With a non-empty `key`, loading is an
    /// upsert on those columns (how conformed dimension tables grow across
    /// requirements); with an empty key it appends.
    Loader { table: String, key: Vec<String> },
}

impl OpKind {
    /// Number of inputs the operation consumes.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Datastore { .. } => 0,
            OpKind::Join { .. } | OpKind::Union => 2,
            _ => 1,
        }
    }

    /// True for sources.
    pub fn is_source(&self) -> bool {
        matches!(self, OpKind::Datastore { .. })
    }

    /// True for sinks.
    pub fn is_sink(&self) -> bool {
        matches!(self, OpKind::Loader { .. })
    }

    /// The xLM `<type>` tag of the operation.
    pub fn type_name(&self) -> &'static str {
        match self {
            OpKind::Datastore { .. } => "Datastore",
            OpKind::Extraction { .. } => "Extraction",
            OpKind::Selection { .. } => "Selection",
            OpKind::Projection { .. } => "Projection",
            OpKind::Derivation { .. } => "Derivation",
            OpKind::Join { .. } => "Join",
            OpKind::Aggregation { .. } => "Aggregation",
            OpKind::Union => "Union",
            OpKind::Distinct => "Distinct",
            OpKind::Sort { .. } => "Sort",
            OpKind::SurrogateKey { .. } => "SurrogateKey",
            OpKind::Loader { .. } => "Loader",
        }
    }

    /// Computes the output schema from the input schemas (owned or borrowed),
    /// validating every column reference and type constraint on the way.
    /// `name` is the operation name used in error reports.
    pub fn output_schema<S: Borrow<Schema>>(&self, name: &str, inputs: &[S]) -> Result<Schema, FlowError> {
        let expect_arity = self.arity();
        if inputs.len() != expect_arity {
            return Err(FlowError::Arity { op: name.to_string(), expected: expect_arity, found: inputs.len() });
        }
        let invalid = |detail: String| FlowError::InvalidOp { op: name.to_string(), detail };
        // In range for every index below the arity just checked.
        let at = |i: usize| -> &Schema { inputs[i].borrow() };
        match self {
            OpKind::Datastore { schema, .. } => Ok(schema.clone()),
            OpKind::Extraction { columns } => {
                let input = at(0);
                input.project(columns).ok_or_else(|| invalid(format!("extracts a column missing from {input}")))
            }
            OpKind::Selection { predicate } => {
                let t = predicate.infer_type(at(0)).map_err(|e| invalid(e.to_string()))?;
                if t != ColType::Boolean {
                    return Err(invalid(format!("selection predicate has type {t}, expected boolean")));
                }
                Ok(at(0).clone())
            }
            OpKind::Projection { columns } => {
                at(0).project(columns).ok_or_else(|| invalid(format!("projects a column missing from {}", at(0))))
            }
            OpKind::Derivation { column, expr } => {
                if at(0).has(column) {
                    return Err(invalid(format!("derived column `{column}` already exists")));
                }
                let ty = expr.infer_type(at(0)).map_err(|e| invalid(e.to_string()))?;
                let mut out = at(0).clone();
                out.columns.push(Column::new(column.clone(), ty));
                Ok(out)
            }
            OpKind::Join { left_on, right_on, .. } => {
                if left_on.len() != right_on.len() || left_on.is_empty() {
                    return Err(invalid("join key lists must be non-empty and of equal length".into()));
                }
                for (l, r) in left_on.iter().zip(right_on) {
                    let lc = at(0).column(l).ok_or_else(|| invalid(format!("left join key `{l}` missing")))?;
                    let rc = at(1).column(r).ok_or_else(|| invalid(format!("right join key `{r}` missing")))?;
                    if lc.ty != rc.ty {
                        return Err(invalid(format!("join key type mismatch: {l}:{} vs {r}:{}", lc.ty, rc.ty)));
                    }
                }
                // Same-name equi-joined key pairs (the FK = PK case) are kept
                // once: the left copy. Their values coincide on matches, and
                // on left-join misses the left side holds the data.
                let kept: Vec<&Column> = at(1)
                    .columns
                    .iter()
                    .filter(|c| !right_on.iter().zip(left_on).any(|(r, l)| *r == c.name && l == r))
                    .collect();
                let mut out = at(0).clone();
                out.columns.extend(kept.into_iter().cloned());
                if let Some(dup) = out.duplicate_name() {
                    return Err(invalid(format!("join output would duplicate column `{dup}`")));
                }
                Ok(out)
            }
            OpKind::Aggregation { group_by, aggregates } => {
                let input = at(0);
                let mut out = Vec::with_capacity(group_by.len() + aggregates.len());
                for g in group_by {
                    out.push(input.column(g).ok_or_else(|| invalid(format!("group-by column `{g}` missing")))?.clone());
                }
                for a in aggregates {
                    let ty = match a.agg_fn() {
                        None => {
                            let name = a.function.to_ascii_uppercase();
                            return Err(invalid(format!("unknown aggregation function `{name}`")));
                        }
                        Some(AggFn::Count) => ColType::Integer,
                        Some(f) => {
                            let t = a.input.infer_type(input).map_err(|e| invalid(e.to_string()))?;
                            if matches!(f, AggFn::Sum | AggFn::Avg) && !t.is_numeric() {
                                return Err(invalid(format!("{} over non-numeric input", a.function)));
                            }
                            if f == AggFn::Avg {
                                ColType::Decimal
                            } else {
                                t
                            }
                        }
                    };
                    out.push(Column::new(a.output.clone(), ty));
                }
                let schema = Schema::new(out);
                if let Some(dup) = schema.duplicate_name() {
                    return Err(invalid(format!("aggregation output duplicates column `{dup}`")));
                }
                Ok(schema)
            }
            OpKind::Union => {
                let (l, r) = (at(0), at(1));
                if l != r {
                    return Err(invalid(format!("union inputs differ: {l} vs {r}")));
                }
                Ok(l.clone())
            }
            OpKind::Distinct => Ok(at(0).clone()),
            OpKind::Sort { columns } => {
                for c in columns {
                    if !at(0).has(c) {
                        return Err(invalid(format!("sort column `{c}` missing")));
                    }
                }
                Ok(at(0).clone())
            }
            OpKind::SurrogateKey { natural, output } => {
                for c in natural {
                    if !at(0).has(c) {
                        return Err(invalid(format!("surrogate-key input column `{c}` missing")));
                    }
                }
                if at(0).has(output) {
                    return Err(invalid(format!("surrogate-key output `{output}` already exists")));
                }
                let mut out = at(0).clone();
                out.columns.push(Column::new(output.clone(), ColType::Integer));
                Ok(out)
            }
            OpKind::Loader { key, .. } => {
                for k in key {
                    if !at(0).has(k) {
                        return Err(invalid(format!("upsert key column `{k}` missing")));
                    }
                }
                Ok(at(0).clone())
            }
        }
    }

    /// The set of input columns the operation *reads* (not what it passes
    /// through) — the footprint used by the equivalence rules.
    pub fn reads(&self) -> Vec<String> {
        match self {
            OpKind::Datastore { .. } | OpKind::Union | OpKind::Distinct | OpKind::Loader { .. } => Vec::new(),
            OpKind::Extraction { columns } | OpKind::Projection { columns } | OpKind::Sort { columns } => {
                columns.clone()
            }
            OpKind::Selection { predicate } => predicate.columns().into_iter().collect(),
            OpKind::Derivation { expr, .. } => expr.columns().into_iter().collect(),
            OpKind::Join { left_on, right_on, .. } => {
                let mut v = left_on.clone();
                v.extend(right_on.iter().cloned());
                v
            }
            OpKind::Aggregation { group_by, aggregates } => {
                let mut v = group_by.clone();
                for a in aggregates {
                    v.extend(a.input.columns());
                }
                v
            }
            OpKind::SurrogateKey { natural, .. } => natural.clone(),
        }
    }

    /// Columns the operation introduces into its output.
    pub fn introduces(&self) -> Vec<String> {
        match self {
            OpKind::Derivation { column, .. } => vec![column.clone()],
            OpKind::SurrogateKey { output, .. } => vec![output.clone()],
            OpKind::Aggregation { aggregates, .. } => aggregates.iter().map(|a| a.output.clone()).collect(),
            _ => Vec::new(),
        }
    }
}

/// The right-input columns a join keeps in its output: everything except
/// same-name equi-joined key columns (those are represented by their left
/// copies). Returns indices into the right schema.
pub fn join_kept_right_indices(right: &Schema, left_on: &[String], right_on: &[String]) -> Vec<usize> {
    right
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| !right_on.iter().zip(left_on).any(|(r, l)| *r == c.name && l == r))
        .map(|(i, _)| i)
        .collect()
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Datastore { datastore, .. } => write!(f, "Datastore({datastore})"),
            OpKind::Extraction { columns } => write!(f, "Extraction({})", columns.join(", ")),
            OpKind::Selection { predicate } => write!(f, "Selection({predicate})"),
            OpKind::Projection { columns } => write!(f, "Projection({})", columns.join(", ")),
            OpKind::Derivation { column, expr } => write!(f, "Derivation({column} := {expr})"),
            OpKind::Join { kind, left_on, right_on } => {
                write!(f, "Join[{}]({} = {})", kind.as_str(), left_on.join(","), right_on.join(","))
            }
            OpKind::Aggregation { group_by, aggregates } => {
                write!(f, "Aggregation(by {}; ", group_by.join(","))?;
                for (i, a) in aggregates.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}({}) as {}", a.function, a.input, a.output)?;
                }
                write!(f, ")")
            }
            OpKind::Union => write!(f, "Union"),
            OpKind::Distinct => write!(f, "Distinct"),
            OpKind::Sort { columns } => write!(f, "Sort({})", columns.join(", ")),
            OpKind::SurrogateKey { natural, output } => {
                write!(f, "SurrogateKey({} -> {output})", natural.join(","))
            }
            OpKind::Loader { table, key } => {
                if key.is_empty() {
                    write!(f, "Loader({table})")
                } else {
                    write!(f, "Loader({table} upsert {})", key.join(","))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;

    fn lineitem_schema() -> Schema {
        Schema::new(vec![
            Column::new("l_orderkey", ColType::Integer),
            Column::new("l_extendedprice", ColType::Decimal),
            Column::new("l_discount", ColType::Decimal),
        ])
    }

    fn orders_schema() -> Schema {
        Schema::new(vec![Column::new("o_orderkey", ColType::Integer), Column::new("o_totalprice", ColType::Decimal)])
    }

    #[test]
    fn datastore_emits_its_schema() {
        let op = OpKind::Datastore { datastore: "lineitem".into(), schema: lineitem_schema() };
        assert_eq!(op.output_schema::<Schema>("d", &[]).unwrap(), lineitem_schema());
        assert!(op.output_schema("d", &[lineitem_schema()]).is_err(), "sources take no inputs");
    }

    #[test]
    fn extraction_projects() {
        let op = OpKind::Extraction { columns: vec!["l_discount".into()] };
        let out = op.output_schema("e", &[lineitem_schema()]).unwrap();
        assert_eq!(out.names().collect::<Vec<_>>(), ["l_discount"]);
        let bad = OpKind::Extraction { columns: vec!["ghost".into()] };
        assert!(bad.output_schema("e", &[lineitem_schema()]).is_err());
    }

    #[test]
    fn selection_requires_boolean_predicate() {
        let ok = OpKind::Selection { predicate: parse_expr("l_discount > 0.05").unwrap() };
        assert_eq!(ok.output_schema("s", &[lineitem_schema()]).unwrap(), lineitem_schema());
        let bad = OpKind::Selection { predicate: parse_expr("l_discount + 1").unwrap() };
        assert!(bad.output_schema("s", &[lineitem_schema()]).is_err());
    }

    #[test]
    fn derivation_appends_typed_column() {
        let op = OpKind::Derivation {
            column: "revenue".into(),
            expr: parse_expr("l_extendedprice * (1 - l_discount)").unwrap(),
        };
        let out = op.output_schema("d", &[lineitem_schema()]).unwrap();
        assert_eq!(out.column("revenue").unwrap().ty, ColType::Decimal);
        // Duplicate output column rejected.
        assert!(op.output_schema("d", &[out]).is_err());
    }

    #[test]
    fn join_concats_and_checks_keys() {
        let op = OpKind::Join {
            kind: JoinKind::Inner,
            left_on: vec!["l_orderkey".into()],
            right_on: vec!["o_orderkey".into()],
        };
        let out = op.output_schema("j", &[lineitem_schema(), orders_schema()]).unwrap();
        assert_eq!(out.len(), 5);
        let bad_key =
            OpKind::Join { kind: JoinKind::Inner, left_on: vec!["ghost".into()], right_on: vec!["o_orderkey".into()] };
        assert!(bad_key.output_schema("j", &[lineitem_schema(), orders_schema()]).is_err());
        let type_clash = OpKind::Join {
            kind: JoinKind::Inner,
            left_on: vec!["l_extendedprice".into()],
            right_on: vec!["o_orderkey".into()],
        };
        assert!(type_clash.output_schema("j", &[lineitem_schema(), orders_schema()]).is_err());
    }

    #[test]
    fn join_rejects_duplicate_output_columns() {
        let op = OpKind::Join {
            kind: JoinKind::Inner,
            left_on: vec!["l_orderkey".into()],
            right_on: vec!["l_orderkey".into()],
        };
        assert!(op.output_schema("j", &[lineitem_schema(), lineitem_schema()]).is_err());
    }

    #[test]
    fn aggregation_builds_output_schema() {
        let op = OpKind::Aggregation {
            group_by: vec!["l_orderkey".into()],
            aggregates: vec![
                AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "total"),
                AggSpec::new("COUNT", Expr::Int(1), "n"),
                AggSpec::new("AVERAGE", parse_expr("l_discount").unwrap(), "avg_disc"),
            ],
        };
        let out = op.output_schema("a", &[lineitem_schema()]).unwrap();
        assert_eq!(out.names().collect::<Vec<_>>(), ["l_orderkey", "total", "n", "avg_disc"]);
        assert_eq!(out.column("n").unwrap().ty, ColType::Integer);
        assert_eq!(out.column("avg_disc").unwrap().ty, ColType::Decimal);
    }

    #[test]
    fn aggregation_rejects_bad_functions_and_inputs() {
        let bad_fn = OpKind::Aggregation {
            group_by: vec![],
            aggregates: vec![AggSpec::new("MEDIAN", parse_expr("l_discount").unwrap(), "m")],
        };
        assert!(bad_fn.output_schema("a", &[lineitem_schema()]).is_err());
        let sum_text =
            OpKind::Aggregation { group_by: vec![], aggregates: vec![AggSpec::new("SUM", Expr::Str("x".into()), "m")] };
        assert!(sum_text.output_schema("a", &[lineitem_schema()]).is_err());
    }

    #[test]
    fn union_requires_identical_schemas() {
        let op = OpKind::Union;
        assert!(op.output_schema("u", &[lineitem_schema(), lineitem_schema()]).is_ok());
        assert!(op.output_schema("u", &[lineitem_schema(), orders_schema()]).is_err());
    }

    #[test]
    fn surrogate_key_appends_integer() {
        let op = OpKind::SurrogateKey { natural: vec!["l_orderkey".into()], output: "sk".into() };
        let out = op.output_schema("k", &[lineitem_schema()]).unwrap();
        assert_eq!(out.column("sk").unwrap().ty, ColType::Integer);
    }

    #[test]
    fn reads_and_introduces_footprints() {
        let op = OpKind::Selection { predicate: parse_expr("a > 1 AND b = 'x'").unwrap() };
        assert_eq!(op.reads(), ["a", "b"]);
        let op = OpKind::Derivation { column: "c".into(), expr: parse_expr("a + b").unwrap() };
        assert_eq!(op.introduces(), ["c"]);
        let op = OpKind::Aggregation {
            group_by: vec!["g".into()],
            aggregates: vec![AggSpec::new("SUM", parse_expr("x").unwrap(), "out")],
        };
        assert_eq!(op.reads(), ["g", "x"]);
        assert_eq!(op.introduces(), ["out"]);
    }

    #[test]
    fn type_names_cover_all_variants() {
        let ops: Vec<OpKind> = vec![
            OpKind::Datastore { datastore: "d".into(), schema: Schema::empty() },
            OpKind::Extraction { columns: vec![] },
            OpKind::Selection { predicate: Expr::Bool(true) },
            OpKind::Projection { columns: vec![] },
            OpKind::Derivation { column: "c".into(), expr: Expr::Int(1) },
            OpKind::Join { kind: JoinKind::Inner, left_on: vec![], right_on: vec![] },
            OpKind::Aggregation { group_by: vec![], aggregates: vec![] },
            OpKind::Union,
            OpKind::Distinct,
            OpKind::Sort { columns: vec![] },
            OpKind::SurrogateKey { natural: vec![], output: "o".into() },
            OpKind::Loader { table: "t".into(), key: vec![] },
        ];
        let names: std::collections::BTreeSet<_> = ops.iter().map(|o| o.type_name()).collect();
        assert_eq!(names.len(), ops.len(), "every variant has a distinct type name");
    }
}
