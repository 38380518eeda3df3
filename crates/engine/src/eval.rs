//! Evaluation of the logical expression language over runtime rows.

use crate::value::Value;
use quarry_etl::{BinOp, CompiledExpr, UnOp};
use std::fmt;

/// Runtime evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnknownColumn(String),
    Type(String),
    UnknownFunction(String),
    Arity { function: String, expected: usize, found: usize },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            EvalError::Type(m) => write!(f, "type error: {m}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::Arity { function, expected, found } => {
                write!(f, "function `{function}` takes {expected} argument(s), found {found}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// SQL-style three-valued truthiness for predicates: NULL is not true.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Evaluates a pre-compiled expression against one row: column references
/// were bound to positions once per operator, so evaluation does no name
/// hashing. AND/OR short-circuit with SQL NULL semantics.
pub fn eval_compiled(expr: &CompiledExpr, row: &[Value]) -> Result<Value, EvalError> {
    match expr {
        CompiledExpr::Col(i) => Ok(row[*i].clone()),
        CompiledExpr::Int(v) => Ok(Value::Int(*v)),
        CompiledExpr::Float(v) => Ok(Value::Float(*v)),
        CompiledExpr::Str(s) => Ok(Value::Str(s.clone())),
        CompiledExpr::Bool(b) => Ok(Value::Bool(*b)),
        CompiledExpr::Null => Ok(Value::Null),
        CompiledExpr::Unary(op, e) => {
            let v = eval_compiled(e, row)?;
            match (op, v) {
                (_, Value::Null) => Ok(Value::Null),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (UnOp::Not, other) => Err(EvalError::Type(format!("NOT of non-boolean `{other}`"))),
                (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(-v)),
                (UnOp::Neg, Value::Float(v)) => Ok(Value::Float(-v)),
                (UnOp::Neg, other) => Err(EvalError::Type(format!("negation of non-numeric `{other}`"))),
            }
        }
        CompiledExpr::Binary(op, l, r) => {
            if matches!(op, BinOp::And | BinOp::Or) {
                let lv = eval_compiled(l, row)?;
                match (op, &lv) {
                    (BinOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
                    (BinOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let rv = eval_compiled(r, row)?;
                return combine_logical(*op, &lv, &rv);
            }
            let lv = eval_compiled(l, row)?;
            let rv = eval_compiled(r, row)?;
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &lv, &rv),
                BinOp::Eq => Ok(Value::Bool(compare(&lv, &rv)? == std::cmp::Ordering::Equal)),
                BinOp::Ne => Ok(Value::Bool(compare(&lv, &rv)? != std::cmp::Ordering::Equal)),
                BinOp::Lt => Ok(Value::Bool(compare(&lv, &rv)? == std::cmp::Ordering::Less)),
                BinOp::Le => Ok(Value::Bool(compare(&lv, &rv)? != std::cmp::Ordering::Greater)),
                BinOp::Gt => Ok(Value::Bool(compare(&lv, &rv)? == std::cmp::Ordering::Greater)),
                BinOp::Ge => Ok(Value::Bool(compare(&lv, &rv)? != std::cmp::Ordering::Less)),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
        CompiledExpr::Call(name, args) => call_compiled(name, args, row),
    }
}

/// SQL three-valued AND/OR over already-evaluated operands.
pub(crate) fn combine_logical(op: BinOp, lv: &Value, rv: &Value) -> Result<Value, EvalError> {
    let as_bool = |v: &Value| -> Result<Option<bool>, EvalError> {
        match v {
            Value::Bool(b) => Ok(Some(*b)),
            Value::Null => Ok(None),
            other => Err(EvalError::Type(format!("logical op on non-boolean `{other}`"))),
        }
    };
    let (a, b) = (as_bool(lv)?, as_bool(rv)?);
    let out = match op {
        BinOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!(),
    };
    Ok(out.map_or(Value::Null, Value::Bool))
}

pub(crate) fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    // Integer arithmetic stays integral except division.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(EvalError::Type(format!("arithmetic on `{l}` and `{r}`"))),
    };
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        _ => unreachable!(),
    })
}

pub(crate) fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering, EvalError> {
    use Value::*;
    match (l, r) {
        (Int(_) | Float(_), Int(_) | Float(_)) | (Str(_), Str(_)) | (Bool(_), Bool(_)) | (Date(_), Date(_)) => {
            Ok(l.total_cmp(r))
        }
        // Dates compare against their textual literal form, so xRQ slicers
        // like `l_shipdate >= '1995-01-01'` work without a cast syntax.
        (Date(_), Str(s)) => match Value::parse_date(s) {
            Some(d) => Ok(l.total_cmp(&d)),
            None => Err(EvalError::Type(format!("cannot compare date with `{s}`"))),
        },
        (Str(s), Date(_)) => match Value::parse_date(s) {
            Some(d) => Ok(d.total_cmp(r)),
            None => Err(EvalError::Type(format!("cannot compare `{s}` with date"))),
        },
        _ => Err(EvalError::Type(format!("cannot compare `{l}` with `{r}`"))),
    }
}

/// A scalar function over compiled arguments; `upper` was upper-cased at
/// bind time.
fn call_compiled(upper: &str, args: &[CompiledExpr], row: &[Value]) -> Result<Value, EvalError> {
    call_scalar(upper, args.len(), |i| eval_compiled(&args[i], row))
}

/// The single scalar-function evaluator behind [`eval_compiled`] and the
/// scalar fallback of the vectorized kernels.
/// Arguments arrive lazily through `arg` so CONCAT/COALESCE keep their
/// left-to-right evaluation order and COALESCE stays lazy past the first
/// non-NULL hit. `upper` must already be upper-cased.
pub(crate) fn call_scalar(
    upper: &str,
    n_args: usize,
    mut arg: impl FnMut(usize) -> Result<Value, EvalError>,
) -> Result<Value, EvalError> {
    let expect = |n: usize| -> Result<(), EvalError> {
        if n_args == n {
            Ok(())
        } else {
            Err(EvalError::Arity { function: upper.to_string(), expected: n, found: n_args })
        }
    };
    match upper {
        "YEAR" | "MONTH" | "DAY" => {
            expect(1)?;
            let v = arg(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let (y, m, d) = v.date_parts().ok_or_else(|| EvalError::Type(format!("{upper} of non-date `{v}`")))?;
            Ok(Value::Int(match upper {
                "YEAR" => y as i64,
                "MONTH" => m as i64,
                _ => d as i64,
            }))
        }
        "ABS" => {
            expect(1)?;
            match arg(0)? {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(EvalError::Type(format!("ABS of `{other}`"))),
            }
        }
        "CONCAT" => {
            let mut out = String::new();
            for i in 0..n_args {
                let v = arg(i)?;
                if !v.is_null() {
                    out.push_str(&v.to_string());
                }
            }
            Ok(Value::Str(out))
        }
        "COALESCE" => {
            for i in 0..n_args {
                let v = arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        other => Err(EvalError::UnknownFunction(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{parse_expr, ColType, Column, Schema, UnboundColumn};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("price", ColType::Decimal),
            Column::new("qty", ColType::Integer),
            Column::new("name", ColType::Text),
            Column::new("ship", ColType::Date),
            Column::new("maybe", ColType::Decimal),
        ])
    }

    fn row() -> Vec<Value> {
        vec![Value::Float(10.5), Value::Int(3), Value::Str("Spain".into()), Value::date(1995, 6, 17), Value::Null]
    }

    fn try_run(src: &str) -> Result<Value, EvalError> {
        let compiled = CompiledExpr::compile(&parse_expr(src).unwrap(), &schema()).unwrap();
        eval_compiled(&compiled, &row())
    }

    fn run(src: &str) -> Value {
        try_run(src).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("price * qty"), Value::Float(31.5));
        assert_eq!(run("qty + 2"), Value::Int(5));
        assert_eq!(run("qty / 2"), Value::Float(1.5));
        assert_eq!(run("qty - 5"), Value::Int(-2));
        assert_eq!(run("-qty"), Value::Int(-3));
    }

    #[test]
    fn division_by_zero_yields_null() {
        assert_eq!(run("qty / 0"), Value::Null);
        assert_eq!(run("price / 0.0"), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(run("price > 10"), Value::Bool(true));
        assert_eq!(run("qty = 3"), Value::Bool(true));
        assert_eq!(run("name = 'Spain'"), Value::Bool(true));
        assert_eq!(run("name <> 'France'"), Value::Bool(true));
        assert_eq!(run("qty <= 2"), Value::Bool(false));
        assert_eq!(run("price > 10 AND qty <= 3"), Value::Bool(true));
    }

    #[test]
    fn date_string_comparison() {
        assert_eq!(run("ship >= '1995-01-01'"), Value::Bool(true));
        assert_eq!(run("ship < '1995-01-01'"), Value::Bool(false));
        assert_eq!(run("YEAR(ship)"), Value::Int(1995));
        assert_eq!(run("MONTH(ship)"), Value::Int(6));
        assert_eq!(run("DAY(ship)"), Value::Int(17));
        assert_eq!(run("YEAR(ship) - 1900"), Value::Int(95));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(run("maybe + 1"), Value::Null);
        assert_eq!(run("maybe = maybe"), Value::Null, "NULL = NULL is NULL");
        assert!(!truthy(&run("maybe > 0")));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(run("maybe > 0 OR price > 0"), Value::Bool(true));
        assert_eq!(run("maybe > 0 AND price > 0"), Value::Null);
        assert_eq!(run("maybe > 0 AND price < 0"), Value::Bool(false));
        assert_eq!(run("NOT (maybe > 0)"), Value::Null);
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // false AND <error> must not evaluate the rhs.
        assert_eq!(run("qty < 0 AND MYSTERY(qty) = 1"), Value::Bool(false));
    }

    #[test]
    fn functions() {
        assert_eq!(run("ABS(0 - qty)"), Value::Int(3));
        assert_eq!(run("CONCAT(name, '!')"), Value::Str("Spain!".into()));
        assert_eq!(run("concat(name, '!')"), Value::Str("Spain!".into()), "names bind case-insensitively");
        assert_eq!(run("COALESCE(maybe, price)"), Value::Float(10.5));
        assert_eq!(run("CONCAT(maybe, name)"), Value::Str("Spain".into()), "NULL contributes nothing");
    }

    #[test]
    fn unknown_columns_are_rejected_at_bind_time() {
        let e = parse_expr("ghost + 1").unwrap();
        assert_eq!(CompiledExpr::compile(&e, &schema()).unwrap_err(), UnboundColumn("ghost".into()));
    }

    #[test]
    fn error_cases() {
        assert!(matches!(try_run("name + 1"), Err(EvalError::Type(_))));
        assert_eq!(try_run("MYSTERY(1)"), Err(EvalError::UnknownFunction("MYSTERY".into())));
        assert_eq!(
            try_run("YEAR(ship, ship)"),
            Err(EvalError::Arity { function: "YEAR".into(), expected: 1, found: 2 })
        );
        assert!(matches!(try_run("YEAR(qty)"), Err(EvalError::Type(_))));
    }

    #[test]
    fn not_of_boolean() {
        assert_eq!(run("NOT (qty = 3)"), Value::Bool(false));
    }
}
