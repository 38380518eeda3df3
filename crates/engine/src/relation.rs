//! Relations: schemas plus `Arc`-shared typed columns.
//!
//! Storage is columnar — one [`Column`] per schema attribute, shared via
//! `Arc` so projections and zero-copy operators are pointer bumps — but the
//! row view survives as a shim: [`Relation::row`], [`Relation::iter_rows`],
//! and [`Relation::to_rows`] materialize `Vec<Value>` rows on demand, which
//! keeps the deployer, repository, and cost model blissfully row-oriented.

use crate::column::{Column as Col, ColumnBuilder};
use crate::value::Value;
use quarry_etl::{ColType, Schema};
use std::fmt;
use std::sync::Arc;

/// A row of values, positionally aligned with a schema.
pub type Row = Vec<Value>;

/// An in-memory columnar relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub schema: Schema,
    pub(crate) columns: Vec<Arc<Col>>,
    pub(crate) nrows: usize,
}

impl Relation {
    pub fn new(schema: Schema) -> Self {
        let columns = schema.columns.iter().map(|c| Arc::new(Col::empty(c.ty))).collect();
        Relation { schema, columns, nrows: 0 }
    }

    /// Builds a relation from row-major data — every row is transposed into
    /// the typed column builders.
    pub fn with_rows(schema: Schema, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        let mut b = RelationBuilder::new(schema);
        for row in rows {
            b.push_row(row);
        }
        b.finish()
    }

    /// Assembles a relation directly from columns (all the same length).
    pub fn from_columns(schema: Schema, columns: Vec<Arc<Col>>) -> Self {
        debug_assert_eq!(schema.len(), columns.len());
        let nrows = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == nrows));
        Relation { schema, columns, nrows }
    }

    pub fn len(&self) -> usize {
        self.nrows
    }

    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Index of a column by name; panics if missing (executor-internal,
    /// schemas were validated by the flow before execution).
    pub fn col(&self, name: &str) -> usize {
        self.schema.index_of(name).unwrap_or_else(|| panic!("column `{name}` missing from {}", self.schema))
    }

    /// The shared columns, in schema order.
    pub fn columns(&self) -> &[Arc<Col>] {
        &self.columns
    }

    /// One shared column by position.
    pub fn column(&self, i: usize) -> &Arc<Col> {
        &self.columns[i]
    }

    /// All values of one column (materialized).
    pub fn column_values(&self, name: &str) -> Vec<Value> {
        let c = &self.columns[self.col(name)];
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    /// Row `i`, materialized — the row-view shim.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Iterator over materialized rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.nrows).map(|i| self.row(i))
    }

    /// Every row, materialized.
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter_rows().collect()
    }

    /// Drops all rows, keeping the schema (columns reset to empty).
    pub fn clear(&mut self) {
        let tys: Vec<ColType> = self.schema.columns.iter().map(|c| c.ty).collect();
        self.columns = tys.into_iter().map(|ty| Arc::new(Col::empty(ty))).collect();
        self.nrows = 0;
    }

    /// Rows sorted by the full row, for order-insensitive comparisons.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.to_rows();
        rows.sort_by(row_cmp);
        rows
    }

    /// Estimated heap footprint of the relation: the sum of its columns'
    /// estimates (see [`Col::estimated_bytes`]) plus a small fixed overhead
    /// per column. Columns are `Arc`-shared, so this counts shared storage
    /// in full — a deliberate overestimate for cache-budget accounting.
    pub fn estimated_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.estimated_bytes() + 64).sum()
    }
}

/// Cell-wise logical equality: representations may differ (a dictionary
/// column equals a plain-string column holding the same strings), values
/// may not. Order-sensitive, like the row engine's `Vec<Row>` equality.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.nrows != other.nrows {
            return false;
        }
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| Arc::ptr_eq(a, b) || (0..self.nrows).all(|i| a.value(i) == b.value(i)))
    }
}

pub(crate) fn row_cmp(a: &Row, b: &Row) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let c = x.total_cmp(y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in self.iter_rows().take(20) {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.nrows > 20 {
            writeln!(f, "  … {} more rows", self.nrows - 20)?;
        }
        Ok(())
    }
}

/// Asserts two relations hold the same bag of rows (order-insensitive) over
/// the same column names. Panics with a readable diff otherwise — the
/// backbone of the equivalence-rule correctness property tests.
pub fn assert_same_rows(a: &Relation, b: &Relation) {
    assert_eq!(a.schema.names().collect::<Vec<_>>(), b.schema.names().collect::<Vec<_>>(), "schemas differ");
    if a.sorted_rows() != b.sorted_rows() {
        panic!("relations differ:\nleft ({} rows):\n{a}\nright ({} rows):\n{b}", a.len(), b.len());
    }
}

/// Row-at-a-time construction of a columnar relation — the generator-facing
/// counterpart of [`Relation::with_rows`] that avoids buffering row vectors.
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
    nrows: usize,
}

impl RelationBuilder {
    pub fn new(schema: Schema) -> Self {
        let builders = schema.columns.iter().map(|c| ColumnBuilder::new(c.ty)).collect();
        RelationBuilder { schema, builders, nrows: 0 }
    }

    /// Appends one row: a `Vec`, an array, or any other sequence of exactly
    /// one value per column.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let mut width = 0;
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push(v);
            width += 1;
        }
        debug_assert_eq!(width, self.builders.len());
        self.nrows += 1;
    }

    pub fn finish(self) -> Relation {
        let columns: Vec<Arc<Col>> = self.builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Relation { schema: self.schema, columns, nrows: self.nrows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::{ColType, Column};

    fn rel() -> Relation {
        Relation::with_rows(
            Schema::new(vec![Column::new("k", ColType::Integer), Column::new("v", ColType::Text)]),
            vec![vec![Value::Int(2), Value::Str("b".into())], vec![Value::Int(1), Value::Str("a".into())]],
        )
    }

    #[test]
    fn column_access() {
        let r = rel();
        assert_eq!(r.col("v"), 1);
        assert_eq!(r.column_values("k"), [Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn row_shim_materializes_rows() {
        let r = rel();
        assert_eq!(r.row(1), vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(r.to_rows().len(), 2);
        assert_eq!(r.iter_rows().next().unwrap()[0], Value::Int(2));
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_column_panics() {
        rel().col("zzz");
    }

    #[test]
    fn sorted_rows_orders_by_full_row() {
        let rows = rel().sorted_rows();
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn same_rows_ignores_order() {
        let a = rel();
        let mut rows = rel().to_rows();
        rows.reverse();
        let b = Relation::with_rows(a.schema.clone(), rows);
        assert_same_rows(&a, &b);
    }

    #[test]
    #[should_panic(expected = "relations differ")]
    fn different_bags_panic() {
        let a = rel();
        let mut rows = rel().to_rows();
        rows.pop();
        let b = Relation::with_rows(a.schema.clone(), rows);
        assert_same_rows(&a, &b);
    }

    #[test]
    #[should_panic(expected = "schemas differ")]
    fn different_schemas_panic() {
        let a = rel();
        let b = Relation::new(Schema::new(vec![Column::new("x", ColType::Integer)]));
        assert_same_rows(&a, &b);
    }

    #[test]
    fn equality_is_order_sensitive_and_representation_blind() {
        let a = rel();
        let b = rel();
        assert_eq!(a, b);
        let mut rows = a.to_rows();
        rows.reverse();
        let c = Relation::with_rows(a.schema.clone(), rows);
        assert_ne!(a, c, "same bag, different order");
    }

    #[test]
    fn clear_keeps_schema_drops_rows() {
        let mut r = rel();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.schema.len(), 2);
    }

    #[test]
    fn builder_matches_with_rows() {
        let schema = rel().schema.clone();
        let mut b = RelationBuilder::new(schema.clone());
        b.push_row(vec![Value::Int(2), Value::Str("b".into())]);
        b.push_row(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(b.finish(), rel());
    }

    #[test]
    fn display_truncates() {
        let mut rows = rel().to_rows();
        for i in 0..30 {
            rows.push(vec![Value::Int(i), Value::Str("x".into())]);
        }
        let text = Relation::with_rows(rel().schema.clone(), rows).to_string();
        assert!(text.contains("more rows"));
    }
}
