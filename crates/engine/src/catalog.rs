//! The table catalog: named relations the engine reads from and loads into.

use crate::relation::Relation;
use quarry_etl::Schema;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A catalog of named in-memory tables. Iteration order is name order so
/// that reports and tests are deterministic.
///
/// Tables are reference-counted so the executor can hand a whole table to a
/// datastore operator without copying a single row; mutation goes through
/// [`Catalog::get_mut`], which copies-on-write only while a reader still
/// holds the table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Relation>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table.
    pub fn put(&mut self, name: impl Into<String>, relation: Relation) {
        self.tables.insert(name.into(), Arc::new(relation));
    }

    /// Registers (or replaces) a table that is already reference-counted,
    /// sharing its rows instead of copying them.
    pub fn put_shared(&mut self, name: impl Into<String>, relation: Arc<Relation>) {
        self.tables.insert(name.into(), relation);
    }

    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name).map(|t| &**t)
    }

    /// A reference-counted handle to a table: the zero-copy read path of
    /// datastore operators.
    pub fn get_shared(&self, name: &str) -> Option<Arc<Relation>> {
        self.tables.get(name).cloned()
    }

    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.tables.remove(name).map(|t| Arc::try_unwrap(t).unwrap_or_else(|t| (*t).clone()))
    }

    /// Creates an empty table with the given schema (deployment DDL effect).
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) {
        self.tables.insert(name.into(), Arc::new(Relation::new(schema)));
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Derives source statistics (row counts per table) for the ETL cost
    /// models from the actual data — what a deployed Quarry would sample
    /// from its sources instead of relying on configured estimates.
    pub fn statistics(&self) -> quarry_etl::cost::SourceStats {
        let mut stats = quarry_etl::cost::SourceStats::new();
        for (name, relation) in &self.tables {
            stats.set_table(name.clone(), relation.len() as f64);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use quarry_etl::{ColType, Column};

    #[test]
    fn put_get_remove() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::new("x", ColType::Integer)]);
        c.put("t", Relation::with_rows(schema.clone(), vec![vec![Value::Int(1)]]));
        assert!(c.contains("t"));
        assert_eq!(c.get("t").unwrap().len(), 1);
        assert_eq!(c.total_rows(), 1);
        c.create_table("t", schema); // replace with empty
        assert_eq!(c.get("t").unwrap().len(), 0);
        assert!(c.remove("t").is_some());
        assert!(c.is_empty());
    }

    #[test]
    fn statistics_reflect_row_counts() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::new("x", ColType::Integer)]);
        c.put("t", Relation::with_rows(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]));
        let stats = c.statistics();
        assert_eq!(stats.table_rows("t"), 2.0);
    }

    #[test]
    fn names_iterate_sorted() {
        let mut c = Catalog::new();
        for n in ["zeta", "alpha", "mid"] {
            c.create_table(n, Schema::empty());
        }
        assert_eq!(c.table_names().collect::<Vec<_>>(), ["alpha", "mid", "zeta"]);
    }
}
