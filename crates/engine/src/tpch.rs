//! A deterministic TPC-H-shaped data generator.
//!
//! The demo's running example analyzes TPC-H sources (paper Figure 2 shows
//! the TPC-H ontology; Figures 3–4 use Partsupp/Orders/Lineitem flows). We
//! do not assume the official `dbgen` binary; this module synthesizes the
//! eight tables with the standard relative cardinalities (lineitem ≈ 6M·SF,
//! orders ≈ 1.5M·SF, …), seeded and reproducible.
//!
//! One deliberate deviation, documented in DESIGN.md: the nation list
//! includes **Spain** (the paper's Figure 4 slicer is
//! `Nation.n_name = 'Spain'`, which official TPC-H data could never match).

use crate::catalog::Catalog;
use crate::relation::RelationBuilder;
use crate::value::Value;
use quarry_etl::{ColType, Column, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 5 regions.
pub const REGIONS: [&str; 5] = ["Africa", "America", "Asia", "Europe", "Middle East"];

/// The 25 nations with their region index. Spain replaces one of the
/// official entries so the paper's slicer selects real rows.
pub const NATIONS: [(&str, usize); 25] = [
    ("Algeria", 0),
    ("Argentina", 1),
    ("Brazil", 1),
    ("Canada", 1),
    ("Egypt", 4),
    ("Ethiopia", 0),
    ("France", 3),
    ("Germany", 3),
    ("India", 2),
    ("Indonesia", 2),
    ("Iran", 4),
    ("Iraq", 4),
    ("Japan", 2),
    ("Jordan", 4),
    ("Kenya", 0),
    ("Morocco", 0),
    ("Mozambique", 0),
    ("Peru", 1),
    ("China", 2),
    ("Romania", 3),
    ("Saudi Arabia", 4),
    ("Spain", 3),
    ("Russia", 3),
    ("United Kingdom", 3),
    ("United States", 1),
];

/// Base row counts at SF = 1, in TPC-H proportions.
const SUPPLIER_BASE: f64 = 10_000.0;
const PART_BASE: f64 = 200_000.0;
const CUSTOMER_BASE: f64 = 150_000.0;
const ORDERS_BASE: f64 = 1_500_000.0;

/// Row counts for a scale factor: (supplier, part, partsupp, customer,
/// orders; lineitem is 1–7 per order).
pub fn row_counts(sf: f64) -> (usize, usize, usize, usize, usize) {
    let n = |base: f64| ((base * sf).round() as usize).max(1);
    let supplier = n(SUPPLIER_BASE);
    let part = n(PART_BASE);
    (supplier, part, part * 4, n(CUSTOMER_BASE), n(ORDERS_BASE))
}

fn cols(defs: &[(&str, ColType)]) -> Schema {
    Schema::new(defs.iter().map(|(n, t)| Column::new(*n, *t)).collect())
}

/// The physical schema of a TPC-H source table (includes FK columns that the
/// ontology models as associations rather than properties).
pub fn table_schema(table: &str) -> Option<Schema> {
    Some(match table {
        "region" => cols(&[("r_regionkey", ColType::Integer), ("r_name", ColType::Text), ("r_comment", ColType::Text)]),
        "nation" => cols(&[
            ("n_nationkey", ColType::Integer),
            ("n_name", ColType::Text),
            ("n_regionkey", ColType::Integer),
            ("n_comment", ColType::Text),
        ]),
        "supplier" => cols(&[
            ("s_suppkey", ColType::Integer),
            ("s_name", ColType::Text),
            ("s_address", ColType::Text),
            ("s_nationkey", ColType::Integer),
            ("s_phone", ColType::Text),
            ("s_acctbal", ColType::Decimal),
            ("s_comment", ColType::Text),
        ]),
        "customer" => cols(&[
            ("c_custkey", ColType::Integer),
            ("c_name", ColType::Text),
            ("c_address", ColType::Text),
            ("c_nationkey", ColType::Integer),
            ("c_phone", ColType::Text),
            ("c_acctbal", ColType::Decimal),
            ("c_mktsegment", ColType::Text),
            ("c_comment", ColType::Text),
        ]),
        "part" => cols(&[
            ("p_partkey", ColType::Integer),
            ("p_name", ColType::Text),
            ("p_mfgr", ColType::Text),
            ("p_brand", ColType::Text),
            ("p_type", ColType::Text),
            ("p_size", ColType::Integer),
            ("p_container", ColType::Text),
            ("p_retailprice", ColType::Decimal),
            ("p_comment", ColType::Text),
        ]),
        "partsupp" => cols(&[
            ("ps_partkey", ColType::Integer),
            ("ps_suppkey", ColType::Integer),
            ("ps_availqty", ColType::Integer),
            ("ps_supplycost", ColType::Decimal),
            ("ps_comment", ColType::Text),
        ]),
        "orders" => cols(&[
            ("o_orderkey", ColType::Integer),
            ("o_custkey", ColType::Integer),
            ("o_orderstatus", ColType::Text),
            ("o_totalprice", ColType::Decimal),
            ("o_orderdate", ColType::Date),
            ("o_orderpriority", ColType::Text),
            ("o_clerk", ColType::Text),
            ("o_shippriority", ColType::Integer),
            ("o_comment", ColType::Text),
        ]),
        "lineitem" => cols(&[
            ("l_orderkey", ColType::Integer),
            ("l_partkey", ColType::Integer),
            ("l_suppkey", ColType::Integer),
            ("l_linenumber", ColType::Integer),
            ("l_quantity", ColType::Decimal),
            ("l_extendedprice", ColType::Decimal),
            ("l_discount", ColType::Decimal),
            ("l_tax", ColType::Decimal),
            ("l_returnflag", ColType::Text),
            ("l_linestatus", ColType::Text),
            ("l_shipdate", ColType::Date),
            ("l_commitdate", ColType::Date),
            ("l_receiptdate", ColType::Date),
            ("l_shipinstruct", ColType::Text),
            ("l_shipmode", ColType::Text),
            ("l_comment", ColType::Text),
        ]),
        _ => return None,
    })
}

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const CONTAINERS: [&str; 8] = ["BAG", "BOX", "CAN", "CASE", "DRUM", "JAR", "PACK", "PKG"];
const TYPES: [&str; 6] = ["ANODIZED", "BRUSHED", "BURNISHED", "PLATED", "POLISHED", "ECONOMY"];

/// A row-at-a-time builder over `table`'s physical schema: generated rows go
/// straight into typed columns, never staged as `Vec<Value>` rows.
fn builder(table: &str) -> RelationBuilder {
    RelationBuilder::new(table_schema(table).expect("known table"))
}

/// Generates all eight tables at a scale factor. Deterministic for a given
/// `(sf, seed)` pair.
pub fn generate(sf: f64, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n_supplier, n_part, _, n_customer, n_orders) = row_counts(sf);
    let mut catalog = Catalog::new();

    let mut region = builder("region");
    for (i, name) in REGIONS.iter().enumerate() {
        region.push_row([Value::Int(i as i64), Value::Str((*name).into()), Value::Str(format!("region {name}"))]);
    }
    catalog.put("region", region.finish());

    let mut nation = builder("nation");
    for (i, (name, region)) in NATIONS.iter().enumerate() {
        nation.push_row([
            Value::Int(i as i64),
            Value::Str((*name).into()),
            Value::Int(*region as i64),
            Value::Str(format!("nation {name}")),
        ]);
    }
    catalog.put("nation", nation.finish());

    let mut supplier = builder("supplier");
    for i in 0..n_supplier {
        let nation = rng.gen_range(0..NATIONS.len()) as i64;
        supplier.push_row([
            Value::Int(i as i64 + 1),
            Value::Str(format!("Supplier#{:09}", i + 1)),
            Value::Str(format!("addr s{}", i + 1)),
            Value::Int(nation),
            Value::Str(format!("{:02}-{:03}-{:03}-{:04}", 10 + nation, i % 1000, (i * 7) % 1000, (i * 13) % 10_000)),
            Value::Float((rng.gen_range(-99_999..999_999) as f64) / 100.0),
            Value::Str("supplier comment".into()),
        ]);
    }
    catalog.put("supplier", supplier.finish());

    let mut part = builder("part");
    for i in 0..n_part {
        let mfgr = rng.gen_range(1..=5);
        let brand = mfgr * 10 + rng.gen_range(1..=5);
        part.push_row([
            Value::Int(i as i64 + 1),
            Value::Str(format!("Part#{:09}", i + 1)),
            Value::Str(format!("Manufacturer#{mfgr}")),
            Value::Str(format!("Brand#{brand}")),
            Value::Str(TYPES[rng.gen_range(0..TYPES.len())].into()),
            Value::Int(rng.gen_range(1..=50)),
            Value::Str(CONTAINERS[rng.gen_range(0..CONTAINERS.len())].into()),
            Value::Float(900.0 + ((i % 1000) as f64) / 10.0 + (i / 1000) as f64),
            Value::Str("part comment".into()),
        ]);
    }
    catalog.put("part", part.finish());

    // partsupp: 4 suppliers per part, TPC-H's modular spread.
    let mut partsupp = builder("partsupp");
    for p in 0..n_part {
        for s in 0..4usize {
            let suppkey = ((p + s * (n_supplier / 4 + 1)) % n_supplier) as i64 + 1;
            partsupp.push_row([
                Value::Int(p as i64 + 1),
                Value::Int(suppkey),
                Value::Int(rng.gen_range(1..10_000)),
                Value::Float((rng.gen_range(100..100_000) as f64) / 100.0),
                Value::Str("partsupp comment".into()),
            ]);
        }
    }
    catalog.put("partsupp", partsupp.finish());

    let mut customer = builder("customer");
    for i in 0..n_customer {
        let nation = rng.gen_range(0..NATIONS.len()) as i64;
        customer.push_row([
            Value::Int(i as i64 + 1),
            Value::Str(format!("Customer#{:09}", i + 1)),
            Value::Str(format!("addr c{}", i + 1)),
            Value::Int(nation),
            Value::Str(format!("{:02}-{:03}-{:03}-{:04}", 10 + nation, i % 1000, (i * 3) % 1000, (i * 11) % 10_000)),
            Value::Float((rng.gen_range(-99_999..999_999) as f64) / 100.0),
            Value::Str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].into()),
            Value::Str("customer comment".into()),
        ]);
    }
    catalog.put("customer", customer.finish());

    // orders + lineitem
    let epoch_lo = date_days(1992, 1, 1);
    let epoch_hi = date_days(1998, 8, 2);
    let mut orders = builder("orders");
    let mut lineitem = builder("lineitem");
    for o in 0..n_orders {
        let orderkey = o as i64 + 1;
        let custkey = rng.gen_range(0..n_customer) as i64 + 1;
        let orderdate = rng.gen_range(epoch_lo..=epoch_hi);
        let lines = rng.gen_range(1..=7usize);
        let mut total = 0.0;
        for ln in 0..lines {
            let partkey = rng.gen_range(0..n_part) as i64 + 1;
            // Pick one of the part's four suppliers so the FK into partsupp
            // holds (composite key l_partkey, l_suppkey exists there).
            let s = rng.gen_range(0..4usize);
            let suppkey = (((partkey - 1) as usize + s * (n_supplier / 4 + 1)) % n_supplier) as i64 + 1;
            let quantity = rng.gen_range(1..=50) as f64;
            let retail = 900.0 + (((partkey - 1) % 1000) as f64) / 10.0 + ((partkey - 1) / 1000) as f64;
            let extended = quantity * retail;
            let discount = (rng.gen_range(0..=10) as f64) / 100.0;
            let tax = (rng.gen_range(0..=8) as f64) / 100.0;
            let shipdate = orderdate + rng.gen_range(1..=121);
            total += extended * (1.0 - discount) * (1.0 + tax);
            lineitem.push_row([
                Value::Int(orderkey),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(ln as i64 + 1),
                Value::Float(quantity),
                Value::Float(extended),
                Value::Float(discount),
                Value::Float(tax),
                Value::Str(if shipdate < epoch_hi - 90 { "R" } else { "N" }.into()),
                Value::Str(if shipdate < epoch_hi - 90 { "F" } else { "O" }.into()),
                Value::Date(shipdate),
                Value::Date(shipdate + rng.gen_range(-30..30)),
                Value::Date(shipdate + rng.gen_range(1..30)),
                Value::Str("DELIVER IN PERSON".into()),
                Value::Str(MODES[rng.gen_range(0..MODES.len())].into()),
                Value::Str("lineitem comment".into()),
            ]);
        }
        orders.push_row([
            Value::Int(orderkey),
            Value::Int(custkey),
            Value::Str(if orderdate < epoch_hi - 200 { "F" } else { "O" }.into()),
            Value::Float((total * 100.0).round() / 100.0),
            Value::Date(orderdate),
            Value::Str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].into()),
            Value::Str(format!("Clerk#{:09}", rng.gen_range(1..=1000))),
            Value::Int(0),
            Value::Str("order comment".into()),
        ]);
    }
    catalog.put("orders", orders.finish());
    catalog.put("lineitem", lineitem.finish());

    catalog
}

fn date_days(y: i32, m: u32, d: u32) -> i32 {
    match Value::date(y, m, d) {
        Value::Date(v) => v,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_follow_tpch_proportions() {
        let c = generate(0.001, 42);
        assert_eq!(c.get("region").unwrap().len(), 5);
        assert_eq!(c.get("nation").unwrap().len(), 25);
        assert_eq!(c.get("supplier").unwrap().len(), 10);
        assert_eq!(c.get("part").unwrap().len(), 200);
        assert_eq!(c.get("partsupp").unwrap().len(), 800);
        assert_eq!(c.get("customer").unwrap().len(), 150);
        assert_eq!(c.get("orders").unwrap().len(), 1500);
        let li = c.get("lineitem").unwrap().len();
        assert!((1500..=1500 * 7).contains(&li), "lineitem count {li}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0.001, 7);
        let b = generate(0.001, 7);
        assert_eq!(a.get("lineitem").unwrap(), b.get("lineitem").unwrap());
        let c = generate(0.001, 8);
        assert_ne!(a.get("lineitem").unwrap(), c.get("lineitem").unwrap());
    }

    #[test]
    fn spain_exists_for_the_paper_slicer() {
        let c = generate(0.001, 42);
        let nation = c.get("nation").unwrap();
        assert!(nation.column_values("n_name").contains(&Value::Str("Spain".into())));
    }

    #[test]
    fn foreign_keys_resolve() {
        let c = generate(0.001, 42);
        let nation_keys: std::collections::HashSet<_> =
            c.get("nation").unwrap().column_values("n_nationkey").into_iter().collect();
        for col in c.get("customer").unwrap().column_values("c_nationkey") {
            assert!(nation_keys.contains(&col));
        }
        let supp_keys: std::collections::HashSet<_> =
            c.get("supplier").unwrap().column_values("s_suppkey").into_iter().collect();
        for v in c.get("lineitem").unwrap().column_values("l_suppkey") {
            assert!(supp_keys.contains(&v));
        }
        // Composite FK into partsupp.
        let ps = c.get("partsupp").unwrap();
        let (pi, si) = (ps.col("ps_partkey"), ps.col("ps_suppkey"));
        let ps_keys: std::collections::HashSet<(Value, Value)> =
            ps.iter_rows().map(|r| (r[pi].clone(), r[si].clone())).collect();
        let li = c.get("lineitem").unwrap();
        let (lpi, lsi) = (li.col("l_partkey"), li.col("l_suppkey"));
        for r in li.iter_rows() {
            assert!(ps_keys.contains(&(r[lpi].clone(), r[lsi].clone())), "lineitem (part,supp) must exist in partsupp");
        }
    }

    #[test]
    fn schemas_match_generated_rows() {
        let c = generate(0.001, 42);
        for t in ["region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"] {
            let rel = c.get(t).unwrap();
            let schema = table_schema(t).unwrap();
            assert_eq!(rel.schema, schema, "{t}");
            for row in rel.iter_rows().take(5) {
                assert_eq!(row.len(), schema.len(), "{t} row width");
            }
        }
        assert!(table_schema("bogus").is_none());
    }

    #[test]
    fn dates_are_in_range() {
        let c = generate(0.001, 42);
        let li = c.get("lineitem").unwrap();
        for v in li.column_values("l_shipdate") {
            let (y, _, _) = v.date_parts().expect("ship dates are dates");
            assert!((1992..=1999).contains(&y), "{v}");
        }
    }

    #[test]
    fn discounts_bounded() {
        let c = generate(0.001, 42);
        for v in c.get("lineitem").unwrap().column_values("l_discount") {
            let f = v.as_f64().unwrap();
            assert!((0.0..=0.10).contains(&f));
        }
    }
}
