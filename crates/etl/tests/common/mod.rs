//! Seeded random flows over a TPC-H-shaped table pool, shared by the
//! rewrite-move properties (`cost_consistency.rs`) and the optimizer's
//! search properties (`quarry-bench`'s `optimizer_equivalence.rs`, which
//! includes this file by path).

use quarry_etl::cost::SourceStats;
use quarry_etl::{parse_expr, AggSpec, ColType, Column, Flow, JoinKind, OpKind, Schema};

fn mix(state: &mut u64) -> u64 {
    // SplitMix64: deterministic, seedable, no external dependency.
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

pub fn pick(state: &mut u64, n: u64) -> u64 {
    mix(state) % n
}

pub fn chance(state: &mut u64, percent: u64) -> bool {
    pick(state, 100) < percent
}

fn lineitem() -> OpKind {
    OpKind::Datastore {
        datastore: "lineitem".into(),
        schema: Schema::new(vec![
            Column::new("l_orderkey", ColType::Integer),
            Column::new("l_partkey", ColType::Integer),
            Column::new("l_extendedprice", ColType::Decimal),
            Column::new("l_discount", ColType::Decimal),
            Column::new("l_quantity", ColType::Integer),
        ]),
    }
}

fn orders() -> OpKind {
    OpKind::Datastore {
        datastore: "orders".into(),
        schema: Schema::new(vec![
            Column::new("o_orderkey", ColType::Integer),
            Column::new("o_custkey", ColType::Integer),
            Column::new("o_totalprice", ColType::Decimal),
        ]),
    }
}

fn customer() -> OpKind {
    OpKind::Datastore {
        datastore: "customer".into(),
        schema: Schema::new(vec![
            Column::new("c_custkey", ColType::Integer),
            Column::new("c_name", ColType::Text),
            Column::new("c_acctbal", ColType::Decimal),
        ]),
    }
}

fn part() -> OpKind {
    OpKind::Datastore {
        datastore: "part".into(),
        schema: Schema::new(vec![
            Column::new("p_partkey", ColType::Integer),
            Column::new("p_name", ColType::Text),
            Column::new("p_retailprice", ColType::Decimal),
        ]),
    }
}

/// Appends a random run of unary operations over the lineitem schema.
fn random_lineitem_chain(f: &mut Flow, mut at: quarry_etl::OpId, rng: &mut u64, tag: &str) -> quarry_etl::OpId {
    let preds =
        ["l_discount > 0.05", "l_quantity < 25", "l_extendedprice > 1000", "l_discount > 0.01 AND l_quantity > 5"];
    for i in 0..pick(rng, 3) {
        let p = preds[pick(rng, preds.len() as u64) as usize];
        at = f.append(at, format!("SEL_{tag}_{i}"), OpKind::Selection { predicate: parse_expr(p).unwrap() }).unwrap();
    }
    if chance(rng, 30) {
        at = f.append(at, format!("SORT_{tag}"), OpKind::Sort { columns: vec!["l_orderkey".into()] }).unwrap();
    }
    at
}

/// A randomized but always-valid flow over the TPC-H-shaped table pool,
/// plus randomized statistics (rows, declared keys, observations).
pub fn random_flow(seed: u64) -> (Flow, SourceStats) {
    let mut rng = seed;
    let mut f = Flow::new(format!("rand_{seed}"));
    let li = f.add_op("DS_lineitem", lineitem()).unwrap();
    let mut spine = random_lineitem_chain(&mut f, li, &mut rng, "a");

    // Optionally a union of two lineitem branches (schemas stay identical:
    // selections and sorts preserve schema).
    if chance(&mut rng, 25) {
        let li2 = f.append(spine, "DUP_GUARD", OpKind::Distinct).unwrap();
        let li3 = f.add_op("DS_lineitem_b", lineitem()).unwrap();
        let branch = random_lineitem_chain(&mut f, li3, &mut rng, "b");
        let u = f.add_op("UNION_li", OpKind::Union).unwrap();
        f.connect(li2, u).unwrap();
        f.connect(branch, u).unwrap();
        spine = u;
    }

    // Join orders; maybe stack a part join on top (the swap-move shape).
    if chance(&mut rng, 80) {
        let ord = f.add_op("DS_orders", orders()).unwrap();
        let j = f
            .add_op(
                "JOIN_orders",
                OpKind::Join {
                    kind: if chance(&mut rng, 80) { JoinKind::Inner } else { JoinKind::Left },
                    left_on: vec!["l_orderkey".into()],
                    right_on: vec!["o_orderkey".into()],
                },
            )
            .unwrap();
        f.connect(spine, j).unwrap();
        f.connect(ord, j).unwrap();
        spine = j;
        // A customer join probing on an orders column: the shape the
        // re-association moves need (`(A ⋈ B) ⋈ C` with C's keys on B).
        if chance(&mut rng, 50) {
            let cust = f.add_op("DS_customer", customer()).unwrap();
            let jc = f
                .add_op(
                    "JOIN_customer",
                    OpKind::Join {
                        kind: JoinKind::Inner,
                        left_on: vec!["o_custkey".into()],
                        right_on: vec!["c_custkey".into()],
                    },
                )
                .unwrap();
            f.connect(spine, jc).unwrap();
            f.connect(cust, jc).unwrap();
            spine = jc;
        }
        if chance(&mut rng, 60) {
            let pt = f.add_op("DS_part", part()).unwrap();
            let pin = if chance(&mut rng, 50) {
                f.append(pt, "SEL_part", OpKind::Selection { predicate: parse_expr("p_retailprice > 500").unwrap() })
                    .unwrap()
            } else {
                pt
            };
            let j2 = f
                .add_op(
                    "JOIN_part",
                    OpKind::Join {
                        kind: JoinKind::Inner,
                        left_on: vec!["l_partkey".into()],
                        right_on: vec!["p_partkey".into()],
                    },
                )
                .unwrap();
            f.connect(spine, j2).unwrap();
            f.connect(pin, j2).unwrap();
            spine = j2;
        }
    }

    if chance(&mut rng, 40) {
        spine = f
            .append(
                spine,
                "DERIVE_rev",
                OpKind::Derivation {
                    column: "revenue".into(),
                    expr: parse_expr("l_extendedprice * (1 - l_discount)").unwrap(),
                },
            )
            .unwrap();
    }

    // Post-join filters keep the optimizer's pushdown moves interesting.
    if chance(&mut rng, 50) {
        spine = f
            .append(spine, "SEL_late", OpKind::Selection { predicate: parse_expr("l_quantity > 1").unwrap() })
            .unwrap();
    }

    if chance(&mut rng, 70) {
        spine = f
            .append(
                spine,
                "AGG_main",
                OpKind::Aggregation {
                    group_by: vec!["l_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "total")],
                },
            )
            .unwrap();
    }
    f.append(spine, "LOAD_main", OpKind::Loader { table: "fact".into(), key: vec![] }).unwrap();

    let mut stats = SourceStats::new()
        .with_table("lineitem", (1000 + pick(&mut rng, 9000)) as f64)
        .with_table("orders", (500 + pick(&mut rng, 2000)) as f64)
        .with_table("part", (200 + pick(&mut rng, 1000)) as f64)
        .with_table("customer", (100 + pick(&mut rng, 1500)) as f64);
    if chance(&mut rng, 70) {
        stats.declare_unique("orders", vec!["o_orderkey".into()]);
    }
    if chance(&mut rng, 70) {
        stats.declare_unique("part", vec!["p_partkey".into()]);
    }
    // Random observations against existing op names (absolute for any op,
    // io pairs for selections).
    let names: Vec<(String, bool)> =
        f.ops().map(|o| (o.name.clone(), matches!(o.kind, OpKind::Selection { .. }))).collect();
    for (name, is_sel) in names {
        if is_sel && chance(&mut rng, 40) {
            let rows_in = (100 + pick(&mut rng, 5000)) as f64;
            let rows_out = rows_in * (pick(&mut rng, 100) as f64 / 100.0);
            stats.observe_op_io(&name, rows_in, rows_out);
        } else if chance(&mut rng, 15) {
            stats.observe_op(&name, (1 + pick(&mut rng, 4000)) as f64);
        }
    }
    (f, stats)
}
