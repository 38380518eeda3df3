//! The search's flight-recorder trail: one `optimizer_move` event per kept
//! move. The recorder is process-wide, so this file holds a single test: no
//! other search records beside it.

use quarry_etl::cost::SourceStats;
use quarry_etl::{parse_expr, AggSpec, ColType, Column, Flow, JoinKind, OpKind, Schema};
use quarry_integrator::anneal::search;
use quarry_obs::flight::{recorder, EventKind};

fn datastore(name: &str, cols: &[(&str, ColType)]) -> OpKind {
    OpKind::Datastore {
        datastore: name.into(),
        schema: Schema::new(cols.iter().map(|&(c, t)| Column::new(c, t)).collect()),
    }
}

/// `(partsupp ⋈ part) ⋈ σ(supplier)` → aggregation → loader.
fn spine() -> Flow {
    let mut f = Flow::new("spine");
    let ps = f
        .add_op(
            "DS_partsupp",
            datastore(
                "partsupp",
                &[
                    ("ps_partkey", ColType::Integer),
                    ("ps_suppkey", ColType::Integer),
                    ("ps_supplycost", ColType::Decimal),
                ],
            ),
        )
        .unwrap();
    let pt =
        f.add_op("DS_part", datastore("part", &[("p_partkey", ColType::Integer), ("p_name", ColType::Text)])).unwrap();
    let sp = f
        .add_op("DS_supplier", datastore("supplier", &[("s_suppkey", ColType::Integer), ("s_nation", ColType::Text)]))
        .unwrap();
    let join = |left: &str, right: &str| OpKind::Join {
        kind: JoinKind::Inner,
        left_on: vec![left.into()],
        right_on: vec![right.into()],
    };
    let j1 = f.add_op("JOIN_part", join("ps_partkey", "p_partkey")).unwrap();
    f.connect(ps, j1).unwrap();
    f.connect(pt, j1).unwrap();
    let sel =
        f.append(sp, "SEL_spain", OpKind::Selection { predicate: parse_expr("s_nation = 'Spain'").unwrap() }).unwrap();
    let j2 = f.add_op("JOIN_supp", join("ps_suppkey", "s_suppkey")).unwrap();
    f.connect(j1, j2).unwrap();
    f.connect(sel, j2).unwrap();
    let sum = AggSpec::new("SUM", parse_expr("ps_supplycost").unwrap(), "total");
    let agg =
        f.append(j2, "AGG", OpKind::Aggregation { group_by: vec!["p_name".into()], aggregates: vec![sum] }).unwrap();
    f.append(agg, "LOAD", OpKind::Loader { table: "out".into(), key: vec![] }).unwrap();
    f
}

#[test]
fn every_kept_move_records_one_flight_event() {
    let stats = SourceStats::new()
        .with_table("partsupp", 8_000.0)
        .with_table("part", 2_000.0)
        .with_table("supplier", 100.0)
        .with_unique("part", &["p_partkey"])
        .with_unique("supplier", &["s_suppkey"]);
    let from = recorder().drain().recorded;
    let out = search(&spine(), &stats, 60_000).unwrap();
    let events: Vec<_> =
        recorder().drain().events.into_iter().filter(|e| e.seq >= from && e.kind == EventKind::OptimizerMove).collect();
    let kept: Vec<_> = out.log.iter().filter(|r| r.accepted).collect();
    assert!(out.accepted > 1, "the spine's swap and prunes pay");
    assert_eq!(events.len() as u64, out.accepted, "one event per kept move");
    assert_eq!(kept.len(), events.len(), "the log holds every proposal of this search");
    for (event, record) in events.iter().zip(kept) {
        assert_eq!(event.label, "descent");
        assert_eq!(event.a as usize, record.step, "`a` is the kept move's proposal number");
        let permille = (record.delta.unwrap() / out.start_cost * 1000.0) as i64;
        assert_eq!(event.b, permille, "`b` is its delta in thousandths of the start cost");
    }
}
