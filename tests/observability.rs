//! End-to-end observability: a full lifecycle run (add → deploy → execute)
//! yields a retrievable span tree covering every phase, with per-phase
//! timings, per-operator engine rows/time, and cost deltas — via the façade,
//! the service endpoints, and the repository's versioned trace documents.

use quarry::obs::AttrValue;
use quarry::service::{handle, ServiceRequest, ServiceResponse};
use quarry::Quarry;
use quarry_formats::xrq::figure4_requirement;
use quarry_repository::{ArtifactKind, Json};

#[test]
fn full_run_yields_a_span_tree_covering_every_lifecycle_phase() {
    let mut q = Quarry::tpch();
    q.set_observability(true);
    q.add_requirement(figure4_requirement()).unwrap();
    q.deploy("native").unwrap();
    let (_, report) = q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();

    let trace = q.trace();
    assert_eq!(
        trace.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        ["add_requirement", "deploy", "execute"],
        "one root span per lifecycle step"
    );

    // Phase coverage: interpret → md_integrate → etl_integrate → validate
    // under add_requirement, then deploy and execute as their own steps.
    let add = &trace.spans[0];
    for phase in ["interpret", "md_integrate", "etl_integrate", "validate"] {
        let span = add.child(phase).unwrap_or_else(|| panic!("missing phase `{phase}` in {trace:?}"));
        assert!(span.start >= add.start, "{phase} starts within the step");
        assert!(span.elapsed <= add.elapsed, "{phase} fits inside the step");
    }
    assert_eq!(add.attr("requirement"), Some(&AttrValue::Str("IR1".into())));
    assert!(matches!(add.attr("md_cost"), Some(AttrValue::Float(c)) if *c > 0.0));

    // Cost deltas on the integrate phases: empty design → first requirement
    // means cost_before = 0 and cost_after = cost_delta > 0.
    let mdi = add.child("md_integrate").unwrap();
    assert_eq!(mdi.attr("cost_before"), Some(&AttrValue::Float(0.0)));
    assert!(matches!(mdi.attr("cost_delta"), Some(AttrValue::Float(d)) if *d > 0.0));
    let etli = add.child("etl_integrate").unwrap();
    assert!(matches!(etli.attr("cost_after"), Some(AttrValue::Float(c)) if *c > 0.0));

    // Deploy span carries the platform and what it emitted.
    let deploy = &trace.spans[1];
    assert_eq!(deploy.attr("platform"), Some(&AttrValue::Str("native".into())));
    assert!(matches!(deploy.attr("files"), Some(AttrValue::Int(n)) if *n >= 1));

    // Execute span: one child per engine operator, carrying the engine's own
    // measured rows and time (not re-measured by the lifecycle layer).
    let execute = &trace.spans[2];
    assert_eq!(execute.children.len(), report.timings.len());
    for timing in &report.timings {
        let op = execute.child(&timing.op).unwrap_or_else(|| panic!("missing operator span `{}`", timing.op));
        assert_eq!(op.elapsed, timing.elapsed, "engine timing lifted verbatim");
        assert_eq!(op.attr("rows_out"), Some(&AttrValue::Int(timing.rows_out as i64)));
        assert_eq!(op.attr("rows_in"), Some(&AttrValue::Int(timing.rows_in as i64)));
    }
    let loader = execute.find("LOADER_fact_table_revenue").expect("loader operator span");
    assert!(matches!(loader.attr("rows_in"), Some(AttrValue::Int(n)) if *n > 0));
    assert!(matches!(execute.attr("rows_processed"), Some(AttrValue::Int(n)) if *n > 0));

    // Metrics registry accumulated engine counters.
    assert_eq!(q.observability().metric("engine.runs").and_then(|m| m.as_counter()), Some(1));
    assert!(q.observability().metric("engine.rows").and_then(|m| m.as_counter()).unwrap() > 0);
}

#[test]
fn trace_is_retrievable_via_service_and_versioned_in_the_repository() {
    let mut q = Quarry::tpch();
    q.set_observability(true);
    let xrq = figure4_requirement().to_string_pretty();
    handle(&mut q, ServiceRequest::AddRequirement { xrq });
    handle(&mut q, ServiceRequest::Deploy { platform: "native".into() });
    q.run_etl(quarry_engine::tpch::generate(0.002, 42)).unwrap();

    // GetTrace returns the span forest as JSON.
    let doc = match handle(&mut q, ServiceRequest::GetTrace) {
        ServiceResponse::Document(doc) => doc,
        other => panic!("{other:?}"),
    };
    let json = Json::parse(&doc).expect("trace document is well-formed JSON");
    let spans = json.get("spans").and_then(Json::as_array).unwrap();
    let names: Vec<&str> = spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    assert_eq!(names, ["add_requirement", "deploy", "execute"]);
    assert!(json.path("spans.0.elapsedUs").and_then(Json::as_f64).is_some(), "per-phase timing present");
    assert_eq!(json.path("spans.0.children.0.name").and_then(Json::as_str), Some("interpret"));
    assert_eq!(json.path("spans.1.attrs.platform").and_then(Json::as_str), Some("native"));

    // GetMetrics includes the engine counters and pool statistics.
    let metrics = match handle(&mut q, ServiceRequest::GetMetrics) {
        ServiceResponse::Document(doc) => Json::parse(&doc).unwrap(),
        other => panic!("{other:?}"),
    };
    assert_eq!(metrics.get("counters").and_then(|c| c.get("engine.runs")).and_then(Json::as_f64), Some(1.0));
    assert!(metrics.path("pool.regions").and_then(Json::as_f64).is_some());

    // Each lifecycle step versioned its own trace document in the
    // repository: one root per version, in step order. A failed step is
    // versioned too, carrying its error.
    assert!(matches!(
        handle(&mut q, ServiceRequest::Deploy { platform: "teradata".into() }),
        ServiceResponse::Error(_)
    ));
    let roots = session_roots(&q);
    let names: Vec<&str> = roots.iter().map(|spans| spans[0].get("name").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(names, ["add_requirement", "deploy", "execute", "deploy"]);
    assert!(roots.iter().all(|spans| spans.len() == 1), "one root per version");
    assert_eq!(roots[0][0].path("children.0.name").and_then(Json::as_str), Some("interpret"));
    assert_eq!(roots[1][0].path("attrs.platform").and_then(Json::as_str), Some("native"));
    assert!(roots[1][0].path("attrs.error").is_none());
    let error = roots[3][0].path("attrs.error").and_then(Json::as_str).expect("the failed deploy's error");
    assert!(error.contains("teradata"), "{error}");

    // The rendered tree (what `quarry-cli trace` prints) names every phase.
    let rendered = q.trace().render();
    for phase in ["add_requirement", "interpret", "md_integrate", "etl_integrate", "validate", "deploy", "execute"] {
        assert!(rendered.contains(phase), "rendered tree missing `{phase}`:\n{rendered}");
    }
}

/// The `spans` array of every stored `Trace/session` version, oldest first.
fn session_roots(q: &Quarry) -> Vec<Vec<Json>> {
    let history = q.repository().history(ArtifactKind::Trace, "session").unwrap();
    history
        .iter()
        .map(|version| {
            let doc = Json::parse(&version.content).expect("trace version is well-formed JSON");
            doc.get("spans").and_then(Json::as_array).expect("trace version has spans").to_vec()
        })
        .collect()
}

#[test]
fn a_change_writes_one_trace_version() {
    let mut q = Quarry::tpch();
    q.set_observability(true);
    q.add_requirement(figure4_requirement()).unwrap();
    let mut changed = figure4_requirement();
    changed.slicers.clear();
    q.change_requirement(changed).unwrap();

    let roots = session_roots(&q);
    assert_eq!(roots.len(), 2, "one version for the add, one for the change");
    let change = &roots[1];
    assert_eq!(change.len(), 1);
    assert_eq!(change[0].get("name").and_then(Json::as_str), Some("change_requirement"));
    let children: Vec<&str> = change[0]
        .get("children")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(children, ["remove_requirement", "add_requirement"]);
}

#[test]
fn observability_is_off_by_default_and_clearable() {
    let mut q = Quarry::tpch();
    q.add_requirement(figure4_requirement()).unwrap();
    assert!(q.trace().is_empty(), "disabled by default");
    assert!(q.observability().metrics().is_empty());
    assert!(
        q.repository().history(ArtifactKind::Trace, "session").unwrap().is_empty(),
        "nothing persisted while disabled"
    );

    q.set_observability(true);
    q.deploy("native").unwrap();
    assert!(!q.trace().is_empty());
    q.observability().clear();
    assert!(q.trace().is_empty());
}

#[test]
fn failed_steps_are_traced_with_their_error() {
    let q = Quarry::tpch();
    q.set_observability(true);
    assert!(q.deploy("teradata").is_err());
    let trace = q.trace();
    let deploy = trace.find("deploy").expect("failed step still recorded");
    match deploy.attr("error") {
        Some(AttrValue::Str(e)) => assert!(e.contains("teradata"), "{e}"),
        other => panic!("expected error attr, got {other:?}"),
    }
}
