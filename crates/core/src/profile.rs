//! EXPLAIN ANALYZE execution profiles: the plan tree of one engine run,
//! annotated with what the cost model *predicted* and what the engine
//! *measured*.
//!
//! A [`RunReport`] carries flat per-operation
//! timings; an [`ExecutionProfile`] is a view of them and the
//! [`PhysicalPlan`] they executed: the flow's structure and the cost model's
//! per-operator cardinality estimates come from the plan (compiled under the
//! statistics that were live when the run started), plus the engine's kernel
//! dispatch deltas. Profiles serialize to JSON — numbers render via Rust's
//! shortest-round-trip `f64` formatting, so a profile round-trips
//! bit-identically through the versioned repository — and are persisted
//! under [`ArtifactKind::Profile`](quarry_repository::ArtifactKind) after
//! every run.
//!
//! The rendered form (`quarry-cli explain --analyze`) is the classic
//! annotated tree, sinks at the root:
//!
//! ```text
//! LOADER_fact_table_revenue [loader]  est 1200 rows, actual 1187 (1.0x), 2.3 ms, lane 0
//! └─ AGGREGATION_revenue [aggregation]  est 1200 rows, actual 1187 (1.0x), ...
//!    └─ JOIN_... ...
//! ```

use quarry_engine::{PhysicalPlan, PlanNode, RunReport};
use quarry_repository::Json;
use std::collections::HashMap;

/// Schema version of the profile document.
pub const PROFILE_DOC_VERSION: f64 = 1.0;

/// One operator of an executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOp {
    /// Operator name (unique within the flow).
    pub name: String,
    /// Operator kind (`datastore`, `selection`, `join`, ...).
    pub kind: String,
    /// Names of the operator's input operators, in edge order.
    pub inputs: Vec<String>,
    /// The cost model's estimated output cardinality at run time.
    pub estimated_rows: f64,
    /// Measured rows across the operator's inputs.
    pub rows_in: u64,
    /// Measured output rows.
    pub rows_out: u64,
    /// Measured wall time of the operator's own work, microseconds.
    pub elapsed_us: u64,
    /// Pool lane that ran it (0 = calling/serial thread).
    pub worker: u32,
}

impl ProfileOp {
    /// `actual / estimated`, both floored at one row — the misestimate
    /// ratio [`ExecutionProfile::render`] prints. Stored profiles are the
    /// record of estimated vs. actual cardinality.
    pub fn ratio(&self) -> f64 {
        (self.rows_out as f64).max(1.0) / self.estimated_rows.max(1.0)
    }
}

/// The execution profile of one engine run over one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionProfile {
    /// The executed flow's name.
    pub flow: String,
    /// Total wall time of the run, microseconds.
    pub total_us: u64,
    /// Total rows emitted across all operations.
    pub rows_processed: u64,
    /// Vectorized kernel invocations during this run (process-wide delta).
    pub kernel_vectorized: u64,
    /// Scalar-fallback kernel invocations during this run.
    pub kernel_scalar_fallback: u64,
    /// Executed operators in execution order.
    pub ops: Vec<ProfileOp>,
    /// Names of the flow's sink operators (tree roots of [`render`](ExecutionProfile::render)).
    pub sinks: Vec<String>,
}

/// Kernel dispatch counters bracketing a run; subtracting two snapshots
/// yields the run's own delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelDelta {
    pub vectorized: u64,
    pub scalar_fallback: u64,
}

impl KernelDelta {
    /// Snapshot of the engine's process-wide kernel counters.
    pub fn snapshot() -> KernelDelta {
        let k = quarry_engine::stats::kernel_stats();
        KernelDelta { vectorized: k.vectorized, scalar_fallback: k.scalar_fallback }
    }

    fn since(self, before: KernelDelta) -> KernelDelta {
        KernelDelta {
            vectorized: self.vectorized.saturating_sub(before.vectorized),
            scalar_fallback: self.scalar_fallback.saturating_sub(before.scalar_fallback),
        }
    }
}

impl ExecutionProfile {
    /// Builds a profile from a run of `plan`: inputs, sinks and per-operator
    /// estimates come from the plan (compiled under the statistics live when
    /// the run started — estimates folded *after* the run would just echo
    /// the observations back), measurements from `report`, and kernel deltas
    /// from counter snapshots bracketing the run.
    pub fn capture(
        plan: &PhysicalPlan,
        report: &RunReport,
        kernels_before: KernelDelta,
        kernels_after: KernelDelta,
    ) -> ExecutionProfile {
        let nodes = plan.nodes();
        let by_name: HashMap<&str, &PlanNode> = nodes.iter().map(|n| (n.op.name.as_str(), n)).collect();
        // The flow's sinks in flow order, which is id order.
        let mut sinks: Vec<_> = nodes.iter().map(|n| &n.op).filter(|op| op.kind.is_sink()).collect();
        sinks.sort_by_key(|op| op.id);
        let delta = kernels_after.since(kernels_before);
        ExecutionProfile {
            flow: plan.flow_name().to_string(),
            total_us: report.total.as_micros() as u64,
            rows_processed: report.rows_processed as u64,
            kernel_vectorized: delta.vectorized,
            kernel_scalar_fallback: delta.scalar_fallback,
            ops: report
                .timings
                .iter()
                .map(|t| {
                    let node = by_name.get(t.op.as_str()).expect("a report times the operations of its plan");
                    ProfileOp {
                        name: t.op.clone(),
                        kind: t.kind.to_string(),
                        inputs: node.inputs.iter().map(|&i| nodes[i].op.name.clone()).collect(),
                        estimated_rows: node.estimated_rows,
                        rows_in: t.rows_in as u64,
                        rows_out: t.rows_out as u64,
                        elapsed_us: t.elapsed.as_micros() as u64,
                        worker: t.worker as u32,
                    }
                })
                .collect(),
            sinks: sinks.into_iter().map(|op| op.name.clone()).collect(),
        }
    }

    /// Serializes the profile as a versioned JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("version", Json::Number(PROFILE_DOC_VERSION));
        doc.set("flow", Json::String(self.flow.clone()));
        doc.set("totalUs", Json::Number(self.total_us as f64));
        doc.set("rowsProcessed", Json::Number(self.rows_processed as f64));
        let mut kernels = Json::object();
        kernels.set("vectorized", Json::Number(self.kernel_vectorized as f64));
        kernels.set("scalarFallback", Json::Number(self.kernel_scalar_fallback as f64));
        doc.set("kernels", kernels);
        doc.set(
            "ops",
            Json::Array(
                self.ops
                    .iter()
                    .map(|op| {
                        let mut o = Json::object();
                        o.set("name", Json::String(op.name.clone()));
                        o.set("kind", Json::String(op.kind.clone()));
                        o.set("inputs", Json::Array(op.inputs.iter().map(|i| Json::String(i.clone())).collect()));
                        o.set("estimatedRows", Json::Number(op.estimated_rows));
                        o.set("rowsIn", Json::Number(op.rows_in as f64));
                        o.set("rowsOut", Json::Number(op.rows_out as f64));
                        o.set("elapsedUs", Json::Number(op.elapsed_us as f64));
                        o.set("worker", Json::Number(op.worker as f64));
                        o
                    })
                    .collect(),
            ),
        );
        doc.set("sinks", Json::Array(self.sinks.iter().map(|s| Json::String(s.clone())).collect()));
        doc
    }

    /// Rebuilds a profile from its JSON document. Returns `None` on any
    /// shape mismatch (missing member, wrong type). Members this version
    /// does not know — the `parallel` flag of profiles stored before the
    /// engine had a single scheduler — are ignored.
    pub fn from_json(doc: &Json) -> Option<ExecutionProfile> {
        let as_u64 = |v: &Json| v.as_f64().map(|f| f as u64);
        let strings = |v: &Json| -> Option<Vec<String>> {
            v.as_array()?.iter().map(|s| s.as_str().map(str::to_string)).collect()
        };
        let mut ops = Vec::new();
        for o in doc.get("ops")?.as_array()? {
            ops.push(ProfileOp {
                name: o.get("name")?.as_str()?.to_string(),
                kind: o.get("kind")?.as_str()?.to_string(),
                inputs: strings(o.get("inputs")?)?,
                estimated_rows: o.get("estimatedRows")?.as_f64()?,
                rows_in: as_u64(o.get("rowsIn")?)?,
                rows_out: as_u64(o.get("rowsOut")?)?,
                elapsed_us: as_u64(o.get("elapsedUs")?)?,
                worker: as_u64(o.get("worker")?)? as u32,
            });
        }
        let kernels = doc.get("kernels")?;
        Some(ExecutionProfile {
            flow: doc.get("flow")?.as_str()?.to_string(),
            total_us: as_u64(doc.get("totalUs")?)?,
            rows_processed: as_u64(doc.get("rowsProcessed")?)?,
            kernel_vectorized: as_u64(kernels.get("vectorized")?)?,
            kernel_scalar_fallback: as_u64(kernels.get("scalarFallback")?)?,
            ops,
            sinks: strings(doc.get("sinks")?)?,
        })
    }

    fn op(&self, name: &str) -> Option<&ProfileOp> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// Renders the annotated plan tree, sinks at the roots. An operator
    /// feeding several consumers prints its subtree once; later visits
    /// reference it. Estimated vs. actual cardinality is annotated per
    /// operator, with the misestimate factor when they disagree by ≥ 10%.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — {} ops, {} rows, {:.3} ms; kernels: {} vectorized, {} scalar-fallback\n",
            self.flow,
            self.ops.len(),
            self.rows_processed,
            self.total_us as f64 / 1000.0,
            self.kernel_vectorized,
            self.kernel_scalar_fallback,
        );
        let mut seen: Vec<&str> = Vec::new();
        for (i, sink) in self.sinks.iter().enumerate() {
            self.render_op(sink, "", i + 1 == self.sinks.len(), true, &mut seen, &mut out);
        }
        out
    }

    fn render_op<'a>(
        &'a self,
        name: &'a str,
        prefix: &str,
        last: bool,
        root: bool,
        seen: &mut Vec<&'a str>,
        out: &mut String,
    ) {
        let (branch, child_prefix) = if root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let Some(op) = self.op(name) else {
            out.push_str(&format!("{branch}{name} (not executed)\n"));
            return;
        };
        if seen.contains(&name) {
            out.push_str(&format!("{branch}{name} (shared, shown above)\n"));
            return;
        }
        seen.push(name);
        let ratio = op.ratio();
        let misestimate =
            if !(0.9..=1.1).contains(&ratio) { format!(" — misestimated {ratio:.2}x") } else { String::new() };
        out.push_str(&format!(
            "{branch}{} [{}]  est {:.0} rows, actual {} ({} in), {:.3} ms, lane {}{}\n",
            op.name,
            op.kind,
            op.estimated_rows,
            op.rows_out,
            op.rows_in,
            op.elapsed_us as f64 / 1000.0,
            op.worker,
            misestimate,
        ));
        for (i, input) in op.inputs.iter().enumerate() {
            self.render_op(input, &child_prefix, i + 1 == op.inputs.len(), false, seen, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_etl::cost::SourceStats;
    use quarry_etl::{parse_expr, ColType, Column, Flow, OpKind, Schema};

    fn src_schema() -> Schema {
        Schema::new(vec![Column::new("x", ColType::Integer)])
    }

    fn sample_profile() -> (Flow, ExecutionProfile) {
        let mut flow = Flow::new("demo");
        let src =
            flow.add_op("DATASTORE_src", OpKind::Datastore { datastore: "src".into(), schema: src_schema() }).unwrap();
        let sel = flow.add_op("SEL_x", OpKind::Selection { predicate: parse_expr("x > 1").unwrap() }).unwrap();
        let load = flow.add_op("LOADER_t", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        flow.connect(src, sel).unwrap();
        flow.connect(sel, load).unwrap();
        let mut stats = SourceStats::default();
        stats.set_table("src", 1000.0);
        let mut report = RunReport::default();
        for (name, kind, rows_in, rows_out) in
            [("DATASTORE_src", "datastore", 0, 1000), ("SEL_x", "selection", 1000, 37), ("LOADER_t", "loader", 37, 37)]
        {
            report.timings.push(quarry_engine::OpTiming {
                op: name.into(),
                kind,
                rows_in,
                rows_out,
                started: std::time::Duration::ZERO,
                elapsed: std::time::Duration::from_micros(250),
                worker: 1,
            });
        }
        report.total = std::time::Duration::from_micros(900);
        report.rows_processed = 1074;
        let plan = PhysicalPlan::compile(&flow, &stats).unwrap();
        let profile = ExecutionProfile::capture(&plan, &report, KernelDelta::default(), KernelDelta::default());
        (flow, profile)
    }

    #[test]
    fn capture_joins_estimates_with_measurements() {
        let (_, p) = sample_profile();
        assert_eq!(p.flow, "demo");
        assert_eq!(p.ops.len(), 3);
        let src = p.op("DATASTORE_src").unwrap();
        assert_eq!(src.estimated_rows, 1000.0);
        assert_eq!(src.rows_out, 1000);
        let sel = p.op("SEL_x").unwrap();
        assert!(sel.estimated_rows > 0.0);
        assert_eq!(sel.rows_out, 37);
        assert_eq!(sel.inputs, ["DATASTORE_src"]);
        assert_eq!(p.sinks, ["LOADER_t"]);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let (_, p) = sample_profile();
        let text = p.to_json().to_pretty_string();
        let parsed = ExecutionProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, p);
        // Bit-identical re-serialization: shortest-round-trip f64 formatting
        // means the document survives parse → serialize unchanged.
        assert_eq!(parsed.to_json().to_pretty_string(), text);
    }

    #[test]
    fn stored_profiles_with_a_parallel_member_still_parse() {
        // Profiles persisted before the engine had one scheduler carry a
        // `parallel` flag; it is ignored and dropped on re-serialization.
        let (_, p) = sample_profile();
        for flag in [true, false] {
            let mut doc = p.to_json();
            doc.set("parallel", Json::Bool(flag));
            let text = doc.to_pretty_string();
            assert!(text.contains("\"parallel\""), "{text}");
            let parsed = ExecutionProfile::from_json(&Json::parse(&text).unwrap()).expect("old profile parses");
            assert_eq!(parsed, p);
            assert_eq!(parsed.to_json().to_pretty_string(), p.to_json().to_pretty_string());
        }
    }

    #[test]
    fn malformed_documents_parse_to_none() {
        for doc in ["{}", r#"{"flow": 3}"#, r#"{"flow": "f", "ops": "nope"}"#] {
            assert!(ExecutionProfile::from_json(&Json::parse(doc).unwrap()).is_none(), "{doc}");
        }
    }

    #[test]
    fn render_annotates_estimates_and_misestimates() {
        let (_, p) = sample_profile();
        let tree = p.render();
        assert!(tree.starts_with("demo — 3 ops, 1074 rows"), "{tree}");
        assert!(tree.contains("LOADER_t [loader]"), "{tree}");
        assert!(tree.contains("└─ SEL_x [selection]"), "{tree}");
        assert!(tree.contains("est 1000 rows, actual 1000"), "{tree}");
        // The selection's static estimate disagrees with the observed 37
        // rows, so the misestimate factor is flagged.
        assert!(tree.contains("misestimated"), "{tree}");
        assert!(tree.contains("lane 1"), "{tree}");
    }

    #[test]
    fn shared_subtrees_render_once() {
        let mut flow = Flow::new("diamond");
        let src =
            flow.add_op("DATASTORE_s", OpKind::Datastore { datastore: "s".into(), schema: src_schema() }).unwrap();
        let a = flow.add_op("SEL_a", OpKind::Selection { predicate: parse_expr("x > 1").unwrap() }).unwrap();
        let b = flow.add_op("SEL_b", OpKind::Selection { predicate: parse_expr("x > 2").unwrap() }).unwrap();
        let union = flow.add_op("UNION_u", OpKind::Union).unwrap();
        let load = flow.add_op("LOADER_t", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        flow.connect(src, a).unwrap();
        flow.connect(src, b).unwrap();
        flow.connect(a, union).unwrap();
        flow.connect(b, union).unwrap();
        flow.connect(union, load).unwrap();
        let mut report = RunReport::default();
        for name in ["DATASTORE_s", "SEL_a", "SEL_b", "UNION_u", "LOADER_t"] {
            report.timings.push(quarry_engine::OpTiming {
                op: name.into(),
                kind: "x",
                rows_in: 1,
                rows_out: 1,
                started: std::time::Duration::ZERO,
                elapsed: std::time::Duration::from_micros(1),
                worker: 0,
            });
        }
        let plan = PhysicalPlan::compile(&flow, &SourceStats::default()).unwrap();
        let p = ExecutionProfile::capture(&plan, &report, KernelDelta::default(), KernelDelta::default());
        let tree = p.render();
        assert_eq!(tree.matches("DATASTORE_s [").count(), 1, "shared source expands once: {tree}");
        assert!(tree.contains("DATASTORE_s (shared, shown above)"), "{tree}");
    }
}
