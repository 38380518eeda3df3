//! `quarry-cli` — a line-oriented console over the Quarry service layer.
//!
//! The original demo drove Quarry through a web UI over REST services; this
//! binary is the equivalent headless front end: each input line is one
//! service request, each output block one response. It reads commands from
//! stdin (or from files passed as arguments), so demo scripts are plain text:
//!
//! ```text
//! $ cargo run --bin quarry-cli
//! quarry> suggest Lineitem
//! quarry> add examples/requirements/figure4_revenue.xrq
//! quarry> list
//! quarry> deploy postgres-pdi
//! quarry> run 0.01
//! quarry> quit
//! ```

use quarry::service::{handle, ServiceRequest, ServiceResponse};
use quarry::Quarry;
use std::io::{BufRead, Write};

const HELP: &str = "\
commands:
  suggest <Concept>        rank analysis dimensions for a focus concept
  foci                     rank analysis-focus candidates
  add <file.xrq>           interpret + integrate a requirement document
  remove <IRid>            retract a requirement
  change <file.xrq>        replace a requirement (same id)
  list                     list integrated requirement ids
  md                       print the unified MD schema (xMD)
  etl                      print the unified ETL process (xLM)
  deploy <platform>        generate platform executables (postgres-pdi)
  export <format>          export the unified design via the format registry
                           (xmd, xlm, sql, summary)
  diff                     structural changes of the last lifecycle step
  run <scale-factor>       execute the unified flow on generated TPC-H data
                           (measured cardinalities feed the optimizer)
  optimize [--explain]     anneal the unified flow over equivalent rewrites;
                           --explain prints the per-move search log
  explain [--analyze]      print the unified flow's plan, compiled with the
                           cost model's estimated cardinalities under the
                           live statistics, each aggregation fused into a
                           keyed pass marked `fused i/k over <producer>`;
                           --analyze renders the latest run's execution
                           profile (estimated vs. actual rows, timings,
                           kernel dispatch) as an annotated plan tree
  events                   dump the flight recorder's recent event history
                           (always on: operator finishes, pool, WAL fsyncs,
                           optimizer moves, kernel fallbacks, cache traffic)
  cache [clear]            result-cache statistics (entries, bytes, hit rate);
                           `cache clear` drops every cached intermediate
  query <file.xrq>         answer a requirement from the loaded warehouse
  trace [--format chrome]  render the recorded lifecycle span tree, or emit
                           Chrome trace-event JSON (load in about://tracing)
  metrics [--format prometheus]
                           print counters, histograms, and pool statistics,
                           or emit Prometheus text exposition
  serve <addr>             start the live telemetry endpoint (GET /metrics,
                           /trace, /healthz); port 0 picks a free port
  replay <dir>             read-only recovery of a durable repository
                           directory: replay its snapshot + log and report
                           what a restart would restore and, per artifact,
                           how its versions are stored (whole / delta, and
                           how many of the deltas are on another key's
                           version; stored / materialized bytes)
  json (on|off)            toggle JSON response encoding
  help                     this text
  quit                     exit";

/// Dispatches one command line. Returns `None` on `quit`.
fn dispatch(
    quarry: &mut Quarry,
    line: &str,
    json: &mut bool,
    engine: &mut Option<quarry_engine::Engine>,
) -> Option<String> {
    let line = line.trim();
    let (cmd, arg) = match line.split_once(char::is_whitespace) {
        Some((c, a)) => (c, a.trim()),
        None => (line, ""),
    };
    let request = match cmd {
        "" | "#" => return Some(String::new()),
        _ if cmd.starts_with('#') => return Some(String::new()),
        "quit" | "exit" => return None,
        "help" => return Some(HELP.to_string()),
        "json" => {
            *json = arg != "off";
            return Some(format!("json encoding {}", if *json { "on" } else { "off" }));
        }
        "foci" => {
            let mut out = String::new();
            for f in quarry.elicitor().suggest_foci().iter().take(8) {
                out.push_str(&format!("{:<12} score {:.1}\n", f.name, f.score));
            }
            return Some(out);
        }
        "run" => {
            let sf: f64 = match arg.parse() {
                Ok(v) => v,
                Err(_) => return Some(format!("run: `{arg}` is not a scale factor")),
            };
            return Some(match quarry.run_etl(quarry_engine::tpch::generate(sf, 42)) {
                Ok((loaded_engine, report)) => {
                    let mut out = format!(
                        "executed {} operations in {:?}; {} rows processed\n",
                        report.timings.len(),
                        report.total,
                        report.rows_processed
                    );
                    for (table, rows) in &report.loaded {
                        out.push_str(&format!("  {table}: {rows} rows\n"));
                    }
                    // Feed the measured cardinalities back into the cost
                    // model — `optimize` then searches with observed rows.
                    quarry.observe_run(&report);
                    *engine = Some(loaded_engine); // keep the warehouse queryable
                    out
                }
                Err(e) => format!("run failed: {e}"),
            });
        }
        "optimize" => {
            let explain = arg == "--explain";
            if !arg.is_empty() && !explain {
                return Some(format!("optimize: unknown argument `{arg}` — try `--explain`"));
            }
            let before = quarry.unified().1.clone();
            return Some(match quarry.optimize() {
                Ok(report) => {
                    let mut out = format!(
                        "{}: modeled cost {:.0} -> {:.0} ({:.1}% better); {} proposed, {} accepted over {} chain(s) in {:.1} ms\n",
                        if report.applied { "optimized" } else { "no improvement found" },
                        report.before_cost,
                        report.after_cost,
                        report.improvement() * 100.0,
                        report.proposed,
                        report.accepted,
                        report.chains,
                        report.wall_ms,
                    );
                    if explain {
                        out.push_str("before:\n");
                        for op in before.ops() {
                            out.push_str(&format!("  {}\n", op.name));
                        }
                        out.push_str("after:\n");
                        for op in quarry.unified().1.ops() {
                            out.push_str(&format!("  {}\n", op.name));
                        }
                        out.push_str("search log (capped):\n");
                        for r in &report.log {
                            out.push_str(&format!(
                                "  chain {} step {:>4}  {:<40} {}  {}\n",
                                r.chain,
                                r.step,
                                r.describe,
                                match r.delta {
                                    Some(d) => format!("delta {d:+.3}"),
                                    None => "illegal".to_string(),
                                },
                                if r.accepted { "accepted" } else { "rejected" },
                            ));
                        }
                    }
                    out
                }
                Err(e) => format!("optimize failed: {e}"),
            });
        }
        "explain" => {
            let analyze = arg == "--analyze";
            if !arg.is_empty() && !analyze {
                return Some(format!("explain: unknown argument `{arg}` — try `--analyze`"));
            }
            if analyze {
                return Some(match handle(quarry, ServiceRequest::GetProfile) {
                    ServiceResponse::Document(doc) => match quarry_repository::Json::parse(&doc)
                        .ok()
                        .as_ref()
                        .and_then(quarry::ExecutionProfile::from_json)
                    {
                        Some(profile) => profile.render(),
                        None => "explain: the stored profile document is unreadable".to_string(),
                    },
                    ServiceResponse::Error(e) => format!("explain: {e}"),
                    other => format!("explain: unexpected response {other:?}"),
                });
            }
            let flow = quarry.unified().1;
            return Some(match quarry_engine::PhysicalPlan::compile(flow, Some(&quarry.config().stats)) {
                Ok(plan) => {
                    let mut out = format!(
                        "{} — estimated plan ({} ops); run the flow, then `explain --analyze` for actuals:\n",
                        flow.name,
                        plan.nodes().len(),
                    );
                    // A fused member's mark: its place in the pass, the
                    // pass's size and the producer the pass keys.
                    let mut fused = vec![String::new(); plan.nodes().len()];
                    for group in plan.fused_groups() {
                        for (i, &m) in group.members.iter().enumerate() {
                            let producer = &plan.nodes()[group.producer].op.name;
                            fused[m] = format!("  fused {}/{} over {producer}", i + 1, group.members.len());
                        }
                    }
                    for (node, fused) in plan.nodes().iter().zip(&fused) {
                        out.push_str(&format!(
                            "  {:<44} est {:>12.0} rows  {}{fused}\n",
                            node.op.name, node.estimated_rows, node.op.kind,
                        ));
                    }
                    out
                }
                Err(e) => format!("explain: {e}"),
            });
        }
        "cache" => {
            if arg == "clear" {
                quarry.clear_result_cache();
                return Some("result cache cleared".to_string());
            }
            if !arg.is_empty() {
                return Some(format!("cache: unknown argument `{arg}` — try `cache` or `cache clear`"));
            }
            if *json {
                ServiceRequest::GetCacheStats
            } else {
                let s = quarry.cache_stats();
                return Some(format!(
                    "result cache: {} ({} entries, {} / {} bytes)\n  hits {}  misses {}  hit rate {:.1}%\n  inserts {}  rejects {}  evictions {}",
                    if s.enabled { "enabled" } else { "disabled" },
                    s.entries,
                    s.bytes,
                    s.budget_bytes,
                    s.hits,
                    s.misses,
                    s.hit_rate() * 100.0,
                    s.inserts,
                    s.rejects,
                    s.evictions,
                ));
            }
        }
        "events" => {
            if *json {
                ServiceRequest::GetEvents
            } else {
                return Some(quarry::obs::flight::recorder().render_tail(quarry::obs::flight::DUMP_TAIL));
            }
        }
        "query" => {
            let Some(warehouse) = engine.as_mut() else {
                return Some("query: no warehouse loaded yet — `run <sf>` first".to_string());
            };
            let req = match std::fs::read_to_string(arg)
                .map_err(|e| e.to_string())
                .and_then(|xrq| quarry_formats::Requirement::parse(&xrq).map_err(|e| e.to_string()))
            {
                Ok(r) => r,
                Err(e) => return Some(format!("query: {e}")),
            };
            return Some(match quarry::olap::query_flow(quarry.unified().0, quarry.ontology(), &req) {
                Ok(flow) => match warehouse.run(&flow) {
                    Ok(_) => {
                        let answer = warehouse
                            .catalog
                            .get(&format!("answer_{}", req.id))
                            .expect("query flows end in their answer loader");
                        format!("{answer}")
                    }
                    Err(e) => format!("query failed: {e}"),
                },
                Err(e) => format!("query: {e}"),
            });
        }
        "export" => {
            let registry = quarry.formats();
            let mut out = String::new();
            let md = quarry_formats::registry::Artifact::Md(quarry.unified().0.clone());
            let etl = quarry_formats::registry::Artifact::Etl(quarry.unified().1.clone());
            for artifact in [md, etl] {
                match registry.export(arg, &artifact) {
                    Ok(text) => out.push_str(&text),
                    Err(e) => out.push_str(&format!("-- {e}\n")),
                }
                out.push('\n');
            }
            return Some(out);
        }
        "diff" => {
            let history = match quarry.repository().history(quarry_repository::ArtifactKind::MdSchema, "unified") {
                Ok(history) => history,
                Err(e) => return Some(format!("diff failed: {e}")),
            };
            return Some(match history.as_slice() {
                [] => "no design versions yet".to_string(),
                [_only] => "only one version so far — everything is new".to_string(),
                [.., prev, last] => {
                    let old = quarry_formats::xmd::parse(&prev.content).expect("stored versions parse");
                    let new = quarry_formats::xmd::parse(&last.content).expect("stored versions parse");
                    format!("v{} → v{}:\n{}", prev.version, last.version, quarry_md::diff::diff(&old, &new))
                }
            });
        }
        "trace" => match export_format(arg) {
            Some("chrome") => return Some(quarry_obs::export::chrome_trace(&quarry.trace())),
            Some(other) => return Some(format!("trace: unknown format `{other}` — try `chrome`")),
            None => {
                if *json {
                    ServiceRequest::GetTrace
                } else {
                    let trace = quarry.trace();
                    return Some(if trace.is_empty() {
                        "no spans recorded yet — run a lifecycle step first".to_string()
                    } else {
                        trace.render()
                    });
                }
            }
        },
        "metrics" => match export_format(arg) {
            Some("prometheus") => return Some(quarry_obs::export::prometheus(&quarry.observability().metrics())),
            Some(other) => return Some(format!("metrics: unknown format `{other}` — try `prometheus`")),
            None => ServiceRequest::GetMetrics,
        },
        "replay" => {
            if arg.is_empty() {
                return Some("replay: usage `replay <repository-dir>`".to_string());
            }
            return Some(match quarry_repository::recover(arg) {
                Ok((store, report)) => {
                    let mut out = format!(
                        "recovered `{arg}`: snapshot {}, {} segment(s), {} record(s) replayed, {} torn byte(s) truncated\n",
                        report.snapshot_seq.map_or_else(|| "none".to_string(), |s| format!("#{s}")),
                        report.segments_replayed.len(),
                        report.records_replayed,
                        report.torn_bytes_truncated,
                    );
                    let storage = match store.artifact_storage() {
                        Ok(storage) => storage,
                        Err(e) => return Some(format!("{out}replay failed: {e}")),
                    };
                    for name in store.collection_names() {
                        out.push_str(&format!("  {name}: {} document(s)\n", store.count(name)));
                        for a in storage.iter().filter(|a| name.strip_prefix("artifacts.") == Some(a.kind.as_str())) {
                            out.push_str(&format!(
                                "    {}: {} version(s), {} whole + {} delta ({} on another key), {} stored / {} \
                                 materialized byte(s)\n",
                                a.key,
                                a.versions,
                                a.versions - a.deltas,
                                a.deltas,
                                a.cross_key,
                                a.stored_bytes,
                                a.materialized_bytes,
                            ));
                        }
                    }
                    if !report.markers.is_empty() {
                        out.push_str(&format!("  markers: {}\n", report.markers.join(", ")));
                    }
                    out
                }
                Err(e) => format!("replay failed: {e}"),
            });
        }
        "serve" => ServiceRequest::ServeMetrics { addr: (!arg.is_empty()).then(|| arg.to_string()) },
        "suggest" => ServiceRequest::SuggestDimensions { focus: arg.to_string() },
        "add" | "change" => match std::fs::read_to_string(arg) {
            Ok(xrq) => {
                if cmd == "add" {
                    ServiceRequest::AddRequirement { xrq }
                } else {
                    ServiceRequest::ChangeRequirement { xrq }
                }
            }
            Err(e) => return Some(format!("{cmd}: cannot read `{arg}`: {e}")),
        },
        "remove" => ServiceRequest::RemoveRequirement { id: arg.to_string() },
        "list" => ServiceRequest::ListRequirements,
        "md" => ServiceRequest::GetUnifiedMd,
        "etl" => ServiceRequest::GetUnifiedEtl,
        "deploy" => ServiceRequest::Deploy { platform: arg.to_string() },
        other => return Some(format!("unknown command `{other}` — try `help`")),
    };
    let response = handle(quarry, request);
    Some(if *json { response.to_json().to_pretty_string() } else { render(response) })
}

/// Parses an optional `--format <name>` (or bare `<name>`) command argument.
fn export_format(arg: &str) -> Option<&str> {
    let arg = arg.strip_prefix("--format").unwrap_or(arg).trim();
    (!arg.is_empty()).then_some(arg)
}

fn render(response: ServiceResponse) -> String {
    match response {
        ServiceResponse::Updated { requirement_id, md_cost, etl_cost } => {
            format!("ok: {requirement_id} (structural complexity {md_cost:.1}, estimated ETL time {etl_cost:.0})")
        }
        ServiceResponse::Requirements(ids) => {
            if ids.is_empty() {
                "no requirements integrated yet".to_string()
            } else {
                ids.join("\n")
            }
        }
        ServiceResponse::Document(doc) => doc,
        ServiceResponse::Artifacts(files) => {
            let mut out = String::new();
            for (name, content) in files {
                out.push_str(&format!("───── {name} ─────\n{content}\n"));
            }
            out
        }
        ServiceResponse::Suggestions(names) => names.join("\n"),
        ServiceResponse::Serving { addr } => {
            format!("telemetry serving on http://{addr} (/metrics, /trace, /healthz)")
        }
        ServiceResponse::Error(e) => format!("error: {e}"),
    }
}

fn main() {
    let mut quarry = Quarry::tpch();
    // The console is a demo driver: always record spans so `trace` and
    // `metrics` have something to show.
    quarry.set_observability(true);
    let mut json = false;
    let mut engine: Option<quarry_engine::Engine> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();

    let stdin;
    let file_input;
    let reader: Box<dyn BufRead> = if args.is_empty() {
        stdin = std::io::stdin();
        Box::new(stdin.lock())
    } else {
        let mut combined = String::new();
        for path in &args {
            match std::fs::read_to_string(path) {
                Ok(text) => combined.push_str(&text),
                Err(e) => {
                    eprintln!("cannot read script `{path}`: {e}");
                    std::process::exit(1);
                }
            }
        }
        file_input = std::io::Cursor::new(combined);
        Box::new(file_input)
    };

    let interactive = args.is_empty();
    let mut out = std::io::stdout();
    if interactive {
        println!("Quarry over TPC-H — `help` lists commands.");
        print!("quarry> ");
        let _ = out.flush();
    }
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match dispatch(&mut quarry, &line, &mut json, &mut engine) {
            Some(output) => {
                if !output.is_empty() {
                    println!("{}", output.trim_end());
                }
            }
            None => break,
        }
        if interactive {
            print!("quarry> ");
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The demo flow's eight aggregations run as one keyed pass: `explain`
    /// marks each with its place in the pass and the producer it keys.
    #[test]
    fn explain_marks_the_fused_aggregations_of_the_demo_flow() {
        let mut quarry = Quarry::tpch();
        for r in quarry_bench::high_overlap_family(8) {
            quarry.add_requirement(r).expect("the family integrates");
        }
        let explained = dispatch(&mut quarry, "explain", &mut false, &mut None).expect("not quit");
        assert_eq!(explained.matches("  fused ").count(), 8, "{explained}");
        for i in 1..=8 {
            let marker = format!("fused {i}/8 over KEY_Supplier");
            assert!(explained.lines().any(|l| l.contains("AGGREGATION_") && l.ends_with(&marker)), "{explained}");
        }
    }

    #[test]
    fn scripted_session_covers_every_command() {
        let mut quarry = Quarry::tpch();
        let mut json = false;
        let mut engine: Option<quarry_engine::Engine> = None;
        let mut run = |q: &mut Quarry, j: &mut bool, line: &str| dispatch(q, line, j, &mut engine).expect("not quit");

        assert!(run(&mut quarry, &mut json, "help").contains("commands"));
        assert!(run(&mut quarry, &mut json, "suggest Lineitem").contains("Part"));
        assert!(run(&mut quarry, &mut json, "foci").contains("Lineitem"));
        let xrq_path = format!("{}/../../examples/requirements/figure4_revenue.xrq", env!("CARGO_MANIFEST_DIR"));
        let add = run(&mut quarry, &mut json, &format!("add {xrq_path}"));
        assert!(add.starts_with("ok: IR1"), "{add}");
        assert_eq!(run(&mut quarry, &mut json, "list"), "IR1");
        assert!(run(&mut quarry, &mut json, "md").contains("fact_table_revenue"));
        assert!(run(&mut quarry, &mut json, "etl").contains("DATASTORE_Lineitem"));
        assert!(run(&mut quarry, &mut json, "deploy postgres-pdi").contains("CREATE TABLE"));
        assert!(run(&mut quarry, &mut json, "query nowhere.xrq").contains("no warehouse"), "query before run");
        // EXPLAIN before any execution: estimates render, analyze refuses.
        let estimated = run(&mut quarry, &mut json, "explain");
        assert!(estimated.contains("estimated plan"), "{estimated}");
        assert!(estimated.contains("DATASTORE_Lineitem"), "{estimated}");
        assert!(run(&mut quarry, &mut json, "explain --analyze").contains("no execution profile"));
        let executed = run(&mut quarry, &mut json, "run 0.001");
        assert!(executed.contains("rows processed"), "{executed}");
        // EXPLAIN ANALYZE after a run: the annotated profile tree with
        // estimated vs. actual cardinalities and kernel dispatch counts.
        let analyzed = run(&mut quarry, &mut json, "explain --analyze");
        assert!(analyzed.contains("est "), "{analyzed}");
        assert!(analyzed.contains("kernels:"), "{analyzed}");
        assert!(analyzed.contains("LOADER_fact_table_revenue"), "{analyzed}");
        assert!(run(&mut quarry, &mut json, "explain --verbose").contains("unknown argument"));
        // The flight recorder has been accumulating events all along.
        let events = run(&mut quarry, &mut json, "events");
        assert!(events.contains("flight recorder:"), "{events}");
        assert!(events.contains("op_finish"), "{events}");
        let answered = run(&mut quarry, &mut json, &format!("query {xrq_path}"));
        assert!(answered.contains("revenue"), "{answered}");
        let exported = run(&mut quarry, &mut json, "export sql");
        assert!(exported.contains("CREATE TABLE") && exported.contains("INSERT INTO"), "{exported}");
        let netprofit = format!("{}/../../examples/requirements/netprofit.xrq", env!("CARGO_MANIFEST_DIR"));
        run(&mut quarry, &mut json, &format!("add {netprofit}"));
        let delta = run(&mut quarry, &mut json, "diff");
        assert!(delta.contains("+ "), "{delta}");
        assert!(run(&mut quarry, &mut json, "remove IR1").starts_with("ok: IR1"));
        // Observability: before enabling, `trace` explains itself; after, it
        // renders the span tree and `metrics` reports engine counters.
        assert!(run(&mut quarry, &mut json, "trace").contains("no spans recorded"));
        quarry.set_observability(true);
        run(&mut quarry, &mut json, "run 0.001");
        let tree = run(&mut quarry, &mut json, "trace");
        assert!(tree.contains("execute (ops="), "{tree}");
        assert!(tree.contains("LOADER_fact_table_netprofit"), "{tree}");
        // An add while observability is on surfaces the consolidation
        // counters and per-stage integrate timings.
        run(&mut quarry, &mut json, &format!("add {xrq_path}"));
        // The optimizer: plain and --explain flavors, then its counters.
        let optimized = run(&mut quarry, &mut json, "optimize");
        assert!(optimized.contains("modeled cost"), "{optimized}");
        assert!(optimized.contains("chain(s)"), "{optimized}");
        let explained = run(&mut quarry, &mut json, "optimize --explain");
        assert!(explained.contains("before:") && explained.contains("after:"), "{explained}");
        assert!(explained.contains("search log"), "{explained}");
        assert!(run(&mut quarry, &mut json, "optimize --verbose").contains("unknown argument"));
        // The result cache accumulated entries during the runs above. (Each
        // CLI `run` regenerates source data, so those runs are always cold —
        // fresh column identities change the source stamps by design; warm
        // hits are exercised by the lifecycle and service tests, which rerun
        // over the same data handles.)
        let stats = run(&mut quarry, &mut json, "cache");
        assert!(stats.contains("result cache: enabled"), "{stats}");
        assert!(stats.contains("hit rate"), "{stats}");
        assert!(!stats.contains("inserts 0 "), "runs must have populated the cache: {stats}");
        assert!(run(&mut quarry, &mut json, "cache clear").contains("cleared"));
        let cleared = run(&mut quarry, &mut json, "cache");
        assert!(cleared.contains("(0 entries, 0 /"), "{cleared}");
        assert!(run(&mut quarry, &mut json, "cache --verbose").contains("unknown argument"));
        let metrics = run(&mut quarry, &mut json, "metrics");
        assert!(metrics.contains("integrator.optimizer.runs"), "{metrics}");
        assert!(metrics.contains("integrator.optimizer.moves_proposed"), "{metrics}");
        assert!(metrics.contains("integrator.optimizer.moves_accepted"), "{metrics}");
        assert!(metrics.contains("integrator.optimizer.optimize_seconds"), "{metrics}");
        assert!(metrics.contains("engine.runs"), "{metrics}");
        assert!(metrics.contains("integrator.etl_index_hits"), "{metrics}");
        assert!(metrics.contains("integrator.md_map_hits"), "{metrics}");
        assert!(metrics.contains("integrator.md_integrate_seconds"), "{metrics}");
        assert!(metrics.contains("integrator.etl_integrate_seconds"), "{metrics}");
        assert!(metrics.contains("\"p50\""), "histograms carry quantiles: {metrics}");
        // The repository's write-ahead-log counters are always present (zero
        // for this in-memory instance, nonzero once any durable repo ran).
        assert!(metrics.contains("repository.wal.appends"), "{metrics}");
        assert!(metrics.contains("repository.wal.fsyncs"), "{metrics}");
        assert!(metrics.contains("repository.wal.recoveries"), "{metrics}");
        // Prometheus text exposition.
        let prom = run(&mut quarry, &mut json, "metrics --format prometheus");
        assert!(prom.contains("# TYPE quarry_engine_runs_total counter"), "{prom}");
        assert!(prom.contains("quarry_engine_op_seconds_bucket{le=\"+Inf\"}"), "{prom}");
        assert!(prom.contains("quarry_engine_op_seconds_quantiles{quantile=\"0.99\"}"), "{prom}");
        assert!(run(&mut quarry, &mut json, "metrics --format csv").contains("unknown format"));
        // Chrome trace-event JSON.
        let chrome = run(&mut quarry, &mut json, "trace --format chrome");
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"execute\""), "{chrome}");
        // Live endpoint (port 0 picks a free port).
        let serving = run(&mut quarry, &mut json, "serve 127.0.0.1:0");
        assert!(serving.contains("telemetry serving on http://127.0.0.1:"), "{serving}");
        quarry.stop_serving_metrics();
        // JSON mode.
        assert!(run(&mut quarry, &mut json, "json on").contains("on"));
        let listing = run(&mut quarry, &mut json, "list");
        assert!(listing.contains("\"requirements\""), "{listing}");
        let events_doc = run(&mut quarry, &mut json, "events");
        assert!(events_doc.contains("\"document\""), "json mode routes events through the service: {events_doc}");
        let cache_doc = run(&mut quarry, &mut json, "cache");
        assert!(cache_doc.contains("\"document\""), "json mode routes cache stats through the service: {cache_doc}");
        // Errors render, never panic.
        assert!(run(&mut quarry, &mut json, "bogus").contains("unknown command"));
        let mut plain = false;
        assert!(run(&mut quarry, &mut plain, "add /no/such/file.xrq").contains("cannot read"));
        assert!(run(&mut quarry, &mut plain, "run NaNx").contains("not a scale factor"));
        // Replay: read-only recovery of a durable repository directory,
        // here one a durable session of two adds wrote. Each partial design
        // is one version stored against the unified design of its step.
        let tmp = std::env::temp_dir().join(format!("quarry-cli-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        {
            let domain = quarry_ontology::tpch::domain();
            let mut config = quarry::QuarryConfig::tpch(0.01);
            config.repository_dir = Some(tmp.clone());
            let mut durable = Quarry::with_config(domain.ontology, domain.sources, config);
            for file in ["figure4_revenue", "netprofit"] {
                let path = format!("{}/../../examples/requirements/{file}.xrq", env!("CARGO_MANIFEST_DIR"));
                assert!(run(&mut durable, &mut plain, &format!("add {path}")).starts_with("ok: "));
            }
            durable.repository().sync().unwrap();
        }
        let replay = run(&mut quarry, &mut plain, &format!("replay {}", tmp.display()));
        assert!(replay.contains("record(s) replayed"), "{replay}");
        assert!(replay.contains("artifacts.ontology: 1 document(s)"), "{replay}");
        assert!(replay.contains("domain: 1 version(s), 1 whole + 0 delta (0 on another key), "), "{replay}");
        for id in ["IR1", "IR2"] {
            let partial = format!("partial-{id}: 1 version(s), 0 whole + 1 delta (1 on another key), ");
            assert_eq!(replay.matches(&partial).count(), 2, "the xMD and the xLM of {id}: {replay}");
        }
        assert!(replay.contains("markers: step:add_requirement:IR1, step:add_requirement:IR2"), "{replay}");
        let _ = std::fs::remove_dir_all(&tmp);
        assert!(run(&mut quarry, &mut plain, "replay").contains("usage"));
        assert!(run(&mut quarry, &mut plain, "replay /no/such/dir").contains("replay failed"));
        // Quit terminates.
        assert!(dispatch(&mut quarry, "quit", &mut plain, &mut engine).is_none());
    }
}
