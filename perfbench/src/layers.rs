//! The traced run: one pass over the query stream that calls each layer's
//! public functions from here, inside spans, and turns the spans into the
//! per-layer ledger.

use std::time::Instant;

use gsword_core::candidate::{build_candidate_graph, BuildConfig};
use gsword_core::engine::{run_engine, EngineConfig, EngineReport};
use gsword_core::estimators::{run_sequential, with_estimator, Estimate, QueryCtx};
use gsword_core::graph::{CompressedGraph, GraphStorage};
use gsword_core::pipeline::{run_coprocessing, PipelineReport};
use gsword_core::query::{make_order, OrderKind};
use gsword_core::simt::{KernelCounters, SanitizerMode};

use crate::check::Observed;
use crate::stats::{mean, percentile, Summary};
use crate::trace::{self_times_ns, Span, Tracer};
use crate::workload::{Setup, SetupTimes, Spec, Storage};
use crate::{Baseline, Checks, Metric};

/// Queries also run under the full sanitizer (it is several times slower).
const SANITIZED_QUERIES: usize = 4;
/// Per query, the layer spans must account for `run()`'s wall time to
/// within this share (compared on the median query).
const LEDGER_TOLERANCE: f64 = 0.10;

const MIB: f64 = 1024.0 * 1024.0;

/// The engine configuration the builder derives for this workload.
fn engine_config(samples: u64, seed: u64, workers: usize) -> EngineConfig {
    EngineConfig::gsword(samples)
        .with_seed(seed)
        .with_sim_workers(workers)
}

/// Per-layer metric from every span called `name`: mean self time per
/// query, with the spread over queries.
fn span_metric(spans: &[Span], selfs: &[u64], nq: usize, name: &'static str, span: &str) -> Metric {
    let per: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == span)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    Metric::new(
        name,
        "ms",
        per.iter().fold(0.0, |a, b| a + b) / nq.max(1) as f64,
        Summary::of(&per).unwrap_or(Summary::exact(0.0)),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the traced pass and return the per-layer metrics plus the spans as
/// trace-event JSON.
pub fn traced<S: GraphStorage>(
    spec: &Spec,
    data: &S,
    setup: &Setup,
    base: &Baseline,
    nproc: usize,
    checks: &mut Checks,
) -> (Vec<Metric>, String) {
    let trawl = spec.trawl();
    let workers = spec.workers(nproc);
    let mut t = Tracer::new();
    let mut run_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut ledger = Vec::new();
    let mut cand_bytes = 0usize;
    let mut counters = KernelCounters::default();
    let (mut fetched, mut collected) = (0u64, 0u64);
    let mut sequential = Estimate::default();
    let (mut trawl_done, mut trawl_tried) = (0u64, 0u64);
    let mut cpu_tail_ms = Vec::new();
    let (mut san_full_ms, mut san_off_ms, mut violations) = (0.0, 0.0, 0u64);

    for (i, q) in setup.queries.iter().enumerate() {
        let qid = i as u32;
        let reference = base.reference[i].as_ref();
        let cfg = engine_config(spec.samples, q.sampler_seed, workers);

        // The public entry point, untraced. It runs before the traced
        // decomposition on even queries and after it on odd ones, so
        // neither side is always the one that finds caches warm.
        let mut untraced = |checks: &mut Checks| {
            let t0 = Instant::now();
            let r = spec.builder(data, q, nproc).run();
            run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            checks.record_run(i, "run", &r, trawl.is_some(), reference);
        };
        if i % 2 == 0 {
            untraced(checks);
        }

        // The same query through the layers `run()` calls, one span each.
        let first_child = t.spans().len() + 1;
        let (cg, order) = t.span("core.query", qid, |t| {
            let (cg, stats) = t.span("candidate.build", qid, |_| {
                build_candidate_graph(data, &q.graph, &BuildConfig::default())
            });
            cand_bytes += stats.bytes;
            let order = t.span("query.order", qid, |_| {
                make_order(OrderKind::QuickSi, &q.graph, data)
            });
            let ctx = QueryCtx::new(&cg, &order);
            with_estimator(spec.estimator, |est| match trawl {
                None => {
                    let r: EngineReport =
                        t.span("engine.run", qid, |_| run_engine(&ctx, est, &cfg));
                    checks.record(i, "layers", Ok(Observed::engine(&r)), reference);
                    counters.merge(&r.counters);
                    fetched += r.estimate.samples;
                    collected += r.samples_collected;
                }
                Some(tc) => {
                    let r: PipelineReport = t.span("pipeline.run", qid, |_| {
                        run_coprocessing(&ctx, est, &cfg, &tc)
                    });
                    checks.record(i, "layers", Ok(Observed::pipeline(&r)), reference);
                    trawl_done += r.trawl_completed;
                    trawl_tried += r.trawl_attempted;
                    cpu_tail_ms.push(r.total_wall_ms - r.gpu_wall_ms);
                }
            });
            (cg, order)
        });
        if i % 2 == 1 {
            untraced(checks);
        }
        let query_span = &t.spans()[first_child - 1];
        query_ms.push(query_span.duration_ns() as f64 / 1e6);
        let children_ms: f64 = t.spans()[first_child..]
            .iter()
            .filter(|s| s.parent == Some(first_child - 1))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum();
        ledger.push(ratio(children_ms, run_ms[i]));

        // Beside the query path: references and variants of the same calls.
        let ctx = QueryCtx::new(&cg, &order);
        if spec.storage == Storage::Packed {
            t.span("candidate.build_csr", qid, |_| {
                build_candidate_graph(&setup.csr, &q.graph, &BuildConfig::default())
            });
        }
        with_estimator(spec.estimator, |est| {
            let seq = t.span("estimators.sequential", qid, |_| {
                run_sequential(&ctx, est, spec.samples, q.sampler_seed)
            });
            sequential.merge(&seq.estimate);
            t.span("engine.launch_1sample", qid, |_| {
                run_engine(&ctx, est, &engine_config(1, q.sampler_seed, workers))
            });
            if trawl.is_some() {
                // The pipeline drives the engine in batches; time the engine
                // alone on the same configuration for the engine ledger.
                let r = t.span("engine.run", qid, |_| run_engine(&ctx, est, &cfg));
                counters.merge(&r.counters);
                fetched += r.estimate.samples;
                collected += r.samples_collected;
            }
            if workers > 1 {
                t.span("engine.run_1worker", qid, |_| {
                    run_engine(&ctx, est, &engine_config(spec.samples, q.sampler_seed, 1))
                });
            }
        });
        if i < SANITIZED_QUERIES {
            let t0 = Instant::now();
            let off = spec.builder(data, q, nproc).run();
            san_off_ms += t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let full = spec
                .builder(data, q, nproc)
                .sanitize(SanitizerMode::FULL)
                .run();
            san_full_ms += t0.elapsed().as_secs_f64() * 1e3;
            checks.record_run(i, "sanitizer off", &off, trawl.is_some(), reference);
            checks.record_run(i, "sanitizer full", &full, trawl.is_some(), reference);
            violations += full
                .as_ref()
                .ok()
                .and_then(|r| r.sanitizer.as_ref())
                .map_or(0, |s| s.total);
        }
    }

    let nq = setup.queries.len();
    let spans = t.spans();
    let selfs = self_times_ns(spans);
    let layer = |name, span| span_metric(spans, &selfs, nq, name, span);
    let engine = layer("engine.run_ms", "engine.run");
    let seq = layer("estimators.sequential_ms", "estimators.sequential");
    let build = layer("candidate.build_ms", "candidate.build");
    let build_csr = layer("candidate.build_csr_ms", "candidate.build_csr");
    let one_worker = layer("engine.run_1worker_ms", "engine.run_1worker");
    let warp_instr = counters.alu_instructions + counters.mem_instructions;
    let total_engine_ns: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "engine.run")
        .map(|(_, &ns)| ns)
        .sum();
    let query_p50 = percentile(&query_ms, 0.5).map_or(0.0, |p| p.0);
    let run_p50 = percentile(&run_ms, 0.5).map_or(0.0, |p| p.0);
    let per_query = |v: u64| v as f64 / nq.max(1) as f64;

    let mut m = vec![
        Metric::exact(
            "graph.decode_ms",
            "ms",
            if spec.storage == Storage::Packed {
                build.value - build_csr.value
            } else {
                0.0
            },
        ),
        Metric::exact(
            "candidate.mb",
            "MiB",
            cand_bytes as f64 / nq.max(1) as f64 / MIB,
        ),
        layer("query.order_ms", "query.order"),
        Metric::exact(
            "estimators.valid_ratio",
            "ratio",
            ratio(sequential.valid as f64, sequential.samples as f64),
        ),
        Metric::exact(
            "engine.sim_overhead",
            "ratio",
            ratio(engine.value, seq.value),
        ),
        layer("engine.launch_overhead_ms", "engine.launch_1sample"),
        Metric::exact(
            "engine.parallel_speedup",
            "ratio",
            if workers > 1 {
                ratio(one_worker.value, engine.value)
            } else {
                1.0
            },
        ),
        Metric::exact(
            "engine.inherited_ratio",
            "ratio",
            ratio(collected as f64 - fetched as f64, fetched as f64),
        ),
        Metric::exact("simt.warp_instructions", "count", per_query(warp_instr)),
        Metric::exact(
            "simt.mem_transactions",
            "count",
            per_query(counters.mem_transactions),
        ),
        Metric::exact(
            "simt.tx_per_load",
            "ratio",
            ratio(
                counters.mem_transactions as f64,
                counters.mem_instructions as f64,
            ),
        ),
        Metric::exact(
            "simt.lane_utilization",
            "ratio",
            ratio(
                counters.active_lane_ops as f64,
                counters.issued_lane_slots as f64,
            ),
        ),
        Metric::exact(
            "simt.divergent_replays",
            "count",
            per_query(counters.divergent_replays),
        ),
        Metric::exact(
            "simt.host_ns_per_warp_instr",
            "ns",
            ratio(total_engine_ns as f64, warp_instr as f64),
        ),
        Metric::exact(
            "sanitizer.full_overhead",
            "ratio",
            ratio(san_full_ms, san_off_ms),
        ),
        Metric::exact("sanitizer.violations", "count", violations as f64),
        layer("pipeline.run_ms", "pipeline.run"),
        Metric::new(
            "pipeline.cpu_tail_ms",
            "ms",
            mean(&cpu_tail_ms),
            Summary::of(&cpu_tail_ms).unwrap_or(Summary::exact(0.0)),
        ),
        Metric::exact(
            "pipeline.trawl_completed_frac",
            "ratio",
            ratio(trawl_done as f64, trawl_tried as f64),
        ),
        Metric::new(
            "enumeration.exact_ms",
            "ms",
            mean(&base.oracle_ms),
            Summary::of(&base.oracle_ms).unwrap_or(Summary::exact(0.0)),
        ),
        Metric::new(
            "core.run_ms",
            "ms",
            mean(&run_ms),
            Summary::of(&run_ms).unwrap_or(Summary::exact(0.0)),
        ),
        Metric::new(
            "core.ledger_frac",
            "ratio",
            percentile(&ledger, 0.5).map_or(0.0, |p| p.0),
            Summary::of(&ledger).unwrap_or(Summary::exact(0.0)),
        ),
        Metric::exact("trace.overhead_ms", "ms", query_p50 - run_p50),
    ];
    let value = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let run_mean = value("core.run_ms");
    let share = |v: f64| 100.0 * ratio(v, run_mean);
    eprintln!(
        "perfbench: share of run() wall: candidate.build {:.1}%, query.order {:.2}%, engine.run {:.1}%, pipeline.run {:.1}%",
        share(build.value),
        share(value("query.order_ms")),
        if trawl.is_some() { 0.0 } else { share(engine.value) },
        share(value("pipeline.run_ms")),
    );
    let ledger_frac = value("core.ledger_frac");
    eprintln!(
        "perfbench: layer spans cover {:.1}% of run() wall on the median query (tolerance +/-{:.0}%): {}",
        ledger_frac * 100.0,
        LEDGER_TOLERANCE * 100.0,
        if (ledger_frac - 1.0).abs() <= LEDGER_TOLERANCE { "closes" } else { "DOES NOT CLOSE" }
    );
    m.extend([build, seq, engine]);
    (m, t.to_json())
}

/// Set-up layer metrics: medians over the set-up repetitions.
pub fn setup_metrics(
    times: &[SetupTimes],
    graph_mem_bytes: usize,
    packed: Option<&CompressedGraph>,
) -> Vec<Metric> {
    let med = |name: &'static str, f: fn(&SetupTimes) -> f64| {
        let v: Vec<f64> = times.iter().map(f).collect();
        let spread = Summary::of(&v).unwrap_or(Summary::exact(0.0));
        Metric::new(name, "ms", spread.median, spread)
    };
    vec![
        med("graph.generate_ms", |t| t.generate_ms),
        med("graph.pack_ms", |t| t.pack_ms),
        med("graph.load_ms", |t| t.load_ms),
        med("query.extract_ms", |t| t.extract_ms),
        Metric::exact("graph.mem_mb", "MiB", graph_mem_bytes as f64 / MIB),
        Metric::exact(
            "graph.decode_cache_mb",
            "MiB",
            packed.map_or(0.0, |p| p.decode_cache_bytes() as f64 / MIB),
        ),
    ]
}
