//! End-to-end and per-layer benchmark of the gSWORD query path.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one client sends a seeded stream of
//! subgraph-counting queries through `Gsword::builder(..).run()`, the next
//! only after the previous one returns. Before anything is timed, an exact
//! oracle counts every query and a reference pass (serial simulation, CSR
//! storage, one device with one stream) records each query's deterministic
//! outputs; every timed result is checked against them.
//!
//! `--trace 0` times whole passes over the stream until `--seconds` have
//! elapsed and reports the end-to-end metrics. `--trace 1` makes one pass
//! that calls each layer's public functions from here, inside spans, and
//! reports the per-layer ledger. The last line of standard output is one
//! JSON object; a fuller self-describing record, and the spans of a traced
//! run, are written under `perfbench/out/`.

mod check;
mod layers;
mod meta;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gsword_core::exact_count;
use gsword_core::graph::{CompressedGraph, GraphStorage};

use check::{stream_digest, Observed, Outputs};
use stats::{percentile, qerror_summary, Summary};
use workload::{Query, Setup, Spec, Storage};

/// Set-up is repeated at least this many times, and until this much time
/// has passed; `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: expected a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::find(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: its value plus the spread it was taken from.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Summary,
    /// For a tail percentile, how many samples lie beyond it.
    pub beyond: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, spread: Summary) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread,
            beyond: None,
        }
    }

    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, value, Summary::exact(value))
    }
}

/// Outcome counts of every checked query execution.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Check one execution against its reference outputs.
    pub fn record(
        &mut self,
        query: usize,
        what: &str,
        observed: Result<Observed<'_>, String>,
        reference: Option<&Outputs>,
    ) {
        self.attempted += 1;
        let problem = match observed {
            Err(e) => Some(format!("run() failed: {e}")),
            Ok(o) => o.problem(reference),
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(format!("query {query} ({what}): {p}"));
            }
        }
    }

    /// Check one `run()` result.
    pub fn record_run(
        &mut self,
        query: usize,
        what: &str,
        result: &Result<gsword_core::Report, gsword_core::Error>,
        trawling: bool,
        reference: Option<&Outputs>,
    ) {
        let observed = match result {
            Ok(r) => Ok(Observed::report(r, trawling)),
            Err(e) => Err(e.to_string()),
        };
        self.record(query, what, observed, reference);
    }
}

/// The untimed passes every run makes before measuring.
pub struct Baseline {
    /// Exact count of each query, `None` where the oracle ran out of budget.
    pub truths: Vec<Option<u64>>,
    pub oracle_ms: Vec<f64>,
    /// Reference outputs of each query, `None` where the reference failed.
    pub reference: Vec<Option<Outputs>>,
    pub reference_errors: Vec<String>,
}

fn baseline(spec: &Spec, setup: &Setup) -> Baseline {
    let mut out = Baseline {
        truths: Vec::new(),
        oracle_ms: Vec::new(),
        reference: Vec::new(),
        reference_errors: Vec::new(),
    };
    for (i, q) in setup.queries.iter().enumerate() {
        let t = Instant::now();
        // One thread, so the node budget bounds the whole search.
        out.truths
            .push(exact_count(&setup.csr, &q.graph, spec.oracle_nodes, 1));
        out.oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match spec.reference(&setup.csr, q).run() {
            Ok(r) => out.reference.push(Some(
                Observed::report(&r, spec.trawl_threads.is_some()).outputs,
            )),
            Err(e) => {
                out.reference_errors
                    .push(format!("query {i}: reference run failed: {e}"));
                out.reference.push(None);
            }
        }
    }
    out
}

/// Untimed pass over the stream on the timed configuration, run where
/// storage keeps a cache that the timed passes would otherwise fill.
fn warm_up<S: GraphStorage>(
    spec: &Spec,
    data: &S,
    queries: &[Query],
    nproc: usize,
    checks: &mut Checks,
    base: &Baseline,
) {
    for (i, q) in queries.iter().enumerate() {
        let r = spec.builder(data, q, nproc).run();
        checks.record_run(
            i,
            "warm-up",
            &r,
            spec.trawl_threads.is_some(),
            base.reference[i].as_ref(),
        );
    }
}

/// The timed closed loop: whole passes over the stream until `seconds`
/// have elapsed. Returns the end-to-end metrics.
fn timed<S: GraphStorage>(
    spec: &Spec,
    data: &S,
    setup: &Setup,
    base: &Baseline,
    seconds: u64,
    nproc: usize,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, usize), String> {
    let queries = &setup.queries;
    let trawling = spec.trawl_threads.is_some();
    let mut wall_ms = Vec::new();
    let mut pass_rates = Vec::new();
    let mut first_pass = Vec::new();
    let (mut modeled_ms, mut first_collected) = (0.0, 0u64);
    let mut collected = 0u64;
    let mut passes = 0;
    let phase = Instant::now();
    while passes == 0 || phase.elapsed().as_secs_f64() < seconds as f64 {
        let pass = Instant::now();
        let mut pass_collected = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let r = spec.builder(data, q, nproc).run();
            wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            checks.record_run(i, "timed", &r, trawling, base.reference[i].as_ref());
            let Ok(r) = r else { continue };
            pass_collected += r.samples_collected;
            if passes == 0 {
                first_pass.push((r.estimate, base.truths[i]));
                modeled_ms += r.modeled_ms.unwrap_or(0.0);
                first_collected += r.samples_collected;
            }
        }
        collected += pass_collected;
        pass_rates.push(pass_collected as f64 / pass.elapsed().as_secs_f64());
        passes += 1;
    }
    let phase_s = phase.elapsed().as_secs_f64();

    let mut m = Vec::new();
    let spread = Summary::of(&wall_ms).expect("at least one pass ran");
    let (p50, _) = percentile(&wall_ms, 0.5).expect("at least one pass ran");
    let (p90, beyond) = percentile(&wall_ms, 0.9).expect("at least one pass ran");
    m.push(Metric::new("query_ms_p50", "ms", p50, spread));
    m.push(Metric {
        beyond: Some(beyond),
        ..Metric::new("query_ms_p90", "ms", p90, spread)
    });
    m.push(Metric::new(
        "samples_per_s",
        "1/s",
        collected as f64 / phase_s,
        Summary::of(&pass_rates).expect("at least one pass ran"),
    ));
    m.push(Metric::exact(
        "modeled_ms_per_ksample",
        "ms",
        modeled_ms / (first_collected.max(1) as f64 / 1e3),
    ));
    let q = qerror_summary(&first_pass)
        .ok_or("no query's oracle completed, so q-error is undefined")?;
    m.push(Metric::new(
        "q_error_p50",
        "ratio",
        q.spread.median,
        q.spread,
    ));
    m.push(Metric {
        beyond: Some(q.beyond_p90),
        ..Metric::new("q_error_p90", "ratio", q.p90, q.spread)
    });
    Ok((m, passes))
}

/// Removes the packed image when the run ends, however it ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<(), String> {
    let spec = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let image = dir.join(format!(
        "{}-{}-{}.gswdpk",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let _cleanup = RemoveOnDrop(image.clone());

    let mut setup_times = Vec::new();
    let mut setup = None;
    let started = Instant::now();
    while setup_times.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
    {
        // Drop the previous repetition first so only one copy is resident.
        drop(setup.take());
        let s = workload::setup(spec, args.seed, &image)?;
        setup_times.push(s.times);
        setup = Some(s);
    }
    let setup = setup.expect("set-up ran at least once");
    let setup_s: Vec<f64> = setup_times.iter().map(|t| t.total_s()).collect();
    let graph_mem_bytes = match &setup.packed {
        Some(p) => p.mem_bytes(),
        None => setup.csr.mem_bytes(),
    };

    let setup_phase_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let base = baseline(spec, &setup);
    let baseline_phase_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut checks = Checks::default();
    checks
        .notes
        .extend(base.reference_errors.iter().take(16).cloned());
    let reference_digest =
        stream_digest(&base.reference.iter().flatten().cloned().collect::<Vec<_>>());

    let (mut metrics, passes, trace_spans) = match &setup.packed {
        Some(packed) => {
            go::<CompressedGraph>(args, spec, packed, &setup, &base, nproc, &mut checks)
        }
        None => go(args, spec, &setup.csr, &setup, &base, nproc, &mut checks),
    }?;
    if args.trace {
        metrics.extend(layers::setup_metrics(
            &setup_times,
            graph_mem_bytes,
            setup.packed.as_ref(),
        ));
        metrics.sort_by_key(|m| m.name);
    } else {
        let spread = Summary::of(&setup_s).expect("set-up ran at least once");
        metrics.push(Metric::new("setup_s", "s", spread.median, spread));
        metrics.push(Metric::exact("peak_rss_mb", "MiB", meta::peak_rss_mb()?));
    }

    let phases = [
        ("setup", setup_phase_s),
        ("oracle_and_reference", baseline_phase_s),
        ("measure", t.elapsed().as_secs_f64()),
    ];
    let correct = checks.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let record = meta::Record {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        setup_reps: setup_times.len(),
        passes,
        oracle_incomplete: base.truths.iter().filter(|t| t.is_none()).count(),
        reference_digest,
        phases,
        checks: &checks,
        metrics: &metrics,
        git_rev: meta::git_rev(),
        source_digest: meta::source_digest(),
    };
    let stem = format!("{}-seed{}-trace{}", spec.name, args.seed, args.trace as u8);
    let json = record.to_json();
    eprint!("{}", record.describe());
    std::fs::write(dir.join(format!("{stem}.json")), &json)
        .map_err(|e| format!("writing record: {e}"))?;
    if let Some(spans) = trace_spans {
        std::fs::write(dir.join(format!("{stem}.trace.json")), spans)
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    println!("{}", meta::result_line(correct, &checks, &metrics));
    Ok(())
}

#[allow(clippy::type_complexity)]
fn go<S: GraphStorage>(
    args: &Args,
    spec: &Spec,
    data: &S,
    setup: &Setup,
    base: &Baseline,
    nproc: usize,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, usize, Option<String>), String> {
    if spec.storage == Storage::Packed {
        warm_up(spec, data, &setup.queries, nproc, checks, base);
    }
    if args.trace {
        let (metrics, spans) = layers::traced(spec, data, setup, base, nproc, checks);
        Ok((metrics, 1, Some(spans)))
    } else {
        let (metrics, passes) = timed(spec, data, setup, base, args.seconds, nproc, checks)?;
        Ok((metrics, passes, None))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
