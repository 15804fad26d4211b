//! The self-describing record of a run and the result line.

use std::fmt::Write as _;
use std::path::Path;

use crate::check::{fnv, FNV_OFFSET};
use crate::workload::Spec;
use crate::{Checks, Metric};

/// Everything needed to interpret a run's numbers later.
pub struct Record<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub setup_reps: usize,
    pub passes: usize,
    pub oracle_incomplete: usize,
    pub reference_digest: u64,
    /// Wall seconds of each phase of the run.
    pub phases: [(&'static str, f64); 3],
    pub checks: &'a Checks,
    pub metrics: &'a [Metric],
    pub git_rev: Option<String>,
    pub source_digest: u64,
}

/// Escape a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Record<'_> {
    fn threads(&self) -> String {
        format!(
            "{{\"sim_workers\":{},\"trawl_cpu_threads\":{},\"oracle_threads\":1}}",
            self.spec.workers(self.nproc),
            self.spec.trawl_threads.unwrap_or(0),
        )
    }

    fn phases(&self) -> String {
        let parts: Vec<String> = self
            .phases
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.3}"))
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let git = self.git_rev.as_deref().map_or("null".into(), json_str);
        write!(
            o,
            "\"workload\":{},\"why\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\
             \"rustc\":{},\"git_rev\":{git},\"source_digest\":\"{:016x}\",\"setup_reps\":{},\"passes\":{},\
             \"queries\":{},\"oracle_nodes\":{},\"oracle_incomplete\":{},\"output_digest\":\"{:016x}\",\
             \"phases_s\":{},\"attempted\":{},\"failed\":{},\"failure_notes\":[{}],\"metrics\":{{",
            json_str(self.spec.name),
            json_str(self.spec.why),
            self.seed,
            self.seconds,
            self.trace as u8,
            self.nproc,
            self.threads(),
            json_str(env!("PERFBENCH_RUSTC_VERSION")),
            self.source_digest,
            self.setup_reps,
            self.passes,
            self.spec.queries,
            self.spec.oracle_nodes,
            self.oracle_incomplete,
            self.reference_digest,
            self.phases(),
            self.checks.attempted,
            self.checks.failed,
            self.checks.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(","),
        )
        .expect("String write");
        for (i, m) in self.metrics.iter().enumerate() {
            let s = &m.spread;
            write!(
                o,
                "{}{}:{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}{}}}",
                if i > 0 { "," } else { "" },
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n,
                m.beyond
                    .map_or(String::new(), |b| format!(",\"beyond\":{b}"))
            )
            .expect("String write");
        }
        o.push_str("}}\n");
        o
    }

    /// Human-readable summary for standard error.
    pub fn describe(&self) -> String {
        let mut o = String::new();
        writeln!(
            o,
            "perfbench {} seed={} trace={} nproc={} threads={} passes={} queries={} setup_reps={} phases_s={}",
            self.spec.name,
            self.seed,
            self.trace as u8,
            self.nproc,
            self.threads(),
            self.passes,
            self.spec.queries,
            self.setup_reps,
            self.phases()
        )
        .expect("String write");
        writeln!(
            o,
            "  {} | git {} | source {:016x}",
            env!("PERFBENCH_RUSTC_VERSION"),
            self.git_rev.as_deref().unwrap_or("none"),
            self.source_digest
        )
        .expect("String write");
        writeln!(
            o,
            "  output digest {:016x} | checked {} executions, {} failed | oracle incomplete on {} of {} queries",
            self.reference_digest,
            self.checks.attempted,
            self.checks.failed,
            self.oracle_incomplete,
            self.spec.queries
        )
        .expect("String write");
        for n in &self.checks.notes {
            writeln!(o, "  FAILED {n}").expect("String write");
        }
        for m in self.metrics {
            let s = &m.spread;
            writeln!(
                o,
                "  {:<30} {:>14.6} {:<6} (median {:.6}, q1 {:.6}, q3 {:.6}, n {}{})",
                m.name,
                m.value,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n,
                m.beyond.map_or(String::new(), |b| format!(", {b} beyond"))
            )
            .expect("String write");
        }
        o
    }
}

/// The machine-read last line of standard output.
pub fn result_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "0".into()
                },
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    )
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
}

/// The commit checked out, when the repository is a git work tree.
pub fn git_rev() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// FNV-1a digest over the program's sources and manifests, so a result
/// identifies the code it measured even outside a git work tree.
pub fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["crates", "src", "vendor"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            fnv(
                &mut h,
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            fnv(&mut h, &bytes);
        }
    }
    h
}
