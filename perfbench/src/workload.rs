//! The benchmark's workloads: what each one runs and how its inputs are
//! made from the seed.

use std::path::Path;
use std::time::Instant;

use gsword_core::estimators::EstimatorKind;
use gsword_core::graph::{datasets, CompressedGraph, Graph, GraphStorage};
use gsword_core::pipeline::TrawlConfig;
use gsword_core::query::QueryGraph;
use gsword_core::{Backend, Gsword, GswordBuilder};

/// How the data graph is stored for the timed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Csr,
    /// Packed into a `GSWDPK01` image, saved, and mmap-loaded, with the
    /// default decode cache.
    Packed,
}

/// One workload: a closed loop of queries from a single client.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: &'static str,
    pub storage: Storage,
    /// Query sizes, rotated through the stream.
    pub sizes: &'static [usize],
    pub estimator: EstimatorKind,
    pub samples: u64,
    /// Block-parallel simulation workers, capped at the host's CPUs.
    pub sim_workers: usize,
    /// Run the trawling co-processing pipeline with this many CPU
    /// enumeration threads.
    pub trawl_threads: Option<usize>,
    /// Distinct queries in the stream.
    pub queries: usize,
    /// Search-node budget of the exact oracle per query. Sized per data
    /// graph: eu2005 queries with billions of embeddings cannot finish at
    /// any affordable budget, while most wordnet ones finish at 4M.
    pub oracle_nodes: u64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "sample-heavy",
        why: "per-sample simulation dominates: lockstep stepping, Alley Refine, memory charging, block fan-out",
        dataset: "yeast",
        storage: Storage::Csr,
        sizes: &[8],
        estimator: EstimatorKind::Alley,
        samples: 100_000,
        sim_workers: 2,
        trawl_threads: None,
        queries: 200,
    oracle_nodes: 1_000_000,
    },
    Spec {
        name: "packed-many",
        why: "many small queries on an mmap-loaded compressed graph: storage decode, candidate build, per-launch cost",
        dataset: "eu2005",
        storage: Storage::Packed,
        sizes: &[4, 5, 6],
        estimator: EstimatorKind::WanderJoin,
        samples: 4_000,
        sim_workers: 1,
        trawl_threads: None,
        queries: 600,
    oracle_nodes: 1_000_000,
    },
    Spec {
        name: "wordnet-trawl",
        why: "trawling co-processing: async batch launches overlapped with wall-clock-preempted CPU enumeration",
        dataset: "wordnet",
        storage: Storage::Csr,
        sizes: &[8],
        estimator: EstimatorKind::Alley,
        samples: 20_000,
        sim_workers: 1,
        trawl_threads: Some(1),
        queries: 800,
    oracle_nodes: 4_000_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Simulation workers actually used on a host with `nproc` CPUs.
    pub fn workers(&self, nproc: usize) -> usize {
        self.sim_workers.min(nproc).max(1)
    }

    pub fn trawl(&self) -> Option<TrawlConfig> {
        self.trawl_threads.map(|cpu_threads| TrawlConfig {
            cpu_threads,
            ..TrawlConfig::default()
        })
    }

    /// The configuration timed by the benchmark.
    pub fn builder<'a, S: GraphStorage>(
        &self,
        data: &'a S,
        q: &'a Query,
        nproc: usize,
    ) -> GswordBuilder<'a, S> {
        self.reference(data, q).sim_workers(self.workers(nproc))
    }

    /// The reference configuration: serial simulation on one device with
    /// one stream (the builder's defaults). Callers pass CSR storage.
    pub fn reference<'a, S: GraphStorage>(
        &self,
        data: &'a S,
        q: &'a Query,
    ) -> GswordBuilder<'a, S> {
        let b = Gsword::builder(data, &q.graph)
            .samples(self.samples)
            .seed(q.sampler_seed)
            .estimator(self.estimator)
            .backend(Backend::Gsword);
        match self.trawl() {
            Some(t) => b.trawling(t),
            None => b,
        }
    }
}

/// One query of the stream.
pub struct Query {
    pub graph: QueryGraph,
    pub sampler_seed: u64,
}

/// SplitMix64 step: the stream's only source of randomness.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded query stream: query `i` has `sizes[i % len]` vertices and is
/// extracted from the data graph with a seed derived from `(seed, i)`.
pub fn query_stream(spec: &Spec, data: &Graph, seed: u64) -> Vec<Query> {
    let mut state = splitmix(seed ^ 0x6753_574F_5244);
    (0..spec.queries)
        .map(|i| {
            let k = spec.sizes[i % spec.sizes.len()];
            loop {
                state = splitmix(state);
                if let Some(graph) = QueryGraph::extract(data, k, state) {
                    break Query {
                        graph,
                        sampler_seed: splitmix(state ^ 0x5EED),
                    };
                }
            }
        })
        .collect()
}

/// What each set-up step cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub pack_ms: f64,
    pub load_ms: f64,
    pub extract_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.generate_ms + self.pack_ms + self.load_ms + self.extract_ms) / 1e3
    }
}

/// Everything set-up produces.
pub struct Setup {
    pub csr: Graph,
    pub packed: Option<CompressedGraph>,
    pub queries: Vec<Query>,
    pub times: SetupTimes,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate the data graph (and pack, save and map it for packed storage),
/// then extract the query stream. `image` is where the packed image goes.
pub fn setup(spec: &Spec, seed: u64, image: &Path) -> Result<Setup, String> {
    let t = Instant::now();
    let csr = datasets::dataset(spec.dataset);
    let generate_ms = ms_since(t);
    let (mut pack_ms, mut load_ms, mut packed) = (0.0, 0.0, None);
    if spec.storage == Storage::Packed {
        let _ = std::fs::remove_file(image);
        let t = Instant::now();
        CompressedGraph::from_graph(&csr)
            .save(image)
            .map_err(|e| format!("saving {}: {e}", image.display()))?;
        pack_ms = ms_since(t);
        let t = Instant::now();
        let g = CompressedGraph::load(image)
            .map_err(|e| format!("loading {}: {e}", image.display()))?;
        load_ms = ms_since(t);
        packed = Some(g);
    }
    let t = Instant::now();
    let queries = query_stream(spec, &csr, seed);
    let extract_ms = ms_since(t);
    Ok(Setup {
        csr,
        packed,
        queries,
        times: SetupTimes {
            generate_ms,
            pack_ms,
            load_ms,
            extract_ms,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn workers_never_exceed_the_host() {
        let w = find("sample-heavy").unwrap();
        assert_eq!(w.workers(1), 1);
        assert_eq!(w.workers(2), 2);
        assert_eq!(w.workers(64), 2);
    }
}
