//! Device launch harness and the device-time model.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::counters::KernelCounters;
use gsword_prof::{Profiler, SpanKind, Track};
use gsword_sanitizer::{Sanitizer, WarpSanitizer};

/// Kernel launch geometry plus host execution parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Thread blocks per launch.
    pub num_blocks: usize,
    /// Threads per block; must be a multiple of 32.
    pub threads_per_block: usize,
    /// Host threads used to execute blocks (functional simulation speed
    /// only; does not affect results or modeled time).
    pub host_threads: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_blocks: 46,
            threads_per_block: 256,
            host_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl DeviceConfig {
    /// Checked constructor: rejects geometries the SIMT model cannot
    /// execute instead of panicking later inside a launch. The block size
    /// must be a positive multiple of 32 (whole warps only — a ragged
    /// trailing warp would need per-lane predication the lockstep model
    /// deliberately does not have), and the grid must be non-empty.
    /// `host_threads` is clamped to at least 1.
    pub fn checked(
        num_blocks: usize,
        threads_per_block: usize,
        host_threads: usize,
    ) -> Result<Self, ConfigError> {
        if threads_per_block == 0 || !threads_per_block.is_multiple_of(32) {
            return Err(ConfigError::RaggedBlock { threads_per_block });
        }
        if num_blocks == 0 {
            return Err(ConfigError::EmptyGrid);
        }
        Ok(DeviceConfig {
            num_blocks,
            threads_per_block,
            host_threads: host_threads.max(1),
        })
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> usize {
        debug_assert!(
            self.threads_per_block > 0 && self.threads_per_block.is_multiple_of(32),
            "DeviceConfig bypassed validation: threads_per_block = {} is not a \
             positive multiple of 32 (use DeviceConfig::checked)",
            self.threads_per_block
        );
        self.threads_per_block / 32
    }

    /// Total device threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.num_blocks * self.threads_per_block
    }
}

/// Rejected launch geometry from [`DeviceConfig::checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads_per_block` is zero or not a multiple of 32.
    RaggedBlock { threads_per_block: usize },
    /// `num_blocks` is zero.
    EmptyGrid,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::RaggedBlock { threads_per_block } => write!(
                f,
                "threads_per_block = {threads_per_block} must be a positive multiple of 32"
            ),
            ConfigError::EmptyGrid => write!(f, "num_blocks must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The software device: executes kernels block-parallel on host threads.
#[derive(Debug, Clone, Default)]
pub struct Device {
    /// Launch configuration.
    pub config: DeviceConfig,
    /// Attached checking layer; the default is the disabled (zero-cost)
    /// handle. Kernel bodies obtain per-warp handles via
    /// [`Device::warp_sanitizer`].
    pub sanitizer: Sanitizer,
}

impl Device {
    /// Create a device with the given configuration and no sanitizer.
    pub fn new(config: DeviceConfig) -> Self {
        Device::with_sanitizer(config, Sanitizer::off())
    }

    /// Create a device with a checking layer attached. Every launch on
    /// this device reports into the same sanitizer.
    pub fn with_sanitizer(config: DeviceConfig, sanitizer: Sanitizer) -> Self {
        assert!(
            config.threads_per_block.is_multiple_of(32),
            "block size must be a multiple of 32"
        );
        assert!(config.num_blocks > 0 && config.threads_per_block > 0);
        Device { config, sanitizer }
    }

    /// Per-warp sanitizer handle for kernel bodies (the disabled handle
    /// when no sanitizer is attached).
    pub fn warp_sanitizer(&self, block: usize, warp: usize) -> WarpSanitizer {
        self.sanitizer.warp(block, warp)
    }

    /// Launch a kernel over the full grid: `body(block_id)` runs once per
    /// block, blocks are distributed over host threads, and results are
    /// returned in block order. The body typically returns partial
    /// estimates plus [`KernelCounters`].
    pub fn launch<R, F>(&self, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.launch_blocks(0..self.config.num_blocks, body)
    }

    /// Launch a kernel over a sub-range of *global* block ids — the shard
    /// primitive of the device runtime. `body` receives ids from `blocks`
    /// unchanged (not re-based to zero), so a grid split across devices and
    /// streams computes the same per-block work as a whole-grid launch;
    /// results come back in ascending block order.
    pub fn launch_blocks<R, F>(&self, blocks: Range<usize>, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        fork_join(blocks, self.config.host_threads, body, None)
    }
}

/// Profiler attribution for [`fork_join`]: each participant that ran at
/// least one block records one span named `name` on its
/// [`Track::Worker`] row of `(device, stream)`.
pub(crate) struct WorkerSpans<'a> {
    pub profiler: &'a Profiler,
    pub name: &'a str,
    pub device: u32,
    pub stream: u32,
}

/// Run `body` once per block id in `blocks` on up to `workers` threads and
/// return the results in ascending block order.
///
/// The worker count is clamped to the number of blocks; one worker runs
/// the blocks serially on the calling thread. Otherwise `workers - 1`
/// scoped helpers are spawned and the calling thread is the remaining
/// participant. Every participant claims block ids from one shared cursor
/// and returns its `(block, result)` pairs; the pairs are then placed in
/// block order, so the output does not depend on which thread ran which
/// block. A panicking block re-raises its panic here once every
/// participant has stopped.
pub(crate) fn fork_join<R, F>(
    blocks: Range<usize>,
    workers: usize,
    body: F,
    spans: Option<&WorkerSpans<'_>>,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let nb = blocks.len();
    let workers = workers.clamp(1, nb.max(1));
    if workers == 1 {
        return blocks.map(body).collect();
    }
    let base = blocks.start;
    let cursor = AtomicUsize::new(0);
    let participants = AtomicUsize::new(0);
    let participate = || {
        let mut ran: Vec<(usize, R)> = Vec::new();
        let mut start_us = 0;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= nb {
                break;
            }
            if ran.is_empty() {
                start_us = spans.map_or(0, |s| s.profiler.now_us());
            }
            ran.push((i, body(base + i)));
        }
        if let (Some(s), false) = (spans, ran.is_empty()) {
            let track = Track::Worker {
                device: s.device,
                stream: s.stream,
                worker: participants.fetch_add(1, Ordering::Relaxed) as u32,
            };
            s.profiler
                .record_span(track, SpanKind::Launch, s.name, start_us);
        }
        ran
    };
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(participate)).collect();
        let mut parts = vec![participate()];
        for h in helpers {
            parts.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        parts
    });
    let mut out: Vec<Option<R>> = (0..nb).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every block ran exactly once"))
        .collect()
}

/// Analytic device-time model converting [`KernelCounters`] into estimated
/// kernel milliseconds on an RTX 2080 Ti-class GPU.
///
/// The model is deliberately simple: the kernel is issue-bound or
/// bandwidth-bound, whichever is worse, plus a fixed launch overhead.
/// Divergence replays consume issue slots. Absolute values are indicative;
/// *ratios* between kernel variants (which share the model) are the
/// reproduction target. See DESIGN.md §1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Warp instructions each SM can issue per cycle.
    pub issue_per_sm_per_cycle: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Fixed launch overhead in milliseconds.
    pub launch_overhead_ms: f64,
    /// Average issue cycles per warp instruction (pipeline + dependency
    /// stalls not otherwise modeled).
    pub cycles_per_instruction: f64,
}

impl Default for DeviceModel {
    /// RTX 2080 Ti: 68 SMs, 1.35 GHz, 616 GB/s.
    fn default() -> Self {
        DeviceModel {
            num_sms: 68,
            issue_per_sm_per_cycle: 1.0,
            clock_ghz: 1.35,
            dram_gbps: 616.0,
            launch_overhead_ms: 0.03,
            cycles_per_instruction: 6.0,
        }
    }
}

impl DeviceModel {
    /// Modeled kernel time in milliseconds for the merged counters of one
    /// launch.
    pub fn modeled_ms(&self, c: &KernelCounters) -> f64 {
        let instructions = (c.alu_instructions + c.mem_instructions + c.divergent_replays) as f64;
        let issue_rate_per_ms =
            self.num_sms as f64 * self.issue_per_sm_per_cycle * self.clock_ghz * 1e6
                / self.cycles_per_instruction;
        let compute_ms = instructions / issue_rate_per_ms;
        let bytes = c.mem_transactions as f64 * 128.0;
        let mem_ms = bytes / (self.dram_gbps * 1e6);
        self.launch_overhead_ms + compute_ms.max(mem_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_every_block_once() {
        let dev = Device::new(DeviceConfig {
            num_blocks: 17,
            threads_per_block: 64,
            host_threads: 4,
        });
        let out = dev.launch(|b| b * 2);
        assert_eq!(out, (0..17).map(|b| b * 2).collect::<Vec<_>>());
    }

    #[test]
    fn launch_blocks_passes_global_ids() {
        let dev = Device::new(DeviceConfig {
            num_blocks: 8,
            threads_per_block: 32,
            host_threads: 3,
        });
        assert_eq!(dev.launch_blocks(5..8, |b| b), vec![5, 6, 7]);
        assert_eq!(dev.launch_blocks(2..3, |b| b), vec![2]);
        assert!(dev.launch_blocks(4..4, |b| b).is_empty());
    }

    #[test]
    fn launch_single_threaded_path() {
        let dev = Device::new(DeviceConfig {
            num_blocks: 3,
            threads_per_block: 32,
            host_threads: 1,
        });
        assert_eq!(dev.launch(|b| b), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn rejects_ragged_blocks() {
        Device::new(DeviceConfig {
            num_blocks: 1,
            threads_per_block: 33,
            host_threads: 1,
        });
    }

    #[test]
    fn model_monotonic_in_transactions() {
        let m = DeviceModel::default();
        let mut a = KernelCounters::default();
        let mut b = KernelCounters::default();
        for _ in 0..1000 {
            a.warp_load(32, 2);
            b.warp_load(32, 30);
        }
        assert!(m.modeled_ms(&b) > m.modeled_ms(&a));
    }

    #[test]
    fn model_monotonic_in_instructions() {
        let m = DeviceModel::default();
        let mut a = KernelCounters::default();
        let mut b = KernelCounters::default();
        for _ in 0..10_000 {
            a.warp_instruction(u32::MAX);
            b.warp_instruction(u32::MAX);
            b.warp_instruction(u32::MAX);
        }
        assert!(m.modeled_ms(&b) > m.modeled_ms(&a));
    }

    #[test]
    fn model_includes_launch_overhead() {
        let m = DeviceModel::default();
        let c = KernelCounters::default();
        assert!((m.modeled_ms(&c) - m.launch_overhead_ms).abs() < 1e-12);
    }

    #[test]
    fn checked_rejects_bad_geometry() {
        assert_eq!(
            DeviceConfig::checked(4, 33, 2),
            Err(ConfigError::RaggedBlock {
                threads_per_block: 33
            })
        );
        assert_eq!(
            DeviceConfig::checked(4, 0, 2),
            Err(ConfigError::RaggedBlock {
                threads_per_block: 0
            })
        );
        assert_eq!(DeviceConfig::checked(0, 64, 2), Err(ConfigError::EmptyGrid));
        let err = DeviceConfig::checked(4, 48, 2).unwrap_err();
        assert!(err.to_string().contains("multiple of 32"), "{err}");
    }

    #[test]
    fn checked_accepts_and_clamps() {
        let c = DeviceConfig::checked(4, 128, 0).unwrap();
        assert_eq!(c.num_blocks, 4);
        assert_eq!(c.threads_per_block, 128);
        assert_eq!(c.host_threads, 1, "host_threads clamped to at least 1");
        assert_eq!(c.warps_per_block(), 4);
    }

    #[test]
    fn config_geometry() {
        let c = DeviceConfig {
            num_blocks: 4,
            threads_per_block: 128,
            host_threads: 2,
        };
        assert_eq!(c.warps_per_block(), 4);
        assert_eq!(c.total_threads(), 512);
    }
}
