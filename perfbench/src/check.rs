//! The deterministic outputs of a query and their reference comparison.

use gsword_core::engine::EngineReport;
use gsword_core::pipeline::PipelineReport;
use gsword_core::simt::{KernelCounters, SanitizerReport};
use gsword_core::Report;

/// Everything a run produces that must be bit-identical to the reference
/// configuration (serial, CSR, one device with one stream).
///
/// With the co-processing pipeline only the sampler side is deterministic:
/// the trawl estimate depends on how much CPU enumeration finishes before
/// the wall-clock preemption, so it is left out.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Bits of the final estimate (the sampler's HT estimate with trawling).
    pub estimate_bits: u64,
    pub samples_collected: u64,
    pub counters: KernelCounters,
    /// Bits of the modeled device milliseconds.
    pub modeled_ms_bits: u64,
}

/// What one execution produced, as far as the checks need it.
pub struct Observed<'a> {
    pub outputs: Outputs,
    /// The estimate a user sees (the trawl estimate when trawling ran).
    pub estimate: f64,
    pub sanitizer: Option<&'a SanitizerReport>,
}

impl<'a> Observed<'a> {
    /// A report of the public `run()`.
    pub fn report(r: &'a Report, trawling: bool) -> Self {
        let estimate = if trawling {
            r.sampler.value()
        } else {
            r.estimate
        };
        Observed {
            outputs: Outputs {
                estimate_bits: estimate.to_bits(),
                samples_collected: r.samples_collected,
                counters: r.counters.unwrap_or_default(),
                modeled_ms_bits: r.modeled_ms.unwrap_or(0.0).to_bits(),
            },
            estimate: r.estimate,
            sanitizer: r.sanitizer.as_ref(),
        }
    }

    /// A direct `run_engine` call.
    pub fn engine(r: &'a EngineReport) -> Self {
        Observed {
            outputs: Outputs {
                estimate_bits: r.estimate.value().to_bits(),
                samples_collected: r.samples_collected,
                counters: r.counters,
                modeled_ms_bits: r.modeled_ms.to_bits(),
            },
            estimate: r.estimate.value(),
            sanitizer: r.sanitizer.as_ref(),
        }
    }

    /// A direct `run_coprocessing` call.
    pub fn pipeline(r: &'a PipelineReport) -> Self {
        Observed {
            outputs: Outputs {
                estimate_bits: r.sampler.value().to_bits(),
                samples_collected: r.sampler.samples,
                counters: r.counters,
                modeled_ms_bits: r.gpu_modeled_ms.to_bits(),
            },
            estimate: r.value(),
            sanitizer: r.sanitizer.as_ref(),
        }
    }

    /// Why this execution fails the checks against `reference`, if it does.
    pub fn problem(&self, reference: Option<&Outputs>) -> Option<String> {
        if !self.estimate.is_finite() {
            return Some(format!("estimate {} is not finite", self.estimate));
        }
        if let Some(s) = self.sanitizer.filter(|s| !s.is_clean()) {
            return Some(format!("sanitizer reported {} violations", s.total));
        }
        match reference {
            None => Some("reference run failed".into()),
            Some(reference) => self
                .outputs
                .mismatch(reference)
                .map(|field| format!("{field} differs from the reference configuration")),
        }
    }
}

impl Outputs {
    /// The first field that differs from `reference`, if any.
    pub fn mismatch(&self, reference: &Outputs) -> Option<&'static str> {
        if self.estimate_bits != reference.estimate_bits {
            Some("estimate")
        } else if self.samples_collected != reference.samples_collected {
            Some("samples_collected")
        } else if self.counters != reference.counters {
            Some("counters")
        } else if self.modeled_ms_bits != reference.modeled_ms_bits {
            Some("modeled_ms")
        } else {
            None
        }
    }

    /// Fold these outputs into a running FNV-1a digest.
    pub fn digest_into(&self, h: &mut u64) {
        let c = &self.counters;
        let words = [
            self.estimate_bits,
            self.samples_collected,
            self.modeled_ms_bits,
            c.alu_instructions,
            c.mem_instructions,
            c.mem_transactions,
            c.active_lane_ops,
            c.issued_lane_slots,
            c.divergent_replays,
            c.mem_active_lanes,
        ];
        for w in words.iter().chain(c.tx_histogram.iter()) {
            fnv(h, &w.to_le_bytes());
        }
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64-bit hash.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of a whole query stream's outputs, in stream order.
pub fn stream_digest(outputs: &[Outputs]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outputs {
        o.digest_into(&mut h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outputs {
        let mut tx_histogram = [0; 33];
        tx_histogram[3] = 300;
        let counters = KernelCounters {
            alu_instructions: 1200,
            mem_instructions: 300,
            mem_transactions: 900,
            tx_histogram,
            ..KernelCounters::default()
        };
        Outputs {
            estimate_bits: 1234.5f64.to_bits(),
            samples_collected: 4096,
            counters,
            modeled_ms_bits: 0.75f64.to_bits(),
        }
    }

    #[test]
    fn identical_outputs_pass() {
        assert_eq!(sample().mismatch(&sample()), None);
        assert_eq!(stream_digest(&[sample()]), stream_digest(&[sample()]));
    }

    #[test]
    fn a_perturbed_counter_is_flagged() {
        let mut bad = sample();
        bad.counters.mem_transactions += 1;
        assert_eq!(bad.mismatch(&sample()), Some("counters"));
        assert_ne!(stream_digest(&[bad]), stream_digest(&[sample()]));

        let mut bad = sample();
        bad.counters.tx_histogram[4] += 1;
        assert_eq!(bad.mismatch(&sample()), Some("counters"));
        assert_ne!(stream_digest(&[bad]), stream_digest(&[sample()]));
    }

    #[test]
    fn estimate_and_modeled_time_are_compared_bitwise() {
        let mut bad = sample();
        bad.estimate_bits = (1234.5f64 + 1e-9).to_bits();
        assert_eq!(bad.mismatch(&sample()), Some("estimate"));
        let mut bad = sample();
        bad.modeled_ms_bits = 0.7500001f64.to_bits();
        assert_eq!(bad.mismatch(&sample()), Some("modeled_ms"));
    }

    #[test]
    fn stream_digest_depends_on_order() {
        let mut other = sample();
        other.samples_collected += 1;
        assert_ne!(
            stream_digest(&[sample(), other.clone()]),
            stream_digest(&[other, sample()])
        );
    }
}
