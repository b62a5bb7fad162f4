//! The PrIM workload table behind Fig. 16: for each of the paper's 16
//! memory-intensive workloads, its paper-scale DRAM→PIM and PIM→DRAM
//! footprints and an analytic kernel-time model standing in for the
//! kernel times the paper measured on real UPMEM hardware (PrIM;
//! Gómez-Luna et al., "Benchmarking a New Paradigm"). The serving
//! runtime's suite sizer draws job sizes from the same table.
//!
//! ```
//! use pim_workloads::PRIM_SUITE;
//!
//! for w in &PRIM_SUITE {
//!     // More DPUs split the same footprint, so the kernel gets faster.
//!     assert!(w.kernel_ms(512) < w.kernel_ms(64), "{}", w.name);
//!     // Every suite-sized job moves whole 64 B lines to each core.
//!     let per_core = w.scaled_per_core(4 << 20, 64);
//!     assert!(per_core >= 64 && per_core.is_multiple_of(64), "{}", w.name);
//! }
//! ```

/// One PrIM workload: its paper-scale transfer footprint and the
/// kernel-time model Fig. 16 places between the two transfer phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimWorkload {
    /// Short name as it appears in Fig. 16 ("VA", "BS", ...).
    pub name: &'static str,
    /// Total DRAM→PIM bytes.
    pub in_bytes: u64,
    /// Total PIM→DRAM bytes.
    pub out_bytes: u64,
    /// Effective per-DPU processing rate in GB/s (MRAM streaming plus
    /// arithmetic; real DPUs sustain 0.05–0.6 GB/s depending on the
    /// operation mix — PrIM's published characterization).
    pub dpu_rate_gbps: f64,
    /// Fixed kernel overhead (launch/sync), ms.
    pub fixed_kernel_ms: f64,
}

impl PrimWorkload {
    /// Kernel wall-clock time in milliseconds on `n_dpus` DPUs: the
    /// per-DPU share of the footprint at the effective rate (SPMD — the
    /// slowest DPU bounds the launch; shares are balanced).
    pub fn kernel_ms(&self, n_dpus: u32) -> f64 {
        let per_dpu = (self.in_bytes + self.out_bytes) as f64 / n_dpus as f64;
        self.fixed_kernel_ms + per_dpu / (self.dpu_rate_gbps * 1e6)
    }

    /// Per-PIM-core input bytes for a simulation-scale job: the
    /// paper-scale input is rescaled so the suite's largest input maps
    /// to `cap_bytes`, split over `n_cores`, and quantized to a nonzero
    /// multiple of the 64 B line — always a valid `size_per_pim`,
    /// preserving the suite's relative size diversity.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn scaled_per_core(&self, cap_bytes: u64, n_cores: u32) -> u64 {
        assert!(n_cores > 0, "a job must target at least one PIM core");
        let scaled = (self.in_bytes as u128 * cap_bytes as u128 / MAX_IN_BYTES as u128) as u64;
        (scaled / n_cores as u64 / 64 * 64).max(64)
    }
}

/// The largest input in [`PRIM_SUITE`]: the anchor
/// [`PrimWorkload::scaled_per_core`] normalizes by.
const MAX_IN_BYTES: u64 = {
    let mut max = 0;
    let mut i = 0;
    while i < PRIM_SUITE.len() {
        if PRIM_SUITE[i].in_bytes > max {
            max = PRIM_SUITE[i].in_bytes;
        }
        i += 1;
    }
    max
};

/// The 16 PrIM workloads in the order of Fig. 16. The suite sizer draws
/// an index into this order, so reordering it moves every suite-mix
/// serving result.
pub const PRIM_SUITE: [PrimWorkload; 16] = [
    PrimWorkload {
        name: "BFS",
        in_bytes: 256 << 20,
        out_bytes: 64 << 20,
        dpu_rate_gbps: 0.06,
        fixed_kernel_ms: 4.0, // one launch per level
    },
    PrimWorkload {
        name: "BS",
        in_bytes: (512 << 20) + (16 << 20),
        out_bytes: 16 << 20,
        // Probing touches O(log n) cache lines per query: almost no
        // kernel time relative to shipping the sorted array.
        dpu_rate_gbps: 5.0,
        fixed_kernel_ms: 0.02,
    },
    PrimWorkload {
        name: "GEMV",
        in_bytes: 512 << 20,
        out_bytes: 2 << 20,
        dpu_rate_gbps: 0.055,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "HST-L",
        in_bytes: 384 << 20,
        out_bytes: 32 << 20,
        // 64 Ki bins spill out of the DPUs' working memory into MRAM:
        // slower updates than HST-S's 256 bins.
        dpu_rate_gbps: 0.035,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "HST-S",
        in_bytes: 384 << 20,
        out_bytes: 1 << 20,
        dpu_rate_gbps: 0.06,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "MLP",
        in_bytes: 512 << 20,
        out_bytes: 4 << 20,
        dpu_rate_gbps: 0.07,
        fixed_kernel_ms: 1.5, // three launches
    },
    PrimWorkload {
        name: "NW",
        in_bytes: 128 << 20,
        out_bytes: 64 << 20,
        dpu_rate_gbps: 0.025,
        fixed_kernel_ms: 1.0,
    },
    PrimWorkload {
        name: "RED",
        in_bytes: 512 << 20,
        out_bytes: 1 << 20,
        dpu_rate_gbps: 0.1,
        fixed_kernel_ms: 0.3,
    },
    PrimWorkload {
        name: "SCAN-RSS",
        in_bytes: 256 << 20,
        out_bytes: 256 << 20,
        // Reduce-scan-scan makes fewer MRAM passes than scan-scan-add.
        dpu_rate_gbps: 0.05,
        fixed_kernel_ms: 1.0,
    },
    PrimWorkload {
        name: "SCAN-SSA",
        in_bytes: 256 << 20,
        out_bytes: 256 << 20,
        dpu_rate_gbps: 0.04,
        fixed_kernel_ms: 1.0,
    },
    PrimWorkload {
        name: "SEL",
        in_bytes: 512 << 20,
        out_bytes: 256 << 20,
        dpu_rate_gbps: 0.08,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "SpMV",
        in_bytes: 400 << 20,
        out_bytes: 2 << 20,
        dpu_rate_gbps: 0.04,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "TRNS",
        in_bytes: 256 << 20,
        out_bytes: 256 << 20,
        dpu_rate_gbps: 0.06,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "TS",
        in_bytes: 32 << 20,
        out_bytes: 1 << 20,
        // O(n*m) arithmetic per input byte: the DPUs crawl.
        dpu_rate_gbps: 0.0001,
        fixed_kernel_ms: 1.0,
    },
    PrimWorkload {
        name: "UNI",
        in_bytes: 512 << 20,
        out_bytes: 256 << 20,
        dpu_rate_gbps: 0.07,
        fixed_kernel_ms: 0.5,
    },
    PrimWorkload {
        name: "VA",
        in_bytes: 512 << 20, // two 256 MiB vectors
        out_bytes: 256 << 20,
        dpu_rate_gbps: 0.1,
        fixed_kernel_ms: 0.5,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn named(name: &str) -> PrimWorkload {
        *PRIM_SUITE
            .iter()
            .find(|w| w.name == name)
            .expect("a suite workload")
    }

    #[test]
    fn suite_has_16_uniquely_named_workloads() {
        let names: std::collections::BTreeSet<&str> = PRIM_SUITE.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn profiles_are_sane() {
        for w in PRIM_SUITE {
            assert!(w.in_bytes > 0, "{}", w.name);
            assert!(w.dpu_rate_gbps > 0.0, "{}", w.name);
            assert!(w.kernel_ms(512) > 0.0, "{}", w.name);
            // More DPUs => faster kernels.
            assert!(w.kernel_ms(512) < w.kernel_ms(64), "{}", w.name);
        }
    }

    #[test]
    fn job_sizes_mirror_the_suite_and_scale_validly() {
        for w in &PRIM_SUITE {
            for n_cores in [1u32, 8, 64, 512] {
                let per_core = w.scaled_per_core(4 << 20, n_cores);
                assert!(per_core >= 64, "{}", w.name);
                assert!(per_core.is_multiple_of(64), "{}", w.name);
            }
        }
        // The largest input maps to (about) the cap; smaller inputs stay
        // proportionally smaller.
        let biggest = PRIM_SUITE.iter().max_by_key(|w| w.in_bytes).unwrap();
        assert_eq!(biggest.in_bytes, MAX_IN_BYTES);
        assert_eq!(biggest.scaled_per_core(4 << 20, 64), (4 << 20) / 64);
        let smallest = PRIM_SUITE.iter().min_by_key(|w| w.in_bytes).unwrap();
        assert!(smallest.scaled_per_core(4 << 20, 64) <= biggest.scaled_per_core(4 << 20, 64));
    }

    #[test]
    fn transfer_dominates_on_average_like_fig16() {
        // Paper: DRAM↔PIM transfer is 63.7 % of end-to-end on average
        // (max 99.7 %) at baseline transfer throughput (~8.5 GB/s).
        let baseline_gbps = 8.5;
        let fracs: Vec<f64> = PRIM_SUITE
            .iter()
            .map(|w| {
                let t_xfer_ms = (w.in_bytes + w.out_bytes) as f64 / (baseline_gbps * 1e6);
                t_xfer_ms / (t_xfer_ms + w.kernel_ms(512))
            })
            .collect();
        let avg = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let max = fracs.iter().cloned().fold(0.0, f64::max);
        assert!(
            (0.5..=0.8).contains(&avg),
            "average transfer fraction {avg:.3} outside the Fig. 16 band"
        );
        assert!(
            max > 0.95,
            "max transfer fraction {max:.3} should be ~0.997"
        );
        assert!(
            fracs.iter().cloned().fold(1.0, f64::min) < 0.1,
            "TS should be kernel-dominated"
        );
    }

    #[test]
    fn bs_is_the_most_transfer_bound_workload() {
        // Kernel under 1 ms at 512 DPUs while the transfer is ~60 ms.
        assert!(named("BS").kernel_ms(512) < 1.0);
    }

    #[test]
    fn large_is_slower_than_small() {
        assert!(named("HST-L").kernel_ms(512) > named("HST-S").kernel_ms(512));
    }

    #[test]
    fn rss_kernel_is_faster_per_byte() {
        assert!(named("SCAN-RSS").kernel_ms(512) < named("SCAN-SSA").kernel_ms(512));
    }

    #[test]
    fn ts_is_kernel_dominated() {
        let ts = named("TS");
        let kernel = ts.kernel_ms(512);
        let xfer_at_baseline = (ts.in_bytes + ts.out_bytes) as f64 / 8.5e6;
        assert!(
            kernel > 20.0 * xfer_at_baseline,
            "kernel {kernel} ms vs xfer {xfer_at_baseline} ms"
        );
    }
}
