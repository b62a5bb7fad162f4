//! Experiment result records.

use pim_energy::EnergyBreakdown;
use serde::{Deserialize, Serialize};

/// One sampling window of system activity (Fig. 4's time series).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PowerSample {
    /// Window end, ns since simulation start.
    pub t_ns: f64,
    /// CPU cores active during the window.
    pub active_cores: u32,
    /// Average system power over the window, W.
    pub watts: f64,
}

/// Result of one simulated DRAM↔PIM (or DRAM↔DRAM) transfer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferResult {
    /// Design-point label ("Base", "Base+D+H+P", ...).
    pub design: String,
    /// Payload bytes moved.
    pub bytes: u64,
    /// End-to-end latency in nanoseconds (including driver/interrupt
    /// overheads for DCE designs).
    pub elapsed_ns: f64,
    /// Energy consumed over the transfer.
    pub energy: EnergyBreakdown,
    /// Power/activity time series.
    pub power_samples: Vec<PowerSample>,
    /// Per-PIM-channel written bytes per sampling window
    /// (`pim_channel_windows[ch][w]`, Fig. 6's stacked series).
    pub pim_channel_windows: Vec<Vec<u64>>,
    /// Per-DRAM-channel read+written bytes per sampling window.
    pub dram_channel_windows: Vec<Vec<u64>>,
    /// PIM-side data-bus utilization in `[0, 1]`.
    pub pim_bus_utilization: f64,
    /// DRAM-side data-bus utilization in `[0, 1]`.
    pub dram_bus_utilization: f64,
}

impl TransferResult {
    /// Achieved throughput in (decimal) GB/s.
    pub fn throughput_gbps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / self.elapsed_ns
    }

    /// Energy efficiency in bytes per microjoule.
    pub fn bytes_per_uj(&self) -> f64 {
        let uj = self.energy.total_mj() * 1e3;
        if uj <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / uj
    }

    /// The first field in which `self` and `other` differ, with both
    /// values; `None` if every simulated field agrees to the `f64` bit
    /// (byte count, elapsed time, each energy segment, each power
    /// sample, the per-channel windows and both bus utilizations). The
    /// cycle-stepped and event-driven timing modes must always agree.
    pub fn first_difference(&self, other: &TransferResult) -> Option<String> {
        if self.bytes != other.bytes {
            return Some(format!("bytes: {} vs {}", self.bytes, other.bytes));
        }
        let scalars = [
            ("elapsed_ns", self.elapsed_ns, other.elapsed_ns),
            (
                "pim bus utilization",
                self.pim_bus_utilization,
                other.pim_bus_utilization,
            ),
            (
                "dram bus utilization",
                self.dram_bus_utilization,
                other.dram_bus_utilization,
            ),
        ];
        let energy = self
            .energy
            .segments()
            .into_iter()
            .zip(other.energy.segments())
            .map(|((name, a), (_, b))| (name, a, b));
        for (name, a, b) in scalars.into_iter().chain(energy) {
            if a.to_bits() != b.to_bits() {
                return Some(format!("{name}: {a} vs {b}"));
            }
        }
        if self.power_samples.len() != other.power_samples.len() {
            return Some(format!(
                "power sample count: {} vs {}",
                self.power_samples.len(),
                other.power_samples.len()
            ));
        }
        for (i, (a, b)) in self
            .power_samples
            .iter()
            .zip(&other.power_samples)
            .enumerate()
        {
            if a.t_ns.to_bits() != b.t_ns.to_bits()
                || a.active_cores != b.active_cores
                || a.watts.to_bits() != b.watts.to_bits()
            {
                return Some(format!("power sample {i}: {a:?} vs {b:?}"));
            }
        }
        if self.pim_channel_windows != other.pim_channel_windows {
            return Some("pim channel windows".to_string());
        }
        if self.dram_channel_windows != other.dram_channel_windows {
            return Some("dram channel windows".to_string());
        }
        None
    }

    /// Wall-clock speedup of `self` over `baseline` (latency ratio).
    ///
    /// Guarded against zero-elapsed results (e.g. a run cut off by the
    /// `max_ns` cap before any progress): any non-positive elapsed time
    /// on either side yields `0.0` rather than `inf`/`NaN`, so sweep
    /// tables and geomeans stay finite.
    pub fn speedup_over(&self, baseline: &TransferResult) -> f64 {
        if self.elapsed_ns <= 0.0 || baseline.elapsed_ns <= 0.0 {
            return 0.0;
        }
        baseline.elapsed_ns / self.elapsed_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let r = TransferResult {
            design: "Base".into(),
            bytes: 64 << 20,
            elapsed_ns: 1e6, // 1 ms
            energy: EnergyBreakdown::default(),
            power_samples: vec![],
            pim_channel_windows: vec![],
            dram_channel_windows: vec![],
            pim_bus_utilization: 0.0,
            dram_bus_utilization: 0.0,
        };
        // 64 MiB in 1 ms = 67.1 GB/s.
        assert!((r.throughput_gbps() - 67.108864).abs() < 1e-6);
        assert_eq!(r.bytes_per_uj(), 0.0);
    }

    fn result_with_elapsed(elapsed_ns: f64) -> TransferResult {
        TransferResult {
            design: "Base".into(),
            bytes: 1 << 20,
            elapsed_ns,
            energy: EnergyBreakdown::default(),
            power_samples: vec![],
            pim_channel_windows: vec![],
            dram_channel_windows: vec![],
            pim_bus_utilization: 0.0,
            dram_bus_utilization: 0.0,
        }
    }

    #[test]
    fn zero_elapsed_runs_are_guarded() {
        // A run cut off by the max_ns cap before any progress must not
        // poison derived metrics with inf/NaN.
        let dead = result_with_elapsed(0.0);
        let live = result_with_elapsed(1e6);
        assert_eq!(dead.throughput_gbps(), 0.0);
        assert_eq!(dead.speedup_over(&live), 0.0);
        assert_eq!(live.speedup_over(&dead), 0.0);
        assert_eq!(result_with_elapsed(-1.0).throughput_gbps(), 0.0);
    }

    #[test]
    fn speedup_is_latency_ratio() {
        let fast = result_with_elapsed(1e6);
        let slow = result_with_elapsed(4e6);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }
}
