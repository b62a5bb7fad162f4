//! System configuration and the design-point ablation switch.

use pim_cpu::CpuConfig;
use pim_dram::TimingParams;
use pim_energy::PowerParams;
use pim_mapping::{HetMap, Organization};
use pim_mmu::{DceConfig, DceMode, DriverModel};
use serde::{Deserialize, Serialize};

/// The paper's ablation axis (Fig. 15): which of the three PIM-MMU
/// components are present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignPoint {
    /// Unmodified software path ("Base").
    Baseline,
    /// DCE as a conventional DMA engine ("Base+D").
    BaseD,
    /// DCE + HetMap ("Base+D+H").
    BaseDH,
    /// Full PIM-MMU ("Base+D+H+P").
    BaseDHP,
}

impl DesignPoint {
    /// All points in ablation order.
    pub fn all() -> [DesignPoint; 4] {
        [
            DesignPoint::Baseline,
            DesignPoint::BaseD,
            DesignPoint::BaseDH,
            DesignPoint::BaseDHP,
        ]
    }

    /// Whether transfers are offloaded to the DCE.
    pub fn uses_dce(self) -> bool {
        !matches!(self, DesignPoint::Baseline)
    }

    /// Whether the heterogeneous mapping is installed.
    pub fn uses_hetmap(self) -> bool {
        matches!(self, DesignPoint::BaseDH | DesignPoint::BaseDHP)
    }

    /// The DCE scheduling mode, when a DCE is present.
    pub fn dce_mode(self) -> DceMode {
        match self {
            DesignPoint::BaseDHP => DceMode::PimMs,
            _ => DceMode::Coarse,
        }
    }

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            DesignPoint::Baseline => "Base",
            DesignPoint::BaseD => "Base+D",
            DesignPoint::BaseDH => "Base+D+H",
            DesignPoint::BaseDHP => "Base+D+H+P",
        }
    }
}

/// How the timing core advances simulated time.
///
/// Both modes produce bit-identical results (the differential suite in
/// `tests/timing_differential.rs` pins this); `CycleStepped` is retained
/// as the reference driver and costs a visit to every edge of every
/// domain, while `EventDriven` parks quiescent domains and jumps the
/// agenda straight to the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingMode {
    /// Reference driver: every domain fires at every one of its edges.
    CycleStepped,
    /// Next-event core: quiescent domains are parked and their edges
    /// skipped; cross-component inputs re-arm them at aligned edges.
    EventDriven,
}

/// How per-PIM-core chunks are distributed over software transfer threads
/// in the baseline (§V / Fig. 5(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadAssignment {
    /// Thread `t` owns a contiguous block of PIM cores — one rank's worth
    /// with 8 threads over 8 ranks, matching the UPMEM runtime.
    RankBlocked,
    /// PIM core `i` goes to thread `i mod n`.
    Interleaved,
}

/// Full system configuration (Table I defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Host processor.
    pub cpu: CpuConfig,
    /// DRAM-DIMM organization.
    pub dram_org: Organization,
    /// PIM-DIMM organization.
    pub pim_org: Organization,
    /// DRAM channel timings.
    pub dram_timing: TimingParams,
    /// PIM channel timings.
    pub pim_timing: TimingParams,
    /// DCE hardware parameters.
    pub dce: DceConfig,
    /// Driver latencies.
    pub driver: DriverModel,
    /// Power constants.
    pub power: PowerParams,
    /// Design point under test.
    pub design: DesignPoint,
    /// Number of DCE engines instantiated when the design uses one
    /// (multi-DCE sharding; the paper's DCE is per-channel-replicable
    /// hardware). 1 is the paper's single-engine machine.
    pub dce_count: usize,
    /// Baseline software-thread count (8 transfer threads in §V).
    pub sw_threads: usize,
    /// Chunk-to-thread distribution.
    pub assignment: ThreadAssignment,
    /// Stats sampling interval in nanoseconds (Fig. 4/6 time series).
    pub sample_ns: f64,
    /// Timing-core driver (event-driven by default; cycle-stepped is the
    /// bit-identical reference).
    pub timing: TimingMode,
}

impl SystemConfig {
    /// Table I with the given design point.
    pub fn table1(design: DesignPoint) -> Self {
        SystemConfig {
            cpu: CpuConfig::table1(),
            dram_org: Organization::ddr4_dimm(4, 2),
            pim_org: Organization::upmem_dimm(4, 2),
            dram_timing: TimingParams::ddr4_2400(),
            pim_timing: TimingParams::upmem_2400(),
            dce: DceConfig::table1(),
            driver: DriverModel::default(),
            power: PowerParams::nm32(),
            design,
            dce_count: 1,
            sw_threads: 8,
            assignment: ThreadAssignment::RankBlocked,
            sample_ns: 100_000.0,
            timing: TimingMode::EventDriven,
        }
    }

    /// The memory mapping this design point installs.
    pub fn mapper(&self) -> HetMap {
        if self.design.uses_hetmap() {
            HetMap::pim_mmu(self.dram_org, self.pim_org)
        } else {
            HetMap::baseline_bios(self.dram_org, self.pim_org)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_point_feature_matrix() {
        use DesignPoint::*;
        assert!(!Baseline.uses_dce() && !Baseline.uses_hetmap());
        assert!(BaseD.uses_dce() && !BaseD.uses_hetmap());
        assert!(BaseDH.uses_dce() && BaseDH.uses_hetmap());
        assert!(BaseDHP.uses_dce() && BaseDHP.uses_hetmap());
        assert_eq!(BaseDHP.dce_mode(), DceMode::PimMs);
        assert_eq!(BaseDH.dce_mode(), DceMode::Coarse);
        assert_eq!(DesignPoint::all().len(), 4);
        assert_eq!(BaseDHP.label(), "Base+D+H+P");
    }

    #[test]
    fn mapper_follows_design() {
        let base = SystemConfig::table1(DesignPoint::Baseline);
        assert!(base.mapper().name().contains("Baseline"));
        let full = SystemConfig::table1(DesignPoint::BaseDHP);
        assert!(full.mapper().name().contains("HetMap"));
    }
}
