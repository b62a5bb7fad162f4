//! DDR4 timing parameters and the DRAM command set.

use serde::{Deserialize, Serialize};
use std::fmt;

/// DRAM commands issued by the memory controller.
///
/// We model the open-page command set used by FR-FCFS schedulers: explicit
/// activates and precharges plus column reads/writes and per-rank refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Command {
    /// Activate (open) a row in a bank.
    Act,
    /// Precharge (close) a bank.
    Pre,
    /// Column read (BL8 burst).
    Rd,
    /// Column write (BL8 burst).
    Wr,
    /// Per-rank auto refresh.
    Ref,
}

impl Command {
    /// Number of distinct commands (for table indexing).
    pub const COUNT: usize = 5;

    /// Table index of this command.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Command::Act => 0,
            Command::Pre => 1,
            Command::Rd => 2,
            Command::Wr => 3,
            Command::Ref => 4,
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Command::Act => "ACT",
            Command::Pre => "PRE",
            Command::Rd => "RD",
            Command::Wr => "WR",
            Command::Ref => "REF",
        };
        f.write_str(s)
    }
}

/// DDR4 timing parameters in memory-clock cycles (nCK).
///
/// The memory clock runs at half the data rate (e.g. DDR4-2400 uses a
/// 1200 MHz clock, `t_ck_ps = 833`), and a BL8 burst occupies the data bus
/// for `bl = 4` clocks, so the peak per-channel bandwidth is
/// `64 B / (4 * tCK)` — 19.2 GB/s for DDR4-2400 (3 PIM channels = the
/// paper's 57.6 GB/s aggregate).
///
/// # Example
///
/// ```
/// let t = pim_dram::TimingParams::ddr4_2400();
/// assert!((t.peak_bandwidth_gbps() - 19.2).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Memory clock period in picoseconds.
    pub t_ck_ps: u64,
    /// CAS (read) latency.
    pub cl: u64,
    /// CAS write latency.
    pub cwl: u64,
    /// RAS-to-CAS delay.
    pub rcd: u64,
    /// Row precharge time.
    pub rp: u64,
    /// Row active time (ACT to PRE).
    pub ras: u64,
    /// Row cycle time (ACT to ACT, same bank).
    pub rc: u64,
    /// Burst length in clocks (BL8 = 4).
    pub bl: u64,
    /// Column-to-column delay, different bank group.
    pub ccd_s: u64,
    /// Column-to-column delay, same bank group.
    pub ccd_l: u64,
    /// ACT-to-ACT delay, different bank group.
    pub rrd_s: u64,
    /// ACT-to-ACT delay, same bank group.
    pub rrd_l: u64,
    /// Four-activate window.
    pub faw: u64,
    /// Write-to-read turnaround, different bank group.
    pub wtr_s: u64,
    /// Write-to-read turnaround, same bank group.
    pub wtr_l: u64,
    /// Write recovery time.
    pub wr: u64,
    /// Read-to-precharge delay.
    pub rtp: u64,
    /// Refresh cycle time.
    pub rfc: u64,
    /// Refresh interval.
    pub refi: u64,
    /// Rank-to-rank switching penalty on the shared data bus.
    pub rtrs: u64,
}

impl TimingParams {
    /// DDR4-2400R-class timings (the paper's simulated configuration and
    /// the speed grade of UPMEM-PIM DIMMs).
    pub fn ddr4_2400() -> Self {
        TimingParams {
            t_ck_ps: 833,
            cl: 16,
            cwl: 12,
            rcd: 16,
            rp: 16,
            ras: 39,
            rc: 55,
            bl: 4,
            ccd_s: 4,
            ccd_l: 6,
            rrd_s: 4,
            rrd_l: 6,
            faw: 26,
            wtr_s: 3,
            wtr_l: 9,
            wr: 18,
            rtp: 9,
            rfc: 420,   // 350 ns for an 8 Gb device
            refi: 9363, // 7.8 us
            rtrs: 2,
        }
    }

    /// UPMEM-PIM DIMM timings: DDR4-2400 form factor, but the PIM chips
    /// are fabbed in a DRAM process with relaxed internal timings — the
    /// MRAM banks cannot stream column accesses back-to-back at standard
    /// DDR4 rates (UPMEM documents reduced host-side MRAM throughput).
    /// Column-to-column and row timings are stretched accordingly, which
    /// caps the per-channel PIM data-bus utilization at `BL/tCCD_S = 2/3`
    /// even under a perfect scheduler.
    pub fn upmem_2400() -> Self {
        TimingParams {
            ccd_s: 6,
            ccd_l: 9,
            rcd: 20,
            rp: 20,
            ras: 45,
            rc: 65,
            wr: 22,
            rtp: 11,
            faw: 34,
            rrd_s: 5,
            rrd_l: 8,
            ..TimingParams::ddr4_2400()
        }
    }

    /// DDR4-3200AA-class timings (the DRAM channels of the real
    /// characterization server, §V).
    pub fn ddr4_3200() -> Self {
        TimingParams {
            t_ck_ps: 625,
            cl: 22,
            cwl: 16,
            rcd: 22,
            rp: 22,
            ras: 52,
            rc: 74,
            bl: 4,
            ccd_s: 4,
            ccd_l: 8,
            rrd_s: 4,
            rrd_l: 8,
            faw: 34,
            wtr_s: 4,
            wtr_l: 12,
            wr: 24,
            rtp: 12,
            rfc: 560,
            refi: 12480,
            rtrs: 2,
        }
    }

    /// Read-to-write turnaround on the same channel (JEDEC:
    /// `CL + BL/2 + 2 - CWL` clocks between the RD and WR commands).
    #[inline]
    pub fn rtw(&self) -> u64 {
        self.cl + self.bl + 2 - self.cwl
    }

    /// Cycles between a RD command and the last data beat returning.
    #[inline]
    pub fn read_latency(&self) -> u64 {
        self.cl + self.bl
    }

    /// Cycles between a WR command and write-data bus release.
    #[inline]
    pub fn write_latency(&self) -> u64 {
        self.cwl + self.bl
    }

    /// Theoretical peak bandwidth per channel in GB/s (decimal GB).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        64.0 / (self.bl as f64 * self.t_ck_ps as f64 / 1000.0)
    }

    /// Convert a cycle count to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.t_ck_ps as f64 / 1000.0
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_peak_bandwidth_matches_paper() {
        // 3 UPMEM channels x 19.2 GB/s = the paper's 57.6 GB/s
        // (tCK is stored in integer picoseconds, hence the tolerance).
        let t = TimingParams::ddr4_2400();
        assert!((t.peak_bandwidth_gbps() - 19.2).abs() < 0.05);
        assert!((3.0 * t.peak_bandwidth_gbps() - 57.6).abs() < 0.1);
    }

    #[test]
    fn ddr4_3200_peak_bandwidth_matches_paper() {
        // 3 DRAM channels x 25.6 GB/s = the paper's 76.8 GB/s.
        let t = TimingParams::ddr4_3200();
        assert!((t.peak_bandwidth_gbps() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn derived_latencies() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.rtw(), 16 + 4 + 2 - 12);
        assert_eq!(t.read_latency(), 20);
        assert_eq!(t.write_latency(), 16);
    }

    #[test]
    fn cycles_to_ns_scales_by_tck() {
        let t = TimingParams::ddr4_2400();
        assert!((t.cycles_to_ns(1200) - 999.6).abs() < 1e-6);
    }

    #[test]
    fn command_indices_are_dense() {
        let all = [
            Command::Act,
            Command::Pre,
            Command::Rd,
            Command::Wr,
            Command::Ref,
        ];
        let mut seen = [false; Command::COUNT];
        for c in all {
            assert!(!seen[c.idx()]);
            seen[c.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(Command::Rd.to_string(), "RD");
    }
}
