//! Per-channel statistics: command counts, bandwidth, row-buffer outcomes
//! and windowed time series (used for the paper's Fig. 4/6 style plots).

use serde::{Deserialize, Serialize};

/// Counters maintained by one memory controller.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// RD commands issued.
    pub reads: u64,
    /// WR commands issued.
    pub writes: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Column accesses that required opening a closed bank.
    pub row_misses: u64,
    /// Column accesses that required closing a different open row first.
    pub row_conflicts: u64,
    /// Memory-clock cycles with read/write data on the bus.
    pub busy_data_cycles: u64,
    /// Total cycles ticked.
    pub elapsed_cycles: u64,
    /// Sum of read-queue occupancy per cycle (for average occupancy).
    pub read_q_occupancy_sum: u64,
    /// Sum of write-queue occupancy per cycle.
    pub write_q_occupancy_sum: u64,
    /// Windowed samples of bytes read/written, appended by
    /// [`sample_window`](Self::sample_window).
    pub windows: Vec<WindowSample>,
    bytes_read_at_last_window: u64,
    bytes_written_at_last_window: u64,
}

/// One time-series sample: bytes moved during the window ending at `cycle`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WindowSample {
    /// Memory-clock cycle at the end of the window.
    pub cycle: u64,
    /// Bytes read from the channel during the window.
    pub bytes_read: u64,
    /// Bytes written to the channel during the window.
    pub bytes_written: u64,
}

impl ChannelStats {
    /// Bytes read over the whole run.
    pub fn bytes_read(&self) -> u64 {
        self.reads * 64
    }

    /// Bytes written over the whole run.
    pub fn bytes_written(&self) -> u64 {
        self.writes * 64
    }

    /// Data-bus utilization in `[0, 1]`.
    pub fn bus_utilization(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.busy_data_cycles as f64 / self.elapsed_cycles as f64
        }
    }

    /// Achieved bandwidth in GB/s given the clock period.
    pub fn bandwidth_gbps(&self, t_ck_ps: u64) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        let bytes = (self.bytes_read() + self.bytes_written()) as f64;
        let secs = self.elapsed_cycles as f64 * t_ck_ps as f64 * 1e-12;
        bytes / secs / 1e9
    }

    /// Row-buffer hit rate among all column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Close the current sampling window at `cycle`, appending the bytes
    /// moved since the previous sample.
    pub fn sample_window(&mut self, cycle: u64) {
        let br = self.bytes_read();
        let bw = self.bytes_written();
        self.windows.push(WindowSample {
            cycle,
            bytes_read: br - self.bytes_read_at_last_window,
            bytes_written: bw - self.bytes_written_at_last_window,
        });
        self.bytes_read_at_last_window = br;
        self.bytes_written_at_last_window = bw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let s = ChannelStats {
            reads: 1000,
            writes: 500,
            elapsed_cycles: 6000,
            busy_data_cycles: 6000,
            ..ChannelStats::default()
        };
        // 1500 bursts * 4 cycles = 6000 busy cycles => 100% utilization.
        assert!((s.bus_utilization() - 1.0).abs() < 1e-12);
        // At DDR4-2400 that is the 19.2 GB/s peak.
        assert!((s.bandwidth_gbps(833) - 19.2).abs() < 0.05);
    }

    #[test]
    fn windows_capture_deltas() {
        let mut s = ChannelStats {
            reads: 10,
            ..ChannelStats::default()
        };
        s.sample_window(100);
        s.reads = 25;
        s.writes = 4;
        s.sample_window(200);
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].bytes_read, 640);
        assert_eq!(s.windows[1].bytes_read, 15 * 64);
        assert_eq!(s.windows[1].bytes_written, 256);
    }

    #[test]
    fn hit_rate_handles_zero() {
        let s = ChannelStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.bus_utilization(), 0.0);
        assert_eq!(s.bandwidth_gbps(833), 0.0);
    }
}
