//! The PIM-MMU device driver model (§IV-B).
//!
//! The DCE is exposed as an MMIO device: `pim_mmu_transfer` marshals the
//! `pim_mmu_op` into the driver, which writes the descriptor into the
//! BAR-mapped region and puts the calling process to sleep; a completion
//! interrupt wakes it. Only the *latencies* of that round trip matter for
//! the evaluation — a single thread performs the offload (vs. the
//! baseline's army of copy threads), so the CPU-side cost is tiny and
//! independent of the transfer size.

use serde::{Deserialize, Serialize};

/// Latency model for the software path around a DCE transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverModel {
    /// Fixed syscall + descriptor marshalling cost, ns.
    pub submit_fixed_ns: f64,
    /// Additional MMIO descriptor-write cost per per-core entry, ns.
    pub submit_per_entry_ns: f64,
    /// Interrupt delivery + process wake-up, ns — independent of how
    /// many ring completions the interrupt announces. A coalesced
    /// interrupt (N completions, one wake-up) therefore costs the same
    /// as an uncoalesced one; the saving is that it is paid once per
    /// batch instead of once per descriptor.
    pub interrupt_ns: f64,
}

impl DriverModel {
    /// Defaults: a few microseconds end to end, consistent with MMIO
    /// doorbells and MSI-X interrupt costs on modern servers.
    pub fn default_model() -> Self {
        DriverModel {
            submit_fixed_ns: 1_500.0,
            submit_per_entry_ns: 4.0,
            interrupt_ns: 2_000.0,
        }
    }

    /// Software overhead before the DCE starts, ns: one synchronous
    /// `pim_mmu_transfer`, or one doorbell ring publishing a whole
    /// *batch* of descriptors carrying `entries` per-core entries
    /// between them.
    ///
    /// The fixed syscall + MMIO cost is paid once per ring regardless of
    /// how many descriptors the batch holds — this is the amortization
    /// an NVMe-style submission queue buys over per-descriptor
    /// `pim_mmu_transfer` calls, where every descriptor pays
    /// [`submit_fixed_ns`](Self::submit_fixed_ns) again.
    pub fn submit_ns(&self, entries: usize) -> f64 {
        self.submit_fixed_ns + self.submit_per_entry_ns * entries as f64
    }

    /// Total software overhead around a transfer, ns.
    pub fn round_trip_ns(&self, entries: usize) -> f64 {
        self.submit_ns(entries) + self.interrupt_ns
    }

    /// Driver-cost weight, in per-core-entry units, of a descriptor
    /// that *continues* its predecessor's sweep over the same `cores`
    /// rather than reloading the whole address buffer: the per-core
    /// bases advance by a fixed stride, so the driver publishes one
    /// packed context word per 64 cores instead of one entry per core
    /// (floored at a single word). This is the same shape as a resume's
    /// context reload — priced off the core count — but cheaper,
    /// because no cursor state crosses the bus: the cursor never left
    /// the device. The result feeds [`submit_ns`](Self::submit_ns)
    /// / [`round_trip_ns`](Self::round_trip_ns) in place of the full
    /// entry count.
    pub fn continuation_entries(&self, cores: usize) -> usize {
        cores.div_ceil(64).max(1)
    }

    /// Cost of a doorbell ring whose batch is *entirely* continuation
    /// descriptors, ns. There is nothing to marshal — the per-core
    /// sweep context is already device-side, so the host writes only
    /// the packed context words
    /// ([`continuation_entries`](Self::continuation_entries) per
    /// descriptor) plus the tail-register poke, priced as one more
    /// entry. The fixed syscall + descriptor-marshalling share of
    /// [`submit_ns`](Self::submit_ns) does not apply; a batch with
    /// even one ordinary descriptor pays the full fixed cost.
    pub fn continuation_doorbell_ns(&self, total_entries: usize) -> f64 {
        self.submit_per_entry_ns * (total_entries as f64 + 1.0)
    }
}

impl Default for DriverModel {
    fn default() -> Self {
        DriverModel::default_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_microseconds_not_milliseconds() {
        let d = DriverModel::default();
        // 512 PIM cores: ~3.5 us submit, well under any transfer time.
        let ns = d.round_trip_ns(512);
        assert!(ns > 1_000.0 && ns < 20_000.0, "{ns}");
    }

    #[test]
    fn per_entry_cost_scales() {
        let d = DriverModel::default();
        assert!(d.submit_ns(1024) > d.submit_ns(1));
        assert_eq!(d.round_trip_ns(0), d.submit_fixed_ns + d.interrupt_ns);
    }

    #[test]
    fn doorbell_batch_amortizes_the_fixed_cost() {
        let d = DriverModel::default();
        // A batch of 8 descriptors x 64 entries pays the fixed cost once
        // instead of 8 times.
        let batched = d.submit_ns(8 * 64);
        let serial = 8.0 * d.submit_ns(64);
        assert_eq!(
            batched,
            d.submit_fixed_ns + 8.0 * 64.0 * d.submit_per_entry_ns
        );
        assert!(serial - batched == 7.0 * d.submit_fixed_ns);
    }

    #[test]
    fn continuation_reload_is_cheaper_than_a_full_submission() {
        let d = DriverModel::default();
        // 512 cores pack into 8 context words; even one core costs a
        // word. Strictly cheaper than re-publishing every entry for
        // anything past 64 cores, and never free.
        assert_eq!(d.continuation_entries(512), 8);
        assert_eq!(d.continuation_entries(64), 1);
        assert_eq!(d.continuation_entries(65), 2);
        assert_eq!(d.continuation_entries(1), 1);
        assert!(d.submit_ns(d.continuation_entries(512)) < d.submit_ns(512));
    }

    #[test]
    fn an_all_continuation_doorbell_skips_the_fixed_cost() {
        let d = DriverModel::default();
        // 8 context words + the tail poke: 36 ns vs the 1532 ns a
        // single ordinary 8-entry batch pays. Never free, and always
        // cheaper than the marshalling path for the same entry count.
        assert_eq!(d.continuation_doorbell_ns(8), d.submit_per_entry_ns * 9.0);
        assert!(d.continuation_doorbell_ns(0) > 0.0);
        assert!(d.continuation_doorbell_ns(64) < d.submit_ns(64));
    }
}
