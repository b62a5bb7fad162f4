//! Physical topology of an UPMEM-like PIM subsystem.

use pim_mapping::Organization;
use serde::{Deserialize, Serialize};

/// DIMM/chip/DPU topology (§II-C): per rank, eight ×8 chips each holding
/// eight DPUs (one per bank). A DPU's identifier equals the PIM core ID of
/// [`pim_mapping::PimAddrSpace`], so the two crates agree on numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PimTopology {
    /// Memory channels populated with PIM DIMMs.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Chips per rank (8 for a ×8 DIMM).
    pub chips_per_rank: u32,
    /// DPUs (banks) per chip.
    pub dpus_per_chip: u32,
    /// MRAM bytes per DPU.
    pub mram_bytes: u64,
}

impl PimTopology {
    /// The paper's Table I system: 4 channels × 2 ranks × 64 DPUs = 512
    /// PIM cores with 64 MiB MRAM each.
    pub fn table1() -> Self {
        PimTopology {
            channels: 4,
            ranks: 2,
            chips_per_rank: 8,
            dpus_per_chip: 8,
            mram_bytes: 64 << 20,
        }
    }

    /// Build the topology matching a PIM [`Organization`].
    ///
    /// # Panics
    ///
    /// Panics if the organization's banks-per-rank is not divisible into
    /// 8-DPU chips.
    pub fn from_organization(org: &Organization) -> Self {
        let banks = org.banks_per_rank();
        assert!(
            banks.is_multiple_of(8),
            "banks per rank ({banks}) must form whole 8-DPU chips"
        );
        PimTopology {
            channels: org.channels,
            ranks: org.ranks,
            chips_per_rank: banks / 8,
            dpus_per_chip: 8,
            mram_bytes: org.bank_bytes(),
        }
    }

    /// The matching memory organization (4 bank groups; banks follow).
    pub fn organization(&self) -> Organization {
        let banks_per_rank = self.chips_per_rank * self.dpus_per_chip;
        let bank_groups = 4;
        let rows = self.mram_bytes / 8192;
        Organization::new(
            self.channels,
            self.ranks,
            bank_groups,
            banks_per_rank / bank_groups,
            rows,
            128,
        )
    }

    /// DPUs per rank.
    pub fn dpus_per_rank(&self) -> u32 {
        self.chips_per_rank * self.dpus_per_chip
    }

    /// Total number of DPUs.
    pub fn total_dpus(&self) -> u32 {
        self.channels * self.ranks * self.dpus_per_rank()
    }

    /// Decompose a global DPU id into `(channel, rank, chip, dpu-in-chip)`.
    ///
    /// # Panics
    ///
    /// Panics if `dpu` is out of range.
    pub fn dpu_coords(&self, dpu: u32) -> (u32, u32, u32, u32) {
        assert!(dpu < self.total_dpus(), "DPU {dpu} out of range");
        let within_chip = dpu % self.dpus_per_chip;
        let rest = dpu / self.dpus_per_chip;
        let chip = rest % self.chips_per_rank;
        let rest = rest / self.chips_per_rank;
        let rank = rest % self.ranks;
        let channel = rest / self.ranks;
        (channel, rank, chip, within_chip)
    }

    /// Inverse of [`dpu_coords`](Self::dpu_coords).
    pub fn dpu_id(&self, channel: u32, rank: u32, chip: u32, within: u32) -> u32 {
        ((channel * self.ranks + rank) * self.chips_per_rank + chip) * self.dpus_per_chip + within
    }
}

impl Default for PimTopology {
    fn default() -> Self {
        PimTopology::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts() {
        let t = PimTopology::table1();
        assert_eq!(t.total_dpus(), 512);
        assert_eq!(t.dpus_per_rank(), 64);
        assert_eq!(t.organization(), Organization::upmem_dimm(4, 2));
    }

    #[test]
    fn coords_roundtrip() {
        let t = PimTopology::table1();
        for dpu in [0, 1, 7, 8, 63, 64, 200, 511] {
            let (c, r, ch, w) = t.dpu_coords(dpu);
            assert_eq!(t.dpu_id(c, r, ch, w), dpu);
        }
    }

    #[test]
    fn from_organization_inverts_organization() {
        let org = Organization::upmem_dimm(4, 2);
        let t = PimTopology::from_organization(&org);
        assert_eq!(t, PimTopology::table1());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oob_dpu() {
        PimTopology::table1().dpu_coords(512);
    }
}
