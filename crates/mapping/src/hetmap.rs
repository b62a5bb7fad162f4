//! The Heterogeneous Memory Mapping Unit (HetMap, paper §IV-E).

use crate::addr::{DramAddr, MemSpace, PhysAddr};
use crate::locality::LocalityCentric;
use crate::mapfn::MapFn;
use crate::mlp::MlpCentric;
use crate::org::Organization;
use serde::{Deserialize, Serialize};

/// A DRAM address tagged with the memory space (DRAM vs PIM DIMMs) it
/// belongs to. The `channel` index inside [`DramAddr`] is local to that
/// space: DRAM channel 0 and PIM channel 0 are different physical channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpacedAddr {
    /// Which set of DIMMs (and therefore which set of memory controllers)
    /// services this address.
    pub space: MemSpace,
    /// The decoded DRAM address within that space.
    pub addr: DramAddr,
}

/// Which mapping family the DRAM partition uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum DramSide {
    /// Paper baseline: the PIM-specific BIOS forces the locality-centric
    /// mapping *homogeneously* onto both partitions (paper §III-B, Ch. #3).
    Locality,
    /// PIM-MMU's HetMap: MLP-centric (with XOR hashing) for DRAM.
    Mlp,
}

/// The dual memory mapping of a memory-bus-integrated PIM system.
///
/// During system bootstrapping the BIOS partitions the physical address
/// space: `[0, dram_bytes)` maps to the conventional DRAM DIMMs and
/// `[dram_bytes, dram_bytes + pim_bytes)` to the PIM DIMMs. This type
/// models both the *baseline* BIOS (one locality-centric function enforced
/// homogeneously, paper Fig. 2(e)/7(a)) and the proposed *HetMap* (an
/// MLP-centric function for the DRAM partition, locality-centric for the
/// PIM partition, paper Fig. 9 right).
///
/// # Example
///
/// ```
/// use pim_mapping::{HetMap, MemSpace, Organization, PhysAddr};
/// let dram = Organization::ddr4_dimm(4, 2);
/// let pim = Organization::upmem_dimm(4, 2);
/// let het = HetMap::pim_mmu(dram, pim);
///
/// let lo = het.map(PhysAddr(0));
/// assert_eq!(lo.space, MemSpace::Dram);
/// let hi = het.map(PhysAddr(dram.total_bytes()));
/// assert_eq!(hi.space, MemSpace::Pim);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HetMap {
    dram_side: DramSide,
    dram_mlp: MlpCentric,
    dram_loc: LocalityCentric,
    pim_loc: LocalityCentric,
    dram_bytes: u64,
    pim_bytes: u64,
}

impl HetMap {
    /// The PIM-MMU configuration: MLP-centric + XOR hashing for the DRAM
    /// partition, locality-centric for the PIM partition.
    pub fn pim_mmu(dram: Organization, pim: Organization) -> Self {
        HetMap {
            dram_side: DramSide::Mlp,
            dram_mlp: MlpCentric::new(dram),
            dram_loc: LocalityCentric::new(dram),
            pim_loc: LocalityCentric::new(pim),
            dram_bytes: dram.total_bytes(),
            pim_bytes: pim.total_bytes(),
        }
    }

    /// The baseline PIM-system BIOS: the locality-centric function is
    /// enforced homogeneously on both partitions, throttling DRAM MLP
    /// (paper challenge #3).
    pub fn baseline_bios(dram: Organization, pim: Organization) -> Self {
        HetMap {
            dram_side: DramSide::Locality,
            dram_mlp: MlpCentric::new(dram),
            dram_loc: LocalityCentric::new(dram),
            pim_loc: LocalityCentric::new(pim),
            dram_bytes: dram.total_bytes(),
            pim_bytes: pim.total_bytes(),
        }
    }

    /// Base physical address of the PIM partition.
    #[inline]
    pub fn pim_base(&self) -> PhysAddr {
        PhysAddr(self.dram_bytes)
    }

    /// Capacity of the DRAM partition in bytes.
    #[inline]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Capacity of the PIM partition in bytes.
    #[inline]
    pub fn pim_bytes(&self) -> u64 {
        self.pim_bytes
    }

    /// The organization of the PIM partition.
    pub fn pim_organization(&self) -> &Organization {
        self.pim_loc.layout().organization()
    }

    /// Which partition a physical address falls in.
    ///
    /// # Panics
    ///
    /// Panics if `phys` lies beyond the combined capacity.
    pub fn space_of(&self, phys: PhysAddr) -> MemSpace {
        assert!(
            phys.0 < self.dram_bytes + self.pim_bytes,
            "physical address {phys} outside the {} B installed capacity",
            self.dram_bytes + self.pim_bytes
        );
        if phys.0 < self.dram_bytes {
            MemSpace::Dram
        } else {
            MemSpace::Pim
        }
    }

    /// The mapping function currently active for the DRAM partition.
    pub fn dram_fn(&self) -> &dyn MapFn {
        match self.dram_side {
            DramSide::Mlp => &self.dram_mlp,
            DramSide::Locality => &self.dram_loc,
        }
    }

    /// Translate a physical address, dynamically selecting the per-space
    /// mapping function (paper §IV-E: "Depending on what the physical
    /// address the incoming memory request is targeted for, HetMap
    /// dynamically determines whether the memory request falls within the
    /// address space of DRAM or PIM").
    pub fn map(&self, phys: PhysAddr) -> SpacedAddr {
        match self.space_of(phys) {
            MemSpace::Dram => SpacedAddr {
                space: MemSpace::Dram,
                addr: self.dram_fn().map(phys),
            },
            MemSpace::Pim => SpacedAddr {
                space: MemSpace::Pim,
                addr: self.pim_loc.map(PhysAddr(phys.0 - self.dram_bytes)),
            },
        }
    }

    /// Inverse of [`map`](Self::map).
    pub fn demap(&self, spaced: &SpacedAddr) -> PhysAddr {
        match spaced.space {
            MemSpace::Dram => self.dram_fn().demap(&spaced.addr),
            MemSpace::Pim => PhysAddr(self.pim_loc.demap(&spaced.addr).0 + self.dram_bytes),
        }
    }

    /// Short description of the active configuration.
    pub fn name(&self) -> &'static str {
        match self.dram_side {
            DramSide::Mlp => "HetMap (DRAM: MLP-centric, PIM: locality-centric)",
            DramSide::Locality => "Baseline BIOS (homogeneous locality-centric)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn maps() -> (HetMap, HetMap) {
        let dram = Organization::ddr4_dimm(4, 2);
        let pim = Organization::upmem_dimm(4, 2);
        (HetMap::pim_mmu(dram, pim), HetMap::baseline_bios(dram, pim))
    }

    #[test]
    fn partition_boundary() {
        let (het, _) = maps();
        assert_eq!(het.space_of(PhysAddr(0)), MemSpace::Dram);
        assert_eq!(het.space_of(PhysAddr(het.dram_bytes() - 1)), MemSpace::Dram);
        assert_eq!(het.space_of(het.pim_base()), MemSpace::Pim);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_panics() {
        let (het, _) = maps();
        het.space_of(PhysAddr(het.dram_bytes() + het.pim_bytes()));
    }

    #[test]
    fn dram_partition_spreads_only_under_pim_mmu() {
        let (het, base) = maps();
        let het_ch: std::collections::BTreeSet<u32> = (0..8u64)
            .map(|i| het.map(PhysAddr(i * 64)).addr.channel)
            .collect();
        let base_ch: std::collections::BTreeSet<u32> = (0..8u64)
            .map(|i| base.map(PhysAddr(i * 64)).addr.channel)
            .collect();
        assert_eq!(het_ch.len(), 4, "HetMap DRAM side must rotate channels");
        assert_eq!(
            base_ch.len(),
            1,
            "baseline BIOS pins the stream to one channel"
        );
    }

    #[test]
    fn pim_partition_is_bank_local_under_both() {
        let (het, base) = maps();
        for m in [&het, &base] {
            let b0 = m.map(m.pim_base());
            let b1 = m.map(m.pim_base().offset(m.pim_organization().bank_bytes() - 64));
            assert_eq!(b0.space, MemSpace::Pim);
            assert_eq!(
                (
                    b0.addr.channel,
                    b0.addr.rank,
                    b0.addr.bank_group,
                    b0.addr.bank
                ),
                (
                    b1.addr.channel,
                    b1.addr.rank,
                    b1.addr.bank_group,
                    b1.addr.bank
                )
            );
        }
    }

    proptest! {
        #[test]
        fn roundtrip_across_both_spaces(addr in 0u64..(64u64 << 30)) {
            let (het, base) = maps();
            for m in [&het, &base] {
                let phys = PhysAddr(addr).line_base();
                let spaced = m.map(phys);
                prop_assert_eq!(m.demap(&spaced), phys);
            }
        }

        #[test]
        fn spaces_never_share_banks(addr in 0u64..(64u64 << 30)) {
            // Paper Fig. 2(e): DRAM and PIM physical addresses must never
            // map into the same memory bank. Spaces are disjoint by
            // construction; verify the tagging is consistent.
            let (het, _) = maps();
            let phys = PhysAddr(addr).line_base();
            let spaced = het.map(phys);
            prop_assert_eq!(spaced.space, het.space_of(phys));
        }
    }
}
