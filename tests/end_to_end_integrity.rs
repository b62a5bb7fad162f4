//! Cross-crate address integrity: PIM core numbering follows the UPMEM
//! channel-major rule, and HetMap routes every core's heap to that
//! core's own bank.

use pim_mapping::{HetMap, MemSpace, Organization, PhysAddr, PimAddrSpace};

#[test]
fn mapping_and_device_topologies_agree_on_core_numbering() {
    // Table I: 4 channels × 2 ranks of UPMEM DIMMs; each rank's 64 DPUs
    // are its 4 bank groups × 16 banks, in eight ×8 chips of eight DPUs.
    let org = Organization::upmem_dimm(4, 2);
    assert_eq!((org.bank_groups, org.banks), (4, 16));
    let space = PimAddrSpace::new(PhysAddr(32 << 30), org);
    assert_eq!(space.num_cores(), 512);
    for core in [0u32, 1, 63, 64, 255, 511] {
        // Channel-major: core c sits on channel c / 128, rank c / 64 % 2,
        // and bank c % 64 of its rank (chip (c % 64) / 8, DPU c % 8).
        let (ch, ra, bg, bk) = space.core_coords(core);
        assert_eq!(ch, core / 128, "core {core}: channel");
        assert_eq!(ra, core / 64 % 2, "core {core}: rank");
        assert_eq!(bg * 16 + bk, core % 64, "core {core}: bank of its rank");
    }
}

#[test]
fn hetmap_routes_every_pim_core_heap_to_its_own_bank() {
    let dram = Organization::ddr4_dimm(4, 2);
    let pim = Organization::upmem_dimm(4, 2);
    let het = HetMap::pim_mmu(dram, pim);
    let space = PimAddrSpace::new(het.pim_base(), pim);
    for core in (0..512).step_by(37) {
        let offsets = [0u64, 64, 4096, space.core_bytes() - 64];
        let spots: Vec<_> = offsets
            .iter()
            .map(|&o| het.map(space.core_phys(core, o)))
            .collect();
        for s in &spots {
            assert_eq!(s.space, MemSpace::Pim);
            assert_eq!(space.core_of(&s.addr), core, "core {core} leaked banks");
        }
    }
}
