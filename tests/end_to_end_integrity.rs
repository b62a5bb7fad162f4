//! Cross-crate functional integrity: data survives the full
//! DRAM → transpose → PIM → transpose → DRAM round trip, and the
//! mapping/device crates agree on PIM core numbering.

use pim_device::{DpuSet, PimDevice, PimTopology, XferDirection};
use pim_mapping::{HetMap, MemSpace, Organization, PhysAddr, PimAddrSpace};

#[test]
fn runtime_roundtrip_preserves_every_byte_across_all_dpus() {
    let mut device = PimDevice::new(PimTopology {
        channels: 2,
        ranks: 1,
        chips_per_rank: 8,
        dpus_per_chip: 8,
        mram_bytes: 1 << 20,
    });
    let n = device.num_dpus();
    let mut set = DpuSet::all(&mut device);
    let payload: Vec<Vec<u8>> = (0..n)
        .map(|d| (0..512).map(|i| ((d * 31 + i) % 251) as u8).collect())
        .collect();
    for (d, p) in payload.iter().enumerate() {
        set.prepare_xfer(d as u32, p.clone());
    }
    set.push_xfer(XferDirection::ToDpu, 128).expect("push");
    for d in 0..n {
        set.prepare_xfer(d, vec![0u8; 512]);
    }
    let pulled = set.push_xfer(XferDirection::FromDpu, 128).expect("pull");
    assert_eq!(pulled.len(), n as usize);
    for (d, data) in pulled {
        assert_eq!(data, payload[d as usize], "DPU {d} corrupted");
    }
}

#[test]
fn mapping_and_device_topologies_agree_on_core_numbering() {
    let org = Organization::upmem_dimm(4, 2);
    let space = PimAddrSpace::new(PhysAddr(32 << 30), org);
    let topo = PimTopology::from_organization(&org);
    assert_eq!(space.num_cores(), topo.total_dpus());
    for core in [0u32, 1, 63, 64, 255, 511] {
        let (ch, ra, bg, bk) = space.core_coords(core);
        let (tch, tra, chip, within) = topo.dpu_coords(core);
        assert_eq!((ch, ra), (tch, tra), "core {core}");
        // Chips slice the per-rank bank space in 8-DPU groups.
        assert_eq!(chip * 8 + within, bg * org.banks + bk, "core {core}");
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
