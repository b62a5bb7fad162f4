//! Explore the three memory mappings of the paper: print where a walk of
//! physical addresses lands under the locality-centric, MLP-centric and
//! HetMap functions (Figs. 2/7 in table form).
//!
//! ```sh
//! cargo run --release --example mapping_explorer
//! ```

use pim_mapping::{HetMap, LocalityCentric, MapFn, MlpCentric, Organization, PhysAddr};

fn main() {
    let dram = Organization::ddr4_dimm(4, 2);
    let pim = Organization::upmem_dimm(4, 2);
    let loc = LocalityCentric::new(dram);
    let mlp = MlpCentric::new(dram);
    let het = HetMap::pim_mmu(dram, pim);

    println!("cache-line walk under each mapping (DRAM partition)");
    println!(
        "{:>12}  {:<28} {:<28}",
        "phys", "locality-centric", "MLP-centric + XOR"
    );
    for i in 0..8u64 {
        let p = PhysAddr(i * 64);
        println!(
            "{:>12}  {:<28} {:<28}",
            p.to_string(),
            loc.map(p).to_string(),
            mlp.map(p).to_string()
        );
    }

    println!("\n4 KiB-page walk (the XOR hash keeps strides spread):");
    for i in 0..6u64 {
        let p = PhysAddr(i << 20);
        println!(
            "{:>12}  loc ch{}  mlp ch{}",
            p.to_string(),
            loc.map(p).channel,
            mlp.map(p).channel
        );
    }

    println!(
        "\nHetMap partition boundary at {} (= DRAM capacity):",
        het.pim_base()
    );
    for off in [
        0u64,
        (32 << 30) - 64,
        32 << 30,
        (32 << 30) + 64 * 1024 * 1024,
    ] {
        let p = PhysAddr(off);
        let s = het.map(p);
        println!(
            "{:>14} -> {:>4} {}",
            p.to_string(),
            s.space.to_string(),
            s.addr
        );
    }
}
