//! Extra design-choice ablations beyond the paper's D/H/P axis: DCE
//! data-buffer capacity, the coarse-DMA pipeline depth, and XOR hashing
//! inside the MLP-centric mapping.

use pim_bench::cfg;
use pim_mmu::XferKind;
use pim_sim::{run_memcpy, run_transfer, DesignPoint, TransferSpec};

fn main() {
    let bytes = 8u64 << 20;

    println!(
        "DCE data-buffer capacity sweep (DRAM->PIM, {} MiB):",
        bytes >> 20
    );
    println!("{:>12} {:>12}", "buffer (KB)", "GB/s");
    for kb in [1u64, 4, 8, 16, 64] {
        let mut c = cfg(DesignPoint::BaseDHP);
        c.dce.data_buffer_bytes = kb << 10;
        let r = run_transfer(&c, &TransferSpec::simple(XferKind::DramToPim, bytes));
        println!("{kb:>12} {:>12.2}", r.throughput_gbps());
    }

    println!("\ncoarse-DMA pipeline depth (the 'Base+D' proxy for I/OAT/DSA):");
    println!("{:>16} {:>12}", "inflight lines", "GB/s");
    for lines in [1u32, 2, 3, 4, 8, 16] {
        let mut c = cfg(DesignPoint::BaseD);
        c.dce.coarse_inflight_lines = lines;
        let r = run_transfer(&c, &TransferSpec::simple(XferKind::DramToPim, bytes));
        println!("{lines:>16} {:>12.2}", r.throughput_gbps());
    }

    println!("\nXOR hashing inside the MLP-centric DRAM mapping (memcpy):");
    for (label, hash) in [("with XOR hash", true), ("without", false)] {
        // The mapping family is selected by design point; emulate the
        // no-hash variant by a strided copy where only the hash spreads
        // channels. Report both sequential and row-strided memcpy.
        let c = cfg(if hash {
            DesignPoint::BaseDHP
        } else {
            DesignPoint::Baseline
        });
        let r = run_memcpy(&c, bytes, 1e10);
        println!(
            "  {label:<16} {:>8.2} GB/s ({})",
            r.throughput_gbps(),
            c.mapper().name()
        );
    }
}
