//! PIM offload of PrIM's vector addition (VA): the end-to-end time
//! split of Fig. 16.
//!
//! ```sh
//! cargo run --release --example vector_add
//! ```
//!
//! VA's paper-scale footprint (from the PrIM profile table) is simulated
//! on the Table-I machine under the baseline and PIM-MMU designs: the
//! DRAM→PIM input transfer and the PIM→DRAM output transfer run on the
//! cycle-level path, and the DPU kernel time comes from the profile's
//! kernel model.

use pim_mmu::XferKind;
use pim_sim::{run_transfer, DesignPoint, SystemConfig, TransferSpec};
use pim_workloads::PRIM_SUITE;

fn main() {
    let p = PRIM_SUITE
        .iter()
        .find(|w| w.name == "VA")
        .expect("VA is in the suite");
    println!(
        "paper-scale VA footprint: {} MiB in, {} MiB out, kernel {:.1} ms on 512 DPUs",
        p.in_bytes >> 20,
        p.out_bytes >> 20,
        p.kernel_ms(512)
    );
    for design in [DesignPoint::Baseline, DesignPoint::BaseDHP] {
        let cfg = SystemConfig::table1(design);
        // Simulate a 16 MiB slice of each phase and scale (bandwidth-bound).
        let slice = 16u64 << 20;
        let tin = run_transfer(&cfg, &TransferSpec::simple(XferKind::DramToPim, slice));
        let tout = run_transfer(&cfg, &TransferSpec::simple(XferKind::PimToDram, slice));
        let in_ms = tin.elapsed_ns * 1e-6 * p.in_bytes as f64 / slice as f64;
        let out_ms = tout.elapsed_ns * 1e-6 * p.out_bytes as f64 / slice as f64;
        let total = in_ms + p.kernel_ms(512) + out_ms;
        println!(
            "  {:<12} in {in_ms:7.1} ms | kernel {:6.1} ms | out {out_ms:7.1} ms | total {total:7.1} ms",
            cfg.design.label(),
            p.kernel_ms(512),
        );
    }
}
