//! Calibration probe: raw throughputs of every design point for one
//! transfer size in both directions, plus the memcpy microbenchmark.
//! Not a paper figure — a quick sanity check of the model's operating
//! points (compare against §III-B's 8.9 GB/s baseline and the paper's
//! 4.1x average improvement).

use pim_bench::cfg;
use pim_mmu::XferKind;
use pim_sim::{run_memcpy, run_transfer, DesignPoint, TransferSpec};

#[allow(
    clippy::disallowed_methods,
    reason = "each row reports the wall time its simulation took"
)]
fn main() {
    let bytes: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16 << 20);
    println!("transfer size: {} MiB over 512 cores", bytes >> 20);
    for kind in [XferKind::DramToPim, XferKind::PimToDram] {
        println!("-- {kind:?}");
        for d in DesignPoint::all() {
            let spec = TransferSpec::simple(kind, bytes);
            let t0 = std::time::Instant::now();
            let r = run_transfer(&cfg(d), &spec);
            println!(
                "{:<12} {:7.2} GB/s  pim-util {:4.1}%  dram-util {:4.1}%  power {:5.1} W  ({:.1}s wall)",
                r.design,
                r.throughput_gbps(),
                r.pim_bus_utilization * 100.0,
                r.dram_bus_utilization * 100.0,
                r.energy.total_mj() / (r.elapsed_ns * 1e-6),
                t0.elapsed().as_secs_f64(),
            );
        }
    }
    println!("-- memcpy (DRAM->DRAM)");
    for d in [DesignPoint::Baseline, DesignPoint::BaseDHP] {
        let r = run_memcpy(&cfg(d), bytes, 2e9);
        println!("{:<12} {:7.2} GB/s", r.design, r.throughput_gbps());
    }
}
