//! Fig. 16: normalized end-to-end execution time of the 16 PrIM
//! workloads, baseline vs PIM-MMU.
//!
//! Transfer phases are simulated (the same engine as Fig. 15); PIM kernel
//! time comes from the per-workload model in [`pim_workloads::PRIM_SUITE`],
//! standing in for the paper's real-hardware measurements. PIM-MMU does
//! not change kernel time. EXPERIMENTS.md records the measured numbers
//! beside the paper's (section "Fig. 16").
//!
//! Paper shape: transfers average 63.7 % of end-to-end time (max 99.7 %);
//! PIM-MMU cuts DRAM→PIM 3.3x / PIM→DRAM 3.8x, yielding a 2.2x average
//! end-to-end speedup (max 4.0x); TS barely moves.

use pim_bench::{cfg, geomean, HarnessArgs};
use pim_mmu::XferKind;
use pim_sim::{run_batch, BatchPoint, DesignPoint, TransferSpec};
use pim_workloads::PRIM_SUITE;
use std::collections::BTreeMap;

/// A unique simulation point: (bytes, is_dram_to_pim, is_pim_mmu).
type Key = (u64, bool, bool);

/// Transfer times in ms, memoized per [`Key`] — many workloads share
/// footprints, and all unique points run as one parallel batch.
struct XferSim {
    cache: BTreeMap<Key, f64>,
    quick: bool,
}

impl XferSim {
    /// Simulate a representative (smaller) size and scale linearly:
    /// transfers are bandwidth-bound, so time scales with bytes once past
    /// the ramp (validated by the Fig. 15 sweep).
    fn point(&self, key: Key) -> BatchPoint {
        let (bytes, to_pim, mmu) = key;
        let sim_bytes = if self.quick {
            bytes.min(8 << 20)
        } else {
            bytes.min(64 << 20)
        };
        let kind = if to_pim {
            XferKind::DramToPim
        } else {
            XferKind::PimToDram
        };
        let design = if mmu {
            DesignPoint::BaseDHP
        } else {
            DesignPoint::Baseline
        };
        let spec = TransferSpec {
            max_ns: 1e11,
            ..TransferSpec::simple(kind, sim_bytes)
        };
        BatchPoint::transfer(
            format!("{sim_bytes}B/{kind:?}/{}", design.label()),
            cfg(design),
            spec,
        )
    }

    /// Run every not-yet-cached key through the parallel batch harness.
    fn prefetch(&mut self, keys: impl IntoIterator<Item = Key>, threads: usize) {
        let mut missing: Vec<Key> = keys
            .into_iter()
            .filter(|k| !self.cache.contains_key(k))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let points: Vec<BatchPoint> = missing.iter().map(|&k| self.point(k)).collect();
        for (key, r) in missing.iter().zip(run_batch(&points, threads)) {
            let (bytes, ..) = *key;
            let sim_bytes = r.bytes;
            let ms = r.elapsed_ns * 1e-6 * bytes as f64 / sim_bytes as f64;
            self.cache.insert(*key, ms);
        }
    }

    fn time_ms(&self, bytes: u64, kind: XferKind, design: DesignPoint) -> f64 {
        let key = sim_key(bytes, kind, design);
        *self.cache.get(&key).unwrap_or_else(|| {
            panic!("point {key:?} not prefetched: keep the prefetch enumeration in sync")
        })
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let mut sim = XferSim {
        cache: BTreeMap::new(),
        quick: !args.full,
    };
    // Gather every (bytes, direction, design) point of the suite, then
    // simulate the deduplicated set in parallel before printing.
    sim.prefetch(
        PRIM_SUITE.iter().flat_map(|w| {
            [true, false].into_iter().flat_map(move |to_pim| {
                let (bytes, kind) = if to_pim {
                    (w.in_bytes, XferKind::DramToPim)
                } else {
                    (w.out_bytes, XferKind::PimToDram)
                };
                [DesignPoint::Baseline, DesignPoint::BaseDHP]
                    .into_iter()
                    .map(move |d| sim_key(bytes, kind, d))
            })
        }),
        args.threads(),
    );

    println!("Fig. 16: normalized end-to-end execution time (Baseline vs PIM-MMU)");
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>7} | {:>8} {:>7}",
        "workload",
        "in",
        "kern",
        "out",
        "total",
        "in'",
        "kern'",
        "out'",
        "total'",
        "xfer%",
        "speedup"
    );
    let mut speedups = Vec::new();
    let mut xfer_fracs = Vec::new();
    let mut in_gains = Vec::new();
    let mut out_gains = Vec::new();
    for w in &PRIM_SUITE {
        let kern = w.kernel_ms(512);
        let b_in = sim.time_ms(w.in_bytes, XferKind::DramToPim, DesignPoint::Baseline);
        let b_out = sim.time_ms(w.out_bytes, XferKind::PimToDram, DesignPoint::Baseline);
        let m_in = sim.time_ms(w.in_bytes, XferKind::DramToPim, DesignPoint::BaseDHP);
        let m_out = sim.time_ms(w.out_bytes, XferKind::PimToDram, DesignPoint::BaseDHP);
        let b_total = b_in + kern + b_out;
        let m_total = m_in + kern + m_out;
        let speedup = b_total / m_total;
        let frac = (b_in + b_out) / b_total;
        speedups.push(speedup);
        xfer_fracs.push(frac);
        in_gains.push(b_in / m_in);
        out_gains.push(b_out / m_out);
        println!(
            "{:<10} {b_in:>7.1} {kern:>7.1} {b_out:>7.1} {b_total:>7.1} | {m_in:>7.1} {kern:>7.1} {m_out:>7.1} {m_total:>7.1} | {:>7.1}% {speedup:>6.2}x",
            w.name,
            frac * 100.0
        );
    }
    let avg_frac = xfer_fracs.iter().sum::<f64>() / xfer_fracs.len() as f64;
    println!(
        "\n-> baseline transfer share: avg {:.1}% / max {:.1}% (paper: 63.7% / 99.7%)",
        avg_frac * 100.0,
        xfer_fracs.iter().cloned().fold(0.0, f64::max) * 100.0
    );
    println!(
        "-> DRAM->PIM gain geomean {:.2}x, PIM->DRAM {:.2}x (paper: 3.3x / 3.8x)",
        geomean(&in_gains),
        geomean(&out_gains)
    );
    println!(
        "-> end-to-end speedup: geomean {:.2}x, max {:.2}x, min {:.2}x (paper: 2.2x avg, 4.0x max, TS ~1x)",
        geomean(&speedups),
        speedups.iter().cloned().fold(0.0, f64::max),
        speedups.iter().cloned().fold(f64::INFINITY, f64::min)
    );
}

/// The cache key of one simulation point.
fn sim_key(bytes: u64, kind: XferKind, design: DesignPoint) -> Key {
    (
        bytes,
        matches!(kind, XferKind::DramToPim),
        design == DesignPoint::BaseDHP,
    )
}
