//! Transfer experiment runner: the common harness behind Fig. 13/14/15/16.

use crate::config::{SystemConfig, ThreadAssignment};
use crate::engine::TimingStats;
use crate::result::TransferResult;
use crate::system::System;
use pim_cpu::streams::{
    ContenderStream, CopyChunk, Intensity, MemcpyStream, SpinStream, XferDir, XferStream,
};
use pim_cpu::{Thread, ThreadKind};
use pim_mapping::{MemSpace, PhysAddr, PimAddrSpace};
use pim_mmu::{PimMmuOp, XferKind};

/// Base physical address of the host-side staging buffer (1 GiB — clear
/// of anything else the traces touch).
pub const HOST_BUFFER_BASE: u64 = 1 << 30;

/// Co-located contender workloads (Fig. 13).
#[derive(Debug, Clone, Copy)]
pub enum ContenderSpec {
    /// `n` spin-lock-like compute-bound threads.
    Spin(u32),
    /// `n` memory-intensive threads at the given intensity.
    Memory(u32, Intensity),
}

/// A DRAM↔PIM transfer experiment.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    /// Direction.
    pub kind: XferKind,
    /// Total payload bytes (split evenly over `n_cores`).
    pub total_bytes: u64,
    /// Number of PIM cores targeted.
    pub n_cores: u32,
    /// Co-located contenders.
    pub contenders: Vec<ContenderSpec>,
    /// Simulation cap in nanoseconds.
    pub max_ns: f64,
}

impl TransferSpec {
    /// A plain transfer over all 512 Table-I cores.
    pub fn simple(kind: XferKind, total_bytes: u64) -> Self {
        TransferSpec {
            kind,
            total_bytes,
            n_cores: 512,
            contenders: Vec::new(),
            max_ns: 2e9,
        }
    }

    fn size_per_core(&self) -> u64 {
        let raw = self.total_bytes / self.n_cores as u64;
        assert!(
            raw >= 64 && raw.is_multiple_of(64),
            "per-core size {raw} must be a nonzero multiple of 64 B"
        );
        raw
    }

    /// The per-core `(dram_addr, core)` entries of the op.
    pub fn entries(&self) -> Vec<(PhysAddr, u32)> {
        let size = self.size_per_core();
        (0..self.n_cores)
            .map(|i| (PhysAddr(HOST_BUFFER_BASE + i as u64 * size), i))
            .collect()
    }
}

fn contender_threads(specs: &[ContenderSpec]) -> Vec<Thread> {
    let mut threads = Vec::new();
    for spec in specs {
        match *spec {
            ContenderSpec::Spin(n) => {
                for _ in 0..n {
                    threads.push(Thread::new(Box::new(SpinStream), ThreadKind::Compute));
                }
            }
            ContenderSpec::Memory(n, intensity) => {
                for i in 0..n {
                    // Roam the first 8 GiB of DRAM: a working set far
                    // beyond the LLC that also collides with the transfer
                    // staging buffer's channel under either mapping — the
                    // direct bandwidth interference of Fig. 13(b).
                    threads.push(Thread::new(
                        Box::new(ContenderStream::new(
                            PhysAddr(0),
                            8 << 30,
                            intensity,
                            0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1),
                        )),
                        ThreadKind::Memory,
                    ));
                }
            }
        }
    }
    threads
}

/// Build the baseline's software copy threads (§V: 8 threads, each
/// owning a block of PIM cores).
fn sw_transfer_threads(
    cfg: &SystemConfig,
    spec: &TransferSpec,
    space: &PimAddrSpace,
) -> Vec<Thread> {
    let entries = spec.entries();
    let size = spec.size_per_core();
    let n = cfg.sw_threads.max(1);
    let dir = match spec.kind {
        XferKind::DramToPim => XferDir::DramToPim,
        XferKind::PimToDram => XferDir::PimToDram,
    };
    let mut per_thread: Vec<Vec<CopyChunk>> = vec![Vec::new(); n];
    for (idx, &(dram_addr, core)) in entries.iter().enumerate() {
        let t = match cfg.assignment {
            // Contiguous blocks of cores per thread (one rank each with 8
            // threads on the Table-I machine).
            ThreadAssignment::RankBlocked => idx * n / entries.len(),
            ThreadAssignment::Interleaved => idx % n,
        };
        let pim_addr = space.core_phys(core, 0);
        let (src, dst) = match spec.kind {
            XferKind::DramToPim => (dram_addr, pim_addr),
            XferKind::PimToDram => (pim_addr, dram_addr),
        };
        per_thread[t].push(CopyChunk {
            src,
            dst,
            bytes: size,
        });
    }
    per_thread
        .into_iter()
        .filter(|chunks| !chunks.is_empty())
        .map(|chunks| {
            Thread::new(
                Box::new(XferStream::new(
                    dir,
                    chunks,
                    XferStream::DEFAULT_TRANSPOSE_BUBBLES,
                )),
                ThreadKind::Transfer,
            )
        })
        .collect()
}

fn collect_result(sys: &mut System, design: &str, bytes: u64, elapsed_ns: f64) -> TransferResult {
    sys.finish_sampling();
    let activity = sys.total_activity();
    TransferResult {
        design: design.to_string(),
        bytes,
        elapsed_ns,
        energy: activity.energy(&sys.cfg.power),
        power_samples: sys.power_samples().to_vec(),
        pim_channel_windows: sys.pim_channel_write_windows(),
        dram_channel_windows: sys.dram_channel_windows(),
        pim_bus_utilization: sys.bus_utilization(MemSpace::Pim),
        dram_bus_utilization: sys.bus_utilization(MemSpace::Dram),
    }
}

/// Run a DRAM↔PIM transfer under `cfg.design` and return the measured
/// result.
///
/// # Panics
///
/// Panics if the transfer does not complete within `spec.max_ns` (a
/// deadlock in the model — never expected).
pub fn run_transfer(cfg: &SystemConfig, spec: &TransferSpec) -> TransferResult {
    run_transfer_timed(cfg, spec).0
}

/// [`run_transfer`], also returning the scheduler's work counters over
/// the run: how many events, domain fires and skipped edges it took
/// (deterministic, unlike its wall time).
///
/// # Panics
///
/// As [`run_transfer`].
pub fn run_transfer_timed(
    cfg: &SystemConfig,
    spec: &TransferSpec,
) -> (TransferResult, TimingStats) {
    let mapper = cfg.mapper();
    let space = PimAddrSpace::new(mapper.pim_base(), cfg.pim_org);
    let mut threads = Vec::new();
    let design = cfg.design;
    let mut n_transfer_threads = 0;
    if !design.uses_dce() {
        let tt = sw_transfer_threads(cfg, spec, &space);
        n_transfer_threads = tt.len();
        threads.extend(tt);
    }
    threads.extend(contender_threads(&spec.contenders));

    let mut sys = System::new(cfg.clone(), threads);
    if design.uses_dce() {
        let op = match spec.kind {
            XferKind::DramToPim => PimMmuOp::to_pim(spec.entries(), spec.size_per_core(), 0),
            XferKind::PimToDram => PimMmuOp::from_pim(spec.entries(), spec.size_per_core(), 0),
        };
        sys.engines_mut()[0]
            .enqueue(op, design.dce_mode())
            .expect("op validated");
    }

    let finished = if design.uses_dce() {
        sys.run_until(spec.max_ns, |s| !s.engines()[0].busy())
    } else {
        let last = n_transfer_threads;
        sys.run_until(spec.max_ns, move |s| {
            (0..last).all(|t| s.cluster().thread_finished(t))
        })
    };
    assert!(
        finished,
        "{} transfer of {} bytes did not finish within {} ns",
        design.label(),
        spec.total_bytes,
        spec.max_ns
    );

    let mut elapsed_ns = if design.uses_dce() {
        // DCE cycles -> ns, plus the driver round trip (§IV-B).
        let cycles = sys.engines_mut()[0]
            .pop_completion()
            .expect("the retired descriptor left a record")
            .completed_at;
        let engine_ns = cycles as f64 * sys.cfg.dce.period_ps() as f64 / 1000.0;
        engine_ns + sys.cfg.driver.round_trip_ns(spec.n_cores as usize)
    } else {
        let cpu_period_ns = sys.cfg.cpu.period_ps() as f64 / 1000.0;
        (0..n_transfer_threads)
            .map(|t| sys.cluster().thread_finished_at(t).expect("finished"))
            .max()
            .unwrap_or(0) as f64
            * cpu_period_ns
    };
    if elapsed_ns <= 0.0 {
        elapsed_ns = sys.now_ns();
    }
    let result = collect_result(&mut sys, design.label(), spec.total_bytes, elapsed_ns);
    (result, sys.timing_stats())
}

/// Run the AVX-stream `memcpy` microbenchmark (Fig. 14): multi-threaded
/// DRAM→DRAM copy. The design point only matters through its memory
/// mapping (locality-centric baseline vs. HetMap's MLP-centric DRAM
/// side).
pub fn run_memcpy(cfg: &SystemConfig, bytes: u64, max_ns: f64) -> TransferResult {
    let n = cfg.sw_threads.max(1);
    let per_thread = (bytes / n as u64) & !63;
    // Source and destination sit a couple of GiB apart — within the same
    // locality-mapped channel on server-sized channels, exactly the
    // single-channel pile-up the baseline BIOS inflicts on memcpy.
    let dst_base = HOST_BUFFER_BASE + (2u64 << 30);
    let threads: Vec<Thread> = (0..n as u64)
        .map(|t| {
            Thread::new(
                Box::new(MemcpyStream::new(
                    PhysAddr(HOST_BUFFER_BASE + t * per_thread),
                    PhysAddr(dst_base + t * per_thread),
                    per_thread,
                )),
                ThreadKind::Transfer,
            )
        })
        .collect();
    let n_threads = threads.len();
    let mut sys = System::new(cfg.clone(), threads);
    let finished = sys.run_until(max_ns, move |s| {
        (0..n_threads).all(|t| s.cluster().thread_finished(t))
    });
    assert!(
        finished,
        "memcpy of {bytes} bytes did not finish in {max_ns} ns"
    );
    let cpu_period_ns = sys.cfg.cpu.period_ps() as f64 / 1000.0;
    let elapsed_ns = (0..n_threads)
        .map(|t| sys.cluster().thread_finished_at(t).expect("finished"))
        .max()
        .unwrap_or(0) as f64
        * cpu_period_ns;
    let label = sys.cfg.design.label();
    collect_result(&mut sys, label, bytes, elapsed_ns.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignPoint;

    fn quick_cfg(design: DesignPoint) -> SystemConfig {
        let mut cfg = SystemConfig::table1(design);
        cfg.sample_ns = 50_000.0;
        cfg
    }

    #[test]
    fn baseline_transfer_completes_and_moves_all_bytes() {
        let cfg = quick_cfg(DesignPoint::Baseline);
        let spec = TransferSpec {
            n_cores: 64,
            ..TransferSpec::simple(XferKind::DramToPim, 1 << 20)
        };
        let r = run_transfer(&cfg, &spec);
        assert_eq!(r.bytes, 1 << 20);
        assert!(r.elapsed_ns > 0.0);
        assert!(r.throughput_gbps() > 0.5, "{}", r.throughput_gbps());
        // All lines reached the PIM side.
        assert!(r.pim_bus_utilization > 0.0);
    }

    #[test]
    fn pim_mmu_beats_baseline_on_dram_to_pim() {
        // All 512 cores: PIM core ids are channel-major, so a 128-core
        // subset would confine PIM-MS to a single channel.
        let base = run_transfer(
            &quick_cfg(DesignPoint::Baseline),
            &TransferSpec::simple(XferKind::DramToPim, 4 << 20),
        );
        let full = run_transfer(
            &quick_cfg(DesignPoint::BaseDHP),
            &TransferSpec::simple(XferKind::DramToPim, 4 << 20),
        );
        let speedup = base.elapsed_ns / full.elapsed_ns;
        assert!(
            speedup > 1.5,
            "PIM-MMU speedup {speedup:.2}x too small (base {:.2} GB/s vs full {:.2} GB/s)",
            base.throughput_gbps(),
            full.throughput_gbps()
        );
    }

    #[test]
    fn memcpy_hetmap_beats_locality() {
        let base = run_memcpy(&quick_cfg(DesignPoint::Baseline), 2 << 20, 1e9);
        let het = run_memcpy(&quick_cfg(DesignPoint::BaseDHP), 2 << 20, 1e9);
        let ratio = het.throughput_gbps() / base.throughput_gbps();
        assert!(ratio > 2.0, "HetMap memcpy gain {ratio:.2}x too small");
    }
}
