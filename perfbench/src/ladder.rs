//! `xfer_ladder`: the paper's headline experiment. One-shot DRAM→PIM
//! and PIM→DRAM transfers over all 512 PIM cores at `Baseline` and
//! `Base+D+H+P`, each on a freshly built machine (empty caches and row
//! buffers, as in the paper's one-shot measurement).
//!
//! The untraced run calls `pim_sim::run_transfer`, the path every
//! figure harness takes. The traced run rebuilds each cell from the
//! same public pieces with the self-profile armed: DCE designs through
//! the queued engine API, the baseline through its software copy
//! threads. Both must agree bit for bit.

use crate::layers::LayerData;
use crate::measure::{Better, Digest, Metric};
use crate::{Reduced, Workload};
use pim_cpu::streams::{CopyChunk, XferDir, XferStream};
use pim_cpu::{Thread, ThreadKind};
use pim_mapping::{MemSpace, PimAddrSpace};
use pim_mmu::{PimMmuOp, XferKind};
use pim_sim::{
    run_transfer, DesignPoint, System, SystemConfig, ThreadAssignment, TransferResult, TransferSpec,
};

/// Payload of each transfer.
const BYTES: u64 = 2 << 20;
const DIRECTIONS: [XferKind; 2] = [XferKind::DramToPim, XferKind::PimToDram];
const DESIGNS: [DesignPoint; 2] = [DesignPoint::Baseline, DesignPoint::BaseDHP];
/// The paper's average transfer speed-up and energy-efficiency gain of
/// Base+D+H+P over Baseline. Context only: the repository holds no
/// hardware measurements, so the model is unvalidated against them.
const PAPER_GAIN: f64 = 4.1;

pub struct Ladder;

pub struct Cell {
    cfg: SystemConfig,
    spec: TransferSpec,
    traced: bool,
}

pub struct CellOut {
    result: TransferResult,
    /// Present on traced rebuilds only.
    layers: Option<LayerData>,
}

impl Workload for Ladder {
    type Input = Vec<Cell>;
    type Outcome = Vec<CellOut>;
    const SEEDED: bool = false;

    fn setup(&self, _seed: u64, traced: bool) -> Vec<Cell> {
        DIRECTIONS
            .iter()
            .flat_map(|&kind| {
                DESIGNS.iter().map(move |&design| Cell {
                    cfg: SystemConfig::table1(design),
                    spec: TransferSpec::simple(kind, BYTES),
                    traced,
                })
            })
            .collect()
    }

    fn run(&self, cells: Vec<Cell>) -> Vec<CellOut> {
        cells
            .iter()
            .map(|c| {
                if c.traced {
                    rebuild(c)
                } else {
                    CellOut {
                        result: run_transfer(&c.cfg, &c.spec),
                        layers: None,
                    }
                }
            })
            .collect()
    }

    fn reduce(&self, out: &Vec<CellOut>) -> Reduced {
        let mut digest = Digest::new();
        let mut problems = Vec::new();
        let mut failed = 0;
        for (i, c) in out.iter().enumerate() {
            let r = &c.result;
            let label = format!("{} {}", r.design, dir_name(DIRECTIONS[i / DESIGNS.len()]));
            let mut bad = Vec::new();
            if r.bytes != BYTES {
                bad.push(format!("moved {} bytes, offered {BYTES}", r.bytes));
            }
            if !(r.elapsed_ns.is_finite() && r.elapsed_ns > 0.0) {
                bad.push(format!("elapsed {} ns", r.elapsed_ns));
            }
            // On DCE cells every payload byte has landed when the
            // engine completes: PIM writes for DRAM→PIM, DRAM traffic
            // (writes only) for PIM→DRAM. The baseline's copy threads
            // finish when their last stores retire, which may leave
            // lines in the cache hierarchy, so only the engine is held
            // to exact conservation.
            if r.design != "Base" {
                let landed: u64 = match DIRECTIONS[i / DESIGNS.len()] {
                    XferKind::DramToPim => r.pim_channel_windows.iter().flatten().sum(),
                    XferKind::PimToDram => r.dram_channel_windows.iter().flatten().sum(),
                };
                if landed != BYTES {
                    bad.push(format!("{landed} bytes reached the destination"));
                }
                if let Some(d) = &c.layers {
                    if d.counts.dce_lines_done * 64 != BYTES {
                        bad.push(format!("engine moved {} lines", d.counts.dce_lines_done));
                    }
                }
            }
            if !bad.is_empty() {
                failed += 1;
                problems.extend(bad.into_iter().map(|b| format!("{label}: {b}")));
            }
            digest_result(&mut digest, r);
        }

        let per_dir: Vec<(&TransferResult, &TransferResult)> = out
            .chunks(DESIGNS.len())
            .map(|p| (&p[0].result, &p[1].result))
            .collect();
        let geomean = |f: &dyn Fn(&TransferResult, &TransferResult) -> f64| {
            let logs: f64 = per_dir.iter().map(|(b, f2)| f(b, f2).ln()).sum();
            (logs / per_dir.len() as f64).exp()
        };
        let speedup = geomean(&|b, f| b.elapsed_ns / f.elapsed_ns);
        let energy_gain = geomean(&|b, f| f.bytes_per_uj() / b.bytes_per_uj());
        let goodput = geomean(&|_, f| f.throughput_gbps());
        let mut sim = Vec::new();
        for (kind, (b, f)) in DIRECTIONS.iter().zip(&per_dir) {
            for r in [b, f] {
                sim.push(Metric::new(
                    &format!("{}.{}.gbps", design_key(&r.design), dir_key(*kind)),
                    r.throughput_gbps(),
                    "GB/s",
                    Better::Higher,
                ));
            }
        }
        sim.push(Metric::new("speedup_vs_base", speedup, "x", Better::Higher));
        sim.push(Metric::new(
            "energy_gain_vs_base",
            energy_gain,
            "x",
            Better::Higher,
        ));
        let notes = vec![
            "goodput_gbps is the Base+D+H+P transfer throughput, geomean over both directions"
                .into(),
            "speedup_vs_base and energy_gain_vs_base: Base+D+H+P over Baseline (base), geomean over DRAM->PIM and PIM->DRAM at 2 MiB on 512 cores".into(),
            format!("the paper reports {PAPER_GAIN}x for both on hardware; context only, the model is not validated against hardware measurements"),
        ];
        Reduced {
            digest,
            ops: out.len() as u64,
            failed,
            problems,
            payload_bytes: BYTES * out.len() as u64,
            goodput_gbps: goodput,
            sim,
            notes,
        }
    }

    fn layers(&self, out: &Vec<CellOut>) -> Option<LayerData> {
        let mut total = LayerData::default();
        for c in out {
            total.merge(c.layers.as_ref()?);
        }
        Some(total)
    }
}

fn dir_name(k: XferKind) -> &'static str {
    match k {
        XferKind::DramToPim => "DRAM->PIM",
        XferKind::PimToDram => "PIM->DRAM",
    }
}

fn dir_key(k: XferKind) -> &'static str {
    match k {
        XferKind::DramToPim => "d2p",
        XferKind::PimToDram => "p2d",
    }
}

fn design_key(label: &str) -> &'static str {
    if label == "Base" {
        "base"
    } else {
        "dhp"
    }
}

/// Every simulated field of a transfer result, bit for bit.
fn digest_result(d: &mut Digest, r: &TransferResult) {
    d.word(r.bytes);
    d.f64(r.elapsed_ns);
    for (_, mj) in r.energy.segments() {
        d.f64(mj);
    }
    for s in &r.power_samples {
        d.f64(s.t_ns);
        d.word(u64::from(s.active_cores));
        d.f64(s.watts);
    }
    for w in r.pim_channel_windows.iter().chain(&r.dram_channel_windows) {
        d.word(w.len() as u64);
        for &b in w {
            d.word(b);
        }
    }
    d.f64(r.pim_bus_utilization);
    d.f64(r.dram_bus_utilization);
}

/// The baseline's software copy threads, as the transfer harness builds
/// them: `sw_threads` threads, each owning a block of PIM cores.
fn copy_threads(cfg: &SystemConfig, spec: &TransferSpec) -> Vec<Thread> {
    let space = PimAddrSpace::new(cfg.mapper().pim_base(), cfg.pim_org);
    let entries = spec.entries();
    let size = spec.total_bytes / u64::from(spec.n_cores);
    let n = cfg.sw_threads.max(1);
    let dir = match spec.kind {
        XferKind::DramToPim => XferDir::DramToPim,
        XferKind::PimToDram => XferDir::PimToDram,
    };
    let mut per_thread: Vec<Vec<CopyChunk>> = vec![Vec::new(); n];
    for (idx, &(dram_addr, core)) in entries.iter().enumerate() {
        let t = match cfg.assignment {
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
        .filter(|c| !c.is_empty())
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

/// Rebuild one cell with the self-profile armed and reproduce
/// `run_transfer`'s result from the machine's public state.
fn rebuild(c: &Cell) -> CellOut {
    let (cfg, spec) = (&c.cfg, &c.spec);
    let design = cfg.design;
    let (mut sys, elapsed_ns) = if design.uses_dce() {
        let size = spec.total_bytes / u64::from(spec.n_cores);
        let op = match spec.kind {
            XferKind::DramToPim => PimMmuOp::to_pim(spec.entries(), size, 0),
            XferKind::PimToDram => PimMmuOp::from_pim(spec.entries(), size, 0),
        };
        let mut sys = System::new(cfg.clone(), vec![]);
        sys.enable_self_profile();
        sys.engines_mut()[0]
            .enqueue(op, design.dce_mode())
            .expect("the ladder's descriptors are valid");
        let done = sys.run_until(spec.max_ns, |s| !s.engines()[0].busy());
        assert!(done, "{} transfer did not finish", design.label());
        let rec = sys.engines_mut()[0]
            .pop_completion()
            .expect("a retired descriptor leaves a completion record");
        let engine_ns = rec.completed_at as f64 * cfg.dce.period_ps() as f64 / 1000.0;
        let elapsed = engine_ns + cfg.driver.round_trip_ns(spec.n_cores as usize);
        (sys, elapsed)
    } else {
        let threads = copy_threads(cfg, spec);
        let n = threads.len();
        let mut sys = System::new(cfg.clone(), threads);
        sys.enable_self_profile();
        let done = sys.run_until(spec.max_ns, |s| {
            (0..n).all(|t| s.cluster().thread_finished(t))
        });
        assert!(done, "baseline transfer did not finish");
        let cpu_period_ns = cfg.cpu.period_ps() as f64 / 1000.0;
        let last = (0..n)
            .map(|t| sys.cluster().thread_finished_at(t).expect("finished"))
            .max()
            .unwrap_or(0);
        (sys, last as f64 * cpu_period_ns)
    };
    let elapsed_ns = if elapsed_ns <= 0.0 {
        sys.now_ns()
    } else {
        elapsed_ns
    };
    sys.finish_sampling();
    let result = TransferResult {
        design: design.label().to_string(),
        bytes: spec.total_bytes,
        elapsed_ns,
        energy: sys.total_activity().energy(&sys.cfg.power),
        power_samples: sys.power_samples().to_vec(),
        pim_channel_windows: sys.pim_channel_write_windows(),
        dram_channel_windows: sys.dram_channel_windows(),
        pim_bus_utilization: sys.bus_utilization(MemSpace::Pim),
        dram_bus_utilization: sys.bus_utilization(MemSpace::Dram),
    };
    CellOut {
        result,
        layers: Some(LayerData::of_system(&sys, 1)),
    }
}
