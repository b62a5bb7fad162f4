//! Skip ≡ tick: a cluster that sleeps to its
//! [`next_event_cycle`](CpuCluster::next_event_cycle) horizon and catches
//! up with [`skip_cycles`](CpuCluster::skip_cycles) must be
//! indistinguishable from one ticked on every cycle.
//!
//! Both runs face the same memory: a fixed-latency fake whose outbox
//! drain is throttled by a random schedule of closed and open windows,
//! so the 64-entry outbox fills and cores hold refused loads and stores.
//! Random scenarios mix copy loops, spinners, memory contenders and
//! random cacheable/uncacheable load/store streams over a small LLC (LLC
//! hits, merged fills, dirty writebacks), oversubscribe the cores under a
//! short quantum (rotation, context-switch stalls, handed-back ops) and
//! shrink MSHRs and store buffers (resource stalls). Per-core
//! [`CoreStats`], the cluster's retirement counters, LLC hits, misses
//! and writebacks, every thread's finish cycle and the sequence of
//! requests leaving the outbox (with the cycle each left) must agree.
//!
//! The sleeper follows the system layer's rules: it catches the cluster
//! up through the current cycle before routing a completion to it or
//! draining its full outbox, then wakes it at its horizon.

use pim_cpu::core::CoreStats;
use pim_cpu::streams::{ContenderStream, CopyChunk, Intensity, SpinStream, XferDir, XferStream};
use pim_cpu::{CpuCluster, CpuConfig, InstrStream, Thread, ThreadKind, TraceOp};
use pim_dram::{Completion, MemRequest};
use pim_mapping::{HetMap, Organization, PhysAddr};
use std::collections::VecDeque;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mapper() -> HetMap {
    HetMap::baseline_bios(
        Organization::ddr4_dimm(4, 2),
        Organization::upmem_dimm(4, 2),
    )
}

/// DRAM base of every stream's working set.
const DRAM_BASE: u64 = 1 << 30;

/// A finite random mix of bubbles and 64 B loads and stores, cacheable or
/// not, over a small DRAM working set (plus a few PIM-space accesses): it
/// makes LLC hits, merged fills, store hits that dirty lines and the
/// dirty writebacks of their eviction.
struct RandomOps {
    rng: u64,
    left: u32,
    lines: u64,
    pim_base: u64,
}

impl InstrStream for RandomOps {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.left = self.left.checked_sub(1)?;
        let r = splitmix(&mut self.rng);
        // A quarter of the accesses go to a few hot lines every thread
        // shares, so loads held back by a full MSHR file often find their
        // line cached or under another core's fill.
        let line = if (r >> 40).is_multiple_of(4) {
            (r >> 44) % 8
        } else {
            (r >> 8) % self.lines
        };
        let addr = if r.is_multiple_of(16) {
            PhysAddr(self.pim_base + line * 64)
        } else {
            PhysAddr(DRAM_BASE + line * 64)
        };
        let cacheable = !(r >> 4).is_multiple_of(4);
        Some(match (r >> 6) % 6 {
            0 | 1 => TraceOp::Bubbles(u32::try_from((r >> 32) % 24).unwrap()),
            2 | 3 => TraceOp::Load { addr, cacheable },
            _ => TraceOp::Store { addr, cacheable },
        })
    }
}

struct Scenario {
    cfg: CpuConfig,
    seed: u64,
    n_threads: usize,
    /// Memory latency of every request, in core cycles.
    latency: u64,
    /// Requests the memory side may take from the outbox on each cycle.
    budget: Vec<u8>,
}

impl Scenario {
    fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut cfg = CpuConfig::table1();
        cfg.cores = [2, 4, 8, 8][(splitmix(&mut s) % 4) as usize];
        cfg.llc_bytes = 64 << 10;
        cfg.quantum_cycles = 1_500 + splitmix(&mut s) % 8_000;
        cfg.ctx_switch_cycles = 20 + splitmix(&mut s) % 400;
        if splitmix(&mut s).is_multiple_of(2) {
            cfg.mshrs = 4;
            cfg.store_buffer = 3;
        }
        let cores = cfg.cores as usize;
        let n_threads = cores / 2 + (splitmix(&mut s) % (2 * cores as u64)) as usize;
        // Long latencies keep completions arriving while the outbox is
        // full, the moment a held op can become servable.
        let latency = 20 + splitmix(&mut s) % 1_500;
        let cycles = 30_000;
        // Alternate closed windows (the outbox fills and cores hold
        // refused ops) with open ones of a random drain rate.
        let mut budget = Vec::with_capacity(cycles);
        while budget.len() < cycles {
            let len = 20 + (splitmix(&mut s) % 3_000) as usize;
            let rate = if splitmix(&mut s).is_multiple_of(2) {
                0
            } else {
                1 + (splitmix(&mut s) % 4) as u8
            };
            budget.extend(std::iter::repeat_n(rate, len));
        }
        budget.truncate(cycles);
        Scenario {
            cfg,
            seed: s,
            n_threads,
            latency,
            budget,
        }
    }

    fn cluster(&self) -> CpuCluster {
        let mapper = mapper();
        let pim_base = mapper.pim_base().0;
        let mut s = self.seed;
        let threads = (0..self.n_threads)
            .map(|i| {
                let base = DRAM_BASE + (i as u64) * (64 << 10);
                match splitmix(&mut s) % 8 {
                    0 => Thread::new(Box::new(SpinStream), ThreadKind::Compute),
                    1 | 2 => {
                        let intensity = if splitmix(&mut s).is_multiple_of(2) {
                            Intensity::Low
                        } else {
                            Intensity::High
                        };
                        let stream = ContenderStream::new(
                            PhysAddr(DRAM_BASE),
                            256 << 10,
                            intensity,
                            splitmix(&mut s),
                        );
                        Thread::new(Box::new(stream), ThreadKind::Memory)
                    }
                    3 | 4 => {
                        let (dir, src, dst) = if splitmix(&mut s).is_multiple_of(2) {
                            (XferDir::DramToPim, base, pim_base + base)
                        } else {
                            (XferDir::PimToDram, pim_base + base, base)
                        };
                        let chunk = CopyChunk {
                            src: PhysAddr(src),
                            dst: PhysAddr(dst),
                            bytes: 64 * (16 + splitmix(&mut s) % 96),
                        };
                        let stream = XferStream::new(dir, vec![chunk], 12);
                        Thread::new(Box::new(stream), ThreadKind::Transfer)
                    }
                    _ => {
                        let stream = RandomOps {
                            rng: splitmix(&mut s),
                            left: 200 + u32::try_from(splitmix(&mut s) % 3_000).unwrap(),
                            lines: 4_096,
                            pim_base,
                        };
                        Thread::new(Box::new(stream), ThreadKind::Memory)
                    }
                }
            })
            .collect();
        CpuCluster::new(self.cfg, mapper, threads)
    }
}

/// The fixed-latency memory: takes up to the cycle's budget of requests
/// from the front of the outbox, logging each with the cycle it left, and
/// completes each `latency` cycles later.
struct Memory {
    latency: u64,
    inflight: VecDeque<(u64, Completion)>,
    log: Vec<(u64, MemRequest)>,
}

impl Memory {
    fn new(sc: &Scenario) -> Self {
        Memory {
            latency: sc.latency,
            inflight: VecDeque::new(),
            log: Vec::new(),
        }
    }

    fn drain(&mut self, cl: &mut CpuCluster, budget: u8, now: u64) {
        for _ in 0..budget {
            let Some(out) = cl.outbox_mut().pop_front() else {
                return;
            };
            let req = out.req;
            self.log.push((now, req));
            let done = Completion {
                id: req.id,
                kind: req.kind,
                source: req.source,
                cycle: now + self.latency,
            };
            self.inflight.push_back((now + self.latency, done));
        }
    }

    fn due(&self, now: u64) -> bool {
        self.inflight.front().is_some_and(|&(at, _)| at <= now)
    }

    fn complete(&mut self, cl: &mut CpuCluster, now: u64) {
        while self.due(now) {
            let (_, c) = self.inflight.pop_front().expect("due");
            cl.on_completion(c);
        }
    }
}

/// Everything a run leaves that the two drivers must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    clock: u64,
    core_stats: Vec<CoreStats>,
    /// Retired instructions: total, then transfer / compute / memory.
    retired: [u64; 4],
    /// LLC hits, misses and dirty writebacks.
    llc: [u64; 3],
    finished_at: Vec<Option<u64>>,
    requests: Vec<(u64, MemRequest)>,
}

impl Outcome {
    fn of(cl: &CpuCluster, n_threads: usize, mem: Memory) -> Self {
        let st = cl.stats();
        Outcome {
            clock: cl.clock(),
            core_stats: cl.core_stats(),
            retired: [
                st.retired,
                st.retired_transfer,
                st.retired_compute,
                st.retired_memory,
            ],
            llc: [cl.llc().hits, cl.llc().misses, cl.llc().writebacks],
            finished_at: (0..n_threads).map(|t| cl.thread_finished_at(t)).collect(),
            requests: mem.log,
        }
    }
}

/// The reference: tick on every cycle. Also counts the cycles that ended
/// with the outbox full (evidence that refusals were exercised).
fn run_ticked(sc: &Scenario) -> (Outcome, u64) {
    let mut cl = sc.cluster();
    let mut mem = Memory::new(sc);
    let mut full_cycles = 0;
    for (now, &budget) in (0u64..).zip(&sc.budget) {
        cl.tick();
        full_cycles += u64::from(cl.outbox_full());
        mem.drain(&mut cl, budget, now);
        mem.complete(&mut cl, now);
    }
    (Outcome::of(&cl, sc.n_threads, mem), full_cycles)
}

fn catch_up(cl: &mut CpuCluster, to: u64) {
    if to > cl.clock() {
        cl.skip_cycles(to - cl.clock());
    }
}

/// Arm `armed` no later than the cluster's horizon.
fn wake(armed: &mut Option<u64>, cl: &CpuCluster) {
    if let Some(h) = cl.next_event_cycle() {
        *armed = Some(armed.map_or(h, |a| a.min(h)));
    }
}

/// The sleeper: tick only at the armed cycle, re-derive the horizon after
/// each tick, and wake on the inputs that can change a slept cycle.
/// Returns the outcome and the number of ticks taken.
fn run_sleeping(sc: &Scenario) -> (Outcome, u64) {
    let mut cl = sc.cluster();
    let mut mem = Memory::new(sc);
    let mut armed = Some(0);
    let mut ticks = 0;
    for (now, &budget) in (0u64..).zip(&sc.budget) {
        assert!(armed.is_none_or(|a| a >= now), "armed in the past");
        let fired = armed == Some(now);
        if fired {
            catch_up(&mut cl, now);
            cl.tick();
            ticks += 1;
        }
        let full = cl.outbox_full();
        if full && budget > 0 {
            catch_up(&mut cl, now + 1);
        }
        mem.drain(&mut cl, budget, now);
        if full && !cl.outbox_full() {
            wake(&mut armed, &cl);
        }
        if mem.due(now) {
            catch_up(&mut cl, now + 1);
            mem.complete(&mut cl, now);
            wake(&mut armed, &cl);
        }
        if fired {
            armed = cl.next_event_cycle();
        }
    }
    catch_up(&mut cl, sc.budget.len() as u64);
    (Outcome::of(&cl, sc.n_threads, mem), ticks)
}

#[test]
fn a_sleeping_cluster_matches_a_ticked_one() {
    let (mut ticks, mut cycles, mut full_cycles, mut writebacks) = (0, 0, 0, 0);
    for seed in 0..32u64 {
        let sc = Scenario::new(0xC0FFEE ^ seed.wrapping_mul(0x9E37_79B9));
        let (reference, full) = run_ticked(&sc);
        let (slept, t) = run_sleeping(&sc);
        assert_eq!(
            reference, slept,
            "seed {seed}: {} cores, {} threads",
            sc.cfg.cores, sc.n_threads
        );
        ticks += t;
        cycles += sc.budget.len() as u64;
        full_cycles += full;
        writebacks += reference.llc[2];
    }
    // Equality is only evidence if the paths it guards were taken.
    assert!(full_cycles > 0, "no scenario filled the outbox");
    assert!(writebacks > 0, "no scenario wrote a dirty line back");
    assert!(
        4 * ticks < 3 * cycles,
        "the sleeper ticked {ticks} of {cycles} cycles"
    );
}
