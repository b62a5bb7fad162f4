//! The CPU cluster: cores + shared LLC + OS scheduler + memory interface.

use crate::config::CpuConfig;
use crate::core::{Core, MemOutcome, MemPort};
use crate::llc::Llc;
use crate::os::OsScheduler;
use crate::trace::{Thread, ThreadKind};
use pim_dram::{AccessKind, Completion, MemRequest, OutRequest, SourceId};
use pim_mapping::{HetMap, MemSpace, PhysAddr};
use std::collections::{HashMap, VecDeque};

/// Source id used for LLC writeback traffic (no owning core).
pub const WRITEBACK_SOURCE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct InFlight {
    core: u32,
    /// For cacheable loads: fill the LLC with this line on return.
    fill: Option<PhysAddr>,
}

/// Memory side of the cluster (separate struct so cores can borrow it
/// while the thread streams are borrowed mutably).
struct ClusterMem {
    llc: Llc,
    mapper: HetMap,
    outbox: VecDeque<OutRequest>,
    outbox_cap: usize,
    next_id: u64,
    inflight: HashMap<u64, InFlight>,
    /// Line index -> loads waiting on an already-outstanding fill
    /// (MSHR-style miss merging: one memory read per missing line).
    pending_fills: HashMap<u64, Vec<u64>>,
}

impl ClusterMem {
    fn send(&mut self, kind: AccessKind, core: u32, addr: PhysAddr, fill: Option<PhysAddr>) -> u64 {
        let spaced = self.mapper.map(addr);
        let id = self.next_id;
        self.next_id += 1;
        let req = match kind {
            AccessKind::Read => MemRequest::read(id, addr, spaced.addr, SourceId(core)),
            AccessKind::Write => MemRequest::write(id, addr, spaced.addr, SourceId(core)),
        };
        self.outbox.push_back(OutRequest {
            space: spaced.space,
            req,
        });
        self.inflight.insert(id, InFlight { core, fill });
        id
    }
}

impl MemPort for ClusterMem {
    fn load(&mut self, core: u32, addr: PhysAddr, cacheable: bool) -> MemOutcome {
        let addr = addr.line_base();
        let cacheable = cacheable && self.mapper.space_of(addr) == MemSpace::Dram;
        if cacheable && self.llc.probe_load(addr) {
            return MemOutcome::LlcHit;
        }
        if cacheable {
            // Merge with an outstanding fill of the same line, if any.
            if let Some(waiters) = self.pending_fills.get_mut(&addr.line()) {
                let id = self.next_id;
                self.next_id += 1;
                waiters.push(id);
                self.inflight.insert(id, InFlight { core, fill: None });
                return MemOutcome::Sent(id);
            }
        }
        if self.outbox.len() >= self.outbox_cap {
            return MemOutcome::Rejected;
        }
        let fill = cacheable.then_some(addr);
        if cacheable {
            self.pending_fills.insert(addr.line(), Vec::new());
        }
        MemOutcome::Sent(self.send(AccessKind::Read, core, addr, fill))
    }

    fn store(&mut self, core: u32, addr: PhysAddr, cacheable: bool) -> MemOutcome {
        let addr = addr.line_base();
        let cacheable = cacheable && self.mapper.space_of(addr) == MemSpace::Dram;
        if cacheable && self.llc.probe_store(addr) {
            return MemOutcome::LlcHit;
        }
        if self.outbox.len() >= self.outbox_cap {
            return MemOutcome::Rejected;
        }
        // Write-no-allocate: misses (and non-temporal stores) go straight
        // to memory.
        MemOutcome::Sent(self.send(AccessKind::Write, core, addr, None))
    }
}

/// Aggregate cluster statistics.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Core cycles simulated.
    pub cycles: u64,
    /// Total instructions retired.
    pub retired: u64,
    /// Instructions retired by threads of each kind
    /// (transfer / compute / memory).
    pub retired_transfer: u64,
    /// See [`retired_transfer`](Self::retired_transfer).
    pub retired_compute: u64,
    /// See [`retired_transfer`](Self::retired_transfer).
    pub retired_memory: u64,
    /// Windowed samples of (cycle, active core count).
    pub active_samples: Vec<(u64, u32)>,
    busy_at_last_sample: Vec<u64>,
}

/// The 8-core host processor of Table I.
///
/// Drive it with [`tick`](Self::tick) once per core clock; drain
/// [`outbox`](Self::outbox_mut) into the memory controllers (converting
/// clock domains) and feed [`Completion`]s back via
/// [`on_completion`](Self::on_completion).
pub struct CpuCluster {
    cfg: CpuConfig,
    cores: Vec<Core>,
    threads: Vec<Thread>,
    sched: OsScheduler,
    mem: ClusterMem,
    clock: u64,
    stats: ClusterStats,
    last_assignments: Vec<Option<usize>>,
}

impl CpuCluster {
    /// Build a cluster running `threads` under `mapper`.
    pub fn new(cfg: CpuConfig, mapper: HetMap, threads: Vec<Thread>) -> Self {
        let sched = OsScheduler::new(cfg.cores as usize, threads.len(), cfg.quantum_cycles);
        let sched_assignments = sched.assignments().to_vec();
        CpuCluster {
            cfg,
            cores: (0..cfg.cores).map(|i| Core::new(i, cfg)).collect(),
            threads,
            sched,
            mem: ClusterMem {
                llc: Llc::new(cfg.llc_bytes, cfg.llc_ways),
                mapper,
                outbox: VecDeque::new(),
                outbox_cap: 64,
                next_id: 0,
                inflight: HashMap::new(),
                pending_fills: HashMap::new(),
            },
            clock: 0,
            stats: ClusterStats {
                busy_at_last_sample: vec![0; cfg.cores as usize],
                ..ClusterStats::default()
            },
            last_assignments: sched_assignments,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Current core-clock cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Requests waiting to enter the memory subsystem. The system layer
    /// pops from the front as controller queues accept them.
    pub fn outbox_mut(&mut self) -> &mut VecDeque<OutRequest> {
        &mut self.mem.outbox
    }

    /// Shared-LLC statistics.
    pub fn llc(&self) -> &Llc {
        &self.mem.llc
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Whether thread `tid`'s instruction stream has been fully executed.
    pub fn thread_finished(&self, tid: usize) -> bool {
        self.threads[tid].finished
    }

    /// Core cycle at which `tid` finished, if it has.
    pub fn thread_finished_at(&self, tid: usize) -> Option<u64> {
        self.threads[tid].finished_at
    }

    /// Whether every thread of `kind` has finished and all resulting
    /// memory traffic has left the cluster.
    pub fn kind_finished(&self, kind: ThreadKind) -> bool {
        self.threads
            .iter()
            .filter(|t| t.kind == kind)
            .all(|t| t.finished)
            && self.mem.outbox.is_empty()
            && self.mem.inflight.is_empty()
    }

    /// Whether the cluster is fully quiescent: every thread has finished
    /// and no memory traffic remains in flight. A quiescent cluster's
    /// ticks are no-ops (no thread can start mid-run), so its clock
    /// domain can be parked for the rest of the simulation.
    pub fn quiescent(&self) -> bool {
        self.threads.iter().all(|t| t.finished)
            && self.mem.outbox.is_empty()
            && self.mem.inflight.is_empty()
    }

    /// The earliest cycle at or after [`clock`](Self::clock) at which a
    /// tick does real work: the current cycle until the cluster is
    /// [`quiescent`](Self::quiescent), then `None` for good (threads
    /// cannot start mid-run, so a quiescent cluster stays quiescent).
    pub fn next_event_cycle(&self) -> Option<u64> {
        (!self.quiescent()).then_some(self.clock)
    }

    /// Catch up over `cycles` skipped cycles — exactly equivalent to
    /// that many [`tick`](Self::tick)s while
    /// [`quiescent`](Self::quiescent) (retired threads never reschedule,
    /// idle cores retire nothing, so a quiescent tick only advances the
    /// clock).
    pub fn skip_cycles(&mut self, cycles: u64) {
        self.clock += cycles;
        self.stats.cycles = self.clock;
    }

    /// Route a memory completion back to the owning core, filling the LLC
    /// for cacheable loads (which may trigger a dirty writeback).
    pub fn on_completion(&mut self, c: Completion) {
        let Some(inf) = self.mem.inflight.remove(&c.id) else {
            return; // LLC writeback or foreign traffic
        };
        if let Some(line) = inf.fill {
            if let Some(victim) = self.mem.llc.fill(line, false) {
                // Dirty eviction: write back without occupying a core's
                // store buffer (the cache controller owns this traffic).
                let spaced = self.mem.mapper.map(victim);
                let id = self.mem.next_id;
                self.mem.next_id += 1;
                self.mem.outbox.push_back(OutRequest {
                    space: spaced.space,
                    req: MemRequest::write(id, victim, spaced.addr, SourceId(WRITEBACK_SOURCE)),
                });
            }
            // Wake every load merged into this fill.
            if let Some(waiters) = self.mem.pending_fills.remove(&line.line()) {
                for w in waiters {
                    if let Some(wi) = self.mem.inflight.remove(&w) {
                        self.cores[wi.core as usize].on_completion(w);
                    }
                }
            }
        }
        if inf.core != WRITEBACK_SOURCE {
            self.cores[inf.core as usize].on_completion(c.id);
        }
    }

    /// Execute one core-clock cycle on all cores.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.sched.tick(now);
        let assignments: Vec<Option<usize>> = self.sched.assignments().to_vec();
        // Context switches: hand stalled ops back to the thread that owns
        // them and charge the switch penalty.
        if assignments != self.last_assignments {
            for (c_idx, core) in self.cores.iter_mut().enumerate() {
                let old = self.last_assignments.get(c_idx).copied().flatten();
                if old == assignments.get(c_idx).copied().flatten() {
                    continue;
                }
                core.stall_until = now + self.cfg.ctx_switch_cycles;
                if let Some(op) = core.take_stalled_op() {
                    if let Some(t) = old {
                        debug_assert!(self.threads[t].pending.is_none());
                        self.threads[t].pending = Some(op);
                    }
                }
            }
            self.last_assignments = assignments.clone();
        }
        let mut newly_finished: Vec<usize> = Vec::new();
        for (c_idx, core) in self.cores.iter_mut().enumerate() {
            let tid = assignments.get(c_idx).copied().flatten();
            let threads = &mut self.threads;
            let mut exhausted = false;
            let retired = {
                let mut pull = || match tid {
                    Some(t) if !threads[t].finished => {
                        let op = threads[t].pull();
                        if op.is_none() {
                            exhausted = true;
                        }
                        op
                    }
                    _ => None,
                };
                core.tick(now, &mut self.mem, &mut pull)
            };
            self.stats.retired += retired as u64;
            if let Some(t) = tid {
                self.threads[t].retired += retired as u64;
                match self.threads[t].kind {
                    ThreadKind::Transfer => self.stats.retired_transfer += retired as u64,
                    ThreadKind::Compute => self.stats.retired_compute += retired as u64,
                    ThreadKind::Memory => self.stats.retired_memory += retired as u64,
                }
                if exhausted {
                    self.threads[t].finished = true;
                    self.threads[t].finished_at = Some(now);
                    newly_finished.push(t);
                }
            }
        }
        for t in newly_finished {
            self.sched.retire_thread(t);
        }
        self.clock += 1;
        self.stats.cycles = self.clock;
    }

    /// Close an "active cores" sampling window (Fig. 4): a core counts as
    /// active if it was busy for more than half of the window.
    pub fn sample_active_cores(&mut self) {
        let mut active = 0;
        let window_len = self
            .clock
            .saturating_sub(self.stats.active_samples.last().map_or(0, |s| s.0))
            .max(1);
        for (i, core) in self.cores.iter().enumerate() {
            let busy = core.stats.busy_cycles - self.stats.busy_at_last_sample[i];
            if busy * 2 > window_len {
                active += 1;
            }
            self.stats.busy_at_last_sample[i] = core.stats.busy_cycles;
        }
        self.stats.active_samples.push((self.clock, active));
    }

    /// Per-core statistics.
    pub fn core_stats(&self) -> Vec<crate::core::CoreStats> {
        self.cores.iter().map(|c| c.stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{CopyChunk, SpinStream, XferDir, XferStream};
    use pim_mapping::Organization;

    fn mapper() -> HetMap {
        HetMap::baseline_bios(
            Organization::ddr4_dimm(4, 2),
            Organization::upmem_dimm(4, 2),
        )
    }

    fn drain_and_complete(
        cluster: &mut CpuCluster,
        latency: u64,
        pending: &mut Vec<(u64, Completion)>,
    ) {
        // A trivial perfect-memory model: every request completes after
        // `latency` core cycles.
        let now = cluster.clock();
        while let Some(out) = cluster.outbox_mut().pop_front() {
            pending.push((
                now + latency,
                Completion {
                    id: out.req.id,
                    kind: out.req.kind,
                    source: out.req.source,
                    cycle: now + latency,
                },
            ));
        }
        let (due, rest): (Vec<_>, Vec<_>) = pending.drain(..).partition(|(t, _)| *t <= now);
        *pending = rest;
        for (_, c) in due {
            cluster.on_completion(c);
        }
    }

    #[test]
    fn transfer_thread_runs_to_completion() {
        let chunks = vec![CopyChunk {
            src: PhysAddr(0),
            dst: PhysAddr(32 << 30),
            bytes: 4096,
        }];
        let stream = XferStream::new(XferDir::DramToPim, chunks, 4);
        let thread = Thread::new(Box::new(stream), ThreadKind::Transfer);
        let mut cluster = CpuCluster::new(CpuConfig::table1(), mapper(), vec![thread]);
        let mut pending = Vec::new();
        for _ in 0..200_000 {
            cluster.tick();
            drain_and_complete(&mut cluster, 100, &mut pending);
            if cluster.kind_finished(ThreadKind::Transfer) {
                break;
            }
        }
        assert!(cluster.kind_finished(ThreadKind::Transfer));
        assert!(cluster.thread_finished_at(0).is_some());
        // 64 lines moved: 64 loads + 64 stores reached memory.
        let cs = cluster.core_stats();
        let loads: u64 = cs.iter().map(|s| s.loads_to_mem).sum();
        let stores: u64 = cs.iter().map(|s| s.stores_to_mem).sum();
        assert_eq!(loads, 64);
        assert_eq!(stores, 64);
    }

    #[test]
    fn spin_threads_share_cores_round_robin() {
        // 4 cores' worth of config with 6 spinners: all should retire work.
        let mut cfg = CpuConfig::table1();
        cfg.cores = 4;
        cfg.quantum_cycles = 1000;
        cfg.ctx_switch_cycles = 10;
        let threads: Vec<Thread> = (0..6)
            .map(|_| Thread::new(Box::new(SpinStream), ThreadKind::Compute))
            .collect();
        let mut cluster = CpuCluster::new(cfg, mapper(), threads);
        for _ in 0..10_000 {
            cluster.tick();
        }
        for t in 0..6 {
            assert!(
                cluster.threads[t].retired > 0,
                "thread {t} starved: {:?}",
                cluster.threads[t]
            );
            assert!(!cluster.thread_finished(t));
        }
    }

    #[test]
    fn active_core_sampling_tracks_load() {
        let threads = vec![Thread::new(Box::new(SpinStream), ThreadKind::Compute)];
        let mut cluster = CpuCluster::new(CpuConfig::table1(), mapper(), threads);
        for _ in 0..1000 {
            cluster.tick();
        }
        cluster.sample_active_cores();
        let (_, active) = cluster.stats().active_samples[0];
        assert_eq!(active, 1, "exactly one spinning core is active");
    }

    #[test]
    fn llc_filters_repeated_loads() {
        // A stream that hammers one line: 1 miss, then hits.
        struct OneLine(u32);
        impl crate::trace::InstrStream for OneLine {
            fn next_op(&mut self) -> Option<crate::trace::TraceOp> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(crate::trace::TraceOp::Load {
                    addr: PhysAddr(4096),
                    cacheable: true,
                })
            }
        }
        let threads = vec![Thread::new(Box::new(OneLine(50)), ThreadKind::Memory)];
        let mut cluster = CpuCluster::new(CpuConfig::table1(), mapper(), threads);
        let mut pending = Vec::new();
        let mut memory_reads = 0u64;
        for _ in 0..100_000 {
            cluster.tick();
            memory_reads += cluster.outbox_mut().len() as u64;
            drain_and_complete(&mut cluster, 50, &mut pending);
            if cluster.kind_finished(ThreadKind::Memory) {
                break;
            }
        }
        assert!(cluster.kind_finished(ThreadKind::Memory));
        // Exactly one fill reached memory: the other 49 loads merged into
        // the outstanding fill (all dispatched within the 50-cycle
        // latency) or hit after it completed.
        assert_eq!(memory_reads, 1);
        assert_eq!(cluster.llc().hits + cluster.llc().misses, 50);
    }
}
