//! The CPU cluster: cores + shared LLC + OS scheduler + memory interface.

use crate::config::CpuConfig;
use crate::core::{Core, MemOutcome, MemPort, Ticket};
use crate::llc::Llc;
use crate::os::OsScheduler;
use crate::trace::{Thread, ThreadKind, TraceOp};
use pim_dram::{AccessKind, Completion, IdRing, MemRequest, OutRequest, SourceId};
use pim_mapping::{HetMap, MemSpace, PhysAddr};
use std::collections::{BTreeMap, VecDeque};

/// Source id used for LLC writeback traffic (no owning core).
pub const WRITEBACK_SOURCE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct InFlight {
    core: u32,
    /// Handed back to the core when the request completes.
    ticket: Ticket,
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
    /// Every core request sent to memory or merged into a fill, by id.
    inflight: IdRing<InFlight>,
    /// Line index -> loads waiting on an already-outstanding fill
    /// (MSHR-style miss merging: one memory read per missing line).
    pending_fills: BTreeMap<u64, Vec<u64>>,
}

impl ClusterMem {
    /// Whether a request to `addr` may be served by the LLC: the core
    /// asked for a cacheable access and the line is in DRAM space.
    fn cacheable(&self, addr: PhysAddr, cacheable: bool) -> bool {
        cacheable && self.mapper.space_of(addr) == MemSpace::Dram
    }

    /// Whether the outbox refuses new requests (dirty writebacks may
    /// still push it past its capacity).
    fn outbox_full(&self) -> bool {
        self.outbox.len() >= self.outbox_cap
    }

    fn send(
        &mut self,
        kind: AccessKind,
        core: u32,
        addr: PhysAddr,
        ticket: Ticket,
        fill: Option<PhysAddr>,
    ) {
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
        self.inflight.insert(id, InFlight { core, ticket, fill });
    }
}

impl MemPort for ClusterMem {
    fn load(&mut self, core: u32, addr: PhysAddr, cacheable: bool, ticket: Ticket) -> MemOutcome {
        let addr = addr.line_base();
        let cacheable = self.cacheable(addr, cacheable);
        if cacheable && self.llc.probe_load(addr) {
            return MemOutcome::LlcHit;
        }
        if cacheable {
            // Merge with an outstanding fill of the same line, if any.
            if let Some(waiters) = self.pending_fills.get_mut(&addr.line()) {
                let id = self.next_id;
                self.next_id += 1;
                waiters.push(id);
                self.inflight.insert(
                    id,
                    InFlight {
                        core,
                        ticket,
                        fill: None,
                    },
                );
                return MemOutcome::Sent;
            }
        }
        if self.outbox_full() {
            return MemOutcome::Rejected;
        }
        let fill = cacheable.then_some(addr);
        if cacheable {
            self.pending_fills.insert(addr.line(), Vec::new());
        }
        self.send(AccessKind::Read, core, addr, ticket, fill);
        MemOutcome::Sent
    }

    fn store(&mut self, core: u32, addr: PhysAddr, cacheable: bool) -> MemOutcome {
        let addr = addr.line_base();
        if self.cacheable(addr, cacheable) && self.llc.probe_store(addr) {
            return MemOutcome::LlcHit;
        }
        if self.outbox_full() {
            return MemOutcome::Rejected;
        }
        // Write-no-allocate: misses (and non-temporal stores) go straight
        // to memory.
        self.send(AccessKind::Write, core, addr, Ticket::Store, None);
        MemOutcome::Sent
    }

    fn serves(&self, op: TraceOp) -> bool {
        let (addr, cacheable, load) = match op {
            TraceOp::Bubbles(_) => return true,
            TraceOp::Load { addr, cacheable } => (addr, cacheable, true),
            TraceOp::Store { addr, cacheable } => (addr, cacheable, false),
        };
        if !self.outbox_full() {
            return true;
        }
        let addr = addr.line_base();
        self.cacheable(addr, cacheable)
            && (self.llc.contains(addr) || (load && self.pending_fills.contains_key(&addr.line())))
    }

    fn refuse(&mut self, op: TraceOp, n: u64) {
        debug_assert!(!self.serves(op), "only a refused op is retried while idle");
        if let TraceOp::Load { addr, cacheable } | TraceOp::Store { addr, cacheable } = op {
            // A refused cacheable access missed the LLC on its way out.
            if self.cacheable(addr.line_base(), cacheable) {
                self.llc.count_misses(n);
            }
        }
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
                inflight: IdRing::default(),
                pending_fills: BTreeMap::new(),
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

    /// Whether the outbox refuses core requests: a core holding a load or
    /// store that misses the LLC waits until the system layer drains it.
    pub fn outbox_full(&self) -> bool {
        self.mem.outbox_full()
    }

    /// The earliest cycle at or after [`clock`](Self::clock) at which a
    /// [`tick`](Self::tick) changes state, or `None` while every core
    /// waits on a memory completion or on a full outbox (the system layer
    /// wakes the cluster when either arrives) — and for good once every
    /// thread has finished and its last ops have retired, since no thread
    /// can start mid-run.
    ///
    /// It is the current cycle if a thread reassignment is still
    /// unapplied, if a core's window head can retire, if a core can
    /// dispatch (see [`Core::next_event_cycle`]), or if memory would now
    /// serve a core's held op; otherwise the earliest pending LLC hit
    /// return, end of a context-switch stall with dispatch waiting, or
    /// OS rotation.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let now = self.clock;
        // `retire_thread` leaves the new assignment for the next tick.
        if self.sched.assignments() != self.last_assignments.as_slice() {
            return Some(now);
        }
        let mut h = self.sched.next_rotate().map(|r| r.max(now));
        for (core, &tid) in self.cores.iter().zip(&self.last_assignments) {
            let can_pull = tid.is_some_and(|t| !self.threads[t].finished);
            if let Some(e) = core.next_event_cycle(now, &self.mem, can_pull) {
                if e == now {
                    return Some(now);
                }
                h = Some(h.map_or(e, |h| h.min(e)));
            }
        }
        h
    }

    /// Catch up over `cycles` cycles short of the
    /// [`next_event_cycle`](Self::next_event_cycle) horizon — exactly
    /// equivalent to that many [`tick`](Self::tick)s. Such ticks retire,
    /// dispatch and rotate nothing, but they are not free: every core
    /// with a non-empty window is busy on each of them, and a core whose
    /// cacheable DRAM load or store the full outbox refuses probes the
    /// LLC again (a miss) on each of them.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(
            self.next_event_cycle()
                .is_none_or(|h| h >= self.clock + cycles),
            "a skip must stop short of the cluster's horizon"
        );
        for core in &mut self.cores {
            core.skip_cycles(self.clock, cycles, &mut self.mem);
        }
        self.clock += cycles;
        self.stats.cycles = self.clock;
    }

    /// Route a memory completion back to the owning core, filling the LLC
    /// for cacheable loads (which may trigger a dirty writeback).
    pub fn on_completion(&mut self, c: Completion) {
        let Some(inf) = self.mem.inflight.remove(c.id) else {
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
                    if let Some(wi) = self.mem.inflight.remove(w) {
                        self.cores[wi.core as usize].on_completion(wi.ticket);
                    }
                }
            }
        }
        self.cores[inf.core as usize].on_completion(inf.ticket);
    }

    /// Execute one core-clock cycle on all cores.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.sched.tick(now);
        let assignments = self.sched.assignments();
        // Context switches: hand stalled ops back to the thread that owns
        // them and charge the switch penalty.
        if assignments != self.last_assignments.as_slice() {
            for (c_idx, core) in self.cores.iter_mut().enumerate() {
                let old = self.last_assignments[c_idx];
                if old == assignments[c_idx] {
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
            self.last_assignments.copy_from_slice(assignments);
        }
        let mut newly_finished: Vec<usize> = Vec::new();
        for (core, &tid) in self.cores.iter_mut().zip(&self.last_assignments) {
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
    use crate::trace::TraceOp;
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

    /// A stream that replays a fixed list of ops.
    struct Script(VecDeque<TraceOp>);

    impl crate::trace::InstrStream for Script {
        fn next_op(&mut self) -> Option<TraceOp> {
            self.0.pop_front()
        }
    }

    fn script(ops: &[TraceOp]) -> Thread {
        Thread::new(
            Box::new(Script(ops.iter().copied().collect())),
            ThreadKind::Memory,
        )
    }

    fn load(line: u64) -> TraceOp {
        TraceOp::Load {
            addr: PhysAddr(line * 64),
            cacheable: true,
        }
    }

    /// Pad the outbox to its capacity with writes nobody waits on.
    fn fill_outbox(cluster: &mut CpuCluster) {
        for id in 1 << 40.. {
            if cluster.outbox_full() {
                return;
            }
            let addr = PhysAddr((1 << 20) + (id & 0xffff) * 64);
            let spaced = cluster.mem.mapper.map(addr);
            cluster.outbox_mut().push_back(OutRequest {
                space: spaced.space,
                req: MemRequest::write(id, addr, spaced.addr, SourceId(WRITEBACK_SOURCE)),
            });
        }
    }

    /// Complete request `id` as memory would.
    fn complete(cluster: &mut CpuCluster, id: u64) {
        cluster.on_completion(Completion {
            id,
            kind: AccessKind::Read,
            source: SourceId(0),
            cycle: 0,
        });
    }

    #[test]
    fn a_held_store_the_llc_can_take_is_an_event_despite_a_full_outbox() {
        // One store-buffer entry: a PIM-bound store takes it, and the
        // cacheable store behind it is held for room.
        let mut cfg = CpuConfig::table1();
        cfg.cores = 1;
        cfg.store_buffer = 1;
        let hot = 100;
        let pim_store = TraceOp::Store {
            addr: PhysAddr(32 << 30),
            cacheable: false,
        };
        let held = TraceOp::Store {
            addr: PhysAddr(hot * 64),
            cacheable: true,
        };
        let mut cluster = CpuCluster::new(cfg, mapper(), vec![script(&[pim_store, held])]);
        cluster.mem.llc.fill(PhysAddr(hot * 64), false);
        cluster.tick();
        cluster.tick(); // the posted store retires
        let sent = cluster.outbox_mut().front().expect("the PIM store").req.id;
        fill_outbox(&mut cluster);
        assert_eq!(
            cluster.next_event_cycle(),
            None,
            "held for the store buffer"
        );
        // Its completion frees the entry, and the LLC takes the held store
        // although the outbox is full.
        complete(&mut cluster, sent);
        assert_eq!(cluster.next_event_cycle(), Some(cluster.clock()));
        let hits = cluster.llc().hits;
        cluster.tick();
        assert_eq!(cluster.llc().hits, hits + 1);
        assert_eq!(cluster.core_stats()[0].stores_to_mem, 1);
    }

    #[test]
    fn a_held_load_that_can_merge_is_an_event_despite_a_full_outbox() {
        // One MSHR per core. Core 0 misses on line X and holds its next
        // load; core 1 takes an LLC hit on H, misses on Y and holds its
        // load of X.
        let mut cfg = CpuConfig::table1();
        cfg.cores = 2;
        cfg.mshrs = 1;
        let (x, h, y, z) = (100, 200, 300, 400);
        let threads = vec![
            script(&[load(x), load(z)]),
            script(&[load(h), load(y), load(x)]),
        ];
        let mut cluster = CpuCluster::new(cfg, mapper(), threads);
        cluster.mem.llc.fill(PhysAddr(h * 64), false);
        cluster.tick();
        let ids: Vec<u64> = cluster.outbox_mut().iter().map(|o| o.req.id).collect();
        assert_eq!(ids.len(), 2, "X and Y reached the outbox");
        fill_outbox(&mut cluster);
        // Y's data frees core 1's MSHR but retires nothing: the LLC hit
        // on H heads its window until the hit latency passes.
        complete(&mut cluster, ids[1]);
        assert_eq!(
            cluster.next_event_cycle(),
            Some(cluster.clock()),
            "the held load merges into core 0's fill of X"
        );
        cluster.tick();
        assert_eq!(cluster.core_stats()[1].loads_to_mem, 2);
        assert!(cluster.outbox_full(), "the merge sent nothing");
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
        // Once the last ops retire, the finished cluster sleeps for good.
        for _ in 0..100 {
            if cluster.next_event_cycle().is_none() {
                break;
            }
            cluster.tick();
        }
        assert_eq!(cluster.next_event_cycle(), None);
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
