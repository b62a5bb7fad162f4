//! The out-of-order core model (4-wide, 224-entry window, 64 MSHRs).
//!
//! Following Ramulator's trace-driven CPU: non-memory instructions occupy
//! a window slot and complete immediately; loads occupy a slot until their
//! data returns (from the LLC or memory); stores are posted. The window
//! retires in order, up to `width` per cycle, so a long-latency load at
//! the head eventually stalls the core — which is exactly how limited MLP
//! throttles the software DRAM↔PIM copy loop.

use crate::config::CpuConfig;
use crate::trace::TraceOp;
use pim_mapping::PhysAddr;
use std::collections::VecDeque;

/// What the core asks the memory side (cluster) to do for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOutcome {
    /// LLC hit: data after the hit latency, no memory traffic.
    LlcHit,
    /// Sent to memory; the op's [`Ticket`] comes back through
    /// [`Core::on_completion`] when the request completes.
    Sent,
    /// Resources exhausted (outbox full); retry next cycle.
    Rejected,
}

/// What a core needs back when one of its memory requests completes: the
/// resource to free and, for a load, the window slot its data completes.
/// The memory side keeps it beside the request, so the core holds no map
/// of its outstanding requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ticket {
    /// A load holding an MSHR; its data completes window slot `seq`.
    CacheableLoad {
        /// Window sequence number of the load.
        seq: u64,
    },
    /// An uncacheable load holding a UC-load slot; its data completes
    /// window slot `seq`.
    UcLoad {
        /// Window sequence number of the load.
        seq: u64,
    },
    /// A posted store holding a store-buffer entry.
    Store,
}

/// The memory-side services a [`Core`] needs each cycle; implemented by
/// the cluster, which owns the LLC, the HetMap and the outbox.
pub trait MemPort {
    /// Attempt a 64 B load. `cacheable` loads probe the LLC first. A load
    /// sent to memory hands `ticket` back when its data returns.
    fn load(&mut self, core: u32, addr: PhysAddr, cacheable: bool, ticket: Ticket) -> MemOutcome;
    /// Attempt a 64 B store (posted). A store sent to memory hands
    /// [`Ticket::Store`] back when it completes; an LLC store hit returns
    /// `LlcHit` and produces no traffic.
    fn store(&mut self, core: u32, addr: PhysAddr, cacheable: bool) -> MemOutcome;
    /// Whether memory would serve `op` now: `false` exactly when
    /// [`load`](Self::load)/[`store`](Self::store) would return
    /// `Rejected`. A pure read, for the core's horizon.
    fn serves(&self, op: TraceOp) -> bool;
    /// Charge `n` refused attempts at `op`: the side effects of `n`
    /// `load`/`store` calls that return `Rejected`, for a core that slept
    /// through them.
    fn refuse(&mut self, op: TraceOp, n: u64);
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (bubbles + memory ops).
    pub retired: u64,
    /// Memory loads issued past the LLC.
    pub loads_to_mem: u64,
    /// Stores issued past the LLC.
    pub stores_to_mem: u64,
    /// Cycles where at least one instruction dispatched or the window was
    /// non-empty (used for "active core" accounting, Fig. 4).
    pub busy_cycles: u64,
}

/// A single out-of-order core.
#[derive(Debug)]
pub struct Core {
    id: u32,
    cfg: CpuConfig,
    /// In-order window: `true` once the slot's instruction completed.
    window: VecDeque<bool>,
    head_seq: u64,
    next_seq: u64,
    mshr_used: u32,
    uc_used: u32,
    stores_used: u32,
    bubbles_left: u32,
    stalled_op: Option<TraceOp>,
    /// (ready_cycle, seq) of pending LLC hits, FIFO (fixed latency).
    llc_returns: VecDeque<(u64, u64)>,
    /// Dispatch blocked until this cycle (context switches).
    pub stall_until: u64,
    /// Statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Create core `id` with the given configuration.
    pub fn new(id: u32, cfg: CpuConfig) -> Self {
        Core {
            id,
            cfg,
            window: VecDeque::with_capacity(cfg.window as usize),
            head_seq: 0,
            next_seq: 0,
            mshr_used: 0,
            uc_used: 0,
            stores_used: 0,
            bubbles_left: 0,
            stalled_op: None,
            llc_returns: VecDeque::new(),
            stall_until: 0,
            stats: CoreStats::default(),
        }
    }

    /// This core's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Whether the window and all outstanding state are empty.
    pub fn drained(&self) -> bool {
        self.window.is_empty()
            && self.mshr_used == 0
            && self.uc_used == 0
            && self.stores_used == 0
            && self.stalled_op.is_none()
    }

    /// Hand back any op held back by a resource stall (plus unexecuted
    /// bubbles) when the OS migrates a different thread onto this core:
    /// the op belongs to the *thread* and must not be lost. The in-flight
    /// window is allowed to drain naturally.
    pub fn take_stalled_op(&mut self) -> Option<TraceOp> {
        if self.bubbles_left > 0 {
            let n = self.bubbles_left;
            self.bubbles_left = 0;
            debug_assert!(
                self.stalled_op.is_none(),
                "bubbles and stalled op never coexist"
            );
            return Some(TraceOp::Bubbles(n));
        }
        self.stalled_op.take()
    }

    fn mark_done(&mut self, seq: u64) {
        let idx = (seq - self.head_seq) as usize;
        if let Some(slot) = self.window.get_mut(idx) {
            *slot = true;
        }
    }

    /// Route a memory completion (read data or posted-store retirement)
    /// back into the window: free the ticket's resource and complete its
    /// load's slot.
    pub fn on_completion(&mut self, ticket: Ticket) {
        match ticket {
            Ticket::CacheableLoad { seq } => {
                self.mshr_used -= 1;
                self.mark_done(seq);
            }
            Ticket::UcLoad { seq } => {
                self.uc_used -= 1;
                self.mark_done(seq);
            }
            Ticket::Store => {
                self.stores_used -= 1;
            }
        }
    }

    /// Whether the window has a free slot to dispatch into.
    fn window_has_room(&self) -> bool {
        (self.window.len() as u32) < self.cfg.window
    }

    /// Whether the core-side resource `op` needs is free: an MSHR for a
    /// cacheable load, a UC-load slot for an uncacheable one, a
    /// store-buffer entry for a store.
    fn has_room(&self, op: TraceOp) -> bool {
        match op {
            TraceOp::Bubbles(_) => true,
            TraceOp::Load {
                cacheable: true, ..
            } => self.mshr_used < self.cfg.mshrs,
            TraceOp::Load {
                cacheable: false, ..
            } => self.uc_used < self.cfg.uc_loads,
            TraceOp::Store { .. } => self.stores_used < self.cfg.store_buffer,
        }
    }

    /// The earliest cycle at or after `now` at which a
    /// [`tick`](Self::tick) would change this core's state, or `None`
    /// while the core waits only on a memory completion or on a full
    /// outbox. That is `now` if the window head can retire; the earliest
    /// pending LLC hit return; and `max(now, stall_until)` if the core can
    /// dispatch there: its window has room and it has bubbles left, a held
    /// op that both its own resources and `mem` would now take, or (with
    /// `can_pull`) an unfinished thread to pull the next op from.
    pub fn next_event_cycle(&self, now: u64, mem: &dyn MemPort, can_pull: bool) -> Option<u64> {
        if self.window.front() == Some(&true) {
            return Some(now);
        }
        let dispatch = self.window_has_room()
            && match self.stalled_op {
                Some(op) => self.has_room(op) && mem.serves(op),
                None => self.bubbles_left > 0 || can_pull,
            };
        let dispatch = dispatch.then(|| now.max(self.stall_until));
        let llc = self.llc_returns.front().map(|&(t, _)| t.max(now));
        [dispatch, llc].into_iter().flatten().min()
    }

    /// Catch up over the `n` cycles from `now` on, none of which
    /// [`next_event_cycle`](Self::next_event_cycle) lets act: exactly `n`
    /// idle ticks. A non-empty window keeps the core busy on each of
    /// them, and a held op its resources would take is retried and
    /// refused by `mem` on each of them from `stall_until` on.
    pub fn skip_cycles(&mut self, now: u64, n: u64, mem: &mut dyn MemPort) {
        if !self.window.is_empty() {
            self.stats.busy_cycles += n;
        }
        if let Some(op) = self.stalled_op {
            let retries = (now + n).saturating_sub(now.max(self.stall_until));
            if retries > 0 && self.window_has_room() && self.has_room(op) {
                mem.refuse(op, retries);
            }
        }
    }

    /// Execute one core cycle: retire, then dispatch from `stream_op`
    /// (a pull-based source for the current thread's ops; `None` = no
    /// thread or thread exhausted). Returns the number of instructions
    /// retired this cycle.
    pub fn tick<F>(&mut self, now: u64, mem: &mut dyn MemPort, mut stream_op: F) -> u32
    where
        F: FnMut() -> Option<TraceOp>,
    {
        // LLC hit data returns.
        while let Some(&(t, seq)) = self.llc_returns.front() {
            if t > now {
                break;
            }
            self.llc_returns.pop_front();
            self.mark_done(seq);
        }

        // Retire in order.
        let mut retired = 0;
        while retired < self.cfg.width {
            match self.window.front() {
                Some(true) => {
                    self.window.pop_front();
                    self.head_seq += 1;
                    retired += 1;
                }
                _ => break,
            }
        }
        self.stats.retired += retired as u64;

        // Dispatch.
        let mut dispatched = 0;
        if now >= self.stall_until {
            while dispatched < self.cfg.width && self.window_has_room() {
                if self.bubbles_left > 0 {
                    self.bubbles_left -= 1;
                    self.window.push_back(true);
                    self.next_seq += 1;
                    dispatched += 1;
                    continue;
                }
                let op = match self.stalled_op.take().or_else(&mut stream_op) {
                    Some(op) => op,
                    None => break,
                };
                if !self.has_room(op) {
                    self.stalled_op = Some(op);
                    break;
                }
                match op {
                    TraceOp::Bubbles(n) => {
                        // Consumed on the next loop iteration(s).
                        self.bubbles_left = n;
                    }
                    TraceOp::Load { addr, cacheable } => {
                        let seq = self.next_seq;
                        let ticket = if cacheable {
                            Ticket::CacheableLoad { seq }
                        } else {
                            Ticket::UcLoad { seq }
                        };
                        match mem.load(self.id, addr, cacheable, ticket) {
                            MemOutcome::LlcHit => {
                                self.llc_returns
                                    .push_back((now + self.cfg.llc_latency as u64, seq));
                            }
                            MemOutcome::Sent => {
                                if cacheable {
                                    self.mshr_used += 1;
                                } else {
                                    self.uc_used += 1;
                                }
                                self.stats.loads_to_mem += 1;
                            }
                            MemOutcome::Rejected => {
                                self.stalled_op = Some(op);
                                break;
                            }
                        }
                        self.window.push_back(false);
                        self.next_seq += 1;
                        dispatched += 1;
                    }
                    TraceOp::Store { addr, cacheable } => {
                        match mem.store(self.id, addr, cacheable) {
                            MemOutcome::LlcHit => {}
                            MemOutcome::Sent => {
                                self.stores_used += 1;
                                self.stats.stores_to_mem += 1;
                            }
                            MemOutcome::Rejected => {
                                self.stalled_op = Some(op);
                                break;
                            }
                        }
                        // Posted: the slot completes immediately.
                        self.window.push_back(true);
                        self.next_seq += 1;
                        dispatched += 1;
                    }
                }
            }
        }
        if dispatched > 0 || !self.window.is_empty() {
            self.stats.busy_cycles += 1;
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A MemPort with scriptable behavior.
    struct FakeMem {
        reject: bool,
        llc_hit: bool,
        sent: Vec<(PhysAddr, bool)>,
        /// The ticket of each request in `sent`.
        tickets: Vec<Ticket>,
        /// Refused attempts charged by skips.
        refused: u64,
    }

    impl FakeMem {
        fn new() -> Self {
            FakeMem {
                reject: false,
                llc_hit: false,
                sent: Vec::new(),
                tickets: Vec::new(),
                refused: 0,
            }
        }
    }

    impl MemPort for FakeMem {
        fn load(&mut self, _c: u32, addr: PhysAddr, cacheable: bool, ticket: Ticket) -> MemOutcome {
            if self.reject {
                return MemOutcome::Rejected;
            }
            if self.llc_hit && cacheable {
                return MemOutcome::LlcHit;
            }
            self.sent.push((addr, cacheable));
            self.tickets.push(ticket);
            MemOutcome::Sent
        }
        fn store(&mut self, _c: u32, addr: PhysAddr, cacheable: bool) -> MemOutcome {
            if self.reject {
                return MemOutcome::Rejected;
            }
            self.sent.push((addr, cacheable));
            self.tickets.push(Ticket::Store);
            MemOutcome::Sent
        }
        fn serves(&self, _op: TraceOp) -> bool {
            !self.reject
        }
        fn refuse(&mut self, _op: TraceOp, n: u64) {
            self.refused += n;
        }
    }

    fn cfg() -> CpuConfig {
        CpuConfig::table1()
    }

    #[test]
    fn bubbles_retire_at_width() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        let mut ops = vec![TraceOp::Bubbles(40)].into_iter();
        let mut retired = 0;
        for now in 0..30 {
            retired += core.tick(now, &mut mem, || ops.next());
        }
        // 40 bubbles at width 4: all retired within 30 cycles.
        assert_eq!(retired, 40);
    }

    #[test]
    fn load_blocks_retirement_until_completion() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        let mut ops = vec![
            TraceOp::Load {
                addr: PhysAddr(0),
                cacheable: true,
            },
            TraceOp::Bubbles(8),
        ]
        .into_iter();
        let mut retired = 0;
        for now in 0..20 {
            retired += core.tick(now, &mut mem, || ops.next());
        }
        // The load heads the window: nothing retires.
        assert_eq!(retired, 0);
        assert_eq!(mem.sent.len(), 1);
        assert_eq!(mem.tickets[0], Ticket::CacheableLoad { seq: 0 });
        core.on_completion(mem.tickets[0]);
        let mut total = 0;
        for now in 20..30 {
            total += core.tick(now, &mut mem, || None);
        }
        assert_eq!(total, 9); // load + 8 bubbles
        assert!(core.drained());
    }

    #[test]
    fn uc_load_limit_throttles_pim_reads() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        let mk = |i: u64| TraceOp::Load {
            addr: PhysAddr(i * 64),
            cacheable: false,
        };
        let mut i = 0u64;
        for now in 0..50 {
            core.tick(now, &mut mem, || {
                i += 1;
                Some(mk(i))
            });
        }
        // Only uc_loads (4) may be outstanding.
        assert_eq!(mem.sent.len() as u32, cfg().uc_loads);
    }

    #[test]
    fn cacheable_loads_overlap_up_to_mshrs() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        let mut i = 0u64;
        for now in 0..200 {
            core.tick(now, &mut mem, || {
                i += 1;
                Some(TraceOp::Load {
                    addr: PhysAddr(i * 64),
                    cacheable: true,
                })
            });
        }
        // Bounded by MSHRs (64) and window (224): with loads only, MSHRs
        // bind first.
        assert_eq!(mem.sent.len() as u32, cfg().mshrs);
    }

    #[test]
    fn stores_are_posted_and_bounded() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        let mut i = 0u64;
        let mut retired = 0;
        for now in 0..100 {
            retired += core.tick(now, &mut mem, || {
                i += 1;
                Some(TraceOp::Store {
                    addr: PhysAddr(i * 64),
                    cacheable: false,
                })
            });
        }
        // Store buffer caps outstanding stores...
        assert_eq!(mem.sent.len() as u32, cfg().store_buffer);
        // ...but those issued retired immediately.
        assert_eq!(retired, cfg().store_buffer);
        core.on_completion(mem.tickets[0]);
        core.tick(1000, &mut mem, || None);
        assert_eq!(mem.sent.len() as u32, cfg().store_buffer + 1);
    }

    #[test]
    fn rejection_stalls_without_losing_ops() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        mem.reject = true;
        let mut served = 0;
        core.tick(0, &mut mem, || {
            served += 1;
            Some(TraceOp::Load {
                addr: PhysAddr(64),
                cacheable: true,
            })
        });
        assert_eq!(served, 1);
        assert!(mem.sent.is_empty());
        mem.reject = false;
        core.tick(1, &mut mem, || None);
        assert_eq!(mem.sent.len(), 1, "stalled op must replay");
    }

    #[test]
    fn llc_hits_complete_after_hit_latency() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        mem.llc_hit = true;
        let mut ops = vec![TraceOp::Load {
            addr: PhysAddr(0),
            cacheable: true,
        }]
        .into_iter();
        let mut retired_at = None;
        for now in 0..100 {
            let r = core.tick(now, &mut mem, || ops.next());
            if r > 0 && retired_at.is_none() {
                retired_at = Some(now);
            }
        }
        // Dispatched at cycle 0, data at `lat`, retired the same cycle
        // (returns are processed before retirement).
        let lat = cfg().llc_latency as u64;
        assert_eq!(retired_at, Some(lat));
        assert!(mem.sent.is_empty());
    }

    #[test]
    fn horizon_sleeps_on_memory_and_skip_charges_refusals() {
        let mut core = Core::new(0, cfg());
        let mut mem = FakeMem::new();
        let load = TraceOp::Load {
            addr: PhysAddr(64),
            cacheable: true,
        };
        let mut ops = vec![load, load].into_iter();
        core.tick(0, &mut mem, || ops.next());
        // One load sent, its twin dispatched right behind it.
        assert_eq!(mem.sent.len(), 2);
        // Both wait on memory, and the (empty) thread is not pullable:
        // nothing can happen until a completion arrives.
        assert_eq!(core.next_event_cycle(1, &mem, false), None);
        // A pullable thread, though, is work at once.
        assert_eq!(core.next_event_cycle(1, &mem, true), Some(1));
        // A context switch defers that dispatch to the end of the stall.
        core.stall_until = 40;
        assert_eq!(core.next_event_cycle(1, &mem, true), Some(40));

        // A held op that memory refuses is no event, but a skip charges
        // one refusal per cycle from the end of the stall on.
        core.stall_until = 0;
        mem.reject = true;
        let mut more = vec![load].into_iter();
        core.tick(1, &mut mem, || more.next());
        assert_eq!(core.next_event_cycle(2, &mem, false), None);
        core.stall_until = 10;
        let busy = core.stats.busy_cycles;
        core.skip_cycles(2, 20, &mut mem);
        assert_eq!(mem.refused, 12, "cycles 10..22 retry the held load");
        assert_eq!(
            core.stats.busy_cycles,
            busy + 20,
            "a non-empty window is busy"
        );
        // Room in memory makes the held op an event at once.
        mem.reject = false;
        assert_eq!(core.next_event_cycle(22, &mem, false), Some(22));
    }
}
