//! Per-channel FR-FCFS memory controller.

use crate::channel::ChannelState;
use crate::request::{AccessKind, Completion, MemRequest};
use crate::stats::ChannelStats;
use crate::timing::{Command, TimingParams};
use crate::validate::IssuedCmd;
use pim_mapping::{DramAddr, Organization};
use std::collections::VecDeque;

/// Controller policy knobs (Table I: 64-entry read & write request queues,
/// FR-FCFS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Read request queue capacity.
    pub read_q_cap: usize,
    /// Write request queue capacity.
    pub write_q_cap: usize,
    /// Entering write-drain mode at this write-queue occupancy.
    pub write_hi_watermark: usize,
    /// Leaving write-drain mode at this occupancy. Must be below
    /// `write_hi_watermark`, or the mode could flip on every idle tick
    /// and [`MemController::skip_cycles`] would not match ticking.
    pub write_lo_watermark: usize,
    /// Whether refresh is modeled.
    pub refresh: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            read_q_cap: 64,
            write_q_cap: 64,
            write_hi_watermark: 48,
            write_lo_watermark: 16,
            refresh: true,
        }
    }
}

/// "No entry" in a [`BankQueue`]'s index links.
const NIL: u32 = u32::MAX;

/// A queued request and its links in its bank's arrival-order FIFO.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: MemRequest,
    /// Arrival order over the controller: FR-FCFS's "first come".
    seq: u64,
    /// Set once the controller has issued an ACT or PRE on behalf of this
    /// request (row-hit/miss/conflict classification).
    needed_act: bool,
    /// The bank's next older request, `NIL` at the head.
    prev: u32,
    /// The bank's next newer request, `NIL` at the tail; in a free slot,
    /// the next free slot.
    next: u32,
}

/// One bank's requests in a [`BankQueue`].
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Oldest request, `NIL` if none.
    head: u32,
    /// Newest request, `NIL` if none.
    tail: u32,
    /// Oldest request to the bank's open row, `NIL` if the bank is
    /// closed or no request wants that row.
    hit: u32,
}

/// One request queue (the reads or the writes), bucketed by bank.
///
/// Requests live in a slab grown on demand up to the queue's capacity.
/// Each bank threads its requests into a FIFO in arrival order through
/// the slab's index links, and caches its oldest request to its open
/// row, so a bank's FR-FCFS candidate — its oldest hit, else its oldest
/// request — takes no walk to find. A bitset marks the banks with
/// requests, and a scan visits only those.
#[derive(Debug, Clone)]
struct BankQueue {
    slab: Vec<Pending>,
    /// First free slab slot, linked through [`Pending::next`].
    free: u32,
    len: usize,
    banks: Vec<Bucket>,
    /// One bit per bank: set while the bank has requests.
    active: Vec<u64>,
}

impl BankQueue {
    fn new(banks: usize) -> Self {
        let empty = Bucket {
            head: NIL,
            tail: NIL,
            hit: NIL,
        };
        BankQueue {
            slab: Vec::new(),
            free: NIL,
            len: 0,
            banks: vec![empty; banks],
            active: vec![0; banks.div_ceil(64)],
        }
    }

    /// The banks with requests, in bank order.
    fn active_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    b
                })
            })
        })
    }

    /// Bank `b`'s FR-FCFS candidate: its oldest hit, else its oldest
    /// request.
    fn lead(&self, b: usize) -> &Pending {
        let bucket = &self.banks[b];
        let i = if bucket.hit != NIL {
            bucket.hit
        } else {
            bucket.head
        };
        &self.slab[i as usize]
    }

    /// Append `req` to bank `b`'s FIFO; `hit` says whether it wants the
    /// bank's open row.
    fn push(&mut self, req: MemRequest, seq: u64, b: usize, hit: bool) {
        let tail = self.banks[b].tail;
        let p = Pending {
            req,
            seq,
            needed_act: false,
            prev: tail,
            next: NIL,
        };
        let i = if self.free == NIL {
            self.slab.push(p);
            u32::try_from(self.slab.len() - 1).expect("queue capacity fits u32")
        } else {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = p;
            i
        };
        if tail == NIL {
            self.banks[b].head = i;
            self.active[b / 64] |= 1 << (b % 64);
        } else {
            self.slab[tail as usize].next = i;
        }
        let bucket = &mut self.banks[b];
        bucket.tail = i;
        if hit && bucket.hit == NIL {
            bucket.hit = i;
        }
        self.len += 1;
    }

    /// Unlink and return bank `b`'s oldest hit.
    fn take_hit(&mut self, b: usize) -> Pending {
        let i = self.banks[b].hit;
        let p = self.slab[i as usize];
        if p.prev == NIL {
            self.banks[b].head = p.next;
        } else {
            self.slab[p.prev as usize].next = p.next;
        }
        if p.next == NIL {
            self.banks[b].tail = p.prev;
        } else {
            self.slab[p.next as usize].prev = p.prev;
        }
        // Every newer hit sits behind this one.
        self.banks[b].hit = self.first_to_row(p.next, p.req.addr.row);
        self.slab[i as usize].next = self.free;
        self.free = i;
        self.len -= 1;
        if self.banks[b].head == NIL {
            self.active[b / 64] &= !(1 << (b % 64));
        }
        p
    }

    /// The first request to `row` from slot `i` on in its bank's FIFO.
    fn first_to_row(&self, mut i: u32, row: u64) -> u32 {
        while i != NIL && self.slab[i as usize].req.addr.row != row {
            i = self.slab[i as usize].next;
        }
        i
    }

    /// Bank `b` opened `row`.
    fn opened(&mut self, b: usize, row: u64) {
        self.banks[b].hit = self.first_to_row(self.banks[b].head, row);
    }

    /// Bank `b` closed.
    fn closed(&mut self, b: usize) {
        self.banks[b].hit = NIL;
    }
}

/// A per-channel FR-FCFS memory controller over a [`ChannelState`].
///
/// One command is issued per memory-clock cycle at most. Reads complete
/// when their last data beat returns (`CL + BL`); writes are posted and
/// complete when the write burst leaves the data bus (`CWL + BL`) — the
/// Data Copy Engine uses write completions for buffer accounting.
///
/// The controller services reads first and drains writes in batches
/// governed by watermarks, the standard technique to amortize bus
/// turnaround. Refresh is per-rank with deadlines staggered across ranks;
/// while a rank has a refresh due, FR-FCFS issues no ACT or PRE to it (a
/// ready row hit still reads or writes).
///
/// Each queue is bucketed by bank (an arrival-order FIFO per bank, and
/// each bank's oldest request to its open row kept current on enqueue,
/// column issue, ACT and PRE), so choosing a command and computing the
/// horizon visit the banks with requests, one candidate each, rather
/// than every queued request.
#[derive(Debug, Clone)]
pub struct MemController {
    state: ChannelState,
    cfg: ControllerConfig,
    clock: u64,
    reads: BankQueue,
    writes: BankQueue,
    /// Arrival stamp of the next enqueued request.
    next_seq: u64,
    draining: bool,
    read_returns: VecDeque<(u64, Completion)>,
    write_returns: VecDeque<(u64, Completion)>,
    completions: Vec<Completion>,
    stats: ChannelStats,
    command_log: Option<Vec<IssuedCmd>>,
    /// Cached minimum of the per-rank refresh deadlines. Deadlines only
    /// move when a REF is issued (rare), so maintaining the minimum
    /// there keeps [`next_event_cycle`](Self::next_event_cycle) O(1) in
    /// the rank count on the hot idle-skip path.
    refresh_min: u64,
    /// Memo of [`event_horizon`](Self::event_horizon), `None` when stale.
    /// Its inputs change only in [`tick`](Self::tick) and
    /// [`enqueue`](Self::enqueue), which clear it.
    horizon: Option<u64>,
}

impl MemController {
    /// Create a controller with default policy.
    pub fn new(org: Organization, timing: TimingParams) -> Self {
        MemController::with_config(org, timing, ControllerConfig::default())
    }

    /// Create a controller with explicit policy knobs.
    pub fn with_config(org: Organization, timing: TimingParams, cfg: ControllerConfig) -> Self {
        debug_assert!(
            cfg.write_lo_watermark < cfg.write_hi_watermark,
            "write-drain watermarks need lo < hi"
        );
        let mut state = ChannelState::new(org, timing);
        // Stagger refresh deadlines across ranks so they do not all stall
        // the channel simultaneously.
        let n = org.ranks as u64;
        let mut refresh_min = u64::MAX;
        for r in 0..org.ranks {
            let share = timing.refi * (r as u64 + 1) / n;
            let dl = share.max(1);
            state.rank_mut(r).refresh_deadline = dl;
            refresh_min = refresh_min.min(dl);
        }
        let banks = org.banks_per_channel() as usize;
        MemController {
            state,
            cfg,
            clock: 0,
            reads: BankQueue::new(banks),
            writes: BankQueue::new(banks),
            next_seq: 0,
            draining: false,
            read_returns: VecDeque::new(),
            write_returns: VecDeque::new(),
            completions: Vec::new(),
            stats: ChannelStats::default(),
            command_log: None,
            refresh_min,
            horizon: None,
        }
    }

    /// Start recording every issued command (for timing validation in
    /// tests). Costs memory proportional to the trace length.
    pub fn enable_command_log(&mut self) {
        self.command_log = Some(Vec::new());
    }

    /// The recorded command trace, if logging was enabled.
    pub fn command_log(&self) -> Option<&[IssuedCmd]> {
        self.command_log.as_deref()
    }

    /// Issue `cmd` to the channel, and keep both queues' open-row hits
    /// current across an ACT or PRE.
    fn issue_cmd(&mut self, cmd: Command, addr: &DramAddr, now: u64) {
        self.state.issue(cmd, addr, now);
        match cmd {
            Command::Act => {
                let b = bank_index(self.state.organization(), addr);
                self.reads.opened(b, addr.row);
                self.writes.opened(b, addr.row);
            }
            Command::Pre => {
                let b = bank_index(self.state.organization(), addr);
                self.reads.closed(b);
                self.writes.closed(b);
            }
            Command::Ref => {
                // The refreshed rank's deadline just advanced by tREFI;
                // re-derive the cached minimum. REFs are rare (µs apart),
                // so this walk is off the hot path.
                let mut min = u64::MAX;
                for r in 0..self.state.organization().ranks {
                    min = min.min(self.state.rank(r).refresh_deadline);
                }
                self.refresh_min = min;
            }
            Command::Rd | Command::Wr => {}
        }
        if let Some(log) = &mut self.command_log {
            log.push(IssuedCmd {
                cmd,
                addr: *addr,
                cycle: now,
            });
        }
    }

    /// Current memory-clock cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Timing parameters in force.
    pub fn timing(&self) -> &TimingParams {
        self.state.timing()
    }

    /// The underlying channel state (for inspection/testing).
    pub fn channel_state(&self) -> &ChannelState {
        &self.state
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Mutable statistics (for window sampling by the system layer).
    pub fn stats_mut(&mut self) -> &mut ChannelStats {
        &mut self.stats
    }

    /// The earliest cycle at or after `clock` at which a tick does real
    /// work, or `None` if the controller is fully drained and refresh is
    /// not modeled. That is the current cycle while completions are
    /// undrained; otherwise the earliest of the next data return, the
    /// next rank refresh deadline, and the first cycle at which
    /// FR-FCFS could issue a command from the queue the next tick's
    /// drain mode selects (a row hit at RD/WR, a closed bank at ACT, a
    /// request blocked by another open row at PRE unless a queued hit
    /// wants that row).
    ///
    /// None of those inputs changes until a tick issues a command or
    /// retires a return, or a request is enqueued, so every cycle before
    /// the returned horizon is an idle tick, and a scheduler may skip
    /// them via [`skip_cycles`](Self::skip_cycles) without changing any
    /// result. The value is memoized until the next tick or enqueue.
    pub fn next_event_cycle(&mut self) -> Option<u64> {
        if !self.completions.is_empty() {
            return Some(self.clock);
        }
        let h = match self.horizon {
            Some(h) => {
                debug_assert_eq!(
                    h.max(self.clock),
                    self.event_horizon().max(self.clock),
                    "stale controller horizon memo"
                );
                h
            }
            None => {
                let h = self.event_horizon();
                self.horizon = Some(h);
                h
            }
        };
        (h != u64::MAX).then(|| h.max(self.clock))
    }

    /// The uncached horizon behind
    /// [`next_event_cycle`](Self::next_event_cycle), `u64::MAX` for none.
    /// Any value at or before `clock` means "now".
    fn event_horizon(&self) -> u64 {
        let mut h = u64::MAX;
        // Returns are pushed in issue order with uniform latency per
        // kind, so each deque's front is its earliest due time.
        if let Some(&(t, _)) = self.read_returns.front() {
            h = h.min(t);
        }
        if let Some(&(t, _)) = self.write_returns.front() {
            h = h.min(t);
        }
        if self.cfg.refresh {
            h = h.min(self.refresh_min);
        }
        if h <= self.clock {
            return h;
        }
        self.issue_horizon(h)
    }

    /// `bound` lowered to the first cycle at which
    /// [`schedule`](Self::schedule) would issue a command if the channel
    /// and queues stayed as they are: the earliest next command over the
    /// selected queue's bank candidates. Before `bound` no refresh is
    /// due, so no rank blocks an ACT or PRE.
    fn issue_horizon(&self, bound: u64) -> u64 {
        let (q, col) = self.queue(self.next_draining());
        let mut h = bound;
        for b in q.active_banks() {
            h = h.min(self.state.next_command(col, &q.lead(b).req.addr).1);
            if h <= self.clock {
                break;
            }
        }
        h
    }

    /// Catch up over `cycles` idle cycles at once: exactly equivalent to
    /// that many [`tick`](Self::tick)s that retire, refresh and issue
    /// nothing (the window before
    /// [`next_event_cycle`](Self::next_event_cycle)). Each such tick
    /// still adds the queue lengths to the occupancy sums and applies
    /// the write-drain mode update; the update is idempotent while the
    /// queues stand still, so applying it once covers the span.
    pub fn skip_cycles(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.clock += cycles;
        self.stats.elapsed_cycles += cycles;
        self.stats.read_q_occupancy_sum += self.reads.len as u64 * cycles;
        self.stats.write_q_occupancy_sum += self.writes.len as u64 * cycles;
        self.update_drain_mode();
    }

    /// Whether a request of `kind` can currently be accepted.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.reads.len < self.cfg.read_q_cap,
            AccessKind::Write => self.writes.len < self.cfg.write_q_cap,
        }
    }

    /// Number of requests in flight (queued or awaiting data return).
    pub fn inflight(&self) -> usize {
        self.reads.len + self.writes.len + self.read_returns.len() + self.write_returns.len()
    }

    /// Whether all queues and in-flight buffers are empty.
    pub fn idle(&self) -> bool {
        self.inflight() == 0
    }

    /// Enqueue a request.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` (handing the request back) if the corresponding
    /// queue is full; the caller must retry on a later cycle, modeling
    /// back-pressure toward the cores / DCE.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        if !self.can_accept(req.kind) {
            return Err(req);
        }
        let b = bank_index(self.state.organization(), &req.addr);
        let hit = self.state.open_row(&req.addr) == Some(req.addr.row);
        let q = match req.kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
        };
        q.push(req, self.next_seq, b, hit);
        self.next_seq += 1;
        self.horizon = None;
        Ok(())
    }

    /// Take all completions produced since the last call. The buffer
    /// keeps its capacity, so draining a steady stream of completions
    /// allocates nothing.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.completions.drain(..)
    }

    /// Advance one memory-clock cycle: retire returning data, service
    /// refresh, then issue at most one command chosen by FR-FCFS.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.stats.elapsed_cycles += 1;
        self.stats.read_q_occupancy_sum += self.reads.len as u64;
        self.stats.write_q_occupancy_sum += self.writes.len as u64;

        while let Some(&(t, c)) = self.read_returns.front() {
            if t > now {
                break;
            }
            self.read_returns.pop_front();
            self.completions.push(c);
        }
        while let Some(&(t, c)) = self.write_returns.front() {
            if t > now {
                break;
            }
            self.write_returns.pop_front();
            self.completions.push(c);
        }

        let issued = self.cfg.refresh && self.service_refresh(now);
        if !issued {
            self.schedule(now);
        }
        self.clock += 1;
        self.horizon = None;
    }

    /// Whether `rank` currently has a refresh due (blocks new activates).
    fn refresh_due(&self, rank: u32) -> bool {
        self.cfg.refresh && self.clock >= self.state.rank(rank).refresh_deadline
    }

    /// Progress refresh for the most overdue rank. Returns `true` if a
    /// command was issued this cycle.
    fn service_refresh(&mut self, now: u64) -> bool {
        let org = *self.state.organization();
        let mut target: Option<u32> = None;
        let mut best = u64::MAX;
        for r in 0..org.ranks {
            let dl = self.state.rank(r).refresh_deadline;
            if now >= dl && dl < best {
                best = dl;
                target = Some(r);
            }
        }
        let Some(r) = target else { return false };
        if self.state.rank(r).all_banks_closed() {
            let addr = DramAddr {
                rank: r,
                ..DramAddr::default()
            };
            if self.state.can_issue(Command::Ref, &addr, now) {
                self.issue_cmd(Command::Ref, &addr, now);
                self.stats.refreshes += 1;
                return true;
            }
            return false;
        }
        // Precharge open banks one at a time.
        let pre = self
            .state
            .rank(r)
            .open_banks()
            .map(|(g, b)| DramAddr {
                rank: r,
                bank_group: g,
                bank: b,
                ..DramAddr::default()
            })
            .find(|addr| self.state.can_issue(Command::Pre, addr, now));
        let Some(addr) = pre else { return false };
        self.issue_cmd(Command::Pre, &addr, now);
        self.stats.precharges += 1;
        true
    }

    fn update_drain_mode(&mut self) {
        self.draining = self.next_draining();
    }

    /// The drain mode the next [`update_drain_mode`](Self::update_drain_mode)
    /// selects. With `write_lo_watermark < write_hi_watermark` it is a
    /// fixed point: a second update with the same queues keeps it.
    fn next_draining(&self) -> bool {
        let (reads, writes) = (self.reads.len, self.writes.len);
        if self.draining {
            !(writes == 0 || (writes <= self.cfg.write_lo_watermark && reads > 0))
        } else {
            writes >= self.cfg.write_hi_watermark || (reads == 0 && writes > 0)
        }
    }

    /// The queue a drain mode selects, and its column command.
    fn queue(&self, draining: bool) -> (&BankQueue, Command) {
        if draining {
            (&self.writes, Command::Wr)
        } else {
            (&self.reads, Command::Rd)
        }
    }

    /// FR-FCFS over the queue the drain mode selects (see
    /// [`pick`](Self::pick)). The other queue waits even when this one
    /// cannot issue: one queue per cycle keeps the model simple and
    /// matches a single command bus.
    fn schedule(&mut self, now: u64) {
        self.update_drain_mode();
        let Some((cmd, b)) = self.pick(now, self.draining) else {
            return;
        };
        let q = if self.draining {
            &mut self.writes
        } else {
            &mut self.reads
        };
        if matches!(cmd, Command::Rd | Command::Wr) {
            let p = q.take_hit(b);
            self.issue_column(now, cmd, p);
            return;
        }
        let head = q.banks[b].head as usize;
        q.slab[head].needed_act = true;
        let addr = q.slab[head].req.addr;
        self.issue_cmd(cmd, &addr, now);
        if cmd == Command::Act {
            self.stats.activates += 1;
        } else {
            self.stats.precharges += 1;
            self.stats.row_conflicts += 1;
        }
    }

    /// FR-FCFS's command at `now` from the queue `draining` selects, and
    /// the bank it goes to: the oldest row hit that can issue; else an
    /// ACT for the oldest request whose bank is closed; else a PRE for
    /// the oldest request blocked by another open row that no queued
    /// request of the queue wants. ACT and PRE skip a rank with a
    /// refresh due. Each bank offers one candidate, its oldest hit or
    /// else its oldest request, and "oldest" compares arrival stamps.
    fn pick(&self, now: u64, draining: bool) -> Option<(Command, usize)> {
        let (q, col) = self.queue(draining);
        // (arrival stamp, bank) of the best candidate per command kind.
        let mut hit = (u64::MAX, 0);
        let mut act = (u64::MAX, 0);
        let mut pre = (u64::MAX, 0);
        for b in q.active_banks() {
            let p = q.lead(b);
            if q.banks[b].hit != NIL {
                if p.seq < hit.0 && self.state.earliest(col, &p.req.addr) <= now {
                    hit = (p.seq, b);
                }
                continue;
            }
            // A ready hit beats every ACT and PRE, and an ACT every PRE.
            if hit.0 != u64::MAX || p.seq > act.0 {
                continue;
            }
            let (cmd, t) = self.state.next_command(col, &p.req.addr);
            debug_assert_ne!(cmd, col, "stale open-row hit in bank {b}");
            if t > now || self.refresh_due(p.req.addr.rank) {
                continue;
            }
            if cmd == Command::Act {
                act = (p.seq, b);
            } else if p.seq < pre.0 {
                pre = (p.seq, b);
            }
        }
        [(col, hit), (Command::Act, act), (Command::Pre, pre)]
            .into_iter()
            .find(|&(_, (seq, _))| seq != u64::MAX)
            .map(|(cmd, (_, b))| (cmd, b))
    }

    fn issue_column(&mut self, now: u64, cmd: Command, p: Pending) {
        self.issue_cmd(cmd, &p.req.addr, now);
        let t = *self.state.timing();
        self.stats.busy_data_cycles += t.bl;
        if p.needed_act {
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
        let completion_cycle = match cmd {
            Command::Rd => now + t.read_latency(),
            Command::Wr => now + t.write_latency(),
            _ => unreachable!("issue_column only handles RD/WR"),
        };
        let c = Completion {
            id: p.req.id,
            kind: p.req.kind,
            source: p.req.source,
            cycle: completion_cycle,
        };
        match cmd {
            Command::Rd => {
                self.stats.reads += 1;
                self.read_returns.push_back((completion_cycle, c));
            }
            Command::Wr => {
                self.stats.writes += 1;
                self.write_returns.push_back((completion_cycle, c));
            }
            _ => unreachable!(),
        }
    }
}

/// Position of `addr`'s bank among the channel's banks.
fn bank_index(org: &Organization, addr: &DramAddr) -> usize {
    ((addr.rank * org.bank_groups + addr.bank_group) * org.banks + addr.bank) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_mapping::{LocalityCentric, MapFn, MlpCentric, PhysAddr};
    use proptest::prelude::*;

    fn run_stream(
        org: Organization,
        mapper: &dyn MapFn,
        kind: AccessKind,
        lines: u64,
        stride: u64,
        channel: u32,
    ) -> (u64, ChannelStats) {
        let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
        let mut next = 0u64;
        let mut issued = 0u64;
        let mut done = 0u64;
        let mut cycle = 0u64;
        while done < lines {
            // Keep the queue fed.
            while issued < lines {
                let phys = PhysAddr(next);
                let a = mapper.map(phys);
                if a.channel != channel {
                    next += stride;
                    continue;
                }
                let req = match kind {
                    AccessKind::Read => MemRequest::read(issued, phys, a, Default::default()),
                    AccessKind::Write => MemRequest::write(issued, phys, a, Default::default()),
                };
                if ctrl.enqueue(req).is_err() {
                    break;
                }
                issued += 1;
                next += stride;
            }
            ctrl.tick();
            done += ctrl.drain_completions().len() as u64;
            cycle += 1;
            assert!(cycle < 10_000_000, "stream did not finish");
        }
        (cycle, ctrl.stats().clone())
    }

    #[test]
    fn sequential_reads_single_bank_hit_tccd_l_ceiling() {
        // Locality mapping, one channel: the whole stream lands in one
        // bank; row hits stream at tCCD_L so utilization ~ BL/tCCD_L = 2/3.
        let org = Organization::ddr4_dimm(1, 1);
        let m = LocalityCentric::new(org);
        let (cycles, stats) = run_stream(org, &m, AccessKind::Read, 2048, 64, 0);
        let util = stats.busy_data_cycles as f64 / cycles as f64;
        assert!(
            (0.55..=0.70).contains(&util),
            "single-bank util {util} outside tCCD_L band"
        );
        assert!(stats.row_hit_rate() > 0.95);
    }

    #[test]
    fn sequential_reads_mlp_mapping_saturate_bus() {
        // MLP mapping rotates bank groups: tCCD_S streaming ~ full bus.
        let org = Organization::ddr4_dimm(1, 1);
        let m = MlpCentric::new(org);
        let (cycles, stats) = run_stream(org, &m, AccessKind::Read, 4096, 64, 0);
        let util = stats.busy_data_cycles as f64 / cycles as f64;
        assert!(util > 0.85, "MLP util {util} too low");
    }

    #[test]
    fn writes_also_stream() {
        let org = Organization::ddr4_dimm(1, 1);
        let m = MlpCentric::new(org);
        let (cycles, stats) = run_stream(org, &m, AccessKind::Write, 2048, 64, 0);
        let util = stats.busy_data_cycles as f64 / cycles as f64;
        assert!(util > 0.8, "write util {util} too low");
        assert_eq!(stats.writes, 2048);
    }

    #[test]
    fn queue_backpressure() {
        let org = Organization::ddr4_dimm(1, 1);
        let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
        let a = DramAddr::default();
        for i in 0..64 {
            assert!(ctrl
                .enqueue(MemRequest::read(i, PhysAddr(0), a, Default::default()))
                .is_ok());
        }
        assert!(!ctrl.can_accept(AccessKind::Read));
        assert!(ctrl.can_accept(AccessKind::Write));
        let rejected = ctrl.enqueue(MemRequest::read(99, PhysAddr(0), a, Default::default()));
        assert_eq!(rejected.unwrap_err().id, 99);
    }

    #[test]
    fn read_latency_for_isolated_request() {
        let org = Organization::ddr4_dimm(1, 1);
        let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
        let t = *ctrl.timing();
        let a = DramAddr {
            row: 3,
            col: 7,
            ..DramAddr::default()
        };
        ctrl.enqueue(MemRequest::read(1, PhysAddr(0), a, Default::default()))
            .unwrap();
        let mut completion = None;
        for _ in 0..200 {
            ctrl.tick();
            if let Some(c) = ctrl.drain_completions().next() {
                completion = Some(c);
                break;
            }
        }
        // ACT at cycle 0, RD at tRCD, data at tRCD + CL + BL.
        let c = completion.expect("read completed");
        assert_eq!(c.cycle, t.rcd + t.read_latency());
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn row_conflict_forces_precharge() {
        let org = Organization::ddr4_dimm(1, 1);
        let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
        let a = DramAddr {
            row: 0,
            ..DramAddr::default()
        };
        let b = DramAddr {
            row: 1,
            ..DramAddr::default()
        };
        ctrl.enqueue(MemRequest::read(0, PhysAddr(0), a, Default::default()))
            .unwrap();
        for _ in 0..100 {
            ctrl.tick();
        }
        ctrl.drain_completions().for_each(drop);
        ctrl.enqueue(MemRequest::read(1, PhysAddr(64), b, Default::default()))
            .unwrap();
        let mut done = false;
        for _ in 0..200 {
            ctrl.tick();
            if ctrl.drain_completions().next().is_some() {
                done = true;
                break;
            }
        }
        assert!(done);
        assert_eq!(ctrl.stats().row_conflicts, 1);
    }

    #[test]
    fn refresh_happens_periodically() {
        let org = Organization::ddr4_dimm(1, 2);
        let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
        let refi = ctrl.timing().refi;
        for _ in 0..(refi * 3) {
            ctrl.tick();
        }
        // Two ranks, ~3 intervals each (staggered start) => >= 4 REFs.
        assert!(
            ctrl.stats().refreshes >= 4,
            "got {} refreshes",
            ctrl.stats().refreshes
        );
    }

    #[test]
    fn precharge_spares_an_open_row_a_waiting_hit_wants() {
        // Bank (0, 0, 0) is open at row 0, and a queued read to row 0 is
        // held back by tCCD_L after a read to another bank of group 0. An
        // older read wants row 1 of that bank, and a read conflicts in
        // bank group 1, whose open row no request wants. Nothing can read
        // or activate, so the one PRE must go to group 1.
        let org = Organization::ddr4_dimm(1, 1);
        let t = TimingParams::ddr4_2400();
        let cfg = ControllerConfig {
            refresh: false,
            ..ControllerConfig::default()
        };
        let mut ctrl = MemController::with_config(org, t, cfg);
        let at = |bank_group, bank, row| DramAddr {
            bank_group,
            bank,
            row,
            ..DramAddr::default()
        };
        let (kept, neighbour, other) = (at(0, 0, 0), at(0, 1, 0), at(1, 0, 5));
        ctrl.state.issue(Command::Act, &kept, 0);
        ctrl.state.issue(Command::Act, &neighbour, t.rrd_l);
        ctrl.state.issue(Command::Act, &other, t.rrd_l + t.rrd_s);
        let read_at = 100;
        ctrl.state.issue(Command::Rd, &neighbour, read_at);
        ctrl.clock = read_at + t.ccd_s;
        assert!(!ctrl.state.can_issue(Command::Rd, &kept, ctrl.clock));
        for (id, a) in [at(0, 0, 1), kept, at(1, 0, 7)].into_iter().enumerate() {
            let req = MemRequest::read(id as u64, PhysAddr(0), a, Default::default());
            ctrl.enqueue(req).unwrap();
        }
        ctrl.tick();
        assert_eq!(ctrl.stats().precharges, 1);
        assert_eq!(ctrl.channel_state().open_row(&kept), Some(0));
        assert_eq!(ctrl.channel_state().open_row(&other), None);
    }

    #[test]
    fn a_sleeping_controller_enters_write_drain_as_a_ticked_one_does() {
        // One read and 20 writes (between the watermarks) to one row.
        // The read goes first; once it issues, the next tick turns write
        // drain on, because the read queue is empty. The first write then
        // waits out the read-to-write turnaround, so the controller
        // sleeps. A read that arrives while it sleeps must still find the
        // drain on (20 writes > the low watermark) and wait behind the
        // writes, exactly as under per-cycle ticking.
        let org = Organization::ddr4_dimm(1, 1);
        let cfg = ControllerConfig {
            refresh: false,
            ..ControllerConfig::default()
        };
        let at = |col| DramAddr {
            col,
            ..DramAddr::default()
        };
        let mut ticked = MemController::with_config(org, TimingParams::ddr4_2400(), cfg);
        ticked.enable_command_log();
        ticked
            .enqueue(MemRequest::read(0, PhysAddr(0), at(0), Default::default()))
            .unwrap();
        for col in 1..=20 {
            let req = MemRequest::write(col.into(), PhysAddr(0), at(col), Default::default());
            ticked.enqueue(req).unwrap();
        }
        while ticked.reads.len > 0 {
            ticked.tick();
        }
        let mut sleeper = ticked.clone();
        let arrival = sleeper.clock() + 2;
        let wake = sleeper.next_event_cycle().expect("writes are queued");
        assert!(wake > arrival, "the sleeper must sleep past the arrival");
        while ticked.clock() < arrival {
            ticked.tick();
        }
        sleeper.skip_cycles(arrival - sleeper.clock());
        assert_eq!(sleeper.draining, ticked.draining);
        let late = MemRequest::read(21, PhysAddr(0), at(21), Default::default());
        for c in [&mut ticked, &mut sleeper] {
            c.enqueue(late).unwrap();
            while !c.idle() {
                c.tick();
            }
        }
        assert_eq!(sleeper.command_log(), ticked.command_log());
        let log = ticked.command_log().unwrap();
        let first = log.iter().find(|c| c.cycle >= arrival).unwrap();
        assert_eq!((first.cmd, first.cycle), (Command::Wr, wake));
    }

    /// A controller with refresh off, so a test controls every command.
    fn no_refresh(org: Organization) -> MemController {
        let cfg = ControllerConfig {
            refresh: false,
            ..ControllerConfig::default()
        };
        MemController::with_config(org, TimingParams::ddr4_2400(), cfg)
    }

    fn at(rank: u32, bank_group: u32, bank: u32, row: u64) -> DramAddr {
        DramAddr {
            rank,
            bank_group,
            bank,
            row,
            ..DramAddr::default()
        }
    }

    fn read(id: u64, a: DramAddr) -> MemRequest {
        MemRequest::read(id, PhysAddr(0), a, Default::default())
    }

    fn write(id: u64, a: DramAddr) -> MemRequest {
        MemRequest::write(id, PhysAddr(0), a, Default::default())
    }

    #[test]
    fn a_hit_behind_an_older_conflict_in_its_bank_issues_first() {
        // Banks 0 and 1 of group 0 are open at row 0, past tRCD. Bank 1
        // holds the oldest read, to row 1, and behind it a read to row 0;
        // bank 0 holds the newest read, to row 0. The first command reads
        // bank 1's hit: it is the oldest hit, though an older conflict
        // waits in its bank and bank 0 comes first in bank order.
        let mut ctrl = no_refresh(Organization::ddr4_dimm(1, 1));
        let t = *ctrl.timing();
        let (b0, b1) = (at(0, 0, 0, 0), at(0, 0, 1, 0));
        ctrl.state.issue(Command::Act, &b1, 0);
        ctrl.state.issue(Command::Act, &b0, t.rrd_l);
        ctrl.clock = t.rrd_l + t.rcd;
        ctrl.enqueue(read(0, at(0, 0, 1, 1))).unwrap();
        ctrl.enqueue(read(1, b1)).unwrap();
        ctrl.enqueue(read(2, b0)).unwrap();
        ctrl.enable_command_log();
        ctrl.tick();
        let log = ctrl.command_log().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].cmd, log[0].addr), (Command::Rd, b1));
        let queued: Vec<u64> = arrival_order(&ctrl.reads)
            .iter()
            .map(|p| p.req.id)
            .collect();
        assert_eq!(queued, [0, 2]);
    }

    #[test]
    fn a_hit_waiting_only_in_the_other_queue_does_not_protect_its_row() {
        // Bank (0, 0, 0) is open at row 0. Two writes want rows 0 and 1,
        // then a read wants row 1. Two writes are below the drain
        // watermark, so the read queue alone decides: it precharges the
        // bank as soon as tRAS allows, though a write wants the open row.
        // Its ACT of row 1 makes the write to row 1 the write queue's hit,
        // so once the read is out, that write goes before the older one.
        let mut ctrl = no_refresh(Organization::ddr4_dimm(1, 1));
        let t = *ctrl.timing();
        ctrl.state.issue(Command::Act, &at(0, 0, 0, 0), 0);
        ctrl.clock = 1;
        ctrl.enqueue(write(0, at(0, 0, 0, 0))).unwrap();
        ctrl.enqueue(write(1, at(0, 0, 0, 1))).unwrap();
        ctrl.enqueue(read(2, at(0, 0, 0, 1))).unwrap();
        ctrl.enable_command_log();
        while !ctrl.idle() {
            ctrl.tick();
        }
        let log = ctrl.command_log().unwrap();
        assert_eq!((log[0].cmd, log[0].cycle), (Command::Pre, t.ras));
        let (pre, act, rd, wr) = (Command::Pre, Command::Act, Command::Rd, Command::Wr);
        let rows: Vec<(Command, u64)> = log.iter().map(|c| (c.cmd, c.addr.row)).collect();
        assert_eq!(
            rows,
            [
                (pre, 1),
                (act, 1),
                (rd, 1),
                (wr, 1),
                (pre, 0),
                (act, 0),
                (wr, 0)
            ]
        );
    }

    #[test]
    fn a_refresh_due_rank_blocks_act_and_pre_but_not_a_ready_hit() {
        // Both ranks are past their refresh deadlines. Rank 1 holds an ACT
        // candidate and a PRE candidate, both legal now; rank 0 holds a
        // ready hit.
        let org = Organization::ddr4_dimm(1, 2);
        let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
        let t = *ctrl.timing();
        let (hit, conflict) = (at(0, 0, 0, 0), at(1, 1, 0, 0));
        ctrl.state.issue(Command::Act, &hit, 0);
        ctrl.state.issue(Command::Act, &conflict, t.rrd_s);
        ctrl.clock = t.refi + t.ras + t.rrd_s;
        assert!(ctrl.refresh_due(0) && ctrl.refresh_due(1));
        ctrl.enqueue(read(0, at(1, 0, 0, 3))).unwrap();
        ctrl.enqueue(read(1, at(1, 1, 0, 4))).unwrap();
        let now = ctrl.clock;
        assert_eq!(ctrl.pick(now, false), None, "refresh blocks ACT and PRE");
        ctrl.enqueue(read(2, hit)).unwrap();
        assert_eq!(ctrl.pick(now, false), Some((Command::Rd, 0)));
        // With no refresh due and the hit gone, the oldest request's ACT
        // goes first.
        ctrl.cfg.refresh = false;
        ctrl.reads.take_hit(0);
        let b = bank_index(&org, &at(1, 0, 0, 3));
        assert_eq!(ctrl.pick(now, false), Some((Command::Act, b)));
    }

    /// A queue's requests flattened back into arrival order.
    fn arrival_order(q: &BankQueue) -> Vec<Pending> {
        let mut all = Vec::new();
        for b in q.active_banks() {
            let mut i = q.banks[b].head;
            while i != NIL {
                all.push(q.slab[i as usize]);
                i = q.slab[i as usize].next;
            }
        }
        all.sort_by_key(|p| p.seq);
        all
    }

    /// The request a [`MemController::pick`] result targets.
    fn target(q: &BankQueue, cmd: Command, b: usize) -> u64 {
        let i = match cmd {
            Command::Rd | Command::Wr => q.banks[b].hit,
            _ => q.banks[b].head,
        };
        q.slab[i as usize].seq
    }

    fn bit(bits: &[u64], i: usize) -> bool {
        bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// The one-scan FR-FCFS pick over a queue in arrival order: the
    /// first ready hit; else the first ready ACT to a rank with no
    /// refresh due; else the first ready PRE to such a rank, in a bank
    /// no request of the queue hits. Returns the command and its
    /// target's arrival stamp.
    fn oracle_pick(
        ctrl: &MemController,
        q: &[Pending],
        col: Command,
        now: u64,
    ) -> Option<(Command, u64)> {
        let org = *ctrl.state.organization();
        let mut costed = vec![0u64; org.banks_per_channel().div_ceil(64) as usize];
        let mut act = None;
        for p in q {
            let a = &p.req.addr;
            let b = bank_index(&org, a);
            if bit(&costed, b) {
                continue;
            }
            let (cmd, t) = ctrl.state.next_command(col, a);
            if cmd == col && t <= now {
                return Some((col, p.seq));
            }
            if cmd == Command::Act && act.is_none() && t <= now && !ctrl.refresh_due(a.rank) {
                act = Some((Command::Act, p.seq));
            }
            if cmd != Command::Pre {
                costed[b / 64] |= 1 << (b % 64);
            }
        }
        act.or_else(|| {
            q.iter()
                .find(|p| {
                    let a = &p.req.addr;
                    !bit(&costed, bank_index(&org, a))
                        && !ctrl.refresh_due(a.rank)
                        && ctrl.state.next_command(col, a).1 <= now
                })
                .map(|p| (Command::Pre, p.seq))
        })
    }

    /// The one-scan horizon over a queue in arrival order: the earliest
    /// next command of each bank's first hit or ACT, and of the first
    /// request of each bank that needs a PRE and that no request hits.
    fn oracle_horizon(ctrl: &MemController, q: &[Pending], col: Command, bound: u64) -> u64 {
        let org = *ctrl.state.organization();
        let mut costed = vec![0u64; org.banks_per_channel().div_ceil(64) as usize];
        let mut h = bound;
        for p in q {
            let b = bank_index(&org, &p.req.addr);
            let (cmd, t) = ctrl.state.next_command(col, &p.req.addr);
            if !bit(&costed, b) && cmd != Command::Pre {
                costed[b / 64] |= 1 << (b % 64);
                h = h.min(t);
            }
        }
        for p in q {
            let b = bank_index(&org, &p.req.addr);
            if !bit(&costed, b) {
                costed[b / 64] |= 1 << (b % 64);
                h = h.min(ctrl.state.next_command(col, &p.req.addr).1);
            }
        }
        h
    }

    /// An arrival gap (mostly bursts, some pauses, rare idle stretches
    /// that cross refresh deadlines), a kind, and an address in a few
    /// banks and rows of `org`'s channel, so banks fill with row
    /// conflicts.
    fn arb_arrival(org: Organization) -> impl Strategy<Value = (u64, MemRequest)> {
        (
            (0u32..32, 0u64..6000).prop_map(|(pick, n)| match pick {
                0 => n,
                1..=10 => n % 30,
                _ => 0,
            }),
            0u32..3,
            0..org.ranks,
            0..org.bank_groups.min(2),
            0..org.banks.min(3),
            0u64..4,
        )
            .prop_map(|(gap, kind, rank, bank_group, bank, row)| {
                let a = at(rank, bank_group, bank, row);
                // Two reads per write, so the write queue crosses the
                // drain watermarks both ways.
                let req = if kind == 0 { write(0, a) } else { read(0, a) };
                (gap, req)
            })
    }

    fn arb_case(
        org: Organization,
        timing: TimingParams,
    ) -> impl Strategy<Value = (Organization, TimingParams, Vec<(u64, MemRequest)>)> {
        (
            Just(org),
            Just(timing),
            proptest::collection::vec(arb_arrival(org), 1..160),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn bank_buckets_pick_what_the_arrival_order_scan_picks(
            case in prop_oneof![
                arb_case(Organization::ddr4_dimm(1, 2), TimingParams::ddr4_2400()),
                arb_case(Organization::upmem_dimm(1, 2), TimingParams::upmem_2400()),
            ],
            refresh in any::<bool>(),
            small_queues in any::<bool>(),
        ) {
            let (org, timing, draws) = case;
            let mut cfg = ControllerConfig { refresh, ..ControllerConfig::default() };
            if small_queues {
                // Shallow queues flip the drain mode every few requests.
                cfg = ControllerConfig {
                    read_q_cap: 8,
                    write_q_cap: 8,
                    write_hi_watermark: 6,
                    write_lo_watermark: 2,
                    ..cfg
                };
            }
            let mut ctrl = MemController::with_config(org, timing, cfg);
            let mut pending: VecDeque<(u64, MemRequest)> = VecDeque::new();
            let mut due = 0;
            for (i, (gap, mut req)) in draws.into_iter().enumerate() {
                due += gap;
                req.id = i as u64;
                pending.push_back((due, req));
            }
            let mut picks = 0u64;
            while !(pending.is_empty() && ctrl.idle()) {
                let now = ctrl.clock;
                while let Some(&(at, req)) = pending.front() {
                    if at > now || ctrl.enqueue(req).is_err() {
                        break;
                    }
                    pending.pop_front();
                }
                let draining = ctrl.next_draining();
                let (q, col) = ctrl.queue(draining);
                let flat = arrival_order(q);
                prop_assert_eq!(flat.len(), q.len);
                let got = ctrl.pick(now, draining).map(|(cmd, b)| (cmd, target(q, cmd, b)));
                prop_assert_eq!(got, oracle_pick(&ctrl, &flat, col, now), "pick at cycle {}", now);
                picks += u64::from(got.is_some());
                prop_assert_eq!(
                    ctrl.issue_horizon(u64::MAX).max(now),
                    oracle_horizon(&ctrl, &flat, col, u64::MAX).max(now),
                    "horizon at cycle {}", now
                );
                ctrl.tick();
                ctrl.drain_completions().for_each(drop);
                prop_assert!(now < 2_000_000, "traffic did not drain");
            }
            prop_assert!(picks > 0);
        }
    }
}
