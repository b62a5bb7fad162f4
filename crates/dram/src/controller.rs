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
    /// Leaving write-drain mode at this occupancy.
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

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    /// Set once the controller has issued an ACT or PRE on behalf of this
    /// request (row-hit/miss/conflict classification).
    needed_act: bool,
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
/// while a rank has a refresh due, no new activates are issued to it.
#[derive(Debug, Clone)]
pub struct MemController {
    state: ChannelState,
    cfg: ControllerConfig,
    clock: u64,
    read_q: VecDeque<Pending>,
    write_q: VecDeque<Pending>,
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
    /// Scratch bitset for [`schedule`](Self::schedule), one bit per bank
    /// of the channel: the banks whose open row a queued request wants.
    wanted_rows: Vec<u64>,
}

impl MemController {
    /// Create a controller with default policy.
    pub fn new(org: Organization, timing: TimingParams) -> Self {
        MemController::with_config(org, timing, ControllerConfig::default())
    }

    /// Create a controller with explicit policy knobs.
    pub fn with_config(org: Organization, timing: TimingParams, cfg: ControllerConfig) -> Self {
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
        MemController {
            state,
            cfg,
            clock: 0,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            draining: false,
            read_returns: VecDeque::new(),
            write_returns: VecDeque::new(),
            completions: Vec::new(),
            stats: ChannelStats::default(),
            command_log: None,
            refresh_min,
            wanted_rows: vec![0; org.banks_per_channel().div_ceil(64) as usize],
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

    fn issue_cmd(&mut self, cmd: Command, addr: &DramAddr, now: u64) {
        self.state.issue(cmd, addr, now);
        if cmd == Command::Ref {
            // The refreshed rank's deadline just advanced by tREFI;
            // re-derive the cached minimum. REFs are rare (µs apart), so
            // this walk is off the hot path.
            let mut min = u64::MAX;
            for r in 0..self.state.organization().ranks {
                min = min.min(self.state.rank(r).refresh_deadline);
            }
            self.refresh_min = min;
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
    /// not modeled. With work queued (or undrained completions) that is
    /// the current cycle; otherwise the next data return or the next
    /// rank refresh deadline, whichever comes first.
    ///
    /// Cycles before the returned horizon are provably no-ops (empty
    /// queues contribute zero occupancy, no return is due, no refresh
    /// deadline passes), so a scheduler may skip them via
    /// [`skip_cycles`](Self::skip_cycles) without changing any result.
    pub fn next_event_cycle(&self) -> Option<u64> {
        if !self.read_q.is_empty() || !self.write_q.is_empty() || !self.completions.is_empty() {
            return Some(self.clock);
        }
        let mut horizon: Option<u64> = None;
        let mut merge = |t: u64| {
            horizon = Some(horizon.map_or(t, |h: u64| h.min(t)));
        };
        // Returns are pushed in issue order with uniform latency per
        // kind, so each deque's front is its earliest due time.
        if let Some(&(t, _)) = self.read_returns.front() {
            merge(t);
        }
        if let Some(&(t, _)) = self.write_returns.front() {
            merge(t);
        }
        if self.cfg.refresh {
            merge(self.refresh_min);
        }
        horizon.map(|h| h.max(self.clock))
    }

    /// Catch up over `cycles` idle cycles at once — exactly equivalent
    /// to that many [`tick`](Self::tick)s while no queue entry, data
    /// return, or refresh deadline is live (the window guaranteed by
    /// [`next_event_cycle`](Self::next_event_cycle)).
    pub fn skip_cycles(&mut self, cycles: u64) {
        self.clock += cycles;
        self.stats.elapsed_cycles += cycles;
    }

    /// Whether a request of `kind` can currently be accepted.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read_q.len() < self.cfg.read_q_cap,
            AccessKind::Write => self.write_q.len() < self.cfg.write_q_cap,
        }
    }

    /// Number of requests in flight (queued or awaiting data return).
    pub fn inflight(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.read_returns.len() + self.write_returns.len()
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
        let p = Pending {
            req,
            needed_act: false,
        };
        match req.kind {
            AccessKind::Read => self.read_q.push_back(p),
            AccessKind::Write => self.write_q.push_back(p),
        }
        Ok(())
    }

    /// Take all completions produced since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Advance one memory-clock cycle: retire returning data, service
    /// refresh, then issue at most one command chosen by FR-FCFS.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.stats.elapsed_cycles += 1;
        self.stats.read_q_occupancy_sum += self.read_q.len() as u64;
        self.stats.write_q_occupancy_sum += self.write_q.len() as u64;

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
        for (g, b) in self.state.rank(r).open_banks() {
            let addr = DramAddr {
                rank: r,
                bank_group: g,
                bank: b,
                ..DramAddr::default()
            };
            if self.state.can_issue(Command::Pre, &addr, now) {
                self.issue_cmd(Command::Pre, &addr, now);
                self.stats.precharges += 1;
                return true;
            }
        }
        false
    }

    fn update_drain_mode(&mut self) {
        if self.draining {
            if self.write_q.is_empty()
                || (self.write_q.len() <= self.cfg.write_lo_watermark && !self.read_q.is_empty())
            {
                self.draining = false;
            }
        } else if self.write_q.len() >= self.cfg.write_hi_watermark
            || (self.read_q.is_empty() && !self.write_q.is_empty())
        {
            self.draining = true;
        }
    }

    /// FR-FCFS over the queue the drain mode selects: the oldest row hit
    /// that can issue now; else an ACT for the oldest request whose bank is
    /// closed; else a PRE for the oldest request blocked by another open
    /// row, unless a queued request still wants that row. The other queue
    /// waits even when this one cannot issue: one queue per cycle keeps
    /// the model simple and matches a single command bus.
    fn schedule(&mut self, now: u64) {
        self.update_drain_mode();
        let (kind, col_cmd) = if self.draining {
            (AccessKind::Write, Command::Wr)
        } else {
            (AccessKind::Read, Command::Rd)
        };
        let q = match kind {
            AccessKind::Read => &self.read_q,
            AccessKind::Write => &self.write_q,
        };
        if q.is_empty() {
            return;
        }

        // One pass finds the first ready hit. On the way it notes the
        // first request that may activate its closed bank and marks every
        // bank whose open row a (not yet ready) hit still needs.
        self.wanted_rows.fill(0);
        let mut act = None;
        for (i, p) in q.iter().enumerate() {
            let a = &p.req.addr;
            match self.state.open_row(a) {
                Some(row) if row == a.row => {
                    if self.state.can_issue(col_cmd, a, now) {
                        let p = self.queue_mut(kind).remove(i).expect("index in range");
                        self.issue_column(now, col_cmd, p);
                        return;
                    }
                    let b = bank_index(self.state.organization(), a);
                    self.wanted_rows[b / 64] |= 1 << (b % 64);
                }
                None if act.is_none()
                    && !self.refresh_due(a.rank)
                    && self.state.can_issue(Command::Act, a, now) =>
                {
                    act = Some(i);
                }
                _ => {}
            }
        }

        let (cmd, i) = if let Some(i) = act {
            (Command::Act, i)
        } else {
            let org = self.state.organization();
            let pre = q.iter().position(|p| {
                let a = &p.req.addr;
                let b = bank_index(org, a);
                matches!(self.state.open_row(a), Some(row) if row != a.row)
                    && self.wanted_rows[b / 64] & (1 << (b % 64)) == 0
                    && !self.refresh_due(a.rank)
                    && self.state.can_issue(Command::Pre, a, now)
            });
            let Some(i) = pre else { return };
            (Command::Pre, i)
        };
        let addr = q[i].req.addr;
        self.issue_cmd(cmd, &addr, now);
        if cmd == Command::Act {
            self.stats.activates += 1;
        } else {
            self.stats.precharges += 1;
            self.stats.row_conflicts += 1;
        }
        self.queue_mut(kind)[i].needed_act = true;
    }

    fn queue_mut(&mut self, kind: AccessKind) -> &mut VecDeque<Pending> {
        match kind {
            AccessKind::Read => &mut self.read_q,
            AccessKind::Write => &mut self.write_q,
        }
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
            if let Some(c) = ctrl.drain_completions().pop() {
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
        ctrl.drain_completions();
        ctrl.enqueue(MemRequest::read(1, PhysAddr(64), b, Default::default()))
            .unwrap();
        let mut done = false;
        for _ in 0..200 {
            ctrl.tick();
            if !ctrl.drain_completions().is_empty() {
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
}
