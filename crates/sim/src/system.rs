//! The assembled system: CPU cluster + DCE + DRAM/PIM memory controllers
//! composed over the [`crate::engine`] clock-domain scheduler.
//!
//! `System` owns no per-component clock bookkeeping: every clock lives in
//! a [`ClockDomains`] scheduler, and `step` is pure composition — advance
//! to the earliest edge, call `tick` on whichever components' domains
//! fired, and move requests and completions between them.

use crate::clock::{ns_ticks_floor, ticks_to_ns};
use crate::config::{SystemConfig, TimingMode};
use crate::engine::{ClockDomains, DomainId, Fired, TimingStats};
use crate::result::PowerSample;
use pim_cpu::{CpuCluster, Thread};
use pim_dram::{Completion, MemController, OutRequest};
use pim_energy::ActivityCounts;
use pim_mapping::{HetMap, MemSpace, PimAddrSpace};
use pim_mmu::dce::DCE_SOURCE;
use pim_mmu::Dce;
use std::collections::VecDeque;

/// [`DomainId`] handles for the registered clock domains (the clocks
/// themselves live in [`ClockDomains`]).
#[derive(Debug, Clone)]
struct Domains {
    cpu: DomainId,
    dram: DomainId,
    pim: DomainId,
    /// One domain per instantiated engine (empty iff the design has no
    /// DCE); engine `s` ticks at `dce[s]`'s edges.
    dce: Vec<DomainId>,
    sample: DomainId,
}

/// Where in the current step a request drain sits relative to each
/// controller group's tick phase (see
/// [`drain_requests`](System::drain_requests)).
#[derive(Debug, Clone, Copy)]
struct PhasePos {
    /// The DRAM group's phase already ran this step.
    dram: bool,
    /// The PIM group's phase already ran this step.
    pim: bool,
}

impl PhasePos {
    /// A drain before either controller group's phase (cpu/engine
    /// phases).
    const PRE: PhasePos = PhasePos {
        dram: false,
        pim: false,
    };
}

/// The evaluated machine.
pub struct System {
    /// Configuration in force.
    pub cfg: SystemConfig,
    mapper: HetMap,
    cluster: CpuCluster,
    /// The DCE engine array: `cfg.dce_count` shards when the design uses
    /// a DCE, each with its own clock domain and shard-tagged source id.
    engines: Vec<Dce>,
    dram: Vec<MemController>,
    pim: Vec<MemController>,
    t: u64,
    /// Whether `step` has run (guards late domain registration, which
    /// `t` alone cannot: the first step fires the t = 0 edges).
    stepped: bool,
    clocks: ClockDomains,
    domains: Domains,
    snap: Snapshot,
    power_samples: Vec<PowerSample>,
    /// Whether the wall-time self-profile is armed (off by default; the
    /// per-domain fire/skip counters in [`ClockDomains`] are always on).
    profile: bool,
    /// Host wall nanoseconds per domain slot (empty until profiling is
    /// enabled; grown on demand so late credit never panics).
    wall_ns: Vec<u64>,
    /// Wall nanoseconds that timers nested inside the running phase
    /// credited to other domains; the phase's own credit leaves them out.
    nested_ns: u64,
    /// The ticking controller group's completions on their way to their
    /// issuers, kept between ticks so that routing them allocates
    /// nothing.
    done: Vec<Completion>,
    /// Shadow checker for scheduler invariants (pure reads: simulated
    /// state is bit-identical with the feature on or off).
    #[cfg(feature = "sanitize")]
    sanitizer: crate::sanitize::Sanitizer,
}

/// Cumulative activity counters summed over every component, stamped
/// with the simulated time they were read at; windowed power is the
/// difference of two.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    t_ns: f64,
    /// CPU core cycles spent busy.
    core_active_cycles: u64,
    /// Transfer-loop (AVX) instructions retired.
    transfer_instr: u64,
    /// Shared-LLC accesses, hits plus misses.
    llc_accesses: u64,
    /// Row activations over every DRAM and PIM controller.
    dram_activates: u64,
    /// Read bursts over every controller.
    dram_reads: u64,
    /// Write bursts over every controller.
    dram_writes: u64,
    /// Refresh commands over every controller.
    dram_refreshes: u64,
    /// 64 B lines fully copied by the engines.
    dce_lines: u64,
}

/// One clock domain's slice of the simulator's own cost: how many edges
/// its component actually ticked, how many idle-skip elided, and (when
/// [`System::enable_self_profile`] is on) the host wall time spent in
/// its tick phase. `fires`/`skipped` are deterministic simulation
/// outputs; `wall_ns` is host-machine measurement and must never feed
/// back into simulated state or byte-compared artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainProfile {
    /// The label the domain was registered under.
    pub label: &'static str,
    /// Deliveries actually taken (component ticks run).
    pub fires: u64,
    /// Edges elided by idle-skip (folded into later fires).
    pub skipped: u64,
    /// Host wall time spent ticking this domain, in nanoseconds; 0
    /// unless self-profiling is enabled (and for composer-owned domains
    /// the composer never credited).
    pub wall_ns: u64,
}

/// Host wall nanoseconds since `t0`, saturating (a phase cannot
/// plausibly exceed u64 wall ns).
fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl System {
    /// Build a system running `threads` on the CPU; a DCE is instantiated
    /// iff the design point uses one.
    pub fn new(cfg: SystemConfig, threads: Vec<Thread>) -> Self {
        let mapper = cfg.mapper();
        let cluster = CpuCluster::new(cfg.cpu, mapper.clone(), threads);
        let engines: Vec<Dce> = if cfg.design.uses_dce() {
            let space = PimAddrSpace::new(mapper.pim_base(), cfg.pim_org);
            (0..cfg.dce_count.max(1))
                .map(|s| {
                    let shard = u32::try_from(s).expect("shard count fits u32");
                    Dce::with_shard(cfg.dce, mapper.clone(), space, shard)
                })
                .collect()
        } else {
            Vec::new()
        };
        let dram = (0..cfg.dram_org.channels)
            .map(|_| MemController::new(cfg.dram_org, cfg.dram_timing))
            .collect();
        let pim = (0..cfg.pim_org.channels)
            .map(|_| MemController::new(cfg.pim_org, cfg.pim_timing))
            .collect();

        let mut clocks = ClockDomains::new();
        let domains = Domains {
            cpu: clocks.add_period_ps("cpu", cfg.cpu.period_ps()),
            dram: clocks.add_period_ps("dram", cfg.dram_timing.t_ck_ps),
            pim: clocks.add_period_ps("pim", cfg.pim_timing.t_ck_ps),
            dce: engines
                .iter()
                .map(|_| clocks.add_period_ps("dce", cfg.dce.period_ps()))
                .collect(),
            sample: clocks.add_period_ticks("sample", ns_ticks_floor(cfg.sample_ns)),
        };
        System {
            mapper,
            cluster,
            engines,
            dram,
            pim,
            t: 0,
            stepped: false,
            clocks,
            domains,
            snap: Snapshot::default(),
            power_samples: Vec::new(),
            profile: false,
            wall_ns: Vec::new(),
            nested_ns: 0,
            done: Vec::new(),
            #[cfg(feature = "sanitize")]
            sanitizer: crate::sanitize::Sanitizer::default(),
            cfg,
        }
    }

    /// The memory mapping installed by this design.
    pub fn mapper(&self) -> &HetMap {
        &self.mapper
    }

    /// The CPU cluster. While its domain sleeps, its clock and per-core
    /// counters lag the current tick; a sample (and so
    /// [`finish_sampling`](Self::finish_sampling)) catches them up.
    /// Thread finish cycles are always exact: a thread finishes on a tick.
    pub fn cluster(&self) -> &CpuCluster {
        &self.cluster
    }

    /// The full engine array (empty iff the design has no DCE); engine
    /// `s` is shard `s`.
    pub fn engines(&self) -> &[Dce] {
        &self.engines
    }

    /// Mutable access to the whole engine array (a sharded runtime
    /// dispatches across every shard at once).
    pub fn engines_mut(&mut self) -> &mut [Dce] {
        &mut self.engines
    }

    /// DRAM-side controllers.
    pub fn dram_controllers(&self) -> &[MemController] {
        &self.dram
    }

    /// PIM-side controllers.
    pub fn pim_controllers(&self) -> &[MemController] {
        &self.pim
    }

    /// The clock-domain scheduler (labels, edge inspection).
    pub fn clock_domains(&self) -> &ClockDomains {
        &self.clocks
    }

    /// Register an additional clock domain for an external participant
    /// (e.g. a host-side transfer-queue runtime). The
    /// composer owning both the `System` and the participant ticks it
    /// whenever [`pending`](Self::pending)/[`step`](Self::step) report
    /// the domain firing.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already stepped: a clock registered
    /// mid-run would have edges in the past.
    pub fn register_domain(&mut self, label: &'static str, period_ps: u64) -> DomainId {
        assert!(
            !self.stepped,
            "clock domains must be registered before the first step"
        );
        self.clocks.add_period_ps(label, period_ps)
    }

    /// The set of domains that will fire on the next [`step`](Self::step),
    /// without advancing anything. External participants registered via
    /// [`register_domain`](Self::register_domain) use this to act at
    /// their edge *before* the machine's components tick it.
    pub fn pending(&self) -> Fired {
        self.clocks.peek()
    }

    /// Power/activity samples collected so far.
    pub fn power_samples(&self) -> &[PowerSample] {
        &self.power_samples
    }

    /// Scheduler work counters (events processed, domain fires, edges
    /// skipped by idle-skip).
    pub fn timing_stats(&self) -> TimingStats {
        self.clocks.timing_stats()
    }

    /// Arm the wall-time self-profile: from now on [`step`](Self::step)
    /// measures host wall time around each internal domain's tick phase
    /// and [`credit_domain_wall_ns`](Self::credit_domain_wall_ns)
    /// accepts composer credit for external domains. Off by default —
    /// the measurement is host-machine noise and must stay out of every
    /// deterministic artifact, so nothing here ever touches simulated
    /// state.
    pub fn enable_self_profile(&mut self) {
        self.profile = true;
        self.wall_ns.resize(self.clocks.len().max(64), 0);
    }

    /// Whether the wall-time self-profile is armed.
    pub fn self_profile_enabled(&self) -> bool {
        self.profile
    }

    /// Credit host wall time spent ticking an external (composer-owned)
    /// domain. No-op unless self-profiling is enabled, so composers can
    /// call it unconditionally.
    pub fn credit_domain_wall_ns(&mut self, d: DomainId, wall_ns: u64) {
        if !self.profile {
            return;
        }
        if d.index() >= self.wall_ns.len() {
            self.wall_ns.resize(d.index() + 1, 0);
        }
        self.wall_ns[d.index()] += wall_ns;
    }

    /// The simulator's self-profile: one [`DomainProfile`] per
    /// registered clock domain, in registration order. The fire/skip
    /// attribution is always live (and deterministic); `wall_ns` is
    /// populated only while [`enable_self_profile`](Self::enable_self_profile)
    /// is on.
    pub fn self_profile(&self) -> Vec<DomainProfile> {
        (0..self.clocks.len())
            .map(|i| {
                let d = DomainId::from_index(i);
                DomainProfile {
                    label: self.clocks.label(d),
                    fires: self.clocks.domain_fires(d),
                    skipped: self.clocks.domain_skipped(d),
                    wall_ns: self.wall_ns.get(i).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Catch every engine's clock up to its cycle count at tick `now`
    /// exclusive (edges strictly before `now`), so composer-side reads
    /// of [`Dce::cycle`] (e.g. posted-cycle stamps on dispatch) are
    /// exact even if an engine's domain slept, and so a host input at
    /// `now` (a suspend request, a queued descriptor) lands after the
    /// engine's counters were credited for the cycles it slept in its
    /// old state. No-op when caught up.
    pub fn sync_engines_to(&mut self, now: u64) {
        for s in 0..self.engines.len() {
            let target = self.clocks.edges_before(self.domains.dce[s], now);
            Self::catch_up_engine(&mut self.engines[s], target);
        }
    }

    /// Catch the cluster up over the CPU edges at or before tick `t` it
    /// slept through, so an input routed to it at `t` (a completion, room
    /// in its outbox) lands after the cycles it slept in its old state.
    /// No-op when caught up.
    fn sync_cluster_through(&mut self, t: u64) {
        let target = self.clocks.edges_through(self.domains.cpu, t);
        let deficit = target.saturating_sub(self.cluster.clock());
        if deficit > 0 {
            self.cluster.skip_cycles(deficit);
        }
    }

    /// Re-arm the CPU domain at the cluster's horizon, if it has one —
    /// after an input at the current tick, once the cluster is caught up
    /// through it, so the horizon is a later edge. Never delays an
    /// earlier delivery.
    fn wake_cluster(&mut self) {
        if let Some(h) = self.cluster.next_event_cycle() {
            let tick = self.clocks.edge_tick(self.domains.cpu, h);
            self.clocks.wake_at(self.domains.cpu, tick);
        }
    }

    /// Skip `dce` forward to engine cycle `target` (no-op if it is there).
    fn catch_up_engine(dce: &mut Dce, target: u64) {
        let deficit = target.saturating_sub(dce.cycle());
        if deficit > 0 {
            dce.skip_cycles(deficit);
        }
    }

    /// The first tick at which engine `s`'s clock, caught up by
    /// [`sync_engines_to`](Self::sync_engines_to), reads at least
    /// `cycle` — when a host deadline stated in engine cycles (a
    /// preemption quantum) comes due.
    pub fn engine_cycle_tick(&self, s: usize, cycle: u64) -> u64 {
        cycle
            .checked_sub(1)
            .map_or(0, |c| self.clocks.edge_tick(self.domains.dce[s], c) + 1)
    }

    /// Re-arm the domain of every engine that can act (one with an
    /// event horizon: a newly installed descriptor, a fusible
    /// continuation, a suspension ready to quiesce) at its first edge at
    /// or after tick `now` — the wake half of the doorbell/submit
    /// protocol. No-op for armed domains that are already due earlier.
    pub fn wake_engines(&mut self, now: u64) {
        for (e, &dom) in self.engines.iter().zip(&self.domains.dce) {
            if e.next_event_cycle().is_some() {
                self.clocks.wake_at(dom, now);
            }
        }
    }

    /// Aim an external domain's next delivery at its grid edge `edge`
    /// (clamped to its first undelivered edge), or park it with `None`.
    /// Composers own their registered domains' horizons; the machine's
    /// internal domains are managed by [`step`](Self::step) itself.
    pub fn set_domain_horizon(&mut self, d: DomainId, edge: Option<u64>) {
        match edge {
            None => self.clocks.park(d),
            Some(e) => self.clocks.defer_to_edge(d, e),
        }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        ticks_to_ns(self.t)
    }

    /// The tick of the last event processed (0 before the first step).
    pub fn now_ticks(&self) -> u64 {
        self.t
    }

    /// Drain a request source's `outbox` front-first into the controller
    /// queues, honoring per-queue back-pressure (a refused request stops
    /// the drain and stays at the front).
    ///
    /// A request is a cross-domain input: before an accepted `enqueue`
    /// the target controller is caught up to the cycle count it would
    /// hold had it ticked at every one of its edges before tick `t` (so
    /// the arrival stamp is exact even if the controller was parked),
    /// and its domain is re-armed at its first edge at or after `t`.
    /// Both are no-ops under the cycle-stepped driver.
    ///
    /// `ticked` says whether each controller group's phase has already
    /// run in the *current* step. A drain that happens after the
    /// group's phase (the post-tick refills) arrives *after* the edge at
    /// `t` under the cycle-stepped driver — the request is invisible
    /// until the controller's next cycle. The catch-up target and wake
    /// edge must reproduce that: catch up *through* `t` and wake at the
    /// first edge strictly after it, or a slept controller would see the
    /// request one cycle earlier than the reference.
    fn drain_requests(
        outbox: &mut VecDeque<OutRequest>,
        dram: &mut [MemController],
        pim: &mut [MemController],
        clocks: &mut ClockDomains,
        domains: &Domains,
        t: u64,
        ticked: PhasePos,
    ) {
        while let Some(&OutRequest { space, req }) = outbox.front() {
            let (ctrl, dom, ticked) = match space {
                MemSpace::Dram => (
                    &mut dram[req.addr.channel as usize],
                    domains.dram,
                    ticked.dram,
                ),
                MemSpace::Pim => (&mut pim[req.addr.channel as usize], domains.pim, ticked.pim),
            };
            if !ctrl.can_accept(req.kind) {
                return;
            }
            let target = if ticked {
                clocks.edges_through(dom, t)
            } else {
                clocks.edges_before(dom, t)
            };
            let deficit = target.saturating_sub(ctrl.clock());
            if deficit > 0 {
                ctrl.skip_cycles(deficit);
            }
            ctrl.enqueue(req).expect("capacity checked");
            clocks.wake_at(dom, if ticked { t + 1 } else { t });
            outbox.pop_front();
        }
    }

    /// Top every request source's queue back up (after controllers freed
    /// queue slots, or after a source ticked). `ticked` carries the
    /// current step's phase position (see
    /// [`drain_requests`](Self::drain_requests)).
    ///
    /// Refills run after the cluster's and the engines' phases, so a
    /// source whose full outbox drains here is caught up through `t`
    /// first (room in the outbox changes what its slept cycles did: an
    /// engine's buffer stalls, a core's refused LLC probes) and woken at
    /// its horizon if the room lets it act.
    fn refill_controller_queues(&mut self, ticked: PhasePos) {
        let t = self.t;
        let cluster_full = self.cluster.outbox_full();
        if cluster_full {
            let t0 = self.phase_timer();
            self.sync_cluster_through(t);
            self.nested_credit(self.domains.cpu, t0);
        }
        Self::drain_requests(
            self.cluster.outbox_mut(),
            &mut self.dram,
            &mut self.pim,
            &mut self.clocks,
            &self.domains,
            t,
            ticked,
        );
        if cluster_full && !self.cluster.outbox_full() {
            let t0 = self.phase_timer();
            self.wake_cluster();
            self.nested_credit(self.domains.cpu, t0);
        }
        for s in 0..self.engines.len() {
            let dom = self.domains.dce[s];
            let was_full = self.engines[s].outbox_full();
            if was_full {
                let t0 = self.phase_timer();
                Self::catch_up_engine(&mut self.engines[s], self.clocks.edges_through(dom, t));
                self.nested_credit(dom, t0);
            }
            Self::drain_requests(
                self.engines[s].outbox_mut(),
                &mut self.dram,
                &mut self.pim,
                &mut self.clocks,
                &self.domains,
                t,
                ticked,
            );
            if was_full && !self.engines[s].outbox_full() {
                let t0 = self.phase_timer();
                if self.engines[s].next_event_cycle().is_some() {
                    self.clocks.wake_at(dom, t + 1);
                }
                self.nested_credit(dom, t0);
            }
        }
    }

    /// Tick one controller group and route its completions back to the
    /// component that issued each request. `target` is the group
    /// domain's delivered-edge count minus one: each controller is first
    /// caught up over any edges skipped while it was quiescent, so its
    /// clock entering the edge equals the cycle-stepped driver's.
    ///
    /// Under [`TimingMode::EventDriven`] the group fires at its
    /// earliest member's horizon, so only the controllers whose horizon
    /// is their current cycle tick; each of the others is moved on by
    /// one idle cycle, which its horizon proves equal to a tick. The
    /// cycle-stepped reference ticks every controller on every edge.
    ///
    /// A completion is a cross-domain input. The cluster's and the
    /// engines' phases at `t` already ran, so a parked engine or cluster
    /// is caught up through `t` in its pre-completion state, then woken
    /// at its first edge after `t` (the cluster: at its horizon) if the
    /// completion lets it act.
    fn tick_controllers(&mut self, space: MemSpace, target: u64) {
        let every_edge = self.cfg.timing == TimingMode::CycleStepped;
        let ctrls = match space {
            MemSpace::Dram => &mut self.dram,
            MemSpace::Pim => &mut self.pim,
        };
        let mut done = std::mem::take(&mut self.done);
        for c in ctrls.iter_mut() {
            let deficit = target.saturating_sub(c.clock());
            if deficit > 0 {
                c.skip_cycles(deficit);
            }
            if every_edge || c.next_event_cycle() == Some(c.clock()) {
                c.tick();
                done.extend(c.drain_completions());
            } else {
                c.skip_cycles(1);
            }
        }
        let t = self.t;
        let mut to_cluster = false;
        // Delivering a completion is its receiver's work: the self-profile
        // times each run of deliveries to one receiver once and credits it
        // to the receiver's domain, not the controllers'.
        let mut run = None;
        for c in done.drain(..) {
            // Engine traffic is tagged DCE_SOURCE + shard: route the
            // completion back to the shard that issued the request.
            let shard = c.source.0.wrapping_sub(DCE_SOURCE) as usize;
            if c.source.0 >= DCE_SOURCE && shard < self.engines.len() {
                let dom = self.domains.dce[shard];
                self.nested_run(&mut run, dom);
                let dce = &mut self.engines[shard];
                Self::catch_up_engine(dce, self.clocks.edges_through(dom, t));
                dce.on_completion(c);
                if dce.next_event_cycle().is_some() {
                    self.clocks.wake_at(dom, t + 1);
                }
            } else {
                self.nested_run(&mut run, self.domains.cpu);
                if !to_cluster {
                    self.sync_cluster_through(t);
                    to_cluster = true;
                }
                self.cluster.on_completion(c);
            }
        }
        if to_cluster {
            self.nested_run(&mut run, self.domains.cpu);
            self.wake_cluster();
        }
        if let Some((d, t0)) = run {
            self.nested_credit(d, t0);
        }
        self.done = done;
    }

    /// Start a phase timer iff the self-profile is armed.
    #[inline]
    fn phase_timer(&self) -> Option<std::time::Instant> {
        self.profile.then(std::time::Instant::now)
    }

    /// Fold a finished phase timer into domain `d`'s wall-time bucket,
    /// less the time that timers nested inside the phase credited to
    /// other domains.
    #[inline]
    fn phase_credit(&mut self, d: DomainId, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let nested = std::mem::take(&mut self.nested_ns);
            self.credit_domain_wall_ns(d, elapsed_ns(t0).saturating_sub(nested));
        }
    }

    /// Point `run`, a nested timer, at domain `d`'s work: a run timing
    /// another domain is credited to it and a new one starts.
    #[inline]
    fn nested_run(
        &mut self,
        run: &mut Option<(DomainId, Option<std::time::Instant>)>,
        d: DomainId,
    ) {
        match *run {
            Some((cur, _)) if cur == d => {}
            prev => {
                if let Some((cur, t0)) = prev {
                    self.nested_credit(cur, t0);
                }
                *run = Some((d, self.phase_timer()));
            }
        }
    }

    /// Fold a timer nested inside a running phase into domain `d`'s
    /// bucket, and hold its time back from the enclosing phase's credit:
    /// the controller phases deliver completions to, and catch up, the
    /// cluster and the engines, whose work that is.
    #[inline]
    fn nested_credit(&mut self, d: DomainId, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = elapsed_ns(t0);
            self.nested_ns += ns;
            self.credit_domain_wall_ns(d, ns);
        }
    }

    /// Advance the simulation by one event (the earliest due clock edge).
    /// Returns which domains fired, so a composer can tick external
    /// participants registered via [`register_domain`](Self::register_domain).
    ///
    /// One code path serves both timing modes: domains are delivered in
    /// the same phase order as the historical cycle-stepped loop, each
    /// component is caught up over any edges skipped while quiescent
    /// right before its tick, and only under
    /// [`TimingMode::EventDriven`] are fresh horizons applied at the end
    /// (under `CycleStepped` no domain is ever parked or deferred, which
    /// reproduces the reference driver exactly).
    pub fn step(&mut self) -> Fired {
        #[cfg(feature = "sanitize")]
        self.sanitize_horizons();
        self.stepped = true;
        let now = self.clocks.next_edge();
        self.t = now;
        self.clocks.count_event();
        let mut mask = 0u64;

        if self.clocks.take_due(self.domains.cpu, now).is_some() {
            mask |= 1 << self.domains.cpu.index();
            let t0 = self.phase_timer();
            let target = self.clocks.delivered(self.domains.cpu) - 1;
            let deficit = target.saturating_sub(self.cluster.clock());
            if deficit > 0 {
                self.cluster.skip_cycles(deficit);
            }
            self.cluster.tick();
            Self::drain_requests(
                self.cluster.outbox_mut(),
                &mut self.dram,
                &mut self.pim,
                &mut self.clocks,
                &self.domains,
                now,
                PhasePos::PRE,
            );
            self.phase_credit(self.domains.cpu, t0);
        }
        for s in 0..self.engines.len() {
            if self.clocks.take_due(self.domains.dce[s], now).is_some() {
                mask |= 1 << self.domains.dce[s].index();
                let t0 = self.phase_timer();
                let target = self.clocks.delivered(self.domains.dce[s]) - 1;
                let dce = &mut self.engines[s];
                Self::catch_up_engine(dce, target);
                dce.tick();
                Self::drain_requests(
                    dce.outbox_mut(),
                    &mut self.dram,
                    &mut self.pim,
                    &mut self.clocks,
                    &self.domains,
                    now,
                    PhasePos::PRE,
                );
                self.phase_credit(self.domains.dce[s], t0);
            }
        }
        if self.clocks.take_due(self.domains.dram, now).is_some() {
            mask |= 1 << self.domains.dram.index();
            let t0 = self.phase_timer();
            let target = self.clocks.delivered(self.domains.dram) - 1;
            self.tick_controllers(MemSpace::Dram, target);
            // Controllers freed queue slots: top the queues back up.
            self.refill_controller_queues(PhasePos {
                dram: true,
                pim: false,
            });
            self.phase_credit(self.domains.dram, t0);
        }
        if self.clocks.take_due(self.domains.pim, now).is_some() {
            mask |= 1 << self.domains.pim.index();
            let t0 = self.phase_timer();
            let target = self.clocks.delivered(self.domains.pim) - 1;
            self.tick_controllers(MemSpace::Pim, target);
            self.refill_controller_queues(PhasePos {
                dram: true,
                pim: true,
            });
            self.phase_credit(self.domains.pim, t0);
        }
        if self.clocks.take_due(self.domains.sample, now).is_some() {
            mask |= 1 << self.domains.sample.index();
            let t0 = self.phase_timer();
            self.sample();
            self.phase_credit(self.domains.sample, t0);
        }
        // External domains (registered composers) deliver last; their
        // owners act on `pending()` before calling `step`.
        for i in 0..self.clocks.len() {
            let d = DomainId::from_index(i);
            if self.is_internal(d) {
                continue;
            }
            if self.clocks.take_due(d, now).is_some() {
                mask |= 1 << i;
            }
        }

        if self.cfg.timing == TimingMode::EventDriven {
            self.apply_horizons(mask);
        }
        #[cfg(feature = "sanitize")]
        self.sanitize_check(now);
        Fired::new(now, mask)
    }

    /// Whether `d` is one of the machine's own domains (as opposed to an
    /// externally registered composer domain).
    fn is_internal(&self, d: DomainId) -> bool {
        d == self.domains.cpu
            || d == self.domains.dram
            || d == self.domains.pim
            || d == self.domains.sample
            || self.domains.dce.contains(&d)
    }

    /// Recompute and apply the event horizon of every internal domain
    /// that *fired* this step (event-driven mode only). A component's
    /// state only changes when it ticks or when new input arrives;
    /// arrivals re-arm the target domain through `wake_at` at the drain
    /// site, so a domain that did not fire still holds a valid horizon
    /// and is skipped here — this keeps the per-event cost of the
    /// event-driven driver close to the cycle-stepped loop's. External
    /// domains are left to their composer.
    fn apply_horizons(&mut self, fired: u64) {
        let hit = |d: DomainId| fired & (1 << d.index()) != 0;
        if hit(self.domains.cpu) {
            let h = self.cluster.next_event_cycle();
            Self::apply_horizon(&mut self.clocks, self.domains.cpu, h);
        }
        for s in 0..self.engines.len() {
            if hit(self.domains.dce[s]) {
                let h = self.engines[s].next_event_cycle();
                Self::apply_horizon(&mut self.clocks, self.domains.dce[s], h);
            }
        }
        // A controller horizon scans a queue, so the self-profile
        // credits it to the group's domain, as it does the tick.
        if hit(self.domains.dram) {
            let t0 = self.phase_timer();
            let h = Self::group_horizon(&mut self.dram);
            Self::apply_horizon(&mut self.clocks, self.domains.dram, h);
            self.phase_credit(self.domains.dram, t0);
        }
        if hit(self.domains.pim) {
            let t0 = self.phase_timer();
            let h = Self::group_horizon(&mut self.pim);
            Self::apply_horizon(&mut self.clocks, self.domains.pim, h);
            self.phase_credit(self.domains.pim, t0);
        }
    }

    /// The earliest horizon over a controller group sharing one domain
    /// (`None` only if every controller is parked-able). Each
    /// controller's horizon is in its own cycle count, which is also its
    /// grid-edge index, so the group minimum is the first edge any
    /// member needs; [`tick_controllers`](Self::tick_controllers) ticks
    /// exactly the members due there. Horizons are memoized per
    /// controller, so a member that did not tick costs no queue scan.
    fn group_horizon(ctrls: &mut [MemController]) -> Option<u64> {
        ctrls
            .iter_mut()
            .filter_map(MemController::next_event_cycle)
            .min()
    }

    fn apply_horizon(clocks: &mut ClockDomains, d: DomainId, h: Option<u64>) {
        match h {
            Some(e) => clocks.defer_to_edge(d, e),
            None => clocks.park(d),
        }
    }

    /// Run until `pred` returns true or `max_ns` elapses. Returns whether
    /// the predicate fired.
    pub fn run_until(&mut self, max_ns: f64, mut pred: impl FnMut(&System) -> bool) -> bool {
        let max_ticks = ns_ticks_floor(max_ns);
        while self.t < max_ticks {
            if pred(self) {
                return true;
            }
            self.step();
        }
        pred(self)
    }

    /// Cumulative counters summed over every component.
    fn totals(&self) -> Snapshot {
        let cpu = &self.cluster;
        let mut s = Snapshot {
            t_ns: self.now_ns(),
            core_active_cycles: cpu.core_stats().iter().map(|c| c.busy_cycles).sum(),
            transfer_instr: cpu.stats().retired_transfer,
            llc_accesses: cpu.llc().hits + cpu.llc().misses,
            dce_lines: self.engines.iter().map(|e| e.stats().lines_done).sum(),
            ..Snapshot::default()
        };
        for c in self.dram.iter().chain(self.pim.iter()) {
            let st = c.stats();
            s.dram_activates += st.activates;
            s.dram_reads += st.reads;
            s.dram_writes += st.writes;
            s.dram_refreshes += st.refreshes;
        }
        s
    }

    /// Activity since `snap`, as energy-model input.
    fn delta_counts(&self, snap: &Snapshot, now: &Snapshot) -> ActivityCounts {
        ActivityCounts {
            duration_ns: now.t_ns - snap.t_ns,
            cores: self.cfg.cpu.cores,
            core_active_cycles: now.core_active_cycles - snap.core_active_cycles,
            // AVX premium applied per transfer-loop instruction.
            avx_cycles: now.transfer_instr - snap.transfer_instr,
            llc_accesses: now.llc_accesses - snap.llc_accesses,
            ranks: self.cfg.dram_org.channels * self.cfg.dram_org.ranks
                + self.cfg.pim_org.channels * self.cfg.pim_org.ranks,
            dram_acts: now.dram_activates - snap.dram_activates,
            dram_reads: now.dram_reads - snap.dram_reads,
            dram_writes: now.dram_writes - snap.dram_writes,
            dram_refreshes: now.dram_refreshes - snap.dram_refreshes,
            dce_lines: now.dce_lines - snap.dce_lines,
            pimmmu_present: !self.engines.is_empty(),
        }
    }

    fn sample(&mut self) {
        // Window boundaries read component clocks: catch every component
        // up to the cycle count the cycle-stepped driver would show at
        // this tick (edges at or before `t`, since components tick
        // before the sampler at coincident edges). No-ops unless edges
        // were skipped.
        let t = self.t;
        self.sync_cluster_through(t);
        for (dom, ctrls) in [
            (self.domains.dram, &mut self.dram),
            (self.domains.pim, &mut self.pim),
        ] {
            let target = self.clocks.edges_through(dom, t);
            for c in ctrls.iter_mut() {
                let deficit = target.saturating_sub(c.clock());
                if deficit > 0 {
                    c.skip_cycles(deficit);
                }
            }
        }

        self.cluster.sample_active_cores();
        for c in self.dram.iter_mut().chain(self.pim.iter_mut()) {
            let clock = c.clock();
            c.stats_mut().sample_window(clock);
        }
        let now = self.totals();
        let counts = self.delta_counts(&self.snap.clone(), &now);
        let watts = counts.avg_power_w(&self.cfg.power);
        let active = self
            .cluster
            .stats()
            .active_samples
            .last()
            .map(|&(_, a)| a)
            .unwrap_or(0);
        self.power_samples.push(PowerSample {
            t_ns: now.t_ns,
            active_cores: active,
            watts,
        });
        self.snap = now;
    }

    /// Close the trailing (partial) sampling window so stats/time-series
    /// include everything up to the current cycle.
    pub fn finish_sampling(&mut self) {
        self.sample();
    }

    /// Total activity from simulation start (for whole-run energy).
    pub fn total_activity(&self) -> ActivityCounts {
        self.delta_counts(&Snapshot::default(), &self.totals())
    }

    /// Aggregate data-bus utilization over one controller group.
    pub fn bus_utilization(&self, space: MemSpace) -> f64 {
        let ctrls = match space {
            MemSpace::Dram => &self.dram,
            MemSpace::Pim => &self.pim,
        };
        let n = ctrls.len().max(1) as f64;
        ctrls
            .iter()
            .map(|c| c.stats().bus_utilization())
            .sum::<f64>()
            / n
    }

    /// Whether all controllers are fully drained.
    pub fn memory_idle(&self) -> bool {
        self.dram.iter().chain(self.pim.iter()).all(|c| c.idle())
    }

    /// Sum of written bytes on each PIM channel per sampling window.
    pub fn pim_channel_write_windows(&self) -> Vec<Vec<u64>> {
        self.pim
            .iter()
            .map(|c| c.stats().windows.iter().map(|w| w.bytes_written).collect())
            .collect()
    }

    /// Read+written bytes on each DRAM channel per sampling window.
    pub fn dram_channel_windows(&self) -> Vec<Vec<u64>> {
        self.dram
            .iter()
            .map(|c| {
                c.stats()
                    .windows
                    .iter()
                    .map(|w| w.bytes_read + w.bytes_written)
                    .collect()
            })
            .collect()
    }
}

/// The scheduler shadow checker (see [`crate::sanitize`]). Everything
/// here is pure reads over `clocks` and the components; the only
/// mutation is the sanitizer's own log. The fault-injection entry
/// points exist so tests can prove the checker actually fires — they
/// corrupt scheduler state the way a real horizon bug would.
#[cfg(feature = "sanitize")]
impl System {
    /// Collect violations instead of panicking (fault-injection tests).
    pub fn sanitize_record_only(&mut self) {
        self.sanitizer.record_only();
    }

    /// Violations recorded so far (record mode only; panic mode aborts
    /// on the first finding).
    pub fn sanitize_violations(&self) -> &[crate::sanitize::SanitizeViolation] {
        self.sanitizer.violations()
    }

    /// Inject a **stale horizon**: re-aim the DRAM group's domain well
    /// past its true re-derived horizon, as if `apply_horizons` had
    /// trusted a buggy `next_event_cycle` that overshot. The next `step`
    /// must flag it. (Merely *suppressing* a re-aim is not a fault —
    /// `take_due`'s default re-arm at the next grid edge is
    /// conservative — so the injection overshoots instead.)
    ///
    /// # Panics
    ///
    /// Panics if the DRAM group is fully quiescent (nothing to
    /// overshoot past; with refresh modeled this cannot happen).
    pub fn sanitize_inject_stale_horizon(&mut self) {
        let h = Self::group_horizon(&mut self.dram).expect("DRAM group has a horizon to overshoot");
        let e = h.max(self.clocks.delivered(self.domains.dram));
        self.clocks.defer_to_edge(self.domains.dram, e + 64);
    }

    /// Inject a **lost wakeup**: park the DRAM group's domain even
    /// though its controllers still report pending work (the classic
    /// missed-doorbell shape). The next `step` must flag it.
    pub fn sanitize_inject_lost_wakeup(&mut self) {
        assert!(
            Self::group_horizon(&mut self.dram).is_some(),
            "DRAM group must have work for the park to lose"
        );
        self.clocks.park(self.domains.dram);
    }

    /// Inject a **lost engine wakeup**: park engine `s`'s domain even
    /// though the engine can act at its next edge (a memory completion
    /// routed to it without the wake). The next `step` must flag it.
    pub fn sanitize_inject_lost_engine_wakeup(&mut self, s: usize) {
        assert!(
            self.engines[s].next_event_cycle().is_some(),
            "engine {s} must have work for the park to lose"
        );
        self.clocks.park(self.domains.dce[s]);
    }

    /// Inject a **lost CPU wakeup**: park the cluster's domain even
    /// though a core can act at its next edge (a memory completion routed
    /// to the cluster without the wake). The next `step` must flag it.
    pub fn sanitize_inject_lost_cpu_wakeup(&mut self) {
        assert!(
            self.cluster.next_event_cycle().is_some(),
            "the cluster must have work for the park to lose"
        );
        self.clocks.park(self.domains.cpu);
    }

    /// Check 4 for composer-owned domains: each `(domain, edge)` pairs
    /// a registered domain with the grid edge its composer re-derived
    /// from scratch (`None`: the domain has nothing to do). Findings go
    /// to the same log as the internal domains'.
    pub fn sanitize_check_external(&mut self, horizons: &[(DomainId, Option<u64>)]) {
        for &(d, h) in horizons {
            if let Some(v) = self.horizon_finding(d, h) {
                self.sanitizer.report(v);
            }
        }
    }

    /// Check 4 (lost wakeup / stale horizon) for the internal domains,
    /// run as a step begins: every component's horizon is re-derived
    /// from the state the previous step and the composer's inputs since
    /// left, and compared with its domain's armed wake. (The sample
    /// domain has no component; composer-registered domains are checked
    /// through [`sanitize_check_external`](Self::sanitize_check_external).)
    fn sanitize_horizons(&mut self) {
        let mut horizons: Vec<(DomainId, Option<u64>)> = vec![
            (self.domains.cpu, self.cluster.next_event_cycle()),
            (self.domains.dram, Self::group_horizon(&mut self.dram)),
            (self.domains.pim, Self::group_horizon(&mut self.pim)),
        ];
        for (s, e) in self.engines.iter().enumerate() {
            horizons.push((self.domains.dce[s], e.next_event_cycle()));
        }
        self.sanitize_check_external(&horizons);
    }

    /// The check-4 finding for domain `d` whose component needs grid
    /// edge `h` (`None`: no work), if its armed wake disagrees.
    fn horizon_finding(
        &self,
        d: DomainId,
        h: Option<u64>,
    ) -> Option<crate::sanitize::SanitizeViolation> {
        use crate::sanitize::{SanitizeKind, SanitizeViolation};
        // Horizons at or before the delivered count mean "tick me at the
        // very next edge".
        let want = h?.max(self.clocks.delivered(d));
        if !self.clocks.armed(d) {
            Some(SanitizeViolation {
                kind: SanitizeKind::LostWakeup,
                domain: self.clocks.label(d),
                t: self.t,
                detail: format!(
                    "component needs edge {want} but its domain is parked — the work would sleep forever"
                ),
            })
        } else if self.clocks.pending_edge(d) > want {
            Some(SanitizeViolation {
                kind: SanitizeKind::StaleHorizon,
                domain: self.clocks.label(d),
                t: self.t,
                detail: format!(
                    "armed for edge {} but the re-derived horizon is edge {want} — the wake would arrive after the work was due",
                    self.clocks.pending_edge(d)
                ),
            })
        } else {
            None
        }
    }

    /// Run the shadow checks for the step that just completed at tick
    /// `now` (checks 1, 2 and 3 of [`crate::sanitize`]; check 4 runs as
    /// the next step begins).
    fn sanitize_check(&mut self, now: u64) {
        use crate::sanitize::{SanitizeKind, SanitizeViolation};
        self.sanitizer.observe_event(now);

        let mut findings: Vec<SanitizeViolation> = Vec::new();
        // Check 2: no domain (internal or composer-registered) may hold
        // a pending delivery at or before the edge just processed —
        // every due domain was delivered this step.
        for i in 0..self.clocks.len() {
            let d = DomainId::from_index(i);
            if self.clocks.armed(d) && self.clocks.next_tick(d) <= now {
                findings.push(SanitizeViolation {
                    kind: SanitizeKind::ArmedInPast,
                    domain: self.clocks.label(d),
                    t: now,
                    detail: format!(
                        "armed at tick {} which is not after the current event",
                        self.clocks.next_tick(d)
                    ),
                });
            }
        }

        // Check 3: skip reconciliation — neither a component's clock
        // nor a domain's delivered count may run ahead of the grid.
        let mut clock_ahead = |domain: &'static str, clock: u64, limit: u64, what: &str| {
            if clock > limit {
                findings.push(SanitizeViolation {
                    kind: SanitizeKind::ClockAhead,
                    domain,
                    t: now,
                    detail: format!("{what} {clock} exceeds grid edges {limit} at t={now}"),
                });
            }
        };
        for i in 0..self.clocks.len() {
            let d = DomainId::from_index(i);
            clock_ahead(
                self.clocks.label(d),
                self.clocks.delivered(d),
                self.clocks.edges_through(d, now),
                "delivered edges",
            );
        }
        clock_ahead(
            "cpu",
            self.cluster.clock(),
            self.clocks.edges_through(self.domains.cpu, now),
            "component clock",
        );
        for (s, e) in self.engines.iter().enumerate() {
            clock_ahead(
                "dce",
                e.cycle(),
                self.clocks.edges_through(self.domains.dce[s], now),
                "component clock",
            );
        }
        for (dom, ctrls) in [
            (self.domains.dram, &self.dram),
            (self.domains.pim, &self.pim),
        ] {
            for c in ctrls.iter() {
                clock_ahead(
                    self.clocks.label(dom),
                    c.clock(),
                    self.clocks.edges_through(dom, now),
                    "component clock",
                );
            }
        }

        for v in findings {
            self.sanitizer.report(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignPoint;

    #[test]
    fn empty_system_advances_time() {
        let cfg = SystemConfig::table1(DesignPoint::Baseline);
        let mut sys = System::new(cfg, vec![]);
        let done = sys.run_until(10_000.0, |_| false);
        assert!(!done);
        assert!(sys.now_ns() >= 10_000.0 - 1.0);
        assert!(sys.memory_idle());
    }

    #[test]
    fn dce_present_only_when_designed() {
        let sys = System::new(SystemConfig::table1(DesignPoint::Baseline), vec![]);
        assert!(sys.engines().is_empty());
        let sys = System::new(SystemConfig::table1(DesignPoint::BaseDHP), vec![]);
        assert_eq!(sys.engines().len(), 1);
    }

    #[test]
    fn domains_follow_design_point() {
        // Baseline: cpu + dram + pim + sample. DCE designs add one more.
        let base = System::new(SystemConfig::table1(DesignPoint::Baseline), vec![]);
        assert_eq!(base.clock_domains().len(), 4);
        let full = System::new(SystemConfig::table1(DesignPoint::BaseDHP), vec![]);
        assert_eq!(full.clock_domains().len(), 5);
        assert_eq!(full.clock_domains().label(full.domains.cpu), "cpu");
    }

    #[test]
    fn engine_array_follows_dce_count() {
        let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
        cfg.dce_count = 4;
        let sys = System::new(cfg, vec![]);
        assert_eq!(sys.engines().len(), 4);
        // cpu + dram + pim + sample + one domain per engine.
        assert_eq!(sys.clock_domains().len(), 8);
        for (s, e) in sys.engines().iter().enumerate() {
            assert_eq!(e.shard(), u32::try_from(s).unwrap());
        }
        // Designs without a DCE ignore the count.
        let mut base = SystemConfig::table1(DesignPoint::Baseline);
        base.dce_count = 4;
        assert!(System::new(base, vec![]).engines().is_empty());
    }

    #[test]
    fn registered_domain_fires_and_peek_matches_step() {
        let cfg = SystemConfig::table1(DesignPoint::BaseDHP);
        let mut sys = System::new(cfg, vec![]);
        let dom = sys.register_domain("runtime", 312);
        let mut peeked = 0;
        let mut fired = 0;
        for _ in 0..200 {
            let pending = sys.pending();
            if pending.contains(dom) {
                peeked += 1;
            }
            let f = sys.step();
            assert_eq!(pending.now, f.now, "peek must predict the edge");
            assert_eq!(pending.contains(dom), f.contains(dom));
            if f.contains(dom) {
                fired += 1;
            }
        }
        assert_eq!(peeked, fired);
        assert!(fired > 0, "a 3.2 GHz domain fires within 200 events");
        assert_eq!(sys.clock_domains().label(dom), "runtime");
    }

    #[test]
    #[should_panic(expected = "before the first step")]
    fn late_domain_registration_is_rejected() {
        let mut sys = System::new(SystemConfig::table1(DesignPoint::Baseline), vec![]);
        // Even the first step (which only fires the t = 0 edges) closes
        // the registration window: a domain added after it would miss
        // the t = 0 edge the other components already processed.
        sys.step();
        sys.register_domain("late", 312);
    }

    #[test]
    fn self_profile_attributes_scheduler_work_per_domain() {
        let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
        cfg.timing = TimingMode::EventDriven;
        let mut sys = System::new(cfg, vec![]);
        assert!(!sys.self_profile_enabled());
        sys.enable_self_profile();
        assert!(sys.self_profile_enabled());
        sys.run_until(10_000.0, |_| false);

        let prof = sys.self_profile();
        assert_eq!(prof.len(), sys.clock_domains().len());
        assert!(prof.iter().any(|p| p.label == "cpu"));
        // The per-domain attribution partitions the aggregate counters.
        let stats = sys.timing_stats();
        assert_eq!(
            prof.iter().map(|p| p.fires).sum::<u64>(),
            stats.domain_ticks
        );
        assert_eq!(
            prof.iter().map(|p| p.skipped).sum::<u64>(),
            stats.edges_skipped
        );
        // An idle machine elides most edges somewhere.
        assert!(prof.iter().any(|p| p.skipped > 0));
        // Wall time was measured (host clocks on this platform are ns
        // resolution; thousands of phase timings cannot sum to zero).
        assert!(prof.iter().map(|p| p.wall_ns).sum::<u64>() > 0);
        // Composer credit lands in the right bucket.
        let d = DomainId::from_index(0);
        let before = sys.self_profile()[0].wall_ns;
        sys.credit_domain_wall_ns(d, 17);
        assert_eq!(sys.self_profile()[0].wall_ns, before + 17);
    }

    #[test]
    fn refused_requests_stay_queued_in_order() {
        use pim_dram::{AccessKind, ControllerConfig, MemRequest, SourceId};
        use pim_mapping::{DramAddr, PhysAddr};

        let mut sys = System::new(SystemConfig::table1(DesignPoint::Baseline), vec![]);
        // 100 reads for DRAM channel 0: its empty read queue takes the
        // first `read_q_cap` (64), and the refusal stops the drain there.
        let mut outbox: VecDeque<OutRequest> = (0..100)
            .map(|id| OutRequest {
                space: MemSpace::Dram,
                req: MemRequest::read(id, PhysAddr(id * 64), DramAddr::default(), SourceId(0)),
            })
            .collect();
        System::drain_requests(
            &mut outbox,
            &mut sys.dram,
            &mut sys.pim,
            &mut sys.clocks,
            &sys.domains,
            0,
            PhasePos::PRE,
        );
        let cap = ControllerConfig::default().read_q_cap;
        assert_eq!(sys.dram[0].inflight(), cap);
        assert!(!sys.dram[0].can_accept(AccessKind::Read));
        // The rest stay queued, in their original order.
        assert!(outbox.iter().map(|o| o.req.id).eq(cap as u64..100));
    }

    #[test]
    fn sampling_produces_series() {
        let mut cfg = SystemConfig::table1(DesignPoint::Baseline);
        cfg.sample_ns = 1000.0;
        let mut sys = System::new(cfg, vec![]);
        sys.run_until(10_500.0, |_| false);
        assert!(sys.power_samples().len() >= 10);
        // Idle system: only the static floor, zero active cores.
        let s = sys.power_samples().last().unwrap();
        assert_eq!(s.active_cores, 0);
        assert!(s.watts > 30.0 && s.watts < 65.0, "{}", s.watts);
    }
}
