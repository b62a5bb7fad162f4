//! Composition of a [`Runtime`] with the simulated machine: the host
//! (one driver context that rings the engines' doorbells and fields
//! their completion interrupts) owns one clock domain, labelled
//! `runtime`, registered with the system's
//! [`ClockDomains`](pim_sim::ClockDomains). Its period is
//! [`HostQueueConfig::poll_period_ps`](pim_hostq::HostQueueConfig::poll_period_ps)
//! (312 ps by default), and it acts at each of its edges *before* the
//! machine's components tick — so a doorbell lands ahead of the
//! engine's cycle at the same edge, exactly like the one-shot
//! harness's submit-then-run ordering.
//!
//! At each host edge, in this order: arrivals are admitted, every
//! shard's completion ring is polled (draining the engine's
//! retirements and fielding coalesced interrupts), and the shard-aware
//! dispatch runs over the whole engine array. A poll and a dispatch at
//! one edge are exactly the synchronous completion-then-submit
//! handshake.
//!
//! Sharding: the machine instantiates one DCE (with its own clock
//! domain and shard-tagged memory traffic) per runtime shard.

use crate::runtime::Runtime;
use pim_hostq::QueuePair;
use pim_mmu::Dce;
use pim_sim::{ns_to_ticks, ticks_to_ns, DomainId, System, SystemConfig, TimingMode};
use pim_telemetry::{Counters, SampleSeries, SloConfig, SloTracker, TelemetrySnapshot};

/// Undrained device-side span events a DCE's tap can hold between ring
/// polls. Polls drain every few ns, so this is generous headroom.
const SPAN_TAP_CAPACITY: usize = 4096;

/// The time-series sampler: its clock domain (so under event-driven
/// timing a sample deadline is just another edge and idle-skip still
/// engages), the series, and the per-shard serviced-bytes basis of the
/// previous sample (goodput is a windowed delta).
struct Sampler {
    dom: DomainId,
    series: SampleSeries,
    last_serviced: Vec<u64>,
}

/// The online SLO monitor: the tracker itself, each tenant's class
/// index (resolved once from [`TenantSpec::class`]), and a cursor into
/// the runtime's completed-job records marking how many have already
/// been fed to the tracker.
///
/// [`TenantSpec::class`]: crate::TenantSpec::class
struct Slo {
    tracker: SloTracker,
    class: Vec<usize>,
    fed: usize,
}

/// A [`System`] serving sustained multi-tenant transfer traffic.
pub struct ServingSystem {
    sys: System,
    runtime: Runtime,
    /// The host clock domain (period `hostq.poll_period_ps`).
    host: DomainId,
    /// Present only when [`RuntimeConfig::telemetry`] is enabled — a
    /// disabled configuration registers no extra domain and perturbs
    /// nothing.
    ///
    /// [`RuntimeConfig::telemetry`]: crate::RuntimeConfig::telemetry
    sampler: Option<Sampler>,
    /// Present only after [`attach_slo`](Self::attach_slo).
    slo: Option<Slo>,
}

impl ServingSystem {
    /// Compose `runtime` with the machine described by `cfg`. The
    /// runtime's DCE mode is aligned with the design point's (the
    /// ablation switch stays the single source of truth), and the
    /// machine instantiates one engine per runtime shard.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.design` has no DCE to serve transfers with, or if
    /// the tenant core placement (`core_stride` × tenant count +
    /// `n_cores`) overruns the machine's PIM core count — caught here
    /// at configuration time so it cannot surface as a mid-simulation
    /// address-space panic.
    pub fn new(mut cfg: SystemConfig, mut runtime: Runtime) -> Self {
        assert!(
            cfg.design.uses_dce(),
            "a serving runtime needs a DCE design point"
        );
        assert!(
            runtime.max_core_exclusive() <= cfg.pim_org.total_banks(),
            "tenant core placement targets core {} but the machine has {} PIM cores",
            runtime.max_core_exclusive().saturating_sub(1),
            cfg.pim_org.total_banks()
        );
        runtime.set_mode(cfg.design.dce_mode());
        // One engine per shard: the runtime's shard count is the single
        // source of truth for the serving machine.
        cfg.dce_count = runtime.config().shards;
        let host_ps = runtime.config().hostq.poll_period_ps;
        let telemetry = runtime.config().telemetry;
        let shards = runtime.config().shards;
        let mut sys = System::new(cfg, vec![]);
        let host = sys.register_domain("runtime", host_ps);
        let sampler = telemetry.enabled.then(|| {
            // Truncation intended: sub-ps remainders of the configured
            // sampling interval cannot matter.
            #[allow(clippy::cast_possible_truncation)]
            let period_ps = (telemetry.sample_ns * 1000.0).max(1.0) as u64;
            let columns: Vec<String> = ["backlog", "in_flight_bytes", "edges_skipped"]
                .into_iter()
                .map(String::from)
                .chain((0..shards).map(|s| format!("shard{s}_goodput_gbps")))
                .collect();
            let refs: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
            Sampler {
                dom: sys.register_domain("telemetry", period_ps),
                series: SampleSeries::new(&refs, telemetry.sample_ns),
                last_serviced: vec![0; shards],
            }
        });
        if telemetry.enabled {
            for dce in sys.engines_mut() {
                let ns_per_cycle = dce.config().period_ps() as f64 / 1000.0;
                dce.enable_span_tap(ns_per_cycle, SPAN_TAP_CAPACITY);
            }
        }
        ServingSystem {
            sys,
            runtime,
            host,
            sampler,
            slo: None,
        }
    }

    /// Attach an online SLO tracker: one [`SloConfig`] per tenant
    /// class, indexed by [`TenantSpec::class`]. Completed jobs stream
    /// into the tracker as they are recorded; burn rates are evaluated
    /// at the telemetry sampling edge. Attach after construction
    /// (objectives carry class-name strings, so they do not live in the
    /// `Copy` [`RuntimeConfig`]).
    ///
    /// # Panics
    ///
    /// Panics when telemetry is disabled (there is no sampling edge to
    /// evaluate at) or when a tenant's class has no objective.
    ///
    /// [`TenantSpec::class`]: crate::TenantSpec::class
    /// [`RuntimeConfig`]: crate::RuntimeConfig
    pub fn attach_slo(&mut self, cfgs: Vec<SloConfig>) {
        let sampler = self.sampler.as_ref().expect(
            "SLO tracking samples at the telemetry cadence: enable RuntimeConfig::telemetry first",
        );
        let class: Vec<usize> = self
            .runtime
            .tenant_classes()
            .into_iter()
            .map(|c| {
                assert!(
                    (c as usize) < cfgs.len(),
                    "tenant class {c} has no SloConfig (got {})",
                    cfgs.len()
                );
                c as usize
            })
            .collect();
        self.slo = Some(Slo {
            tracker: SloTracker::new(cfgs, sampler.series.period_ns()),
            class,
            fed: self.runtime.records().len(),
        });
    }

    /// The attached SLO tracker (None until [`attach_slo`](Self::attach_slo)).
    pub fn slo(&self) -> Option<&SloTracker> {
        self.slo.as_ref().map(|s| &s.tracker)
    }

    /// Arm the machine's wall-time self-profile (see
    /// [`System::enable_self_profile`]); the composer's own domains
    /// (`runtime`, `telemetry`) are credited too.
    pub fn enable_self_profile(&mut self) {
        self.sys.enable_self_profile();
    }

    /// The runtime (queues, stats, records).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The recorded time series (None when telemetry is disabled).
    pub fn sample_series(&self) -> Option<&SampleSeries> {
        self.sampler.as_ref().map(|s| &s.series)
    }

    /// Drain every engine's span tap into the flight recorder. The ring
    /// poll drains taps at the edge after each event is recorded; call
    /// this once after a run so events recorded after the final poll are
    /// not stranded.
    pub fn flush_spans(&mut self) {
        for dce in self.sys.engines_mut() {
            dce.drain_spans(self.runtime.recorder_mut());
        }
    }

    /// Freeze every layer's counters into one flat, named snapshot:
    /// event-core timing, aggregate and per-shard host-interface and
    /// engine counters, and per-tenant serving stats. Deterministic
    /// emission order; works with telemetry disabled too (the counters
    /// exist regardless).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new(self.sys.now_ns());
        self.sys
            .timing_stats()
            .counters("timing", &mut snap.counters);
        self.runtime
            .host_stats()
            .counters("host", &mut snap.counters);
        self.runtime
            .ring_stats()
            .counters("ring", &mut snap.counters);
        for (s, dce) in self.sys.engines().iter().enumerate() {
            dce.stats()
                .counters(&format!("shard{s}.dce"), &mut snap.counters);
            self.runtime.queue_pairs()[s]
                .stats()
                .counters(&format!("shard{s}.ring"), &mut snap.counters);
        }
        for (i, (name, stats)) in self.runtime.tenant_stats().into_iter().enumerate() {
            stats.counters(&format!("tenant{i}.{name}"), &mut snap.counters);
        }
        snap
    }

    /// The underlying machine.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Current simulated time, ns.
    pub fn now_ns(&self) -> f64 {
        self.sys.now_ns()
    }

    /// Advance one event: at a host edge, admit arrivals, poll every
    /// shard's completion ring (drain its retirements, field its
    /// interrupts), then run the shard-aware dispatch over the whole
    /// engine array; then step the machine. Poll-before-dispatch at one
    /// edge is the synchronous handshake's completion-then-submit
    /// ordering.
    pub fn step(&mut self) {
        #[cfg(feature = "sanitize")]
        {
            let horizon = self.host_horizon();
            self.sys.sanitize_check_external(&[(self.host, horizon)]);
        }
        let pending = self.sys.pending();
        let now_ns = ticks_to_ns(pending.now);
        // Host-side wall-time credit (self-profile only; None otherwise
        // so the disabled path never reads the host clock).
        let profiling = self.sys.self_profile_enabled();
        let timer = || profiling.then(std::time::Instant::now);
        let elapsed = |t0: Option<std::time::Instant>| {
            t0.map_or(0, |t| {
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
        };
        if let Some(smp) = &mut self.sampler {
            if pending.contains(smp.dom) {
                let t0 = timer();
                // Sample the pre-edge state: queue depths and counters
                // as the host left them after the previous edge.
                let shards = self.runtime.config().shards;
                let mut row = Vec::with_capacity(3 + shards);
                row.push(self.runtime.backlog() as f64);
                row.push(
                    self.runtime
                        .queue_pairs()
                        .iter()
                        .map(QueuePair::in_flight_bytes)
                        .sum::<u64>() as f64,
                );
                row.push(self.sys.timing_stats().edges_skipped as f64);
                let serviced = self.runtime.serviced_by_shard();
                for (s, total) in serviced.iter().enumerate().take(shards) {
                    let delta = total - smp.last_serviced[s];
                    smp.last_serviced[s] = *total;
                    // bytes per ns = (decimal) GB/s.
                    row.push(delta as f64 / smp.series.period_ns());
                }
                smp.series.record(now_ns, &row);
                let dom = smp.dom;
                self.sys.credit_domain_wall_ns(dom, elapsed(t0));
            }
        }
        let host_fired = pending.contains(self.host);
        if host_fired {
            let t0 = timer();
            self.runtime.admit_arrivals(now_ns);
            for (s, dce) in self.sys.engines_mut().iter_mut().enumerate() {
                self.runtime.poll_shard(s, dce, now_ns);
            }
            // Dispatch stamps descriptors with engine cycle counts: make
            // sure slept engines read as of this tick, then ring the
            // doorbell wake so a newly staged chunk's engine fires
            // within this very step.
            self.sys.sync_engines_to(pending.now);
            self.runtime.dispatch(self.sys.engines_mut(), now_ns);
            self.sys.wake_engines(pending.now);
            self.sys.credit_domain_wall_ns(self.host, elapsed(t0));
        }
        if let Some(slo) = &mut self.slo {
            // Stream completions recorded by this step's polls (and any
            // earlier step's) into the tracker, then evaluate burn
            // rates at the telemetry sampling edge.
            let records = self.runtime.records();
            for r in &records[slo.fed..] {
                slo.tracker.observe(
                    slo.class[r.tenant],
                    r.complete_ns,
                    r.complete_ns - r.submit_ns,
                    r.bytes,
                );
            }
            slo.fed = records.len();
            let sampler = self
                .sampler
                .as_ref()
                .expect("attach_slo requires telemetry");
            if pending.contains(sampler.dom) {
                slo.tracker.sample(now_ns);
            }
        }
        self.sys.step();
        self.set_host_horizon(host_fired);
    }

    /// Re-aim the host domain after a step (event-driven mode only) at
    /// its [horizon](Self::host_horizon). The horizon can only move
    /// when the host acted or an engine left something for the poll;
    /// otherwise the armed wake stands, and an unmoved horizon is not
    /// re-aimed.
    fn set_host_horizon(&mut self, host_fired: bool) {
        if self.sys.cfg.timing != TimingMode::EventDriven {
            return;
        }
        if !host_fired && !self.sys.engines().iter().any(Dce::awaits_poll) {
            return;
        }
        let horizon = self.host_horizon();
        self.sys.set_domain_horizon(self.host, horizon);
    }

    /// The first host edge that can act, derived from scratch from the
    /// state the last step left (`None`: the host has nothing to do).
    /// It is the earliest of:
    ///
    /// * the edge after an engine holds an undrained retirement record
    ///   or span event, and a ring's interrupt-coalescing deadline — a
    ///   poll has something to drain, reap or field (a fielded
    ///   interrupt frees a slot, settles jobs and can change which chunk
    ///   is kickable, and the dispatch sees it at the same edge);
    /// * the next arrival;
    /// * the first time a shard's driver is ready while it has a free
    ///   ring slot and work to take;
    /// * the edge a preemption comes due — at once for a priority kick,
    ///   at the quantum's expiry for a time slice.
    ///
    /// Between those, an edge admits, drains, fields and dispatches
    /// nothing.
    fn host_horizon(&self) -> Option<u64> {
        let clocks = self.sys.clock_domains();
        let host = self.host;
        // The first edge strictly after the step just taken.
        let next = clocks.edges_through(host, self.sys.now_ticks());
        let at_tick = |tick: u64| clocks.edge_at_or_after(host, tick).max(next);
        let at_ns = |ns: f64| clocks.edge_at_or_after_ns(host, ns).max(next);
        let engines_hold_output = self.sys.engines().iter().any(Dce::awaits_poll);
        engines_hold_output
            .then_some(next)
            .into_iter()
            .chain(
                [
                    self.runtime.interrupt_due_ns(),
                    self.runtime.next_arrival_ns(),
                    self.runtime.dispatch_ready_ns(),
                ]
                .into_iter()
                .flatten()
                .map(at_ns),
            )
            .chain(
                self.runtime
                    .preemption_due(self.sys.engines())
                    .into_iter()
                    .map(|(s, cycle)| at_tick(self.sys.engine_cycle_tick(s, cycle))),
            )
            .min()
    }

    /// Run until `horizon_ns` of simulated time has elapsed: every
    /// event strictly before the horizon is processed, then the engines'
    /// clocks are caught up to it — so what the run leaves does not
    /// depend on which edges were armed.
    pub fn run_for(&mut self, horizon_ns: f64) {
        let horizon = ns_to_ticks(horizon_ns);
        while self.sys.pending().now < horizon {
            self.step();
        }
        self.sys.sync_engines_to(horizon);
    }

    /// Run until the runtime is fully drained (no future arrivals, empty
    /// queues, idle engine) or `max_ns` elapses; returns whether it
    /// drained.
    pub fn run_until_drained(&mut self, max_ns: f64) -> bool {
        while self.sys.now_ns() < max_ns {
            if self.runtime.drained() {
                return true;
            }
            self.step();
        }
        self.runtime.drained()
    }
}

/// Fault injection for the scheduler shadow checker (see
/// [`pim_sim::sanitize`]): it must flag a host domain left parked with
/// work, exactly as it flags a machine component.
#[cfg(feature = "sanitize")]
impl ServingSystem {
    /// Collect checker findings instead of panicking (see
    /// [`System::sanitize_record_only`]).
    pub fn sanitize_record_only(&mut self) {
        self.sys.sanitize_record_only();
    }

    /// Inject a **lost host wakeup**: park the host domain while an
    /// engine holds a retirement record it has not drained. The next
    /// `step` must flag it.
    ///
    /// # Panics
    ///
    /// Panics if no engine holds an undrained record or span event.
    pub fn sanitize_inject_lost_host_wakeup(&mut self) {
        assert!(
            self.sys.engines().iter().any(Dce::awaits_poll),
            "an engine must hold a record for the park to lose"
        );
        self.sys.set_domain_horizon(self.host, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{ArrivalProcess, JobSizer};
    use crate::policy::Fcfs;
    use crate::runtime::{RuntimeConfig, TenantSpec};
    use pim_mmu::XferKind;
    use pim_sim::DesignPoint;

    fn tiny_tenant(times: Vec<f64>) -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            kind: XferKind::DramToPim,
            arrival: ArrivalProcess::Trace(times),
            sizer: JobSizer::Fixed {
                per_core_bytes: 256,
                n_cores: 8,
            },
            priority: 0,
            weight: 1,
            class: 0,
        }
    }

    #[test]
    fn serving_drains_a_small_trace() {
        let cfg = SystemConfig::table1(DesignPoint::BaseDHP);
        let rt_cfg = RuntimeConfig {
            open_until_ns: 10_000.0,
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::new(
            rt_cfg,
            vec![tiny_tenant(vec![0.0, 100.0, 200.0])],
            Box::new(Fcfs),
        );
        let mut serving = ServingSystem::new(cfg, runtime);
        assert!(serving.run_until_drained(1e8));
        let rec = serving.runtime().records();
        assert_eq!(rec.len(), 3);
        assert!(rec.windows(2).all(|w| w[0].complete_ns <= w[1].complete_ns));
        let (_, stats) = serving.runtime().tenant_stats()[0];
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.bytes_completed, 3 * 8 * 256);
        assert_eq!(serving.runtime().missed_dispatches(), 0);
    }

    #[test]
    fn slo_tracker_streams_completions_and_samples() {
        let cfg = SystemConfig::table1(DesignPoint::BaseDHP);
        let mut rt_cfg = RuntimeConfig {
            open_until_ns: 1_000.0,
            ..RuntimeConfig::default()
        };
        rt_cfg.telemetry = pim_telemetry::TelemetryConfig::on();
        rt_cfg.telemetry.sample_ns = 1_000.0;
        let runtime = Runtime::new(
            rt_cfg,
            vec![tiny_tenant(vec![0.0, 100.0, 200.0])],
            Box::new(Fcfs),
        );
        let mut serving = ServingSystem::new(cfg, runtime);
        assert!(serving.slo().is_none());
        serving.attach_slo(vec![
            pim_telemetry::SloConfig::latency("all", 1e6, 0.9).with_windows(10_000.0, 50_000.0)
        ]);
        serving.run_for(30_000.0);
        assert_eq!(serving.runtime().records().len(), 3);
        let slo = serving.slo().unwrap();
        // One burn-rate row per telemetry edge, even after drain.
        assert!(slo.series().len() >= 20, "{}", slo.series().len());
        // A 1 ms objective against ~µs jobs: nothing burns.
        let fast = slo.series().column("all.burn_fast").unwrap();
        assert!(fast.iter().all(|&(_, v)| v == 0.0));
        assert!(slo.breaches().is_empty());
        // A goodput row is nonzero while the trace is being served.
        let goodput = slo.series().column("all.goodput_gbps").unwrap();
        assert!(goodput.iter().any(|&(_, v)| v > 0.0));
    }

    #[test]
    #[should_panic(expected = "telemetry")]
    fn slo_without_telemetry_is_rejected() {
        let runtime = Runtime::new(
            RuntimeConfig::default(),
            vec![tiny_tenant(vec![0.0])],
            Box::new(Fcfs),
        );
        let mut serving = ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
        serving.attach_slo(vec![pim_telemetry::SloConfig::latency("all", 1e6, 0.9)]);
    }

    #[test]
    #[should_panic(expected = "has no SloConfig")]
    fn unmapped_tenant_class_is_rejected() {
        let rt_cfg = RuntimeConfig {
            telemetry: pim_telemetry::TelemetryConfig::on(),
            ..RuntimeConfig::default()
        };
        let mut t = tiny_tenant(vec![0.0]);
        t.class = 3;
        let runtime = Runtime::new(rt_cfg, vec![t], Box::new(Fcfs));
        let mut serving = ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
        serving.attach_slo(vec![pim_telemetry::SloConfig::latency("only", 1e6, 0.9)]);
    }

    #[test]
    #[should_panic(expected = "DCE design point")]
    fn baseline_designs_cannot_serve() {
        let runtime = Runtime::new(RuntimeConfig::default(), vec![], Box::new(Fcfs));
        ServingSystem::new(SystemConfig::table1(DesignPoint::Baseline), runtime);
    }

    #[test]
    #[should_panic(expected = "PIM cores")]
    fn core_placement_overrunning_the_machine_is_rejected_at_composition() {
        // 8 tenants x stride 64 + 64 cores = core 512 exclusive bound
        // is fine on the 512-core Table-I machine; a 9th tenant is not.
        let cfg = RuntimeConfig {
            core_stride: 64,
            ..RuntimeConfig::default()
        };
        let tenants: Vec<TenantSpec> = (0..9)
            .map(|i| {
                let mut t = tiny_tenant(vec![0.0]);
                t.name = format!("t{i}");
                if let crate::arrival::JobSizer::Fixed { n_cores, .. } = &mut t.sizer {
                    *n_cores = 64;
                }
                t
            })
            .collect();
        let runtime = Runtime::new(cfg, tenants, Box::new(Fcfs));
        assert_eq!(runtime.max_core_exclusive(), 8 * 64 + 64);
        ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
    }
}
