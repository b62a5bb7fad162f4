//! The transfer-queue runtime: per-tenant submission queues fed by
//! arrival generators, a pluggable QoS scheduler posting chunked
//! [`pim_mmu::PimMmuOp`]s through a doorbell/queue-pair host
//! interface ([`pim_hostq::QueuePair`]), and the completion path
//! routing ring retirements back to the owning tenant through the
//! driver latency model.
//!
//! The runtime keeps no clock of its own: the composer (see
//! [`crate::serving`]) runs it on the host clock, whose period is
//! [`HostQueueConfig::poll_period_ps`], and hands it each edge's time.
//! At an edge, always *before* the engines' own tick, it calls
//! [`admit_arrivals`](Runtime::admit_arrivals) to drain due arrivals
//! into the tenant queues, then the two host-interface paths:
//!
//! * [`poll_shard`](Runtime::poll_shard) — the completion-ring poller,
//!   once per shard: drain that engine's retirement records into its
//!   queue pair and, once the interrupt coalescer fires, field one
//!   interrupt for the whole completed batch;
//! * [`dispatch`](Runtime::dispatch) — the shard-aware submission
//!   path over the whole engine array: while rings have free slots and
//!   their drivers are not busy, let the policy pick chunks, place
//!   each on a shard ([`Placement`]: hash-pin or least-loaded
//!   work-stealing), and publish every shard's batch with one doorbell
//!   write each ([`Dce::enqueue`] keeps each engine fed device-side
//!   with no host round trip between chunks).
//!
//! With the identity host-queue configuration (depth 1, coalescing
//! off — the default) this is exactly the paper's synchronous
//! `pim_mmu_transfer` handshake: the same submit-then-run ordering and
//! driver accounting as the one-shot harness, which is what makes a
//! single-tenant FCFS run reproduce `pim_sim::run_transfer` bit for
//! bit (pinned by `tests/serving_runtime.rs` and the golden regression
//! in `tests/hostq_regression.rs`).

use crate::arrival::{ArrivalGen, ArrivalProcess, JobSizer, Rng};
use crate::job::{ChunkAnchor, Job, JobRecord, JobSpec};
use crate::metrics::{jain_index, jain_satisfaction, HostIfaceStats, TenantStats};
use crate::policy::{HeadView, QueuePolicy, QueueView};
use pim_hostq::{Descriptor, DescriptorTag, HostQueueConfig, HostQueueStats, QueuePair};
use pim_mapping::{PhysAddr, PimAddrSpace};
use pim_mmu::{Dce, DceMode, DriverModel, PimMmuOp, SuspendedTransfer, XferKind};
use pim_sim::{period_ticks, HOST_BUFFER_BASE, TICKS_PER_NS};
use pim_telemetry::{FlightRecorder, SpanEvent, SpanKind, TelemetryConfig};
use std::collections::{BTreeMap, VecDeque};

/// DRAM staging-buffer stride between tenants.
const DRAM_STRIDE: u64 = 128 << 20;
/// MRAM heap-offset stride between tenants.
const HEAP_STRIDE: u64 = 1 << 20;

/// Where a policy-picked chunk is placed in a sharded runtime (which
/// engine's queue pair receives it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Tenant → shard by hash (`tenant index mod shard count`): every
    /// tenant's chunks always flow through the same engine, giving each
    /// tenant-group a private queue pair (per-tenant QoS isolation, and
    /// with `shards == tenants` literally per-tenant queue pairs). Under
    /// skewed load a hot tenant cannot use another shard's idle
    /// bandwidth.
    HashPin,
    /// Least-loaded / work-stealing: each policy-picked chunk goes to
    /// the shallowest eligible ring (free slots, driver not busy; ties
    /// break toward the lowest shard id). Hot tenants steal idle
    /// shards' bandwidth, at the cost of spreading a tenant's chunks
    /// over engines.
    LeastLoaded,
}

impl Placement {
    /// CLI/report label.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::HashPin => "hash-pin",
            Placement::LeastLoaded => "least-loaded",
        }
    }

    /// Both placements, in report order.
    pub const ALL: [Placement; 2] = [Placement::HashPin, Placement::LeastLoaded];
}

/// Whether (and when) the runtime preempts a chunk *mid-transfer* by
/// suspending the engine ([`Dce::request_suspend`]). Chunk-boundary
/// preemption — the policy interleaving different tenants' chunks — is
/// always on; this knob adds the engine-side kick that bounds the top
/// class's wait below one chunk's service time, which is what keeps its
/// tail latency flat as `chunk_bytes` grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preemption {
    /// Never suspend: a dispatched chunk runs to retirement (the PR 4
    /// behavior, bit-for-bit — the golden regression anchor).
    Off,
    /// Engine time-slicing: suspend the in-service chunk once its
    /// activation has held the engine for `device_cycles` engine cycles
    /// *and* another tenant has dispatchable work. Bounds any tenant's
    /// monopoly of the engine regardless of `chunk_bytes`.
    Quantum {
        /// Max engine cycles one activation may hold the engine while
        /// others wait (3.2 GHz ⇒ 3200 cycles = 1 µs).
        device_cycles: u64,
    },
    /// Urgency-driven kick: when a waiting head is *strictly more
    /// urgent* than the chunk in service (per
    /// [`QueuePolicy::urgency`] — under [`StrictPriority`], a more
    /// important class), suspend the in-service chunk. Policies without
    /// an urgency notion never kick, so this degenerates to
    /// [`Preemption::Off`]
    /// under FCFS/SJF/DRR.
    ///
    /// [`QueuePolicy::urgency`]: crate::QueuePolicy::urgency
    /// [`StrictPriority`]: crate::StrictPriority
    PriorityKick,
}

impl Preemption {
    /// CLI/report label.
    pub fn name(&self) -> &'static str {
        match self {
            Preemption::Off => "off",
            Preemption::Quantum { .. } => "quantum",
            Preemption::PriorityKick => "kick",
        }
    }

    /// The three modes in report order, with the given quantum.
    pub fn modes(device_cycles: u64) -> [Preemption; 3] {
        [
            Preemption::Off,
            Preemption::Quantum { device_cycles },
            Preemption::PriorityKick,
        ]
    }
}

/// One tenant of the runtime: its traffic model and QoS parameters.
#[derive(Debug)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Transfer direction of this tenant's jobs.
    pub kind: XferKind,
    /// When jobs arrive.
    pub arrival: ArrivalProcess,
    /// How large jobs are.
    pub sizer: JobSizer,
    /// Strict-priority class (lower is more important).
    pub priority: u32,
    /// DRR weight (quantum multiplier).
    pub weight: u32,
    /// SLO class tag: index into the serving composer's SLO config
    /// table (see `ServingSystem::attach_slo`). Purely observational —
    /// scheduling never reads it; tenants sharing a tag share latency
    /// and goodput objectives. 0 by default.
    pub class: u32,
}

impl TenantSpec {
    /// A plain open-loop Poisson tenant with fixed-size jobs, priority
    /// class 1, weight 1 and SLO class 0.
    pub fn poisson(name: &str, mean_ns: f64, per_core_bytes: u64, n_cores: u32) -> Self {
        TenantSpec {
            name: name.to_string(),
            kind: XferKind::DramToPim,
            arrival: ArrivalProcess::Poisson { mean_ns },
            sizer: JobSizer::Fixed {
                per_core_bytes,
                n_cores,
            },
            priority: 1,
            weight: 1,
            class: 0,
        }
    }

    /// Builder: set the SLO class tag.
    pub fn with_class(mut self, class: u32) -> Self {
        self.class = class;
        self
    }
}

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Engine quantum: max bytes per dispatched chunk. One tenant can
    /// monopolize the engine for at most this many bytes at a time.
    pub chunk_bytes: u64,
    /// Driver latency model applied around every chunk submission.
    pub driver: DriverModel,
    /// Arrivals are generated while `now < open_until_ns`; afterwards
    /// the runtime only drains what is queued.
    pub open_until_ns: f64,
    /// Master seed; tenant generators derive per-tenant streams.
    pub seed: u64,
    /// Host submission-queue shape (ring depth, interrupt coalescing,
    /// and the host clock's period), with one ring per shard. The
    /// default is the identity point — depth 1, coalescing off — which
    /// reproduces the synchronous driver bit-for-bit.
    pub hostq: HostQueueConfig,
    /// Number of engine shards (DCEs) the runtime dispatches across;
    /// each shard gets its own queue pair and driver context. 1 (the
    /// default) is the single-engine runtime, bit-identical to the
    /// pre-sharding dispatch path under either placement.
    pub shards: usize,
    /// Where policy-picked chunks are placed across shards.
    pub placement: Placement,
    /// Engine-side mid-chunk preemption mode ([`Preemption::Off`] — no
    /// suspensions, the golden-pinned PR 4 behavior — is the default).
    pub preemption: Preemption,
    /// PIM-core stride between tenants: tenant `i`'s jobs target cores
    /// `i * core_stride ..`. Core ids are channel-major, so a nonzero
    /// stride spreads tenants over PIM channels (0 — every tenant on
    /// cores `0..n_cores` — is the historic layout). The caller must
    /// keep `core_base + n_cores` within the machine's core count.
    pub core_stride: u32,
    /// Observability: span tracing into the flight recorder and the
    /// time-series sampler cadence. Disabled by default — the goldens
    /// and every historical configuration are unperturbed.
    pub telemetry: TelemetryConfig,
    /// Serving-aware PIM-MS: when a job's next fresh chunk is staged
    /// directly behind its predecessor on the same ring (seq exactly
    /// one past, same core set), declare it a continuation — the engine
    /// hands the retired chunk's channel-sweep cursor straight to it
    /// and the driver prices the doorbell as a context reload
    /// ([`DriverModel::continuation_entries`]) instead of a full
    /// address-buffer publish. Off by default: with the flag off every
    /// chunk rebuilds its schedule, bit-identical to the historical
    /// dispatch path (the golden anchor).
    pub sweep_continuation: bool,
    /// Cross-job channel-affinity hint for
    /// [`Placement::LeastLoaded`]: each staged descriptor carries its
    /// sweep's PIM-channel footprint, and occupancy ties between
    /// eligible shards break toward the ring whose outstanding work
    /// overlaps the fewest of the chunk's channels. Off by default (no
    /// footprints tracked, placement unchanged).
    pub channel_affinity: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            chunk_bytes: 256 << 10,
            driver: DriverModel::default(),
            open_until_ns: 1e6,
            seed: 0xD15C0,
            hostq: HostQueueConfig::synchronous(),
            shards: 1,
            placement: Placement::HashPin,
            preemption: Preemption::Off,
            core_stride: 0,
            telemetry: TelemetryConfig::default(),
            sweep_continuation: false,
            channel_affinity: false,
        }
    }
}

struct TenantState {
    spec: TenantSpec,
    gen: ArrivalGen,
    size_rng: Rng,
    queue: VecDeque<Job>,
    stats: TenantStats,
}

/// The multi-tenant transfer-queue runtime.
pub struct Runtime {
    cfg: RuntimeConfig,
    /// DCE scheduling mode for dispatched chunks (see
    /// [`set_mode`](Self::set_mode)).
    mode: DceMode,
    policy: Box<dyn QueuePolicy>,
    tenants: Vec<TenantState>,
    arrivals_scratch: Vec<f64>,
    /// The doorbell/queue-pair host interface all chunks go through:
    /// one ring + coalescer per engine shard, in shard order. Shards are
    /// independent rings, each with its own doorbell path and interrupt
    /// vector, like an NVMe device exposing one queue pair per core.
    qps: Vec<QueuePair>,
    /// Per-shard driver context: shard `s`'s next doorbell cannot ring
    /// before `driver_ready_ns[s]` (its driver is busy with an earlier
    /// MMIO write or interrupt). Shards' drivers are independent — their
    /// costs overlap, which is what makes the host path scale with N.
    driver_ready_ns: Vec<f64>,
    /// Jobs whose completion was announced by shard `s`'s interrupt
    /// (the final chunk retired there).
    completed_via_shard: Vec<u64>,
    /// Mid-transfer state claimed from a suspending engine at the ring
    /// drain, held until the recall's interrupt is fielded and the
    /// remainder re-attaches to its job. Keyed by `(shard, ring seq)`.
    /// A `BTreeMap` so any future iteration is key-ordered: hash-order
    /// iteration here would break bit-identical replay (`pim-lint`
    /// enforces this workspace-wide).
    suspended: BTreeMap<(usize, u64), SuspendedTransfer>,
    next_job_id: u64,
    records: Vec<JobRecord>,
    /// Dispatch opportunities where backlog existed but the policy
    /// declined (must stay 0 for a work-conserving policy).
    missed_dispatches: u64,
    chunks_dispatched: u64,
    /// The job-lifecycle flight recorder; disabled unless
    /// [`RuntimeConfig::telemetry`] turns it on. Host-side events are
    /// recorded directly; device-side events arrive through each
    /// engine's span tap, drained at the shard poll.
    recorder: FlightRecorder,
    /// Chunk-completion bytes credited per shard (goodput attribution
    /// for the time-series sampler).
    serviced_by_shard: Vec<u64>,
    /// Fresh chunks staged as sweep continuations (descriptor declared
    /// a predecessor). Whether each claim was honored or fell back to a
    /// rebuild is the engine's call — see `DceStats::continuations` /
    /// `continuation_fallbacks`.
    continuations_staged: u64,
    /// Occupancy-tied placement decisions the channel-affinity hint
    /// steered away from the plain lowest-shard-id tie-break.
    affinity_steers: u64,
}

impl Runtime {
    /// Build a runtime over `tenants` scheduled by `policy`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate fixed job sizer (zero cores, or a
    /// per-core size that is not a nonzero multiple of 64 B) — caught
    /// here at configuration time so it cannot surface as a mid-
    /// simulation failure. (Suite sizers always produce valid shapes.)
    pub fn new(cfg: RuntimeConfig, tenants: Vec<TenantSpec>, policy: Box<dyn QueuePolicy>) -> Self {
        assert!(cfg.shards >= 1, "the runtime needs at least one shard");
        for spec in &tenants {
            if let JobSizer::Fixed {
                per_core_bytes,
                n_cores,
            } = spec.sizer
            {
                assert!(
                    per_core_bytes > 0 && per_core_bytes % 64 == 0,
                    "tenant {:?}: per_core_bytes {} must be a nonzero multiple of 64",
                    spec.name,
                    per_core_bytes
                );
                assert!(
                    n_cores > 0,
                    "tenant {:?}: jobs must target at least one PIM core",
                    spec.name
                );
            }
        }
        let tenants = tenants
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let seed = cfg
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(i as u64 + 1);
                let gen = ArrivalGen::new(spec.arrival.clone(), seed);
                TenantState {
                    spec,
                    gen,
                    size_rng: Rng::new(seed ^ 0xA5A5_A5A5_A5A5_A5A5),
                    queue: VecDeque::new(),
                    stats: TenantStats::default(),
                }
            })
            .collect();
        Runtime {
            cfg,
            mode: DceMode::PimMs,
            policy,
            tenants,
            arrivals_scratch: Vec::new(),
            qps: (0..cfg.shards).map(|_| QueuePair::new(cfg.hostq)).collect(),
            driver_ready_ns: vec![0.0; cfg.shards],
            completed_via_shard: vec![0; cfg.shards],
            suspended: BTreeMap::new(),
            next_job_id: 0,
            records: Vec::new(),
            missed_dispatches: 0,
            chunks_dispatched: 0,
            recorder: FlightRecorder::new(cfg.telemetry),
            serviced_by_shard: vec![0; cfg.shards],
            continuations_staged: 0,
            affinity_steers: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Set the DCE scheduling mode for dispatched chunks (PIM-MS until
    /// set; the composer aligns it with the system's design point).
    pub fn set_mode(&mut self, mode: DceMode) {
        self.mode = mode;
    }

    /// The scheduling policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Completion records so far (submission-ordered ids, completion-
    /// ordered entries).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// The job-lifecycle flight recorder (empty and disabled unless
    /// [`RuntimeConfig::telemetry`] enables it).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable recorder access (the composer drains device-side span
    /// taps into it outside the poll path, e.g. at the end of a run).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// Chunk-completion bytes credited through each shard's ring so far
    /// (the numerator of per-shard goodput).
    pub fn serviced_by_shard(&self) -> &[u64] {
        &self.serviced_by_shard
    }

    /// Each tenant's SLO class tag ([`TenantSpec::class`]), indexed by
    /// tenant id — the lookup the serving composer uses to route a
    /// completed job's latency to the right objective.
    pub fn tenant_classes(&self) -> Vec<u32> {
        self.tenants.iter().map(|t| t.spec.class).collect()
    }

    /// Per-tenant statistics.
    pub fn tenant_stats(&self) -> Vec<(&str, &TenantStats)> {
        self.tenants
            .iter()
            .map(|t| (t.spec.name.as_str(), &t.stats))
            .collect()
    }

    /// Jobs currently queued across all tenants (including any in
    /// service).
    pub fn backlog(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Total chunks dispatched into the engine.
    pub fn chunks_dispatched(&self) -> u64 {
        self.chunks_dispatched
    }

    /// Fresh chunks staged as sweep continuations of their predecessor
    /// (0 unless [`RuntimeConfig::sweep_continuation`] is on). The
    /// engine-side honored/fallback split is on each shard's
    /// `DceStats`.
    pub fn continuations_staged(&self) -> u64 {
        self.continuations_staged
    }

    /// Occupancy-tied placements the channel-affinity hint steered (0
    /// unless [`RuntimeConfig::channel_affinity`] is on).
    pub fn affinity_steers(&self) -> u64 {
        self.affinity_steers
    }

    /// Dispatch opportunities with backlog where the policy declined —
    /// 0 for every work-conserving policy.
    pub fn missed_dispatches(&self) -> u64 {
        self.missed_dispatches
    }

    /// Chunks preempted mid-transfer (engine suspensions), across every
    /// tenant.
    pub fn preemptions(&self) -> u64 {
        self.tenants.iter().map(|t| t.stats.preemptions).sum()
    }

    /// Suspended remainders re-dispatched, across every tenant. On a
    /// drained run this equals [`preemptions`](Self::preemptions).
    pub fn resumes(&self) -> u64 {
        self.tenants.iter().map(|t| t.stats.resumes).sum()
    }

    /// Jain fairness index over per-tenant *serviced* bytes (chunk
    /// completions) — engine time granted, not just whole-job goodput,
    /// so a tenant mid-way through a large job is credited for the
    /// service it received.
    pub fn jain_by_bytes(&self) -> f64 {
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.stats.bytes_serviced as f64)
            .collect();
        jain_index(&xs)
    }

    /// Jain fairness index over per-tenant *satisfaction ratios*
    /// (serviced bytes / offered bytes) — the demand-normalized form,
    /// which compares tenants with unequal demand on how completely
    /// each was served (see [`jain_satisfaction`]).
    pub fn jain_by_satisfaction(&self) -> f64 {
        let pairs: Vec<(u64, u64)> = self
            .tenants
            .iter()
            .map(|t| (t.stats.bytes_serviced, t.stats.bytes_submitted))
            .collect();
        jain_satisfaction(&pairs)
    }

    /// Whether every shard's rings are idle (nothing staged, in flight,
    /// or awaiting an interrupt anywhere).
    fn rings_idle(&self) -> bool {
        self.qps.iter().all(QueuePair::is_idle)
    }

    /// The earliest host-clock time at which
    /// [`dispatch`](Self::dispatch) can stage a chunk absent new
    /// arrivals and ring completions: the earliest `driver_ready_ns`
    /// over the shards that have a free ring slot and dispatchable work
    /// they may serve — under [`Placement::HashPin`] work of a tenant
    /// pinned there, under [`Placement::LeastLoaded`] any tenant's.
    /// `None` when no shard qualifies. A time already past means the
    /// very next edge (where a declining policy counts a missed
    /// dispatch, as it would at every edge).
    pub fn dispatch_ready_ns(&self) -> Option<f64> {
        let has_work = |t: &TenantState| t.queue.iter().any(Job::has_dispatchable);
        let ready = |s: usize| (self.qps[s].free_slots() > 0).then_some(self.driver_ready_ns[s]);
        let earliest = match self.cfg.placement {
            Placement::LeastLoaded if self.tenants.iter().any(has_work) => (0..self.cfg.shards)
                .filter_map(ready)
                .fold(f64::INFINITY, f64::min),
            Placement::LeastLoaded => f64::INFINITY,
            Placement::HashPin => self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| has_work(t))
                .filter_map(|(i, _)| ready(self.tenant_shard(i)))
                .fold(f64::INFINITY, f64::min),
        };
        earliest.is_finite().then_some(earliest)
    }

    /// The earliest time a ring's coalescer delivers an interrupt absent
    /// new completions (see [`QueuePair::interrupt_due_at_ns`]).
    pub fn interrupt_due_ns(&self) -> Option<f64> {
        self.qps
            .iter()
            .filter_map(QueuePair::interrupt_due_at_ns)
            .min_by(f64::total_cmp)
    }

    /// The earliest future arrival any tenant's generator can deliver
    /// (respecting each process's open-window gating), or `None` if all
    /// are exhausted.
    pub fn next_arrival_ns(&self) -> Option<f64> {
        self.tenants
            .iter()
            .filter_map(|t| t.gen.next_arrival_ns(self.cfg.open_until_ns))
            .min_by(|a, b| a.partial_cmp(b).expect("arrival times are finite"))
    }

    /// Whether no further work can ever appear or progress: every
    /// generator is exhausted, every queue empty, and no shard's ring
    /// holds a staged, in-flight, or unfielded descriptor.
    pub fn drained(&self) -> bool {
        self.rings_idle()
            && self
                .tenants
                .iter()
                .all(|t| t.queue.is_empty() && t.gen.exhausted(self.cfg.open_until_ns))
    }

    /// The host-side queue pairs, one per shard in shard order (ring
    /// state and counters).
    pub fn queue_pairs(&self) -> &[QueuePair] {
        &self.qps
    }

    /// Ring counters summed across every shard (see
    /// [`HostQueueStats::merge`]).
    pub fn ring_stats(&self) -> HostQueueStats {
        let mut total = HostQueueStats::default();
        for qp in &self.qps {
            total.merge(qp.stats());
        }
        total
    }

    /// The shard tenant `t` is pinned to under
    /// [`Placement::HashPin`].
    pub fn tenant_shard(&self, tenant: usize) -> usize {
        tenant % self.cfg.shards
    }

    /// One past the highest PIM core id any tenant's jobs can target
    /// (`tenant index × core_stride + n_cores`) — the composer checks
    /// this against the machine's core count at configuration time so a
    /// bad stride cannot surface as a mid-simulation panic.
    pub fn max_core_exclusive(&self) -> u32 {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                u32::try_from(i).expect("tenant count fits u32") * self.cfg.core_stride
                    + t.spec.sizer.n_cores()
            })
            .max()
            .unwrap_or(0)
    }

    /// Aggregate host-interface summary across every shard: ring depth
    /// actually used, doorbell and interrupt counts, interrupts per
    /// job/chunk.
    pub fn host_stats(&self) -> HostIfaceStats {
        let jobs: u64 = self.tenants.iter().map(|t| t.stats.completed).sum();
        HostIfaceStats::from_ring(&self.ring_stats(), jobs)
    }

    /// Per-shard host-interface summaries, in shard order; each shard's
    /// `interrupts_per_job` counts the jobs whose completing interrupt
    /// it delivered.
    pub fn shard_host_stats(&self) -> Vec<HostIfaceStats> {
        self.qps
            .iter()
            .zip(&self.completed_via_shard)
            .map(|(qp, &jobs)| HostIfaceStats::from_ring(qp.stats(), jobs))
            .collect()
    }

    /// Drain the arrivals due by `now_ns` (a host-clock edge) into the
    /// tenant queues.
    pub fn admit_arrivals(&mut self, now_ns: f64) {
        for ti in 0..self.tenants.len() {
            self.arrivals_scratch.clear();
            let t = &mut self.tenants[ti];
            t.gen
                .poll(now_ns, self.cfg.open_until_ns, &mut self.arrivals_scratch);
            for i in 0..self.arrivals_scratch.len() {
                let at_ns = self.arrivals_scratch[i];
                let t = &mut self.tenants[ti];
                let (per_core_bytes, n_cores) = t.spec.sizer.sample(&mut t.size_rng);
                let spec = JobSpec {
                    kind: t.spec.kind,
                    per_core_bytes,
                    n_cores,
                    core_base: u32::try_from(ti).expect("tenant count fits u32")
                        * self.cfg.core_stride,
                    dram_base: PhysAddr(HOST_BUFFER_BASE + ti as u64 * DRAM_STRIDE),
                    heap_offset: ti as u64 * HEAP_STRIDE,
                };
                let job = Job::new(self.next_job_id, ti, at_ns, &spec, self.cfg.chunk_bytes)
                    .expect("samplers produce valid job shapes");
                self.next_job_id += 1;
                t.stats.submitted += 1;
                t.stats.bytes_submitted += job.total_bytes;
                if self.recorder.enabled() {
                    let tagged = SpanEvent::new(SpanKind::Arrival, at_ns)
                        .tenant(ti)
                        .job(job.id)
                        .bytes(job.total_bytes);
                    self.recorder.record(tagged);
                    // Admission is immediate (unbounded tenant queues),
                    // so the enqueue shares the arrival timestamp.
                    self.recorder.record(SpanEvent {
                        kind: SpanKind::Enqueue,
                        ..tagged
                    });
                }
                t.queue.push_back(job);
            }
        }
    }

    /// Policy views of every tenant queue. With `pinned_to = Some(s)`
    /// (hash-pin dispatch for shard `s`), tenants pinned elsewhere are
    /// masked: they keep their true `backlog` (so DRR does not forfeit
    /// their credit) but expose no dispatch head — the policy cannot
    /// pick them for this shard.
    fn views(&self, pinned_to: Option<usize>) -> Vec<QueueView> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| QueueView {
                tenant: i,
                priority: t.spec.priority,
                weight: t.spec.weight,
                backlog: t.queue.len(),
                // The dispatch head: the oldest job with undispatched
                // work — a recalled remainder waiting to resume or a
                // fresh chunk. A job whose chunks are all in flight
                // ring-side no longer offers work (with a depth-1 ring
                // this is always the queue front, as before).
                head: if pinned_to.is_some_and(|s| self.tenant_shard(i) != s) {
                    None
                } else {
                    t.queue
                        .iter()
                        .find(|j| j.has_dispatchable())
                        .map(|j| HeadView {
                            submit_ns: j.submit_ns,
                            total_bytes: j.total_bytes,
                            remaining_bytes: j.remaining_bytes(),
                            next_chunk_bytes: j.next_dispatch_bytes(),
                            in_service: j.in_service(),
                        })
                },
            })
            .collect()
    }

    /// The completion-ring poller for one shard, called at each
    /// host-clock edge that fires (after the arrivals, before the
    /// dispatch and the engines' own ticks):
    /// drain shard `shard`'s engine retirement records into that
    /// shard's queue pair, and once its interrupt coalescer fires,
    /// field *one* interrupt for the whole completed batch — routing
    /// each completion to its owning tenant.
    ///
    /// Driver-latency accounting (the basis of the bit-identical
    /// depth-1 equivalence with the one-shot harness, pinned by
    /// `tests/driver_accounting.rs`): a chunk's recorded completion
    /// time charges its *own* submit + interrupt round trip exactly
    /// once, analytically, on top of its device residency measured in
    /// engine cycles from the doorbell edge —
    /// `posted_ns + device_cycles·T + round_trip(entries)`. The
    /// interrupt additionally occupies the driver
    /// (`driver_ready_ns = now + interrupt_ns`), which gates the *next*
    /// doorbell but is never added to the completed chunk's latency
    /// again. When coalescing delays the interrupt past the analytic
    /// time, the delivery time (`now + interrupt_ns`) wins — a tenant
    /// cannot learn of a completion before the interrupt that announces
    /// it.
    pub fn poll_shard(&mut self, shard: usize, dce: &mut Dce, now_ns: f64) {
        // Device-side span events (device-start / suspend / retire)
        // surface with the same cadence as the ring poll.
        if self.recorder.enabled() {
            dce.drain_spans(&mut self.recorder);
        }
        // Device → completion ring. The engine's cycle counter maps onto
        // the simulation timeline through its tick period (for the
        // coalescer's aggregation timer).
        let edge_ns = period_ticks(dce.config().period_ps()) as f64 / TICKS_PER_NS as f64;
        while let Some(rec) = dce.pop_completion() {
            let done_ns = rec.completed_at as f64 * edge_ns;
            if rec.resumable {
                // A recall: claim the mid-transfer state now (the engine
                // parks it only until drained) and hold it until the
                // partial record's interrupt routes it to its job.
                let st = dce
                    .take_suspended(rec.seq)
                    .expect("a resumable record parks its suspended state");
                self.suspended.insert((shard, rec.seq), st);
            }
            self.qps[shard].on_device_completion(
                rec.seq,
                rec.started_at,
                rec.completed_at,
                done_ns,
                rec.bytes,
                rec.resumable,
            );
        }

        // Chain-silent completions first: a chunk that handed its sweep
        // cursor to a posted successor raised no interrupt, so the ring
        // poller reaps it here for free — its slot opens without the
        // driver going busy, which is what keeps a deep ring of chained
        // small chunks fed at engine rate.
        let period_ps = dce.config().period_ps();
        for c in self.qps[shard].reap_chained() {
            self.settle_completion(shard, period_ps, c, now_ns, now_ns);
        }

        let qp = &mut self.qps[shard];
        if !qp.interrupt_due(now_ns) {
            return;
        }
        // One interrupt wake-up covers the whole batch; the driver is
        // busy fielding it before it can ring the next doorbell on this
        // shard. `max`, not assignment: a doorbell that published a
        // large batch at an earlier edge can occupy the driver *past*
        // this interrupt's service time, and fielding the interrupt
        // must never hand the driver back early (a deep-ring bug the
        // delta test in `tests/driver_accounting.rs` pins).
        let batch = qp.field_interrupt(now_ns);
        self.driver_ready_ns[shard] =
            self.driver_ready_ns[shard].max(now_ns + self.cfg.driver.interrupt_ns);
        self.recorder
            .record(SpanEvent::new(SpanKind::Interrupt, now_ns).shard(shard));
        let announce_ns = now_ns + self.cfg.driver.interrupt_ns;
        for c in batch {
            self.settle_completion(shard, period_ps, c, now_ns, announce_ns);
        }
    }

    /// Account one fielded (or reaped) ring completion: credit the
    /// moved bytes, re-attach a recall's remainder, and close the job
    /// out when this was its last outstanding chunk. `announce_ns` is
    /// the earliest instant the host can learn of the completion — the
    /// interrupt delivery time for a fielded batch, the poll edge
    /// itself for a chain-silent completion reaped without one.
    fn settle_completion(
        &mut self,
        shard: usize,
        period_ps: u64,
        c: pim_hostq::RingCompletion,
        now_ns: f64,
        announce_ns: f64,
    ) {
        let tenant_idx = c.posted.desc.tag.tenant;
        let engine_ns = (c.done_cycle - c.posted.posted_cycle) as f64 * period_ps as f64 / 1000.0;
        // The harness's accounting, per chunk: device residency plus
        // the driver round trip (submit + completion interrupt) —
        // but never earlier than the delivery that announces it. A
        // chained chunk's cursor handoff skipped the interrupt, so
        // its analytic share is the submit alone.
        let round_trip_ns = if c.chained {
            self.cfg.driver.submit_ns(c.posted.desc.entries)
        } else {
            self.cfg.driver.round_trip_ns(c.posted.desc.entries)
        };
        let finish_ns = (c.posted.posted_ns + engine_ns + round_trip_ns).max(announce_ns);
        // Credit what the engine actually moved — the full posted
        // payload for a retirement, the pre-suspension progress for
        // a recall.
        let bytes = c.bytes_moved;
        self.serviced_by_shard[shard] += bytes;

        let t = &mut self.tenants[tenant_idx];
        t.stats.bytes_serviced += bytes;
        // Each shard's ring retires FIFO and a tenant's chunks are
        // dispatched in queue order, but with work-stealing a
        // tenant's jobs can span shards and complete out of order —
        // route by job id, not queue position (under a single shard
        // the match is always the queue front, as before).
        let idx = t
            .queue
            .iter()
            .position(|j| j.id == c.posted.desc.tag.job)
            .expect("completions route to a queued job");
        t.queue[idx].bytes_done += bytes;
        if c.resumable {
            // A preempted chunk: re-attach the recalled remainder to
            // its job so the next dispatch of this tenant resumes it
            // (ahead of any fresh chunks), and start the suspended-
            // state residency clock at this interrupt.
            let st = self
                .suspended
                .remove(&(shard, c.posted.seq))
                .expect("a recall's suspended state was claimed at the drain");
            debug_assert_eq!(st.remaining_bytes(), c.posted.desc.bytes - bytes);
            let t = &mut self.tenants[tenant_idx];
            // push_back, never overwrite: with a deep ring a second
            // chunk of the same job can be recalled before the
            // first remainder re-dispatches.
            t.queue[idx].resume.push_back((st, now_ns));
            // The recall took the sweep cursor host-side — nothing
            // is held device-side for a successor to continue, so
            // the job's next fresh chunk must rebuild.
            t.queue[idx].anchor = None;
            t.stats.preemptions += 1;
            self.recorder.record(
                SpanEvent::new(SpanKind::Recall, now_ns)
                    .tenant(tenant_idx)
                    .shard(shard)
                    .job(c.posted.desc.tag.job)
                    .seq(c.posted.seq)
                    .bytes(c.posted.desc.bytes - bytes),
            );
            // Refund the undelivered credit (DRR stays byte-exact
            // across kicks); the resume re-charges it at dispatch.
            self.policy
                .recalled(tenant_idx, c.posted.desc.bytes - bytes);
            return;
        }
        let t = &mut self.tenants[tenant_idx];
        let job = &mut t.queue[idx];
        if job.chunks.is_empty() && job.resume.is_empty() && job.bytes_done == job.total_bytes {
            let job = t.queue.remove(idx).expect("checked above");
            let dispatch_ns = job.first_dispatch_ns.expect("job was dispatched");
            t.stats.completed += 1;
            t.stats.bytes_completed += job.total_bytes;
            t.stats.queue_delay.record(dispatch_ns - job.submit_ns);
            t.stats.service.record(finish_ns - dispatch_ns);
            t.stats.e2e.record(finish_ns - job.submit_ns);
            t.gen.on_complete(finish_ns.max(now_ns));
            self.completed_via_shard[shard] += 1;
            self.recorder.record(
                SpanEvent::new(SpanKind::Complete, finish_ns)
                    .tenant(tenant_idx)
                    .shard(shard)
                    .job(job.id)
                    .bytes(job.total_bytes),
            );
            self.records.push(JobRecord {
                id: job.id,
                tenant: tenant_idx,
                submit_ns: job.submit_ns,
                dispatch_ns,
                complete_ns: finish_ns,
                bytes: job.total_bytes,
            });
        }
    }

    /// The shard-aware submission path, called at each host-clock edge
    /// that fires, with the whole engine array (after the shard polls,
    /// before the engines' own ticks): while rings have
    /// free slots and their drivers are not busy, let the policy pick
    /// chunks, place each on a shard according to
    /// [`Placement`] — hash-pin dispatches each shard against its
    /// pinned tenants; least-loaded sends every pick to the shallowest
    /// eligible ring — and publish each shard's batch with a single
    /// doorbell write whose fixed MMIO cost is paid once per shard.
    ///
    /// A doorbell occupies its shard's driver
    /// (`driver_ready_ns[s] = now + submit_ns`) but is *not* an
    /// engine stall: the engine starts the first descriptor at this
    /// edge and chains through the rest device-side.
    pub fn dispatch(&mut self, dces: &mut [Dce], now_ns: f64) {
        assert_eq!(
            dces.len(),
            self.cfg.shards,
            "dispatch needs one engine per shard"
        );
        // Edges with empty queues are the common case; don't build
        // policy views (allocating) when there is nothing to dispatch.
        if self.tenants.iter().all(|t| t.queue.is_empty()) {
            return;
        }
        self.maybe_preempt(dces, now_ns);
        match self.cfg.placement {
            Placement::HashPin => {
                for (s, dce) in dces.iter_mut().enumerate() {
                    self.dispatch_pinned(s, dce, now_ns);
                }
            }
            Placement::LeastLoaded => self.dispatch_least_loaded(dces, now_ns),
        }
    }

    /// Whether a tenant other than `victim` has dispatchable work that
    /// shard `shard` could serve (under hash-pin, only tenants pinned
    /// there count).
    fn other_waiter_exists(&self, shard: usize, victim: usize) -> bool {
        self.tenants.iter().enumerate().any(|(i, t)| {
            i != victim
                && (self.cfg.placement == Placement::LeastLoaded || self.tenant_shard(i) == shard)
                && t.queue.iter().any(|j| j.has_dispatchable())
        })
    }

    /// The kickable victim on shard `s`: the tenant of the ring's
    /// oldest in-flight descriptor, provided the engine is actually
    /// still executing that descriptor (`active_seq` match — a fused
    /// continuation runs under its successor's seq before the
    /// predecessor's record is emitted, so the ring view can lag the
    /// engine, and kicking on the stale view would suspend the *next*
    /// chunk, possibly the urgent one), a suspension is not
    /// already pending, and a remainder of the victim's current job is
    /// not still waiting to resume (kicking chunk k+1 while chunk k's
    /// remainder is parked just multiplies recalls without freeing
    /// anything sooner).
    fn kickable_victim(&self, s: usize, dce: &Dce) -> Option<usize> {
        let oldest = self.qps[s].oldest_in_flight()?;
        if dce.suspending() || dce.active_seq() != Some(oldest.seq) {
            return None;
        }
        let victim = oldest.desc.tag.tenant;
        let job = oldest.desc.tag.job;
        if self.tenants[victim]
            .queue
            .iter()
            .any(|j| j.id == job && !j.resume.is_empty())
        {
            return None;
        }
        Some(victim)
    }

    /// Whether some shard's ring is completely empty: under work
    /// stealing the dispatch running right after this check will place
    /// a *queued* waiting chunk there, so suspending a busy engine for
    /// that waiter would pay the whole drain/recall/resume round trip
    /// for nothing. (A waiter already posted in a busy shard's FIFO
    /// ring is different — no idle shard can free it; only kicking the
    /// descriptor ahead of it can.)
    fn idle_shard_exists(&self) -> bool {
        self.qps.iter().any(|qp| qp.occupancy() == 0)
    }

    /// Record that shard `s`'s active descriptor (owned by `victim`)
    /// was asked to suspend at `now_ns`.
    fn note_suspend_request(&mut self, s: usize, victim: usize, seq: Option<u64>, now_ns: f64) {
        if self.recorder.enabled() {
            self.recorder.record(
                SpanEvent::new(SpanKind::SuspendRequest, now_ns)
                    .tenant(victim)
                    .shard(s)
                    .seq(seq.unwrap_or(pim_telemetry::NO_SEQ)),
            );
        }
    }

    /// The mid-chunk preemption decision, taken at every dispatch edge
    /// before placement: arm an engine suspension
    /// ([`Dce::request_suspend`]) wherever the configured
    /// [`Preemption`] mode says the in-service chunk should yield. The
    /// suspension itself is asynchronous — the engine quiesces its
    /// pipeline over the following cycles and the recalled remainder
    /// comes back through the completion ring like any retirement.
    fn maybe_preempt(&mut self, dces: &mut [Dce], now_ns: f64) {
        for (s, victim, from_cycle) in self.preempt_targets(dces) {
            let dce = &mut dces[s];
            if dce.cycle() < from_cycle {
                continue;
            }
            let seq = dce.active_seq();
            if dce.request_suspend() {
                self.note_suspend_request(s, victim, seq, now_ns);
            }
        }
    }

    /// The engine cycle from which a dispatch edge would arm a
    /// suspension on each shard listed, given the current host and
    /// engine state: 0 for a priority kick that is due at once, the
    /// quantum's expiry for a time slice. Nothing but a host event (an
    /// arrival, a ring completion, a dispatch) or the engine's clock
    /// reaching the listed cycle can change this answer.
    pub fn preemption_due(&self, dces: &[Dce]) -> Vec<(usize, u64)> {
        self.preempt_targets(dces)
            .into_iter()
            .map(|(s, _, from_cycle)| (s, from_cycle))
            .collect()
    }

    /// The suspensions the configured [`Preemption`] mode calls for:
    /// `(shard, victim tenant, engine cycle from which it applies)`.
    fn preempt_targets(&self, dces: &[Dce]) -> Vec<(usize, usize, u64)> {
        // Under work stealing, queued heads only justify a kick when no
        // idle engine could take them at this very edge.
        let consider_queued = self.cfg.placement == Placement::HashPin || !self.idle_shard_exists();
        let mut targets = Vec::new();
        match self.cfg.preemption {
            Preemption::Off => {}
            Preemption::Quantum { device_cycles } => {
                for (s, dce) in dces.iter().enumerate() {
                    let Some(victim) = self.kickable_victim(s, dce) else {
                        continue;
                    };
                    let Some(since) = dce.active_since() else {
                        continue;
                    };
                    // Waiting work can be a queued head *or* a chunk
                    // already posted behind the active descriptor in
                    // this shard's FIFO ring — with a deep ring the
                    // latter is exactly what an engine monopoly starves.
                    if (consider_queued && self.other_waiter_exists(s, victim))
                        || self.ring_waiter_exists(s, victim)
                    {
                        targets.push((s, victim, since + device_cycles));
                    }
                }
            }
            Preemption::PriorityKick => {
                match self.cfg.placement {
                    // One kick per shard per edge: each shard's policy
                    // view is masked to its pinned tenants.
                    Placement::HashPin => {
                        for (s, dce) in dces.iter().enumerate() {
                            let Some(victim) = self.kickable_victim(s, dce) else {
                                continue;
                            };
                            // Cheap pre-check before building
                            // (allocating) policy views: no potential
                            // waiter, no kick to evaluate.
                            if !self.other_waiter_exists(s, victim)
                                && !self.ring_waiter_exists(s, victim)
                            {
                                continue;
                            }
                            let views = self.views(Some(s));
                            if self.outranked(s, victim, &views, true) {
                                targets.push((s, victim, 0));
                            }
                        }
                    }
                    // Under work-stealing, at most one shard per edge:
                    // one urgent waiter needs one engine, and the next
                    // edge — 312 ps later — can kick another if more
                    // urgent work is still waiting. Target the shard
                    // whose active chunk is least urgent (ties toward
                    // the lowest shard id — deterministic).
                    Placement::LeastLoaded => {
                        let candidates: Vec<(usize, usize)> = (0..self.cfg.shards)
                            .filter_map(|s| Some((s, self.kickable_victim(s, &dces[s])?)))
                            .filter(|&(s, v)| {
                                (consider_queued && self.other_waiter_exists(s, v))
                                    || self.ring_waiter_exists(s, v)
                            })
                            .collect();
                        if candidates.is_empty() {
                            return targets;
                        }
                        let views = self.views(None);
                        if let Some((s, victim)) = candidates.into_iter().max_by_key(|&(s, v)| {
                            (self.policy.urgency(&views[v]), std::cmp::Reverse(s))
                        }) {
                            if self.outranked(s, victim, &views, consider_queued) {
                                targets.push((s, victim, 0));
                            }
                        }
                    }
                }
            }
        }
        targets
    }

    /// Whether a descriptor from a tenant other than `victim` is
    /// already posted behind the active one in shard `s`'s FIFO ring.
    fn ring_waiter_exists(&self, s: usize, victim: usize) -> bool {
        self.qps[s]
            .posted_behind_oldest()
            .any(|p| p.desc.tag.tenant != victim)
    }

    /// Whether shard `s`'s in-service chunk (owned by `victim`, already
    /// vetted by [`kickable_victim`](Self::kickable_victim)) should be
    /// kicked: strictly more urgent work is stuck behind it — either a
    /// waiting queue head or a descriptor already posted *behind* the
    /// active one in this shard's FIFO ring (with a deep ring, an urgent
    /// chunk can be accepted device-side and still be hostage to the
    /// bulk chunk ahead of it). Urgency per the policy's
    /// [`QueuePolicy::urgency`] ranking over the caller's `views`.
    ///
    /// [`QueuePolicy::urgency`]: crate::QueuePolicy::urgency
    /// `consider_queued` is false when an idle shard could serve
    /// queued heads at this edge (work stealing) — only ring waiters
    /// justify a kick then.
    fn outranked(
        &self,
        s: usize,
        victim: usize,
        views: &[QueueView],
        consider_queued: bool,
    ) -> bool {
        let active_urgency = self.policy.urgency(&views[victim]);
        let queued_waiter = views
            .iter()
            .filter(|_| consider_queued)
            .filter(|v| v.tenant != victim && v.head.is_some())
            .map(|v| self.policy.urgency(v))
            .min();
        let ring_waiter = self.qps[s]
            .posted_behind_oldest()
            .map(|p| p.desc.tag.tenant)
            .filter(|&t| t != victim)
            .map(|t| self.policy.urgency(&views[t]))
            .min();
        let waiter = match (queued_waiter, ring_waiter) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        waiter.is_some_and(|u| u < active_urgency)
    }

    /// Hash-pin dispatch for one shard: the policy sees only tenants
    /// pinned to this shard (others are masked to `head: None` with
    /// their true backlog) and the batch goes out with this shard's
    /// doorbell.
    fn dispatch_pinned(&mut self, shard: usize, dce: &mut Dce, now_ns: f64) {
        if now_ns < self.driver_ready_ns[shard] || self.qps[shard].free_slots() == 0 {
            return;
        }
        // Cheap pre-check before building (allocating) policy views:
        // most edges most shards have no pinned dispatchable work.
        let has_work = self.tenants.iter().enumerate().any(|(i, t)| {
            self.tenant_shard(i) == shard && t.queue.iter().any(|j| j.has_dispatchable())
        });
        if !has_work {
            return;
        }
        let mut staged = false;
        while self.qps[shard].free_slots() > 0 {
            let views = self.views(Some(shard));
            if !views.iter().any(|v| v.head.is_some()) {
                break;
            }
            let Some(pick) = self.policy.pick(&views) else {
                self.missed_dispatches += 1;
                break;
            };
            self.stage_chunk(pick, shard, dce, now_ns);
            staged = true;
        }
        if staged {
            self.ring_shard_doorbell(shard, now_ns);
        }
    }

    /// Least-loaded / work-stealing dispatch: the policy picks over
    /// every tenant's queue and each picked chunk goes to the shallowest
    /// eligible ring (free slots, driver not busy); every shard that
    /// staged work rings its own doorbell once at the end of the edge.
    fn dispatch_least_loaded(&mut self, dces: &mut [Dce], now_ns: f64) {
        let mut staged = vec![false; self.cfg.shards];
        while let Some(mut target) = self.least_loaded(now_ns, 0) {
            let views = self.views(None);
            if !views.iter().any(|v| v.head.is_some()) {
                break;
            }
            let Some(pick) = self.policy.pick(&views) else {
                self.missed_dispatches += 1;
                break;
            };
            if self.cfg.channel_affinity {
                if let Some(steered) = self.affinity_target(pick, dces[0].addr_space(), now_ns) {
                    if steered != target {
                        self.affinity_steers += 1;
                    }
                    target = steered;
                }
            }
            self.stage_chunk(pick, target, &mut dces[target], now_ns);
            staged[target] = true;
        }
        for (s, &st) in staged.iter().enumerate() {
            if st {
                self.ring_shard_doorbell(s, now_ns);
            }
        }
    }

    /// The least-loaded placement target: among the shards whose driver
    /// is free at `now_ns` and whose ring has a free slot, the one with
    /// the shallowest ring; occupancy ties go to the ring whose
    /// outstanding channel footprint overlaps the fewest channels of
    /// `mask`, then to the lowest shard id (deterministic placement).
    /// `mask = 0` is the plain shallowest ring. `None` when no shard is
    /// eligible.
    fn least_loaded(&self, now_ns: f64, mask: u64) -> Option<usize> {
        (0..self.qps.len())
            .filter(|&s| now_ns >= self.driver_ready_ns[s] && self.qps[s].free_slots() > 0)
            .min_by_key(|&s| {
                (
                    self.qps[s].occupancy(),
                    (mask & self.qps[s].channel_footprint()).count_ones(),
                    s,
                )
            })
    }

    /// The channel-affinity placement for tenant `pick`'s next fresh
    /// chunk: the [least-loaded](Self::least_loaded) shard with the
    /// chunk's channel footprint as the tie-break mask, so the hint only
    /// redirects occupancy *ties*. Returns `None` when the next dispatch
    /// is a resume (its footprint lives in the suspended cursor, not a
    /// pending chunk) — the caller keeps the plain shallowest target.
    fn affinity_target(&self, pick: usize, space: &PimAddrSpace, now_ns: f64) -> Option<usize> {
        let job = self.tenants[pick]
            .queue
            .iter()
            .find(|j| j.has_dispatchable())?;
        if !job.resume.is_empty() {
            return None;
        }
        let mask = chunk_channel_mask(job.chunks.front()?, space);
        self.least_loaded(now_ns, mask)
    }

    /// Pop the picked tenant's next unit of work — a recalled remainder
    /// first, else the next fresh chunk — stage its descriptor on
    /// `shard`'s ring and hand it to that shard's engine. With
    /// [`RuntimeConfig::sweep_continuation`] on, a fresh chunk landing
    /// directly behind its job's previous chunk on the same ring (seq
    /// exactly one past the anchor, identical core set) is declared a
    /// continuation: the engine chains the predecessor's held sweep
    /// cursor into it and the descriptor's priced entries shrink to the
    /// context-reload footprint.
    fn stage_chunk(&mut self, pick: usize, shard: usize, dce: &mut Dce, now_ns: f64) {
        // The seq the ring will assign this descriptor — the
        // continuation gate needs it before the tenant borrow below.
        let next_seq = self.qps[shard].peek_seq();
        let t = &mut self.tenants[pick];
        let job = t
            .queue
            .iter_mut()
            .find(|j| j.has_dispatchable())
            .expect("policies only pick tenants with dispatchable work");
        if job.first_dispatch_ns.is_none() {
            job.first_dispatch_ns = Some(now_ns);
        }
        let job_id = job.id;
        let resumed = !job.resume.is_empty();
        // Set for a fresh chunk: its core span (the next anchor), its
        // channel footprint, and the predecessor seq when it continues.
        let mut fresh_span = None;
        let mut mask = 0u64;
        let mut continues = None;
        let (bytes, entries) = if let Some((st, recalled_at)) = job.resume.pop_front() {
            // Resume the preempted chunk: the engine continues the
            // suspended channel sweep from its cursor. The descriptor
            // re-posts the remainder (a resume reloads the address-
            // buffer context, so the driver prices its entries like a
            // fresh submission). The recall already invalidated the
            // job's continuation anchor.
            let bytes = st.remaining_bytes();
            let entries = st.entries();
            t.stats.suspended.record(now_ns - recalled_at);
            t.stats.resumes += 1;
            dce.resume(st);
            (bytes, entries)
        } else {
            let chunk = job.chunks.pop_front().expect("dispatch head has chunks");
            let bytes = chunk.total_bytes();
            let full_entries = chunk.entries.len();
            let first_core = chunk.entries[0].1;
            fresh_span = Some((first_core, full_entries));
            if self.cfg.channel_affinity {
                mask = chunk_channel_mask(&chunk, dce.addr_space());
            }
            let claim = self.cfg.sweep_continuation
                && job.anchor.is_some_and(|a| {
                    a.shard == shard
                        && a.seq + 1 == next_seq
                        && a.first_core == first_core
                        && a.n_entries == full_entries
                });
            let entries = if claim {
                let pred = job.anchor.expect("claim requires an anchor").seq;
                continues = Some(pred);
                dce.enqueue_continuation(chunk, self.mode, pred)
                    .expect("chunk validated at job construction");
                self.cfg.driver.continuation_entries(full_entries)
            } else {
                dce.enqueue(chunk, self.mode)
                    .expect("chunk validated at job construction");
                full_entries
            };
            (bytes, entries)
        };
        let mut desc = Descriptor::new(
            DescriptorTag {
                tenant: pick,
                job: job_id,
            },
            entries,
            bytes,
        )
        .with_channel_mask(mask);
        if let Some(pred) = continues {
            desc = desc.continuation_of(pred);
            self.continuations_staged += 1;
        }
        let seq = self.qps[shard]
            .stage(desc, now_ns, dce.cycle())
            .expect("free slot checked");
        if let Some((first_core, n_entries)) = fresh_span {
            let job = self.tenants[pick]
                .queue
                .iter_mut()
                .find(|j| j.id == job_id)
                .expect("the staged job is still queued");
            job.anchor = Some(ChunkAnchor {
                shard,
                seq,
                first_core,
                n_entries,
            });
        }
        if self.recorder.enabled() {
            let tagged = SpanEvent::new(SpanKind::DispatchPick, now_ns)
                .tenant(pick)
                .shard(shard)
                .job(job_id)
                .seq(seq)
                .bytes(bytes);
            self.recorder.record(tagged);
            if resumed {
                self.recorder.record(SpanEvent {
                    kind: SpanKind::Resume,
                    ..tagged
                });
            }
        }
        self.policy.dispatched(pick, bytes);
        self.chunks_dispatched += 1;
    }

    /// Publish `shard`'s staged batch with one MMIO doorbell write,
    /// which occupies that shard's driver before its next submission.
    fn ring_shard_doorbell(&mut self, shard: usize, now_ns: f64) {
        let cost = self.qps[shard]
            .ring_doorbell(&self.cfg.driver)
            .expect("descriptors were staged");
        self.driver_ready_ns[shard] = now_ns + cost;
        self.recorder
            .record(SpanEvent::new(SpanKind::Doorbell, now_ns).shard(shard));
    }
}

/// Bit `c` set for every PIM channel `c` the chunk's entries sweep
/// (channels at or above 64 saturate into bit 63 — real machines have
/// far fewer, so the footprint stays exact in practice).
fn chunk_channel_mask(op: &PimMmuOp, space: &PimAddrSpace) -> u64 {
    op.entries.iter().fold(0u64, |m, &(_, core)| {
        let (ch, _, _, _) = space.core_coords(core);
        m | (1u64 << ch.min(63))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fcfs;

    #[test]
    #[should_panic(expected = "nonzero multiple of 64")]
    fn degenerate_fixed_sizer_is_rejected_at_construction() {
        // Regression: a bad per-core size must fail at configuration
        // time, not as a mid-simulation panic on the first arrival.
        Runtime::new(
            RuntimeConfig::default(),
            vec![TenantSpec::poisson("bad", 1_000.0, 100, 8)],
            Box::new(Fcfs),
        );
    }

    #[test]
    #[should_panic(expected = "at least one PIM core")]
    fn zero_core_sizer_is_rejected_at_construction() {
        Runtime::new(
            RuntimeConfig::default(),
            vec![TenantSpec::poisson("bad", 1_000.0, 64, 0)],
            Box::new(Fcfs),
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let cfg = RuntimeConfig {
            shards: 0,
            ..RuntimeConfig::default()
        };
        Runtime::new(cfg, vec![], Box::new(Fcfs));
    }

    #[test]
    fn least_loaded_prefers_emptier_rings_less_overlap_and_lower_ids() {
        let desc = |mask: u64| {
            Descriptor::new(DescriptorTag { tenant: 0, job: 0 }, 4, 64).with_channel_mask(mask)
        };
        let cfg = RuntimeConfig {
            shards: 3,
            hostq: HostQueueConfig::with_depth(2),
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(cfg, vec![], Box::new(Fcfs));
        // All empty: lowest id wins.
        assert_eq!(rt.least_loaded(0.0, 0), Some(0));
        rt.qps[0].stage(desc(0b01), 0.0, 0).unwrap();
        assert_eq!(rt.least_loaded(0.0, 0), Some(1));
        // A busy driver takes its shard out of the running until ready.
        rt.driver_ready_ns[1] = 10.0;
        assert_eq!(rt.least_loaded(0.0, 0), Some(2));
        assert_eq!(rt.least_loaded(10.0, 0), Some(1));
        // Occupancy ties go to the least channel overlap with the mask,
        // and only then to the lowest id.
        rt.qps[1].stage(desc(0b11), 0.0, 0).unwrap();
        rt.qps[2].stage(desc(0b10), 0.0, 0).unwrap();
        assert_eq!(rt.least_loaded(10.0, 0), Some(0));
        assert_eq!(rt.least_loaded(10.0, 0b01), Some(2));
        assert_eq!(rt.least_loaded(10.0, 0b10), Some(0));
        assert_eq!(rt.least_loaded(10.0, 0b11), Some(0));
        // Full rings are never targets.
        for qp in &mut rt.qps {
            while qp.free_slots() > 0 {
                qp.stage(desc(0), 0.0, 0).unwrap();
            }
        }
        assert_eq!(rt.least_loaded(10.0, 0), None);
    }
}
