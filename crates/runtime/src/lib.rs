//! `pim-runtime`: an OS/driver-level multi-tenant transfer-queue runtime
//! over the PIM-MMU Data Copy Engine.
//!
//! The paper's evaluation exercises the DCE one transfer at a time; this
//! crate turns the simulator into a *traffic-serving* system:
//!
//! * **Tenants & traffic** — each [`TenantSpec`] couples an arrival
//!   process ([`ArrivalProcess`]: seeded Poisson, bursty, closed-loop
//!   feedback, or an explicit trace) with a job-size model
//!   ([`JobSizer`]: fixed, or sampled from the PrIM suite's inputs in
//!   [`pim_workloads::PRIM_SUITE`]).
//! * **QoS scheduling** — a pluggable [`QueuePolicy`]
//!   ([`Fcfs`], [`Sjf`], [`Drr`], [`StrictPriority`]) picks which
//!   tenant's head job receives the engine's next quantum. Jobs are
//!   split into chunked [`pim_mmu::PimMmuOp`]s so no tenant can
//!   monopolize the DCE.
//! * **Host interface** — chunks are posted through an NVMe-style
//!   doorbell/queue-pair ([`pim_hostq::QueuePair`]): a bounded
//!   submission ring (configurable depth) published by batched doorbell
//!   writes, with completion-interrupt coalescing. The default
//!   [`HostQueueConfig`] (depth 1, coalescing off) is bit-for-bit the
//!   paper's synchronous `pim_mmu_transfer` handshake; deeper rings
//!   keep the DCE fed across chunk boundaries via
//!   [`pim_mmu::Dce::enqueue`].
//! * **Multi-DCE sharding** — the runtime dispatches across an array
//!   of engines (one [`QueuePair`] + driver context per shard, see
//!   [`Runtime::queue_pairs`]) under a pluggable [`Placement`]:
//!   hash-pin (tenant → shard; per-tenant queue pairs) or least-loaded
//!   work-stealing (each picked chunk goes to the shallowest eligible
//!   ring). One shard is the single-engine runtime, bit for bit.
//! * **Completion path** — ring retirements are routed back to the
//!   owning tenant with the driver round-trip latency model applied, and
//!   recorded as [`JobRecord`]s.
//! * **Metrics** — per-tenant queueing delay, service time and
//!   end-to-end latency histograms ([`LogHistogram`], p50/p95/p99),
//!   achieved bandwidth, and the Jain fairness index ([`jain_index`]).
//!
//! [`ServingSystem`] composes a [`Runtime`] with the simulated machine:
//! it registers the host clock (period
//! [`HostQueueConfig::poll_period_ps`]) as a clock domain of the
//! machine's scheduler and, at each of its edges, calls
//! [`Runtime::admit_arrivals`], [`Runtime::poll_shard`] for every shard
//! and [`Runtime::dispatch`] with the edge's time.
//!
//! ```
//! use pim_runtime::{ArrivalProcess, Fcfs, JobSizer, Runtime, RuntimeConfig,
//!                   ServingSystem, TenantSpec};
//! use pim_mmu::XferKind;
//! use pim_sim::{DesignPoint, SystemConfig};
//!
//! let tenant = TenantSpec {
//!     name: "interactive".into(),
//!     kind: XferKind::DramToPim,
//!     arrival: ArrivalProcess::Trace(vec![0.0, 1_000.0]),
//!     sizer: JobSizer::Fixed { per_core_bytes: 512, n_cores: 8 },
//!     priority: 0,
//!     weight: 1,
//!     class: 0,
//! };
//! let cfg = RuntimeConfig { open_until_ns: 5_000.0, ..RuntimeConfig::default() };
//! let runtime = Runtime::new(cfg, vec![tenant], Box::new(Fcfs));
//! let mut serving = ServingSystem::new(
//!     SystemConfig::table1(DesignPoint::BaseDHP), runtime);
//! assert!(serving.run_until_drained(1e8));
//! assert_eq!(serving.runtime().records().len(), 2);
//! ```

pub mod arrival;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod runtime;
pub mod serving;
pub mod testkit;

pub use arrival::{ArrivalGen, ArrivalProcess, JobSizer, Rng};
pub use job::{ChunkAnchor, Job, JobRecord, JobSpec};
pub use metrics::{
    jain_index, jain_satisfaction, HostIfaceStats, LogHistogram, TenantStats, HIST_BUCKETS,
};
pub use policy::{
    policy_by_name, Drr, Fcfs, HeadView, QueuePolicy, QueueView, Sjf, StrictPriority, POLICY_NAMES,
};
pub use runtime::{Placement, Preemption, Runtime, RuntimeConfig, TenantSpec};
pub use serving::ServingSystem;

// The host submission path the dispatch loop posts chunks through,
// re-exported so harnesses can configure ring depth and interrupt
// coalescing without naming `pim_hostq` directly.
pub use pim_hostq::{HostQueueConfig, HostQueueStats, QueuePair};

// The observability vocabulary ([`RuntimeConfig::telemetry`], the
// flight recorder behind [`Runtime::recorder`], the unified counter
// snapshot, and the analysis layers on top — latency attribution and
// SLO burn-rate tracking), re-exported so harnesses can enable
// tracing and read it back without naming `pim_telemetry` directly.
pub use pim_telemetry::{
    Attribution, BreachKind, CounterSet, Counters, FlightRecorder, JobWaterfall, SampleSeries,
    SloBreach, SloConfig, SloTracker, SpanEvent, SpanKind, Stage, TailAttribution, TelemetryConfig,
    TelemetrySnapshot, NO_JOB, NO_SEQ, NO_SHARD, NO_TENANT, STAGE_COUNT,
};
