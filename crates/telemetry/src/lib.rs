//! Workspace-wide observability for the serving stack.
//!
//! Three instruments, all deterministic (two runs of the same seeded
//! trace emit byte-identical streams) and all free when disabled:
//!
//! * **Span tracing** ([`event`], [`recorder`]): every job emits
//!   timestamped [`SpanEvent`]s (arrival, dispatch-pick, doorbell,
//!   device-start, suspend/resume/recall, retire, interrupt, complete)
//!   tagged with tenant/shard/ring-seq into a bounded
//!   [`FlightRecorder`] that keeps the prefix of the run and counts
//!   what overflows it. The hot path is one predictable branch plus a `Copy` store into a
//!   preallocated buffer — no allocation, and a disabled recorder
//!   returns before touching memory. Device-side components that do not
//!   know wall-clock time record through a [`SpanTap`] (cycle-stamped,
//!   converted at the tap) that the composer drains into the recorder.
//! * **Counter registry** ([`counters`]): the per-layer stats structs
//!   (`TimingStats`, `DceStats`, `HostQueueStats`, `TenantStats`, …)
//!   implement [`Counters`] to flatten into one insertion-ordered
//!   [`CounterSet`] — a single named-counter namespace a
//!   [`TelemetrySnapshot`] freezes at a point in simulated time.
//! * **Time series** ([`sampler`]): a [`SampleSeries`] records a fixed
//!   column schema (queue depths, in-flight bytes, per-shard goodput,
//!   `edges_skipped`) at a configurable cadence. The composer registers
//!   the cadence as a clock domain, so under event-driven timing the
//!   next sample deadline is just another edge — idle-skip still
//!   engages and sampling cost is proportional to samples taken, not
//!   simulated time.
//!
//! On top of the raw signal sit the *analysis* layers (PR 8):
//!
//! * **Latency attribution** ([`attribution`]): a span joiner +
//!   stage-waterfall engine folding the recorder into per-job stage
//!   durations (queue-wait → dispatch → ring → device service →
//!   suspended → coalescing → completion tail) that sum exactly to the
//!   job's end-to-end latency, with per-tenant × per-stage
//!   [`LogHistogram`] aggregation and a slowest-decile tail view.
//! * **SLO tracking** ([`slo`]): per-class latency/goodput objectives
//!   with fast+slow-window burn rates and edge-triggered breach
//!   instants — the signal surface a shard autoscaler consumes.
//! * **Histograms** ([`hist`]): the fixed-bucket log2 [`LogHistogram`]
//!   (moved down from `pim-runtime` so the layers above share it).
//!
//! This crate is dependency-free and sits below every other workspace
//! crate; the Perfetto/Chrome-trace exporter lives in `pim-bench`
//! (where the deterministic JSON writer is).

pub mod attribution;
pub mod counters;
pub mod event;
pub mod hist;
pub mod recorder;
pub mod sampler;
pub mod slo;

pub use attribution::{Attribution, JobWaterfall, Stage, TailAttribution, STAGE_COUNT};
pub use counters::{CounterSet, Counters, TelemetrySnapshot};
pub use event::{SpanEvent, SpanKind, NO_JOB, NO_SEQ, NO_SHARD, NO_TENANT};
pub use hist::{LogHistogram, HIST_BUCKETS};
pub use recorder::{FlightRecorder, SpanTap, TelemetryConfig};
pub use sampler::SampleSeries;
pub use slo::{BreachKind, SloBreach, SloConfig, SloTracker};
