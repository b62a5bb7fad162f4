//! Trace-driven CPU model for the PIM-MMU reproduction.
//!
//! The paper evaluates the *baseline* software data-transfer path by
//! feeding instruction traces of the UPMEM runtime's `dpu_push_xfer` into
//! Ramulator's CPU-trace mode, modeling AVX-512 transfers as wide 64 B
//! memory accesses that bypass the cache when they target the PIM address
//! space (§V). This crate rebuilds that machinery:
//!
//! * [`TraceOp`]/[`InstrStream`] — instruction traces as lazy streams
//!   (bubbles + 64 B loads/stores, cacheable or not).
//! * [`streams`] — generators for the software DRAM↔PIM copy loop, the
//!   AVX `memcpy` microbenchmark, spin-lock contenders and
//!   memory-intensive contenders (paper Fig. 13).
//! * [`Core`] — a 4-wide out-of-order core with a 224-entry instruction
//!   window and 64 MSHRs (Table I).
//! * [`Llc`] — the shared 8 MB 16-way LLC.
//! * [`OsScheduler`] — round-robin thread scheduling with the paper's
//!   1.5 ms quantum.
//! * [`CpuCluster`] — the 8-core cluster gluing it all together and
//!   exchanging [`OutRequest`]s with the memory system.

pub mod cluster;
pub mod config;
pub mod core;
pub mod llc;
pub mod os;
pub mod streams;
pub mod trace;

pub use cluster::{ClusterStats, CpuCluster, OutRequest};
pub use config::CpuConfig;
pub use core::Core;
pub use llc::Llc;
pub use os::OsScheduler;
pub use trace::{InstrStream, Thread, ThreadKind, TraceOp};
