//! `pim-hostq`: an NVMe-style doorbell/queue-pair host submission path
//! for the PIM-MMU Data Copy Engine.
//!
//! The paper's driver (§IV-B) is synchronous: one `pim_mmu_transfer`
//! descriptor in flight, one MMIO submit and one completion interrupt
//! per transfer. Under sustained chunked traffic that host interface —
//! not the engine — bounds throughput, because every chunk pays the
//! full `submit + interrupt` round trip before the next can launch.
//! This crate models the standard cure:
//!
//! * a **[`QueuePair`]** — a bounded submission ring where the host
//!   stages descriptors and one **doorbell** MMIO write publishes the
//!   whole staged batch (the fixed submit cost is paid once per ring,
//!   not once per descriptor), paired with a completion ring the host
//!   drains;
//! * an **[`InterruptCoalescer`]** — completions accumulate and the
//!   interrupt fires on a count threshold or an aggregation timer,
//!   whichever comes first;
//! * a **[`HostQueueConfig`]** whose identity point (depth 1,
//!   coalescing off) degenerates bit-for-bit to the synchronous
//!   handshake — the regression anchor for everything built on top.
//!
//! A multi-DCE system gives every engine shard a queue pair of its own,
//! each with its own doorbell path and interrupt vector, so per-shard
//! driver costs overlap instead of serializing through one ring.
//!
//! The device side lives in `pim-mmu`: [`Dce::enqueue`] gives the
//! engine its own pending-descriptor queue so it transitions directly
//! from one chunk to the next, surfacing retirements as
//! [`DceCompletion`] records for the ring poller. `pim-runtime`'s
//! dispatch loop posts chunks through the queue pairs, and its serving
//! composer polls every pair on the host clock, whose period is
//! [`HostQueueConfig::poll_period_ps`].
//!
//! [`Dce::enqueue`]: pim_mmu::Dce::enqueue
//! [`DceCompletion`]: pim_mmu::dce::DceCompletion
//!
//! ```
//! use pim_hostq::{Descriptor, DescriptorTag, HostQueueConfig, QueuePair};
//! use pim_mmu::DriverModel;
//!
//! let mut qp = QueuePair::new(HostQueueConfig::with_depth(4));
//! let d = Descriptor::new(DescriptorTag { tenant: 0, job: 0 }, 64, 64 << 10);
//! qp.stage(d, 0.0, 0).unwrap();
//! qp.stage(d, 0.0, 0).unwrap();
//! // One MMIO write publishes both descriptors.
//! let cost = qp.ring_doorbell(&DriverModel::default()).unwrap();
//! assert_eq!(cost, DriverModel::default().submit_ns(128));
//! assert_eq!(qp.in_flight(), 2);
//! ```

pub mod coalesce;
pub mod config;
pub mod queue;

pub use coalesce::{FireCause, InterruptCoalescer};
pub use config::HostQueueConfig;
pub use queue::{
    Descriptor, DescriptorTag, HostQError, HostQueueStats, Posted, QueuePair, RingCompletion,
};
