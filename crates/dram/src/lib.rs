//! Cycle-level DDR4 DRAM subsystem simulator.
//!
//! This crate is the Ramulator-class substrate of the PIM-MMU reproduction:
//! a DDR4 timing model (bank/bank-group/rank/channel state machines with
//! the full constraint set: `tRCD`, `tRP`, `tRAS`, `tRC`, `tCCD_S/L`,
//! `tRRD_S/L`, `tFAW`, `tWTR_S/L`, `tWR`, `tRTP`, rank-to-rank switching,
//! refresh) together with a per-channel FR-FCFS memory controller with
//! separate 64-entry read/write request queues and write-drain watermarks
//! (paper Table I).
//!
//! The same model serves both the conventional DRAM DIMMs and the PIM
//! DIMMs: from the memory controller's perspective an UPMEM-like PIM DIMM
//! is DDR4 DRAM (paper §II-C); what differs is the *organization*
//! ([`pim_mapping::Organization::upmem_dimm`]) and who issues the requests.
//!
//! # Example
//!
//! ```
//! use pim_dram::{AccessKind, MemController, MemRequest, SourceId, TimingParams};
//! use pim_mapping::{DramAddr, Organization, PhysAddr};
//!
//! let org = Organization::ddr4_dimm(1, 2);
//! let mut ctrl = MemController::new(org, TimingParams::ddr4_2400());
//!
//! // Stream a few row hits through the controller.
//! for col in 0..8 {
//!     let req = MemRequest::read(
//!         col as u64,
//!         PhysAddr(col as u64 * 64),
//!         DramAddr { col, ..DramAddr::default() },
//!         SourceId(0),
//!     );
//!     ctrl.enqueue(req).unwrap();
//! }
//! let mut done = 0;
//! for _ in 0..1000 {
//!     ctrl.tick();
//!     done += ctrl.drain_completions().len();
//! }
//! assert_eq!(done, 8);
//! ```

pub mod bank;
pub mod channel;
pub mod controller;
pub mod request;
pub mod stats;
pub mod timing;
pub mod validate;

pub use channel::ChannelState;
pub use controller::{ControllerConfig, MemController};
pub use request::{AccessKind, Completion, IdRing, MemRequest, OutRequest, SourceId};
pub use stats::ChannelStats;
pub use timing::{Command, TimingParams};
pub use validate::TimingValidator;
