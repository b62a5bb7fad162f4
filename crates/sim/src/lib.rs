//! System-level simulator for the PIM-MMU evaluation.
//!
//! Combines the substrate crates into the evaluated machine (Table I):
//! an 8-core CPU cluster ([`pim_cpu`]), per-channel DDR4 memory
//! controllers for the DRAM and PIM DIMMs ([`pim_dram`]), the Data Copy
//! Engine ([`pim_mmu`]) and the energy model ([`pim_energy`]) — advanced
//! on two clock domains (3.2 GHz core/engine clock, 1.2 GHz DDR4-2400
//! memory clock) over a common integer tick of 1/96 ns.
//!
//! [`System`] composes the components over a [`ClockDomains`]
//! scheduler ([`engine`]) and calls each one's own methods: `tick` at
//! its domain's edges, `skip_cycles` over edges it slept through, and
//! `next_event_cycle` for the horizon that decides which edges it may
//! sleep through. Independent experiment points fan out across host
//! cores through the [`batch`] harness.
//!
//! The four design points of the paper's ablation (Fig. 15) are selected
//! with [`DesignPoint`]:
//!
//! | design | copy path | DRAM mapping | PIM scheduling |
//! |---|---|---|---|
//! | `Baseline` | multi-threaded AVX software | locality (homogeneous) | OS threads |
//! | `BaseD` | DCE, coarse | locality (homogeneous) | descriptor order |
//! | `BaseDH` | DCE, coarse | HetMap (MLP-centric DRAM) | descriptor order |
//! | `BaseDHP` | DCE + PIM-MS | HetMap | Algorithm 1 |

pub mod batch;
pub mod clock;
pub mod config;
pub mod engine;
pub mod result;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod system;
pub mod transfer;

pub use batch::{default_threads, run_batch, BatchPoint, Experiment};
pub use clock::{ns_to_ticks, period_ticks, ticks_to_ns, TICKS_PER_NS};
pub use config::TimingMode;
pub use config::{DesignPoint, SystemConfig, ThreadAssignment};
pub use engine::{ClockDomains, DomainId, Fired, TimingStats};
pub use pim_cpu::streams::Intensity;
pub use result::{PowerSample, TransferResult};
#[cfg(feature = "sanitize")]
pub use sanitize::{SanitizeKind, SanitizeViolation};
pub use system::{DomainProfile, System};
pub use transfer::{
    run_memcpy, run_transfer, run_transfer_timed, ContenderSpec, TransferSpec, HOST_BUFFER_BASE,
};
