//! PIM-MMU: a Memory Management Unit for accelerating DRAM↔PIM data
//! transfers in memory-bus-integrated PIM systems (MICRO 2024).
//!
//! The paper's contribution is a hardware/software co-design with three
//! synergistic components (Fig. 9):
//!
//! * **Data Copy Engine (DCE)** — [`Dce`]: offloads the entire
//!   DRAM↔PIM copy (including the transpose preprocessing) from the CPU,
//!   buffering in-flight lines in a 16 KB data buffer and job metadata in
//!   a 64 KB address buffer.
//! * **PIM-aware Memory Scheduler (PIM-MS)** — [`PairScheduler`]:
//!   exploits the mutual exclusivity of per-PIM-core transfer chunks to
//!   reorder line transfers for maximum channel/bank-group/bank
//!   parallelism (Algorithm 1).
//! * **Heterogeneous Memory Mapping (HetMap)** — provided by
//!   [`pim_mapping::HetMap`]: MLP-centric mapping for the DRAM partition,
//!   locality-centric for the PIM partition.
//!
//! The software stack (Fig. 10(b), §IV-B) is modeled by [`PimMmuOp`]
//! (the `pim_mmu_op` descriptor struct) and [`DriverModel`] (MMIO
//! offload + completion interrupt latencies).
//!
//! # Quick start
//!
//! ```
//! use pim_dram::Completion;
//! use pim_mapping::{HetMap, Organization, PimAddrSpace};
//! use pim_mmu::{Dce, DceConfig, DceMode, PimMmuOp};
//!
//! let dram = Organization::ddr4_dimm(4, 2);
//! let pim = Organization::upmem_dimm(4, 2);
//! let het = HetMap::pim_mmu(dram, pim);
//! let space = PimAddrSpace::new(het.pim_base(), pim);
//!
//! // Transfer 8 KiB to each of the first 16 PIM cores.
//! let op = PimMmuOp::to_pim(
//!     (0..16).map(|i| (pim_mapping::PhysAddr(i * 8192), i as u32)),
//!     8192,
//!     0,
//! );
//! let mut dce = Dce::with_shard(DceConfig::table1(), het, space, 0);
//! dce.enqueue(op, DceMode::PimMs).unwrap();
//!
//! // Tick the engine against a memory that completes every request at
//! // once; the descriptor retires into the completion ring.
//! while dce.busy() {
//!     dce.tick();
//!     while let Some(r) = dce.outbox_mut().pop_front() {
//!         let (id, kind, source) = (r.req.id, r.req.kind, r.req.source);
//!         let cycle = dce.cycle();
//!         dce.on_completion(Completion { id, kind, source, cycle });
//!     }
//! }
//! let rec = dce.pop_completion().unwrap();
//! assert_eq!(rec.bytes, 16 * 8192);
//! ```

pub mod config;
pub mod dce;
pub mod driver;
pub mod op;
pub mod scheduler;

pub use config::{DceConfig, DceMode};
pub use dce::{Dce, DceCompletion, DceStats, SuspendedTransfer};
pub use driver::DriverModel;
pub use op::{OpError, PimMmuOp, XferKind};
pub use scheduler::{LinePair, PairScheduler};
