//! UPMEM-like bank-level PIM device model.
//!
//! This crate provides the *functional* side of the PIM substrate: the
//! DIMM/chip/DPU topology (§II-C: eight chips per rank, eight DPUs per
//! chip, one DPU per memory bank), byte-granularity chip interleaving and
//! the 8×8 byte transpose the runtime must apply to host data (Fig. 3),
//! per-DPU MRAM storage, and a `dpu_prepare_xfer`/`dpu_push_xfer`-style
//! host runtime.
//!
//! Timing of DRAM↔PIM transfers is *not* modeled here: the cycle-level
//! path lives in `pim-dram`/`pim-cpu`/`pim-mmu`; this crate guarantees the
//! bytes end up in the right MRAM.

pub mod device;
pub mod mram;
pub mod runtime;
pub mod topology;
pub mod transpose;

pub use device::PimDevice;
pub use mram::Mram;
pub use runtime::{DpuSet, XferDirection};
pub use topology::PimTopology;
pub use transpose::{chip_shard, transpose_8x8, BLOCK_BYTES, WORDS_PER_BLOCK, WORD_BYTES};
