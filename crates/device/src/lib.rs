//! Placeholder for the retired functional UPMEM device model.
//!
//! The crate once held MRAM images, the Fig. 3 8×8 byte transpose and a
//! `dpu_push_xfer`-style host runtime. No figure, BENCH file or benchmark
//! read them: every reproduced number comes from the cycle-level transfer
//! path in `pim-mmu`, `pim-dram` and `pim-sim`. The crate stays, empty,
//! only because `perfbench/Cargo.lock` records it as a dependency of
//! `pim-workloads`; the next change that may rewrite that lockfile deletes
//! it together with its `[workspace.dependencies]` entry.
