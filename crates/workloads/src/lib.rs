//! PrIM-style PIM workload suite: the 16 memory-intensive workloads of
//! the paper's Fig. 16.
//!
//! Every workload has a *functional* implementation — input generation,
//! partitioning across DPUs, a per-DPU kernel executed on the host, a
//! merge step and verification against a sequential reference — and a
//! *profile* (input/output transfer footprints and an analytic kernel-
//! time model standing in for the paper's wall-clock measurements on real
//! UPMEM hardware; see DESIGN.md §4).
//!
//! ```
//! use pim_workloads::suite;
//! let all = suite::prim_suite();
//! assert_eq!(all.len(), 16);
//! for w in &all {
//!     let r = w.run_functional(16, 0xC0FFEE);
//!     assert!(r.verified, "{} failed verification", w.name());
//! }
//! ```

pub mod bfs;
pub mod bs;
pub mod gemv;
pub mod hst;
pub mod mlp;
pub mod nw;
pub mod partition;
pub mod red;
pub mod scan;
pub mod sel;
pub mod spmv;
pub mod suite;
pub mod trns;
pub mod ts;
pub mod uni;
pub mod va;

pub use suite::{
    job_shapes, max_in_bytes, prim_suite, FunctionalResult, JobShape, PimWorkload, TransferProfile,
};
