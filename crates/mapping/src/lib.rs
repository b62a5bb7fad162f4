//! Memory mapping architecture for PIM-integrated memory systems.
//!
//! This crate models the *memory mapping function* inside a host processor's
//! memory controller: the translation from a physical address to a DRAM
//! address (channel, rank, bank group, bank, row, column). It provides the
//! three mapping families studied in the PIM-MMU paper (MICRO 2024):
//!
//! * [`LocalityCentric`] — the `ChRaBgBkRoCo` mapping that commercial PIM
//!   systems install via a BIOS update to keep the DRAM and PIM physical
//!   address spaces localized to their own DIMMs (paper Fig. 7(a)).
//! * [`MlpCentric`] — the conventional MLP-optimized mapping with channel
//!   bits near the LSB and permutation-based XOR hashing (paper Fig. 7(b)).
//! * [`HetMap`] — PIM-MMU's *Heterogeneous Memory Mapping Unit*, which keeps
//!   a dual set of mapping functions: MLP-centric for the DRAM partition of
//!   the physical address space and locality-centric for the PIM partition
//!   (paper §IV-E).
//!
//! # Example
//!
//! ```
//! use pim_mapping::{Organization, LocalityCentric, MlpCentric, MapFn, PhysAddr};
//!
//! let org = Organization::ddr4_dimm(4, 2); // 4 channels, 2 ranks/channel
//! let loc = LocalityCentric::new(org);
//! let mlp = MlpCentric::new(org);
//!
//! // Two consecutive cache lines stay in the same bank under the
//! // locality-centric mapping but rotate channels under the MLP mapping.
//! let a = loc.map(pim_mapping::PhysAddr(0));
//! let b = loc.map(PhysAddr(64));
//! assert_eq!(a.channel, b.channel);
//! assert_eq!(a.bank, b.bank);
//!
//! let c = mlp.map(PhysAddr(0));
//! let d = mlp.map(PhysAddr(64));
//! assert_ne!(c.channel, d.channel);
//! ```

pub mod addr;
pub mod hetmap;
pub mod layout;
pub mod locality;
pub mod mapfn;
pub mod mlp;
pub mod org;
pub mod pim_space;

pub use addr::{DramAddr, MemSpace, PhysAddr, LINE_BYTES, LINE_SHIFT};
pub use hetmap::{HetMap, SpacedAddr};
pub use layout::{Field, FieldLayout};
pub use locality::LocalityCentric;
pub use mapfn::MapFn;
pub use mlp::MlpCentric;
pub use org::Organization;
pub use pim_space::PimAddrSpace;
