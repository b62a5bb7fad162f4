//! The MLP-centric mapping with permutation-based XOR hashing
//! (paper Fig. 7(b), following Zhang et al. \[115\]).

use crate::addr::{DramAddr, PhysAddr};
use crate::layout::FieldLayout;
use crate::mapfn::MapFn;
use crate::org::Organization;
use serde::{Deserialize, Serialize};

/// The conventional MLP-centric memory mapping of servers without PIM.
///
/// Channel and bank-group bits sit near the LSB so that consecutive cache
/// lines fan out across channels and bank groups, and *permutation-based
/// XOR hashing* folds row bits into the channel/bank selection so that
/// strided access patterns (which would otherwise always touch the same
/// channel or repeatedly conflict in the same bank) still spread across the
/// subsystem. XOR-ing a field with a function of the row bits keeps the
/// mapping bijective: the row travels unmodified, so the hash can be
/// recomputed and XOR-ed away on the inverse path.
///
/// # Example
///
/// ```
/// use pim_mapping::{MlpCentric, MapFn, Organization, PhysAddr};
/// let m = MlpCentric::new(Organization::ddr4_dimm(4, 2));
/// // A 1 MiB-strided stream (larger than one row span, so the plain bit
/// // slice would pin every access to channel 0) still rotates across
/// // channels thanks to the XOR hash.
/// let chans: std::collections::BTreeSet<u32> =
///     (0..64u64).map(|i| m.map(PhysAddr(i << 20)).channel).collect();
/// assert!(chans.len() > 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpCentric {
    layout: FieldLayout,
    hash: bool,
}

impl MlpCentric {
    /// Build the MLP-centric mapping (XOR hashing enabled).
    pub fn new(org: Organization) -> Self {
        MlpCentric {
            layout: FieldLayout::mlp(&org),
            hash: true,
        }
    }

    /// Build the MLP-centric bit layout *without* XOR hashing, to isolate
    /// the contribution of the hash.
    pub fn without_hash(org: Organization) -> Self {
        MlpCentric {
            layout: FieldLayout::mlp(&org),
            hash: false,
        }
    }

    /// Whether permutation-based XOR hashing is enabled.
    pub fn hashing(&self) -> bool {
        self.hash
    }

    /// Fold `width` bits of the row into a hash value by XOR-ing
    /// consecutive `width`-bit slices of the row index.
    fn fold_row(row: u64, width: u32) -> u32 {
        if width == 0 {
            return 0;
        }
        let mut h = 0u64;
        let mut r = row;
        while r != 0 {
            h ^= r & ((1 << width) - 1);
            r >>= width;
        }
        h as u32
    }

    fn apply_hash(&self, mut d: DramAddr) -> DramAddr {
        if !self.hash {
            return d;
        }
        let org = self.layout.organization();
        let (cw, _, gw, bw, _, _) = org.bit_widths();
        // Offset the row slices used per field so channel/bank-group/bank
        // hashes are decorrelated from one another.
        d.channel ^= Self::fold_row(d.row, cw);
        d.bank_group ^= Self::fold_row(d.row >> 1, gw);
        d.bank ^= Self::fold_row(d.row >> 2, bw);
        d
    }
}

impl MapFn for MlpCentric {
    fn organization(&self) -> &Organization {
        self.layout.organization()
    }

    fn map(&self, phys: PhysAddr) -> DramAddr {
        self.apply_hash(self.layout.map(phys))
    }

    fn demap(&self, addr: &DramAddr) -> PhysAddr {
        // XOR is an involution given the (unmodified) row bits.
        let un = self.apply_hash(*addr);
        self.layout.demap(&un)
    }

    fn name(&self) -> &str {
        if self.hash {
            "MLP-centric + XOR hash"
        } else {
            "MLP-centric (no hash)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn org() -> Organization {
        Organization::ddr4_dimm(4, 2)
    }

    #[test]
    fn consecutive_lines_spread_channels() {
        let m = MlpCentric::new(org());
        let chans: BTreeSet<u32> = (0..16u64)
            .map(|i| m.map(PhysAddr(i * 64)).channel)
            .collect();
        assert_eq!(chans.len(), 4);
    }

    #[test]
    fn row_strided_stream_spreads_with_hash_only() {
        let o = org();
        let hashed = MlpCentric::new(o);
        let plain = MlpCentric::without_hash(o);
        // Stride of one full row*channels*banks: without hashing every
        // access hits channel 0; with hashing they spread.
        let stride = o.row_bytes() * (o.channels * o.bank_groups * o.banks) as u64;
        let plain_ch: BTreeSet<u32> = (0..32)
            .map(|i| plain.map(PhysAddr(i * stride)).channel)
            .collect();
        let hash_ch: BTreeSet<u32> = (0..32)
            .map(|i| hashed.map(PhysAddr(i * stride)).channel)
            .collect();
        assert_eq!(plain_ch.len(), 1);
        assert!(hash_ch.len() >= 3, "hashed channels: {hash_ch:?}");
    }

    #[test]
    fn fold_row_zero_width() {
        assert_eq!(MlpCentric::fold_row(0xffff, 0), 0);
        assert_eq!(MlpCentric::fold_row(0b1010, 1), 0); // 1^0^1^0
        assert_eq!(MlpCentric::fold_row(0b1110, 1), 1);
    }

    proptest! {
        #[test]
        fn roundtrip_hashed(addr in 0u64..(32u64 << 30)) {
            let m = MlpCentric::new(org());
            let phys = PhysAddr(addr).line_base();
            prop_assert_eq!(m.demap(&m.map(phys)), phys);
        }

        #[test]
        fn roundtrip_unhashed(addr in 0u64..(32u64 << 30)) {
            let m = MlpCentric::without_hash(org());
            let phys = PhysAddr(addr).line_base();
            prop_assert_eq!(m.demap(&m.map(phys)), phys);
        }

        #[test]
        fn hash_preserves_row_and_col(addr in 0u64..(32u64 << 30)) {
            let o = org();
            let hashed = MlpCentric::new(o);
            let plain = MlpCentric::without_hash(o);
            let phys = PhysAddr(addr).line_base();
            let a = hashed.map(phys);
            let b = plain.map(phys);
            prop_assert_eq!(a.row, b.row);
            prop_assert_eq!(a.col, b.col);
            prop_assert_eq!(a.rank, b.rank);
        }
    }
}
