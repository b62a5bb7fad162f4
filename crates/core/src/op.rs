//! The `pim_mmu_op` descriptor and `pim_mmu_transfer` argument validation
//! (paper Fig. 10(b)).

use pim_mapping::{PhysAddr, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Transfer direction (`ops.type` in Fig. 10(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum XferKind {
    /// `DRAM_to_PIM`.
    DramToPim,
    /// `PIM_to_DRAM`.
    PimToDram,
}

/// Errors rejected by `pim_mmu_transfer` before anything is offloaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// `size_per_pim` is zero or not 64 B-aligned.
    BadSize(u64),
    /// The source/destination arrays are empty.
    Empty,
    /// A PIM core id appears twice (per-core chunks must be mutually
    /// exclusive — the property PIM-MS relies on, §IV-D).
    DuplicateCore(u32),
    /// More per-core entries than the 64 KB address buffer can hold.
    AddressBufferOverflow {
        /// Entries requested.
        requested: usize,
        /// Entries available.
        capacity: usize,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::BadSize(s) => write!(f, "size_per_pim {s} must be a nonzero multiple of 64"),
            OpError::Empty => f.write_str("transfer has no per-core entries"),
            OpError::DuplicateCore(c) => write!(f, "PIM core {c} designated twice"),
            OpError::AddressBufferOverflow {
                requested,
                capacity,
            } => write!(
                f,
                "{requested} entries exceed the address buffer capacity of {capacity}"
            ),
        }
    }
}

impl std::error::Error for OpError {}

/// The descriptor handed to `pim_mmu_transfer` (Fig. 10(b) lines 18-23):
/// direction, per-core transfer size, the DRAM-side base address of each
/// per-core chunk, the destination (or source) PIM core ids, and the MRAM
/// heap offset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PimMmuOp {
    /// Transfer direction.
    pub kind: XferKind,
    /// Bytes moved per PIM core (`ops.size_per_pim`).
    pub size_per_pim: u64,
    /// `(dram_addr, pim_core)` pairs: `ops.dram_addr_arr` zipped with
    /// `ops.pim_id_arr`.
    pub entries: Vec<(PhysAddr, u32)>,
    /// Offset from `DPU_MRAM_HEAP_POINTER_NAME` (`ops.pim_base_heap_ptr`).
    pub heap_offset: u64,
}

impl PimMmuOp {
    /// Build a descriptor, rejecting degenerate jobs up front.
    ///
    /// Unlike [`to_pim`](Self::to_pim)/[`from_pim`](Self::from_pim), which
    /// defer all checking to [`validate`](Self::validate) at submission
    /// time, this constructor refuses zero-byte and zero-core jobs (and
    /// duplicate cores) immediately — the driver-facing path, where a
    /// malformed descriptor must surface as a typed error to the caller
    /// rather than as a division or empty-schedule panic deep inside the
    /// engine.
    ///
    /// # Errors
    ///
    /// [`OpError::BadSize`] for a zero or non-64 B-multiple
    /// `size_per_pim`, [`OpError::Empty`] for a job naming no PIM cores,
    /// [`OpError::DuplicateCore`] for a repeated core id.
    pub fn try_new(
        kind: XferKind,
        entries: impl IntoIterator<Item = (PhysAddr, u32)>,
        size_per_pim: u64,
        heap_offset: u64,
    ) -> Result<Self, OpError> {
        let op = PimMmuOp {
            kind,
            size_per_pim,
            entries: entries.into_iter().collect(),
            heap_offset,
        };
        op.check_shape()?;
        Ok(op)
    }

    /// Build a DRAM→PIM descriptor.
    pub fn to_pim(
        entries: impl IntoIterator<Item = (PhysAddr, u32)>,
        size_per_pim: u64,
        heap_offset: u64,
    ) -> Self {
        PimMmuOp {
            kind: XferKind::DramToPim,
            size_per_pim,
            entries: entries.into_iter().collect(),
            heap_offset,
        }
    }

    /// Build a PIM→DRAM descriptor.
    pub fn from_pim(
        entries: impl IntoIterator<Item = (PhysAddr, u32)>,
        size_per_pim: u64,
        heap_offset: u64,
    ) -> Self {
        PimMmuOp {
            kind: XferKind::PimToDram,
            size_per_pim,
            entries: entries.into_iter().collect(),
            heap_offset,
        }
    }

    /// Total bytes this op moves.
    pub fn total_bytes(&self) -> u64 {
        self.size_per_pim * self.entries.len() as u64
    }

    /// Shape validation independent of any engine capacity: nonzero
    /// 64 B-multiple per-core size, at least one per-core entry, no
    /// duplicate cores.
    fn check_shape(&self) -> Result<(), OpError> {
        if self.size_per_pim == 0 || !self.size_per_pim.is_multiple_of(LINE_BYTES) {
            return Err(OpError::BadSize(self.size_per_pim));
        }
        if self.entries.is_empty() {
            return Err(OpError::Empty);
        }
        // Sort (core, position) pairs; within each run of one core, the
        // second entry is that core's first repeat. Report the repeat
        // that comes first in entry order.
        let mut by_core: Vec<(u32, usize)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, &(_, core))| (core, i))
            .collect();
        by_core.sort_unstable();
        let first_repeat = by_core
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1])
            .min_by_key(|&(_, i)| i);
        match first_repeat {
            Some((core, _)) => Err(OpError::DuplicateCore(core)),
            None => Ok(()),
        }
    }

    /// Split this op into a sequence of smaller, independently valid ops
    /// for incremental submission — the driver-level quantum that lets a
    /// transfer-queue runtime time-share one DCE between tenants without
    /// letting a huge job monopolize the engine.
    ///
    /// Each chunk names at most `max_entries` per-core entries and moves
    /// at most `max_bytes` in total, except that a chunk always carries at
    /// least one 64 B line per named core (so `max_bytes` below
    /// `64 * entries` is best-effort, not an error). Chunks partition the
    /// original byte ranges exactly: per-core DRAM base addresses and the
    /// MRAM heap offset advance in lockstep — exact because each core's
    /// MRAM heap is physically contiguous under the locality-centric PIM
    /// mapping — so executing all chunks in any order moves the same
    /// lines as the original op, and `Σ chunk.total_bytes()` equals
    /// [`total_bytes`](Self::total_bytes).
    ///
    /// # Errors
    ///
    /// Rejects degenerate source ops with the same typed errors as
    /// [`try_new`](Self::try_new).
    pub fn chunks(&self, max_bytes: u64, max_entries: usize) -> Result<Vec<PimMmuOp>, OpError> {
        self.check_shape()?;
        let mut out = Vec::new();
        for group in self.entries.chunks(max_entries.max(1)) {
            // Largest 64 B-multiple per-core span fitting the byte budget,
            // floored at one line per core.
            let span = ((max_bytes / group.len() as u64) / LINE_BYTES * LINE_BYTES).max(LINE_BYTES);
            let mut off = 0;
            while off < self.size_per_pim {
                let size = span.min(self.size_per_pim - off);
                out.push(PimMmuOp {
                    kind: self.kind,
                    size_per_pim: size,
                    entries: group
                        .iter()
                        .map(|&(addr, core)| (addr.offset(off), core))
                        .collect(),
                    heap_offset: self.heap_offset + off,
                });
                off += size;
            }
        }
        Ok(out)
    }

    /// Validate the shape (as [`try_new`](Self::try_new) does), then
    /// the address-buffer capacity.
    ///
    /// # Errors
    ///
    /// See [`OpError`].
    pub fn validate(&self, addr_buffer_entries: usize) -> Result<(), OpError> {
        self.check_shape()?;
        if self.entries.len() > addr_buffer_entries {
            return Err(OpError::AddressBufferOverflow {
                requested: self.entries.len(),
                capacity: addr_buffer_entries,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_op_passes() {
        let op = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 4096), u32::try_from(i).unwrap())),
            4096,
            0,
        );
        assert_eq!(op.total_bytes(), 8 * 4096);
        assert!(op.validate(4096).is_ok());
    }

    #[test]
    fn rejects_bad_sizes() {
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 100, 0);
        assert_eq!(op.validate(10), Err(OpError::BadSize(100)));
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 0, 0);
        assert_eq!(op.validate(10), Err(OpError::BadSize(0)));
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        let op = PimMmuOp::to_pim([(PhysAddr(0), 3), (PhysAddr(64), 3)], 64, 0);
        assert_eq!(op.validate(10), Err(OpError::DuplicateCore(3)));
        // Several repeated cores: the error names the one whose repeat
        // comes first in entry order, not the smallest id.
        let op = PimMmuOp::to_pim(
            [5, 3, 9, 5, 3].map(|core| (PhysAddr(u64::from(core) * 64), core)),
            64,
            0,
        );
        assert_eq!(op.validate(10), Err(OpError::DuplicateCore(5)));
        let op = PimMmuOp::from_pim(std::iter::empty(), 64, 0);
        assert_eq!(op.validate(10), Err(OpError::Empty));
    }

    #[test]
    fn construction_rejects_zero_byte_jobs() {
        // Regression: a zero-byte job must fail with a typed error at
        // construction, not divide or schedule-empty-panic downstream.
        assert_eq!(
            PimMmuOp::try_new(XferKind::DramToPim, [(PhysAddr(0), 0)], 0, 0),
            Err(OpError::BadSize(0))
        );
        assert_eq!(
            PimMmuOp::try_new(XferKind::PimToDram, [(PhysAddr(0), 0)], 96, 0),
            Err(OpError::BadSize(96))
        );
    }

    #[test]
    fn construction_rejects_zero_core_jobs() {
        // Regression: a job naming no PIM cores is refused up front.
        assert_eq!(
            PimMmuOp::try_new(XferKind::DramToPim, std::iter::empty(), 64, 0),
            Err(OpError::Empty)
        );
        assert_eq!(
            PimMmuOp::try_new(XferKind::PimToDram, std::iter::empty(), 64, 0),
            Err(OpError::Empty)
        );
    }

    #[test]
    fn checked_construction_accepts_and_matches_unchecked() {
        let a = PimMmuOp::try_new(XferKind::DramToPim, [(PhysAddr(64), 3)], 128, 256).unwrap();
        let b = PimMmuOp::to_pim([(PhysAddr(64), 3)], 128, 256);
        assert_eq!(a, b);
        assert_eq!(
            PimMmuOp::try_new(
                XferKind::DramToPim,
                [(PhysAddr(0), 1), (PhysAddr(64), 1)],
                64,
                0
            ),
            Err(OpError::DuplicateCore(1))
        );
    }

    #[test]
    fn chunks_partition_the_transfer_exactly() {
        let op = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let chunks = op.chunks(16 << 10, 4096).unwrap();
        assert!(chunks.len() > 1);
        // Every chunk is independently valid and byte totals add up.
        let mut total = 0;
        for c in &chunks {
            c.validate(4096).unwrap();
            assert_eq!(c.kind, op.kind);
            total += c.total_bytes();
        }
        assert_eq!(total, op.total_bytes());
        // Per core, the chunk (base, size) spans tile [base, base+8192)
        // contiguously, with the heap offset advancing in lockstep.
        for core in 0..8u32 {
            let mut spans: Vec<(u64, u64, u64)> = chunks
                .iter()
                .flat_map(|c| {
                    c.entries
                        .iter()
                        .filter(|&&(_, k)| k == core)
                        .map(|&(a, _)| (a.0, c.size_per_pim, c.heap_offset))
                        .collect::<Vec<_>>()
                })
                .collect();
            spans.sort_unstable();
            let base = core as u64 * 8192;
            let mut expect = base;
            for (addr, size, heap) in spans {
                assert_eq!(addr, expect);
                assert_eq!(heap, expect - base);
                expect += size;
            }
            assert_eq!(expect, base + 8192);
        }
    }

    #[test]
    fn chunks_respect_entry_and_byte_budgets() {
        let op = PimMmuOp::to_pim(
            (0..100).map(|i| (PhysAddr(i * 640), u32::try_from(i).unwrap())),
            640,
            0,
        );
        let chunks = op.chunks(64 << 10, 32).unwrap();
        for c in &chunks {
            assert!(c.entries.len() <= 32);
            assert!(c.total_bytes() <= 64 << 10);
        }
        // A byte budget below one line per core floors at one line each.
        let tiny = op.chunks(64, 4096).unwrap();
        assert!(tiny.iter().all(|c| c.size_per_pim == 64));
        assert_eq!(tiny.len(), 10); // 640 B / 64 B per core, one group
    }

    #[test]
    fn chunking_degenerate_ops_is_a_typed_error() {
        let zero = PimMmuOp::to_pim([(PhysAddr(0), 0)], 0, 0);
        assert_eq!(zero.chunks(4096, 64), Err(OpError::BadSize(0)));
        let empty = PimMmuOp::to_pim(std::iter::empty(), 64, 0);
        assert_eq!(empty.chunks(4096, 64), Err(OpError::Empty));
    }

    #[test]
    fn rejects_overflow() {
        let op = PimMmuOp::to_pim(
            (0..100).map(|i| (PhysAddr(i * 64), u32::try_from(i).unwrap())),
            64,
            0,
        );
        assert!(matches!(
            op.validate(64),
            Err(OpError::AddressBufferOverflow {
                requested: 100,
                capacity: 64
            })
        ));
        // Error messages are human-readable.
        assert!(op.validate(64).unwrap_err().to_string().contains("64"));
        // Shape errors come before capacity: an op that both overflows
        // and repeats a core reports the repeat.
        let mut dup = op.clone();
        dup.entries[99].1 = 0;
        assert_eq!(dup.validate(64), Err(OpError::DuplicateCore(0)));
    }
}
