//! PIM-MS: the PIM-aware memory scheduler (paper Algorithm 1, §IV-D).
//!
//! The key insight: per-PIM-core transfer chunks are mutually exclusive
//! (the programmer must assign each partition a unique PIM address), so
//! line transfers can be *reordered freely* without affecting correctness.
//! PIM-MS exploits this by sweeping over PIM cores channel-parallel, with
//! the bank group as the innermost rotation (consecutive column commands
//! then pay `tCCD_S`, not `tCCD_L`), ranks next, and banks outermost —
//! maximizing channel/bank-group/bank-level parallelism on the PIM side.

use crate::config::DceMode;
use crate::op::{PimMmuOp, XferKind};
use pim_mapping::{PhysAddr, PimAddrSpace, LINE_BYTES};
use std::collections::BTreeMap;

/// One 64 B line transfer: read `src`, (transpose), write `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinePair {
    /// Source physical address.
    pub src: PhysAddr,
    /// Destination physical address.
    pub dst: PhysAddr,
    /// The PIM channel this pair's PIM-side access targets.
    pub pim_channel: u32,
}

/// The per-core cursor: the address-buffer entry of Fig. 11 (base DRAM
/// address, PIM core, offset counter) with the AGU's address generation
/// folded in (Algorithm 1 lines 8-14).
#[derive(Debug, Clone, Copy)]
struct CoreCursor {
    /// The PIM core this cursor's entry targets.
    core: u32,
    /// The PIM channel that core lives on — carried per cursor so
    /// emitted pairs are tagged correctly in *both* modes (Coarse keeps
    /// all cores in one logical queue, so the queue's channel field
    /// cannot stand in for it).
    channel: u32,
    src_base: PhysAddr,
    dst_base: PhysAddr,
    bytes: u64,
    offset: u64,
}

impl CoreCursor {
    fn next_pair(&mut self) -> Option<LinePair> {
        if self.offset >= self.bytes {
            return None;
        }
        let p = LinePair {
            src: self.src_base.offset(self.offset),
            dst: self.dst_base.offset(self.offset),
            pim_channel: self.channel,
        };
        self.offset += LINE_BYTES; // min_access_granularity
        Some(p)
    }
}

#[derive(Debug)]
struct ChannelQueue {
    cores: Vec<CoreCursor>,
    rr: usize,
    remaining_lines: u64,
}

impl ChannelQueue {
    fn next(&mut self) -> Option<LinePair> {
        if self.remaining_lines == 0 {
            return None;
        }
        let n = self.cores.len();
        for _ in 0..n {
            let i = self.rr;
            self.rr = (self.rr + 1) % n;
            if let Some(p) = self.cores[i].next_pair() {
                self.remaining_lines -= 1;
                return Some(p);
            }
        }
        None
    }
}

/// Generates the `(source address, destination address)` sequence of
/// Algorithm 1 — channel-parallel, bank-group-innermost sweeps in
/// [`DceMode::PimMs`]; strict per-descriptor order in [`DceMode::Coarse`].
#[derive(Debug)]
pub struct PairScheduler {
    channels: Vec<ChannelQueue>,
    mode: DceMode,
    rr_channel: usize,
    total_lines: u64,
    yielded: u64,
}

impl PairScheduler {
    /// Build the schedule for `op` against the PIM address space.
    ///
    /// For DRAM→PIM ops the DRAM side is the source; for PIM→DRAM the
    /// PIM side is — either way the *PIM-side* ordering follows
    /// Algorithm 1 so both PIM reads and PIM writes reap the MLP.
    pub fn new(op: &PimMmuOp, space: &PimAddrSpace, mode: DceMode) -> Self {
        let org = *space.organization();
        // (channel, bank, rank, bank_group) sort key: banks outermost,
        // bank groups innermost (Algorithm 1 lines 29-31).
        let mut keyed: Vec<(u32, u32, u32, u32, CoreCursor)> = op
            .entries
            .iter()
            .map(|&(dram_addr, core)| {
                let (ch, ra, bg, bk) = space.core_coords(core);
                let pim_addr = space.core_phys(core, op.heap_offset);
                let (src, dst) = match op.kind {
                    XferKind::DramToPim => (dram_addr, pim_addr),
                    XferKind::PimToDram => (pim_addr, dram_addr),
                };
                (
                    ch,
                    bk,
                    ra,
                    bg,
                    CoreCursor {
                        core,
                        channel: ch,
                        src_base: src,
                        dst_base: dst,
                        bytes: op.size_per_pim,
                        offset: 0,
                    },
                )
            })
            .collect();
        match mode {
            DceMode::PimMs => keyed.sort_by_key(|&(ch, bk, ra, bg, _)| (ch, bk, ra, bg)),
            // Coarse: preserve the programmer's descriptor order.
            DceMode::Coarse => {}
        }
        let lines_per_core = op.size_per_pim / LINE_BYTES;
        let mut channels: Vec<ChannelQueue> = Vec::new();
        match mode {
            DceMode::PimMs => {
                for ch in 0..org.channels {
                    let cores: Vec<CoreCursor> = keyed
                        .iter()
                        .filter(|&&(c, ..)| c == ch)
                        .map(|&(.., cur)| cur)
                        .collect();
                    if !cores.is_empty() {
                        let remaining_lines = cores.len() as u64 * lines_per_core;
                        channels.push(ChannelQueue {
                            cores,
                            rr: 0,
                            remaining_lines,
                        });
                    }
                }
            }
            DceMode::Coarse => {
                // One logical queue; cores processed one after another. We
                // encode this as a single "channel" whose round-robin
                // never helps because each core is fully drained before
                // the cursor moves on (rr stays put until exhaustion).
                let cores: Vec<CoreCursor> = keyed.iter().map(|&(.., cur)| cur).collect();
                let remaining_lines = cores.len() as u64 * lines_per_core;
                // Each cursor carries its own true PIM channel, so pairs
                // are tagged correctly even though Coarse collapses every
                // core into this one logical queue.
                channels.push(ChannelQueue {
                    cores,
                    rr: 0,
                    remaining_lines,
                });
            }
        }
        let total_lines = op.entries.len() as u64 * lines_per_core;
        PairScheduler {
            channels,
            mode,
            rr_channel: 0,
            total_lines,
            yielded: 0,
        }
    }

    /// Scheduling mode.
    pub fn mode(&self) -> DceMode {
        self.mode
    }

    /// Total line pairs this schedule will yield.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Pairs not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.total_lines - self.yielded
    }

    /// Pairs yielded so far — the resumable cursor's position. A
    /// scheduler carried across a [`Dce`](crate::Dce) suspend/resume
    /// continues from exactly this point: per-core offsets, per-channel
    /// round-robin positions and the channel cursor all persist, so the
    /// channel sweep picks up where it left off instead of restarting
    /// (the property the serving-aware PIM-MS work builds on).
    pub fn yielded(&self) -> u64 {
        self.yielded
    }

    /// Per-core address-buffer entries this schedule was built from
    /// (the descriptor's core count, used to price a resume's context
    /// reload like the original submission).
    pub fn core_count(&self) -> usize {
        match self.mode {
            // PIM-MS splits the cores across channel queues.
            DceMode::PimMs => self.channels.iter().map(|c| c.cores.len()).sum(),
            // Coarse keeps every core in one logical queue.
            DceMode::Coarse => self.channels.first().map_or(0, |c| c.cores.len()),
        }
    }

    /// Whether [`continue_into`](Self::continue_into) would take `op`:
    /// it names exactly this schedule's core set, each core once.
    pub fn fits(&self, op: &PimMmuOp) -> bool {
        self.core_map(op).is_some()
    }

    /// `op`'s DRAM base per core, if `op` names exactly this schedule's
    /// core set, each core once.
    fn core_map(&self, op: &PimMmuOp) -> Option<BTreeMap<u32, PhysAddr>> {
        let mut by_core: BTreeMap<u32, PhysAddr> = BTreeMap::new();
        for &(dram_addr, core) in &op.entries {
            if by_core.insert(core, dram_addr).is_some() {
                return None;
            }
        }
        let same_set = by_core.len() == self.core_count()
            && self
                .channels
                .iter()
                .all(|q| q.cores.iter().all(|cur| by_core.contains_key(&cur.core)));
        same_set.then_some(by_core)
    }

    /// Rebind an exhausted (or mid-flight) schedule onto the *next*
    /// chunk of the same job, preserving the sweep state — per-channel
    /// round-robin positions and the channel cursor — instead of
    /// rebuilding from scratch. This is the serving-aware PIM-MS
    /// continuation: successive chunks of one op then emit the exact
    /// per-channel visitation order the unchunked op would have.
    ///
    /// Succeeds only when `op` addresses exactly the core set this
    /// schedule was built over (the shape [`PimMmuOp::chunks`] produces
    /// for chunks of one group). On success every cursor's byte range is
    /// advanced to `op`'s entries and the line accounting resets for the
    /// new chunk; on mismatch the schedule is left untouched and the
    /// caller must fall back to [`PairScheduler::new`]. Returns whether
    /// the continuation was taken.
    pub fn continue_into(&mut self, op: &PimMmuOp, space: &PimAddrSpace) -> bool {
        // Validate the full core-set match before mutating anything.
        let Some(by_core) = self.core_map(op) else {
            return false;
        };
        let lines_per_core = op.size_per_pim / LINE_BYTES;
        for q in &mut self.channels {
            for cur in &mut q.cores {
                let dram_addr = by_core[&cur.core];
                let pim_addr = space.core_phys(cur.core, op.heap_offset);
                let (src, dst) = match op.kind {
                    XferKind::DramToPim => (dram_addr, pim_addr),
                    XferKind::PimToDram => (pim_addr, dram_addr),
                };
                cur.src_base = src;
                cur.dst_base = dst;
                cur.bytes = op.size_per_pim;
                cur.offset = 0;
            }
            q.remaining_lines = q.cores.len() as u64 * lines_per_core;
        }
        self.total_lines = op.entries.len() as u64 * lines_per_core;
        self.yielded = 0;
        true
    }

    /// Yield the next pair.
    ///
    /// * [`DceMode::PimMs`]: round-robin across PIM channels (line 28's
    ///   `#do-parallel channel`), each channel sweeping bank-group-first.
    /// * [`DceMode::Coarse`]: drain core 0 fully, then core 1, ...
    pub fn next_pair(&mut self) -> Option<LinePair> {
        match self.mode {
            DceMode::PimMs => {
                let n = self.channels.len();
                for _ in 0..n {
                    let i = self.rr_channel;
                    self.rr_channel = (self.rr_channel + 1) % n;
                    if let Some(p) = self.channels[i].next() {
                        self.yielded += 1;
                        return Some(p);
                    }
                }
                None
            }
            DceMode::Coarse => {
                let q = self.channels.first_mut()?;
                // Sequential: stick to the current core until it drains.
                let ncores = q.cores.len();
                for _ in 0..ncores {
                    let i = q.rr;
                    if let Some(p) = q.cores[i].next_pair() {
                        q.remaining_lines -= 1;
                        self.yielded += 1;
                        return Some(p);
                    }
                    q.rr = (q.rr + 1) % ncores;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_mapping::Organization;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn space() -> PimAddrSpace {
        PimAddrSpace::new(PhysAddr(32 << 30), Organization::upmem_dimm(4, 2))
    }

    fn op(cores: Vec<u32>, size: u64) -> PimMmuOp {
        PimMmuOp::to_pim(
            cores.into_iter().map(|c| (PhysAddr(c as u64 * size), c)),
            size,
            0,
        )
    }

    #[test]
    fn pim_ms_rotates_bank_groups_innermost() {
        let s = space();
        // Four cores in channel 0, rank 0, bank 0, bank groups 0..4.
        let cores: Vec<u32> = (0..4).map(|bg| s.core_id(0, 0, bg, 0)).collect();
        let mut sched = PairScheduler::new(&op(cores, 256), &s, DceMode::PimMs);
        let mut seen_bgs = Vec::new();
        for _ in 0..4 {
            let p = sched.next_pair().unwrap();
            let (core, _) = s.locate(p.dst);
            let (_, _, bg, _) = s.core_coords(core);
            seen_bgs.push(bg);
        }
        assert_eq!(seen_bgs, vec![0, 1, 2, 3], "bank groups must rotate first");
    }

    #[test]
    fn pim_ms_round_robins_channels() {
        let s = space();
        let cores: Vec<u32> = (0..4).map(|ch| s.core_id(ch, 0, 0, 0)).collect();
        let mut sched = PairScheduler::new(&op(cores, 128), &s, DceMode::PimMs);
        let chans: Vec<u32> = (0..4)
            .map(|_| sched.next_pair().unwrap().pim_channel)
            .collect();
        assert_eq!(chans, vec![0, 1, 2, 3]);
    }

    #[test]
    fn coarse_drains_core_by_core() {
        let s = space();
        let cores: Vec<u32> = vec![s.core_id(0, 0, 0, 0), s.core_id(1, 0, 0, 0)];
        let mut sched = PairScheduler::new(&op(cores, 256), &s, DceMode::Coarse);
        let mut dsts = Vec::new();
        while let Some(p) = sched.next_pair() {
            dsts.push(p.dst);
        }
        // First all 4 lines of core A (consecutive), then core B.
        assert_eq!(dsts.len(), 8);
        for w in dsts[..4].windows(2) {
            assert_eq!(w[1].0 - w[0].0, 64);
        }
        let (core_a, _) = s.locate(dsts[0]);
        let (core_b, _) = s.locate(dsts[4]);
        assert_ne!(core_a, core_b);
    }

    #[test]
    fn pim_ms_rotates_bank_groups_before_banks() {
        let s = space();
        // Two banks x two bank groups in channel 0, rank 0, deliberately
        // scrambled descriptor order.
        let cores = vec![
            s.core_id(0, 0, 1, 1),
            s.core_id(0, 0, 0, 0),
            s.core_id(0, 0, 1, 0),
            s.core_id(0, 0, 0, 1),
        ];
        let mut sched = PairScheduler::new(&op(cores, 64), &s, DceMode::PimMs);
        let coords: Vec<(u32, u32)> = (0..4)
            .map(|_| {
                let p = sched.next_pair().unwrap();
                let (core, _) = s.locate(p.dst);
                let (_, _, bg, bk) = s.core_coords(core);
                (bk, bg)
            })
            .collect();
        assert_eq!(
            coords,
            vec![(0, 0), (0, 1), (1, 0), (1, 1)],
            "bank groups must rotate before the bank advances"
        );
    }

    #[test]
    fn coarse_tags_pairs_with_true_channel() {
        let s = space();
        // Cores spread over all four channels, scrambled descriptor
        // order, so a hardcoded channel tag cannot pass by accident.
        let cores = [
            s.core_id(2, 0, 1, 0),
            s.core_id(0, 1, 0, 1),
            s.core_id(3, 0, 0, 0),
            s.core_id(1, 1, 1, 1),
        ];
        for kind in [XferKind::DramToPim, XferKind::PimToDram] {
            let o = PimMmuOp::try_new(
                kind,
                cores.iter().map(|&c| (PhysAddr(c as u64 * 256), c)),
                256,
                0,
            )
            .unwrap();
            let mut sched = PairScheduler::new(&o, &s, DceMode::Coarse);
            let mut seen_channels = BTreeSet::new();
            while let Some(p) = sched.next_pair() {
                // The PIM-side address is dst for DRAM→PIM, src for
                // PIM→DRAM; its channel coordinate is the true tag.
                let pim_side = match kind {
                    XferKind::DramToPim => p.dst,
                    XferKind::PimToDram => p.src,
                };
                let (core, _) = s.locate(pim_side);
                let (ch, ..) = s.core_coords(core);
                assert_eq!(p.pim_channel, ch, "pair {p:?} mislabeled");
                seen_channels.insert(p.pim_channel);
            }
            assert_eq!(seen_channels.len(), 4, "all four channels must appear");
        }
    }

    #[test]
    fn continuation_rejects_a_different_core_set() {
        let s = space();
        let mut sched = PairScheduler::new(&op(vec![0, 1, 2], 128), &s, DceMode::PimMs);
        while sched.next_pair().is_some() {}
        // Disjoint core set (a chunk from another group): refused, and
        // the schedule is left exhausted rather than half-rebound.
        let other = op(vec![3, 4, 5], 128);
        assert!(!sched.continue_into(&other, &s));
        assert_eq!(sched.remaining(), 0);
        // Same cores: taken, and the full chunk re-emits.
        let next = op(vec![0, 1, 2], 128);
        assert!(sched.continue_into(&next, &s));
        assert_eq!(sched.remaining(), 6);
        let mut n = 0;
        while sched.next_pair().is_some() {
            n += 1;
        }
        assert_eq!(n, 6);
    }

    /// `n` distinct PIM cores chosen pseudo-randomly from `seed` (odd
    /// stride modulo the 512-core space, so all picks are distinct).
    fn distinct_cores(seed: u64, n: usize) -> Vec<u32> {
        let step = 2 * (seed % 256) + 1;
        (0..n as u64)
            .map(|i| ((seed + i * step) % 512) as u32)
            .collect()
    }

    proptest! {
        #[test]
        fn emission_is_a_permutation_of_the_ops_lines(
            seed in 0u64..1000,
            n_cores in 1usize..64,
            lines_per_core in 1u64..5,
            mode in prop_oneof![Just(DceMode::PimMs), Just(DceMode::Coarse)],
        ) {
            let s = space();
            let cores = distinct_cores(seed, n_cores);
            let size = lines_per_core * 64;
            let o = op(cores.clone(), size);
            let mut sched = PairScheduler::new(&o, &s, mode);
            let mut emitted: Vec<(u64, u64)> = Vec::new();
            while let Some(p) = sched.next_pair() {
                emitted.push((p.src.0, p.dst.0));
            }
            let mut expected: Vec<(u64, u64)> = o
                .entries
                .iter()
                .flat_map(|&(src, core)| {
                    (0..lines_per_core).map(move |l| (src.0 + l * 64, core, l))
                })
                .map(|(src, core, l)| (src, s.core_phys(core, l * 64).0))
                .collect();
            emitted.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(emitted, expected, "emitted pairs must be a permutation of the op");
        }

        #[test]
        fn pim_ms_visits_cores_bank_group_innermost(
            seed in 0u64..500,
            n_cores in 2usize..48,
            lines_per_core in 1u64..4,
        ) {
            let s = space();
            let cores = distinct_cores(seed, n_cores);
            let o = op(cores.clone(), lines_per_core * 64);
            let mut sched = PairScheduler::new(&o, &s, DceMode::PimMs);
            // Per channel, Algorithm 1 sweeps the channel's cores in
            // (bank, rank, bank-group)-sorted order, one line per core
            // per round: the visitation sequence is exactly that order
            // repeated `lines_per_core` times, so bank groups rotate on
            // every step while the bank only advances between runs.
            let mut visits: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            while let Some(p) = sched.next_pair() {
                let (core, _) = s.locate(p.dst);
                visits.entry(p.pim_channel).or_default().push(core);
            }
            for (ch, seen) in visits {
                let mut chan_cores: Vec<u32> = cores
                    .iter()
                    .copied()
                    .filter(|&c| s.core_coords(c).0 == ch)
                    .collect();
                chan_cores.sort_by_key(|&c| {
                    let (_, ra, bg, bk) = s.core_coords(c);
                    (bk, ra, bg)
                });
                let expected: Vec<u32> = (0..lines_per_core)
                    .flat_map(|_| chan_cores.iter().copied())
                    .collect();
                prop_assert_eq!(seen, expected, "channel {} order diverged", ch);
            }
        }

        #[test]
        fn continuation_preserves_the_unchunked_per_channel_order(
            seed in 0u64..500,
            n_cores in 2usize..48,
            lines_per_core in 2u64..8,
            chunk_lines in 1u64..5,
        ) {
            let s = space();
            let cores = distinct_cores(seed, n_cores);
            let o = op(cores, lines_per_core * 64);
            // Unchunked reference sweep.
            let mut reference = PairScheduler::new(&o, &s, DceMode::PimMs);
            let mut want: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            while let Some(p) = reference.next_pair() {
                want.entry(p.pim_channel).or_default().push((p.src.0, p.dst.0));
            }
            // Chunked sweep, each chunk continuing the predecessor's
            // scheduler instead of rebuilding.
            let chunks = o
                .chunks(chunk_lines * 64 * n_cores as u64, usize::MAX)
                .unwrap();
            let mut sched: Option<PairScheduler> = None;
            let mut got: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            let mut total = 0u64;
            for c in &chunks {
                let continued = match sched.as_mut() {
                    Some(sch) => sch.continue_into(c, &s),
                    None => false,
                };
                prop_assert!(sched.is_none() || continued, "same-group chunk refused");
                if !continued {
                    sched = Some(PairScheduler::new(c, &s, DceMode::PimMs));
                }
                let sch = sched.as_mut().unwrap();
                while let Some(p) = sch.next_pair() {
                    got.entry(p.pim_channel).or_default().push((p.src.0, p.dst.0));
                    total += 64;
                }
            }
            // Byte conservation across arbitrary chunk boundaries, and
            // the per-channel visitation order is *identical* to the
            // unchunked sweep — the continuation truly continues.
            prop_assert_eq!(total, o.total_bytes());
            prop_assert_eq!(got, want);
        }

        #[test]
        fn every_line_yielded_exactly_once(
            n_cores in 1usize..40,
            lines_per_core in 1u64..9,
            mode in prop_oneof![Just(DceMode::PimMs), Just(DceMode::Coarse)],
        ) {
            let s = space();
            let cores: Vec<u32> = (0..u32::try_from(n_cores).unwrap()).map(|i| i * 7 % 512).collect();
            let mut dedup: Vec<u32> = cores.clone();
            dedup.sort_unstable();
            dedup.dedup();
            let o = op(dedup.clone(), lines_per_core * 64);
            let mut sched = PairScheduler::new(&o, &s, mode);
            prop_assert_eq!(sched.total_lines(), dedup.len() as u64 * lines_per_core);
            let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
            while let Some(p) = sched.next_pair() {
                prop_assert!(seen.insert((p.src.0, p.dst.0)), "duplicate pair {:?}", p);
            }
            prop_assert_eq!(seen.len() as u64, sched.total_lines());
            prop_assert_eq!(sched.remaining(), 0);
            // Every expected (src, dst) is present.
            for &(src, core) in &o.entries {
                for l in 0..lines_per_core {
                    let dst = s.core_phys(core, l * 64);
                    prop_assert!(seen.contains(&(src.0 + l * 64, dst.0)));
                }
            }
        }
    }
}
