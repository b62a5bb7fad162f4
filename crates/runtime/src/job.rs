//! Transfer jobs: what a tenant submits, how it becomes chunked
//! [`PimMmuOp`]s, and the per-job completion record.

use pim_mapping::PhysAddr;
use pim_mmu::{OpError, PimMmuOp, SuspendedTransfer, XferKind};
use std::collections::VecDeque;

/// Max per-core entries per dispatched chunk: Table I's 64 KiB DCE
/// address buffer at 16 B per entry.
const MAX_CHUNK_ENTRIES: usize = 4096;

/// A tenant-level transfer request: move `per_core_bytes` to/from each of
/// `n_cores` PIM cores, staged at `dram_base` on the host side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Transfer direction.
    pub kind: XferKind,
    /// Bytes per targeted PIM core (a nonzero multiple of 64).
    pub per_core_bytes: u64,
    /// Number of PIM cores targeted (cores
    /// `core_base..core_base + n_cores`).
    pub n_cores: u32,
    /// First PIM core targeted. Core ids are channel-major, so giving
    /// tenants disjoint core ranges also spreads them over PIM channels
    /// (0 — all tenants share cores `0..n_cores` — is the historic
    /// layout).
    pub core_base: u32,
    /// Base physical address of the host-side staging buffer; core `i`'s
    /// chunk sits at `dram_base + i * per_core_bytes`, matching the
    /// layout of the one-shot transfer harness.
    pub dram_base: PhysAddr,
    /// Offset into each core's MRAM heap.
    pub heap_offset: u64,
}

impl JobSpec {
    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.per_core_bytes * self.n_cores as u64
    }

    /// The full (unchunked) descriptor for this job.
    ///
    /// # Errors
    ///
    /// Propagates the typed construction errors for degenerate shapes
    /// (zero bytes, zero cores).
    pub fn op(&self) -> Result<PimMmuOp, OpError> {
        let entries = (0..self.n_cores).map(|i| {
            (
                self.dram_base.offset(i as u64 * self.per_core_bytes),
                self.core_base + i,
            )
        });
        PimMmuOp::try_new(self.kind, entries, self.per_core_bytes, self.heap_offset)
    }
}

/// Where a job's most recently dispatched *fresh* chunk went — the
/// anchor a sweep continuation chains from. A follow-up chunk may claim
/// the predecessor's held scheduler cursor only when it lands on the
/// same shard, its ring seq is exactly one past the anchor's (no other
/// descriptor interleaved on that ring), and it targets the identical
/// core set (`op.chunks` preserves entry order, so first core + entry
/// count pin the set exactly). A recall invalidates the anchor: the
/// suspended cursor went back to the host, not into the engine's held
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAnchor {
    /// Shard whose ring holds the predecessor.
    pub shard: usize,
    /// The predecessor's ring sequence number.
    pub seq: u64,
    /// First PIM core the predecessor's entries target.
    pub first_core: u32,
    /// Number of per-core entries the predecessor named.
    pub n_entries: usize,
}

/// A queued job: its spec plus scheduling state. The pending chunk list
/// is materialized at submission, so dispatch is a pop.
#[derive(Debug)]
pub struct Job {
    /// Globally unique job id (submission order).
    pub id: u64,
    /// Owning tenant index.
    pub tenant: usize,
    /// Arrival time, ns.
    pub submit_ns: f64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Chunked descriptors awaiting dispatch.
    pub chunks: VecDeque<PimMmuOp>,
    /// Recalled remainders of preempted chunks awaiting re-dispatch,
    /// each with the time its recall interrupt was fielded (the start
    /// of its suspended-state residency). They run *ahead* of the
    /// remaining fresh chunks (each holds an engine-side scheduler
    /// cursor), so dispatch always drains them first. A queue, not an
    /// option: with a deep ring two chunks of the same job can be in
    /// flight and *both* be recalled before either resumes.
    pub resume: VecDeque<(SuspendedTransfer, f64)>,
    /// When the first chunk entered the engine (None while queued).
    pub first_dispatch_ns: Option<f64>,
    /// Bytes whose chunks have completed.
    pub bytes_done: u64,
    /// The sweep-continuation anchor of the last fresh chunk dispatched
    /// (`None` until the first dispatch, and cleared whenever a recall
    /// or a resume breaks the device-side chain).
    pub anchor: Option<ChunkAnchor>,
}

impl Job {
    /// Build a job, chunking its descriptor to at most `chunk_bytes`
    /// and the DCE address buffer's 4,096 per-core entries per
    /// dispatched op.
    ///
    /// # Errors
    ///
    /// Propagates the typed construction errors for degenerate specs.
    pub fn new(
        id: u64,
        tenant: usize,
        submit_ns: f64,
        spec: &JobSpec,
        chunk_bytes: u64,
    ) -> Result<Self, OpError> {
        let op = spec.op()?;
        let chunks: VecDeque<PimMmuOp> = op.chunks(chunk_bytes, MAX_CHUNK_ENTRIES)?.into();
        Ok(Job {
            id,
            tenant,
            submit_ns,
            total_bytes: op.total_bytes(),
            chunks,
            resume: VecDeque::new(),
            first_dispatch_ns: None,
            bytes_done: 0,
            anchor: None,
        })
    }

    /// Bytes not yet completed.
    pub fn remaining_bytes(&self) -> u64 {
        self.total_bytes - self.bytes_done
    }

    /// Whether at least one chunk has been dispatched and the job is not
    /// yet complete.
    pub fn in_service(&self) -> bool {
        self.first_dispatch_ns.is_some()
    }

    /// Whether a dispatch could hand this job work right now: either a
    /// recalled remainder waiting to resume or an undispatched chunk.
    pub fn has_dispatchable(&self) -> bool {
        !self.resume.is_empty() || !self.chunks.is_empty()
    }

    /// Bytes the next dispatch would submit: the oldest suspended
    /// remainder if one is pending, else the front chunk.
    pub fn next_dispatch_bytes(&self) -> u64 {
        match self.resume.front() {
            Some((st, _)) => st.remaining_bytes(),
            None => self.chunks.front().map_or(0, |c| c.total_bytes()),
        }
    }
}

/// The completion record of one job — the raw material for latency
/// histograms and for exact (bit-identical) comparisons in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Owning tenant index.
    pub tenant: usize,
    /// Arrival time, ns.
    pub submit_ns: f64,
    /// First-chunk dispatch time, ns.
    pub dispatch_ns: f64,
    /// Completion-interrupt time, ns (driver round trip included).
    pub complete_ns: f64,
    /// Payload bytes.
    pub bytes: u64,
}

impl JobRecord {
    /// Queueing delay (arrival → first dispatch), ns.
    pub fn queue_delay_ns(&self) -> f64 {
        self.dispatch_ns - self.submit_ns
    }

    /// End-to-end latency (arrival → completion interrupt), ns.
    pub fn e2e_ns(&self) -> f64 {
        self.complete_ns - self.submit_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            kind: XferKind::DramToPim,
            per_core_bytes: 4096,
            n_cores: 8,
            core_base: 0,
            dram_base: PhysAddr(1 << 30),
            heap_offset: 0,
        }
    }

    #[test]
    fn spec_builds_harness_layout() {
        let op = spec().op().unwrap();
        assert_eq!(op.total_bytes(), 8 * 4096);
        assert_eq!(op.entries[3], (PhysAddr((1 << 30) + 3 * 4096), 3));
    }

    #[test]
    fn core_base_offsets_the_targeted_cores() {
        let mut s = spec();
        s.core_base = 128;
        let op = s.op().unwrap();
        assert_eq!(op.entries[0].1, 128);
        assert_eq!(op.entries[7].1, 135);
        // The DRAM staging layout is unchanged by the core placement.
        assert_eq!(op.entries[3].0, PhysAddr((1 << 30) + 3 * 4096));
    }

    #[test]
    fn chunks_fit_the_table1_address_buffer() {
        assert_eq!(
            MAX_CHUNK_ENTRIES,
            pim_mmu::DceConfig::table1().addr_buffer_entries()
        );
    }

    #[test]
    fn job_chunks_cover_the_spec() {
        let job = Job::new(7, 2, 100.0, &spec(), 8 << 10).unwrap();
        assert_eq!(job.id, 7);
        assert!(job.chunks.len() > 1);
        let total: u64 = job.chunks.iter().map(|c| c.total_bytes()).sum();
        assert_eq!(total, job.total_bytes);
        assert_eq!(job.remaining_bytes(), job.total_bytes);
        assert!(!job.in_service());
    }

    #[test]
    fn degenerate_specs_are_typed_errors() {
        let mut s = spec();
        s.n_cores = 0;
        assert!(matches!(
            Job::new(0, 0, 0.0, &s, 1 << 20),
            Err(OpError::Empty)
        ));
        let mut s = spec();
        s.per_core_bytes = 0;
        assert!(matches!(
            Job::new(0, 0, 0.0, &s, 1 << 20),
            Err(OpError::BadSize(0))
        ));
    }

    #[test]
    fn record_derives() {
        let r = JobRecord {
            id: 1,
            tenant: 0,
            submit_ns: 10.0,
            dispatch_ns: 25.0,
            complete_ns: 125.0,
            bytes: 64,
        };
        assert_eq!(r.queue_delay_ns(), 15.0);
        assert_eq!(r.e2e_ns(), 115.0);
    }
}
