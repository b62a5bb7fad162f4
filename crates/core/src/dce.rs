//! The Data Copy Engine: cycle-level model of Fig. 11's dataflow.
//!
//! Per engine cycle the DCE (1) retires lines through the preprocessing
//! (transpose) unit, (2) issues pending writes, and (3) issues new reads
//! as long as the 16 KB data buffer has room — reads reserve a buffer
//! line at issue, and the line is freed when the corresponding write
//! burst completes, giving end-to-end back-pressure exactly along the
//! ❶→❼ path of Fig. 11.

use crate::config::{DceConfig, DceMode};
use crate::op::{OpError, PimMmuOp, XferKind};
use crate::scheduler::{LinePair, PairScheduler};
use pim_dram::{Completion, IdRing, MemRequest, OutRequest, SourceId};
use pim_mapping::{HetMap, PimAddrSpace, LINE_BYTES};
use pim_telemetry::{CounterSet, Counters, FlightRecorder, SpanEvent, SpanKind, SpanTap};
use std::collections::VecDeque;

/// Source id tag for DCE-originated memory traffic. A sharded system
/// instantiates one engine per shard ([`Dce::with_shard`]); shard `s`
/// tags its requests `DCE_SOURCE + s`, so memory completions route back
/// to the engine that issued them by source id alone.
pub const DCE_SOURCE: u32 = 0x0DCE;

/// Completion record of one descriptor, drained through
/// [`Dce::pop_completion`]. Cycles are engine cycles, directly
/// comparable to [`Dce::cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DceCompletion {
    /// Enqueue order (0-based). Descriptors retire strictly in this
    /// order — the engine is a FIFO.
    pub seq: u64,
    /// Engine cycle the descriptor left the pending queue and started
    /// executing (equals the enqueue cycle when the engine was idle).
    pub started_at: u64,
    /// Engine cycle the last write burst completed (for a suspension,
    /// the cycle the pipeline quiesced).
    pub completed_at: u64,
    /// Payload bytes moved *by this descriptor activation* — for a
    /// partial retirement ([`resumable`](Self::resumable)) only the
    /// bytes transferred before the suspension; a later resumed
    /// activation reports the rest, so the per-seq records always sum
    /// to the job's total.
    pub bytes: u64,
    /// `true` when this record is a *partial* retirement: the
    /// descriptor was suspended mid-transfer and its remainder is
    /// waiting in [`Dce::take_suspended`] as a [`SuspendedTransfer`].
    pub resumable: bool,
}

/// The captured state of a mid-transfer job extracted by
/// [`Dce::request_suspend`]: the live [`PairScheduler`] (per-core
/// offsets, per-channel round-robin cursors, lines-emitted count), the
/// transfer direction, and the byte progress. Feeding it back through
/// [`Dce::resume`] continues the channel sweep exactly where it
/// stopped — no line is re-emitted and none is skipped.
#[derive(Debug)]
pub struct SuspendedTransfer {
    kind: XferKind,
    sched: PairScheduler,
    /// Lines fully written (across every activation of this job).
    lines_written: u64,
    /// Total lines of the original descriptor.
    total: u64,
}

impl SuspendedTransfer {
    /// Transfer direction of the suspended job.
    pub fn kind(&self) -> XferKind {
        self.kind
    }

    /// Bytes the job still has to move.
    pub fn remaining_bytes(&self) -> u64 {
        (self.total - self.lines_written) * LINE_BYTES
    }

    /// Bytes moved before the suspension (across all activations).
    pub fn bytes_done(&self) -> u64 {
        self.lines_written * LINE_BYTES
    }

    /// Per-core entries of the original descriptor — a resume reloads
    /// the address-buffer context, so its driver cost is priced like a
    /// submission naming this many cores.
    pub fn entries(&self) -> usize {
        self.sched.core_count()
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DceStats {
    /// 64 B reads issued.
    pub reads_issued: u64,
    /// 64 B writes issued.
    pub writes_issued: u64,
    /// Lines fully transferred (write burst completed).
    pub lines_done: u64,
    /// Engine cycles with an active job.
    pub busy_cycles: u64,
    /// Cycles where read issue stalled on a full data buffer.
    pub buffer_stall_cycles: u64,
    /// Jobs completed.
    pub jobs_done: u64,
    /// Jobs suspended mid-transfer (partial retirements).
    pub suspensions: u64,
    /// Suspended transfers re-installed via [`Dce::resume`].
    pub resumes: u64,
    /// Cycles spent quiescing the pipeline between a suspend request
    /// and the partial retirement (read issue stopped, in-flight lines
    /// draining).
    pub drain_cycles: u64,
    /// Chunk descriptors that continued their predecessor's channel
    /// sweep ([`Dce::enqueue_continuation`] hits).
    pub continuations: u64,
    /// Continuation descriptors whose predecessor cursor was gone or
    /// mismatched (suspended, reordered, different core set) — the
    /// engine fell back to building a fresh schedule.
    pub continuation_fallbacks: u64,
}

impl Counters for DceStats {
    fn counters(&self, prefix: &str, out: &mut CounterSet) {
        out.push(prefix, "reads_issued", self.reads_issued as f64);
        out.push(prefix, "writes_issued", self.writes_issued as f64);
        out.push(prefix, "lines_done", self.lines_done as f64);
        out.push(prefix, "busy_cycles", self.busy_cycles as f64);
        out.push(
            prefix,
            "buffer_stall_cycles",
            self.buffer_stall_cycles as f64,
        );
        out.push(prefix, "jobs_done", self.jobs_done as f64);
        out.push(prefix, "suspensions", self.suspensions as f64);
        out.push(prefix, "resumes", self.resumes as f64);
        out.push(prefix, "drain_cycles", self.drain_cycles as f64);
        out.push(prefix, "continuations", self.continuations as f64);
        out.push(
            prefix,
            "continuation_fallbacks",
            self.continuation_fallbacks as f64,
        );
    }
}

/// A fused predecessor chunk awaiting its retirement record: a
/// continuation successor took its live sweep cursor the moment the
/// sweep exhausted (while the tail still drained), so the predecessor's
/// completion is emitted once the cumulative landed-line count crosses
/// `end_lines`. The count is pipeline-order, not sweep-order, so the
/// crossing is an approximation of the exact boundary — exact whenever
/// the pipeline drains (quiesce, final retirement).
#[derive(Debug, Clone, Copy)]
struct SegBoundary {
    /// The fused chunk's descriptor sequence number.
    seq: u64,
    /// Cumulative job line count at which this chunk's payload ends.
    end_lines: u64,
    /// Engine cycle the chunk's execution began.
    started_at: u64,
}

#[derive(Debug)]
struct Job {
    kind: XferKind,
    sched: PairScheduler,
    transpose_q: VecDeque<LinePair>,
    write_ready: VecDeque<LinePair>,
    /// Outstanding reads: the line pair each read id carries.
    inflight_reads: IdRing<LinePair>,
    inflight_writes: u64,
    buffer_used: u32,
    lines_written: u64,
    total: u64,
    /// Descriptor sequence number (enqueue order). For a fused chain
    /// this is the *newest* segment's; earlier ones sit in `segments`.
    seq: u64,
    /// Engine cycle execution began (of the newest fused segment).
    started_at: u64,
    /// Lines already credited by earlier retirement records — a
    /// resumed activation's partial record, or a fused segment's
    /// ([`SegBoundary`]) — so the next record reports only
    /// `lines_written - base_lines`. 0 for a fresh descriptor.
    base_lines: u64,
    /// A suspension is pending: read issue has stopped and the job is
    /// extracted as soon as the in-flight pipeline drains.
    suspend_requested: bool,
    /// Fused predecessor chunks (oldest first) whose sweeps this job
    /// continued live; each retires when the landed-line count crosses
    /// its boundary. Empty unless continuations fused mid-flight.
    segments: VecDeque<SegBoundary>,
}

/// A descriptor waiting on the engine's pending ring: either a fresh
/// op or a suspended transfer being resumed in FIFO order.
#[derive(Debug)]
enum PendingDesc {
    Fresh(PimMmuOp, DceMode),
    Resumed(SuspendedTransfer),
    /// A chunk declaring its predecessor's sequence number: if that
    /// descriptor's sweep cursor is still held when this one installs,
    /// the schedule continues it instead of rebuilding.
    Continuation(PimMmuOp, DceMode, u64),
}

/// The Data Copy Engine (Fig. 9/11).
///
/// Post descriptors with [`enqueue`](Self::enqueue), drive with
/// [`tick`](Self::tick) at the engine clock, drain
/// [`outbox_mut`](Self::outbox_mut) into the memory controllers, feed
/// completions back via [`on_completion`](Self::on_completion), and
/// collect retirements from [`pop_completion`](Self::pop_completion).
#[derive(Debug)]
pub struct Dce {
    cfg: DceConfig,
    mapper: HetMap,
    space: PimAddrSpace,
    /// Shard index of this engine (0 in a single-engine system); the
    /// source id of every request is `DCE_SOURCE + shard`.
    shard: u32,
    clock: u64,
    job: Option<Job>,
    /// Descriptors accepted by [`enqueue`](Self::enqueue) (or resumes
    /// queued by [`resume`](Self::resume)) awaiting the engine; the
    /// engine pops the next one the cycle after the active job retires
    /// — no host round trip in between.
    pending: VecDeque<PendingDesc>,
    /// Retired descriptors, drained by the host's completion-ring poller
    /// via [`pop_completion`](Self::pop_completion).
    completions: VecDeque<DceCompletion>,
    /// Mid-transfer state of suspended jobs awaiting the host's
    /// [`take_suspended`](Self::take_suspended), keyed by descriptor
    /// sequence number.
    suspended: VecDeque<(u64, SuspendedTransfer)>,
    /// The most recently retired descriptor's sweep cursor,
    /// keyed by its sequence number — the state a continuation chunk
    /// ([`enqueue_continuation`](Self::enqueue_continuation)) picks up.
    /// Overwritten at every full retirement; a suspension parks its
    /// cursor in `suspended` instead, so a continuation staged behind a
    /// recalled chunk finds no match and falls back to a fresh build.
    held_cursor: Option<(u64, PairScheduler)>,
    next_seq: u64,
    outbox: VecDeque<OutRequest>,
    outbox_cap: usize,
    next_id: u64,
    stats: DceStats,
    /// Device-side span tap: cycle-stamped lifecycle events
    /// (device-start / suspend / retire) the composer drains into the
    /// shared flight recorder. Disabled by default — one branch per
    /// would-be event.
    tap: SpanTap,
}

impl Dce {
    /// Create an idle engine for shard `shard` of a multi-DCE system:
    /// identical hardware, but its memory traffic carries the source id
    /// `DCE_SOURCE + shard` so the composer can route completions back
    /// per engine.
    pub fn with_shard(cfg: DceConfig, mapper: HetMap, space: PimAddrSpace, shard: u32) -> Self {
        Dce {
            cfg,
            mapper,
            space,
            shard,
            clock: 0,
            job: None,
            pending: VecDeque::new(),
            completions: VecDeque::new(),
            suspended: VecDeque::new(),
            held_cursor: None,
            next_seq: 0,
            outbox: VecDeque::new(),
            outbox_cap: 64,
            next_id: 0,
            stats: DceStats::default(),
            tap: SpanTap::off(),
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> &DceConfig {
        &self.cfg
    }

    /// The PIM address space this engine schedules against — the
    /// host-side dispatcher reads per-core channel coordinates from it
    /// to build channel-affinity footprints.
    pub fn addr_space(&self) -> &PimAddrSpace {
        &self.space
    }

    /// This engine's shard index (0 in a single-engine system).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The source id this engine stamps on its memory requests
    /// (`DCE_SOURCE + shard`).
    pub fn source_id(&self) -> SourceId {
        SourceId(DCE_SOURCE + self.shard)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DceStats {
        &self.stats
    }

    /// Turn on the device-side span tap: lifecycle events are recorded
    /// at engine-cycle resolution and converted to ns at `ns_per_cycle`
    /// when drained. `capacity` bounds undrained events.
    pub fn enable_span_tap(&mut self, ns_per_cycle: f64, capacity: usize) {
        self.tap = SpanTap::new(ns_per_cycle, capacity);
    }

    /// Move the tap's buffered span events into `rec`, stamped with
    /// this engine's shard index. A no-op on a disabled tap.
    pub fn drain_spans(&mut self, rec: &mut FlightRecorder) {
        self.tap.drain_into(rec, self.shard as usize);
    }

    /// Whether a job is in flight.
    pub fn busy(&self) -> bool {
        self.job.is_some()
    }

    /// Current engine cycle (ticks since construction) — the clock
    /// [`DceCompletion`] records are stamped in, so a host runtime
    /// measures per-job service time in engine cycles exactly.
    pub fn cycle(&self) -> u64 {
        self.clock
    }

    /// The earliest cycle at or after [`cycle`](Self::cycle) at which a
    /// tick changes state: the current cycle when the next tick can
    /// move a line through the transpose unit, issue a write or a read,
    /// fuse a continuation that heads the pending ring, retire a fused
    /// segment or the whole descriptor, or quiesce a suspension. `None`
    /// otherwise — an empty engine, or one whose every line waits on
    /// memory, a full outbox or a full data buffer. A parked engine
    /// needs an external input to act again: the composer wakes it when
    /// a memory completion routes to it, when its full outbox drains, and
    /// when the host enqueues, resumes or suspends.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let job = self.job.as_ref()?;
        self.tick_acts(job).then_some(self.clock)
    }

    /// Whether a tick in the current state does more than advance the
    /// clock and the per-cycle counters [`skip_cycles`](Self::skip_cycles)
    /// credits — the case analysis of [`tick`](Self::tick), in its order.
    fn tick_acts(&self, job: &Job) -> bool {
        let outbox_room = !self.outbox_full();
        if !job.transpose_q.is_empty() || (outbox_room && !job.write_ready.is_empty()) {
            return true;
        }
        if !job.suspend_requested {
            if job.sched.remaining() == 0 && self.fusible(job) {
                return true;
            }
            if outbox_room
                && job.sched.remaining() > 0
                && job.buffer_used < self.cfg.data_buffer_lines()
                && job.inflight_reads.len() < Self::max_inflight(&self.cfg, job.sched.mode())
            {
                return true;
            }
        }
        if job
            .segments
            .front()
            .is_some_and(|seg| job.lines_written >= seg.end_lines)
        {
            return true;
        }
        Self::pipeline_empty(job) && (job.lines_written == job.total || job.suspend_requested)
    }

    /// Whether the pending ring's head is a continuation of `job` that
    /// the exhausted sweep can be rebound onto this cycle.
    fn fusible(&self, job: &Job) -> bool {
        matches!(
            self.pending.front(),
            Some(PendingDesc::Continuation(op, mode, pred))
                if *pred == job.seq && *mode == job.sched.mode() && job.sched.fits(op)
        )
    }

    /// Read-issue depth bound of a scheduling mode.
    fn max_inflight(cfg: &DceConfig, mode: DceMode) -> usize {
        match mode {
            DceMode::Coarse => cfg.coarse_inflight_lines as usize,
            DceMode::PimMs => cfg.data_buffer_lines() as usize,
        }
    }

    /// No line between read issue and write completion.
    fn pipeline_empty(job: &Job) -> bool {
        job.inflight_reads.is_empty()
            && job.inflight_writes == 0
            && job.transpose_q.is_empty()
            && job.write_ready.is_empty()
    }

    /// Catch up over `cycles` skipped engine cycles — exactly equivalent
    /// to that many [`tick`](Self::tick)s while
    /// [`next_event_cycle`](Self::next_event_cycle) is `None`: an idle
    /// tick only advances the clock, and a parked job's tick also counts
    /// a busy cycle, plus a drain cycle while a suspension is pending or
    /// a buffer-stall cycle while reads wait on a full data buffer.
    /// The composer must catch the engine up *before* an input changes
    /// the state these counters depend on.
    pub fn skip_cycles(&mut self, cycles: u64) {
        self.clock += cycles;
        let Some(job) = &self.job else { return };
        self.stats.busy_cycles += cycles;
        if job.suspend_requested {
            self.stats.drain_cycles += cycles;
        } else if !self.outbox_full() && job.buffer_used >= self.cfg.data_buffer_lines() {
            self.stats.buffer_stall_cycles += cycles;
        }
    }

    /// Whether the outbox is at capacity: the engine can issue nothing
    /// until the composer drains it.
    pub fn outbox_full(&self) -> bool {
        self.outbox.len() >= self.outbox_cap
    }

    /// Whether the engine holds retirement records or span events the
    /// host's ring poller has not drained yet.
    pub fn awaits_poll(&self) -> bool {
        !self.completions.is_empty() || !self.tap.is_empty()
    }

    /// Lines whose read data has arrived and that wait for the
    /// preprocessing (transpose) unit.
    pub fn lines_awaiting_transpose(&self) -> usize {
        self.job.as_ref().map_or(0, |j| j.transpose_q.len())
    }

    /// Requests awaiting entry into the memory subsystem.
    pub fn outbox_mut(&mut self) -> &mut VecDeque<OutRequest> {
        &mut self.outbox
    }

    /// Offload a transfer (the MMIO write of `pim_mmu_transfer`). On an
    /// idle engine the address buffer is loaded and PIM-MS starts
    /// scheduling on the next engine cycle; otherwise the descriptor
    /// waits on the pending ring and the engine transitions directly
    /// from the previous descriptor's retirement to this one — no host
    /// round trip between chunks. Retirement is automatic: the record
    /// surfaces through [`pop_completion`](Self::pop_completion).
    ///
    /// The pending ring is unbounded here; the *host-side* queue pair
    /// (`pim-hostq`) enforces the ring depth.
    ///
    /// # Errors
    ///
    /// Propagates descriptor validation failures.
    pub fn enqueue(&mut self, op: PimMmuOp, mode: DceMode) -> Result<(), OpError> {
        op.validate(self.cfg.addr_buffer_entries())?;
        if self.job.is_none() {
            self.install(op, mode);
        } else {
            self.pending.push_back(PendingDesc::Fresh(op, mode));
        }
        Ok(())
    }

    /// Queue a chunk that *continues* descriptor `predecessor`'s channel
    /// sweep (the serving-aware PIM-MS path): when the predecessor
    /// retires in full, its live [`PairScheduler`] — per-channel
    /// round-robin cursors and the channel cursor — is held device-side,
    /// and this chunk re-installs it advanced to its own byte range
    /// instead of rebuilding a schedule from scratch. Ordering and
    /// retirement are exactly [`enqueue`](Self::enqueue)'s.
    ///
    /// The continuation is best-effort: if the predecessor's cursor is
    /// unavailable at install time (it was suspended by a recall, a
    /// different descriptor retired in between, the mode differs, or the
    /// chunk names a different core set) the engine falls back to a
    /// fresh schedule — counted in
    /// [`DceStats::continuation_fallbacks`] — and the transfer is
    /// correct either way, merely unaided.
    ///
    /// # Errors
    ///
    /// Propagates descriptor validation failures.
    pub fn enqueue_continuation(
        &mut self,
        op: PimMmuOp,
        mode: DceMode,
        predecessor: u64,
    ) -> Result<(), OpError> {
        op.validate(self.cfg.addr_buffer_entries())?;
        if self.job.is_none() {
            self.install_continuation(op, mode, predecessor);
        } else {
            self.pending
                .push_back(PendingDesc::Continuation(op, mode, predecessor));
        }
        Ok(())
    }

    /// Re-install a suspended transfer: the channel sweep continues from
    /// the captured cursor instead of restarting. Ordering mirrors
    /// [`enqueue`](Self::enqueue) — an idle engine starts it on the next
    /// cycle; otherwise it waits its FIFO turn on the pending ring. The
    /// resumed activation gets a fresh descriptor sequence number and
    /// retires with only the bytes it moves (the pre-suspension bytes
    /// were credited by the partial record).
    pub fn resume(&mut self, st: SuspendedTransfer) {
        if self.job.is_none() {
            self.install_resumed(st);
        } else {
            self.pending.push_back(PendingDesc::Resumed(st));
        }
    }

    /// Start executing a job whose schedule is `sched`, with
    /// `lines_done` of its `total` lines already credited by earlier
    /// activations: assign the next descriptor sequence number, record
    /// the device-start span, and begin on the next engine cycle.
    fn start(&mut self, kind: XferKind, sched: PairScheduler, lines_done: u64, total: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tap.record_at_cycle(
            SpanEvent::new(SpanKind::DeviceStart, 0.0)
                .seq(seq)
                .bytes((total - lines_done) * LINE_BYTES),
            self.clock,
        );
        self.job = Some(Job {
            kind,
            sched,
            transpose_q: VecDeque::new(),
            write_ready: VecDeque::new(),
            inflight_reads: IdRing::default(),
            inflight_writes: 0,
            buffer_used: 0,
            lines_written: lines_done,
            total,
            seq,
            started_at: self.clock,
            base_lines: lines_done,
            suspend_requested: false,
            segments: VecDeque::new(),
        });
    }

    /// Load a validated descriptor into the engine with a fresh schedule.
    fn install(&mut self, op: PimMmuOp, mode: DceMode) {
        let sched = PairScheduler::new(&op, &self.space, mode);
        let total = sched.total_lines();
        self.start(op.kind, sched, 0, total);
    }

    /// Load a suspended transfer back into the engine under a fresh
    /// sequence number; its scheduler cursor and byte progress persist.
    fn install_resumed(&mut self, st: SuspendedTransfer) {
        self.stats.resumes += 1;
        self.start(st.kind, st.sched, st.lines_written, st.total);
    }

    /// Install a chunk continuing `predecessor`'s sweep if its cursor is
    /// held and rebinds onto this chunk's core set; fresh build (and a
    /// fallback count) otherwise.
    fn install_continuation(&mut self, op: PimMmuOp, mode: DceMode, predecessor: u64) {
        let mut continued = None;
        // Taking the cursor unconditionally is right even on a miss: a
        // continuation names its *immediate* predecessor, so any other
        // held cursor is stale and can only go staler.
        if let Some((seq, mut sched)) = self.held_cursor.take() {
            if seq == predecessor && sched.mode() == mode && sched.continue_into(&op, &self.space) {
                continued = Some(sched);
            }
        }
        let Some(sched) = continued else {
            self.stats.continuation_fallbacks += 1;
            self.install(op, mode);
            return;
        };
        self.stats.continuations += 1;
        let total = sched.total_lines();
        self.start(op.kind, sched, 0, total);
    }

    fn install_pending(&mut self, desc: PendingDesc) {
        match desc {
            PendingDesc::Fresh(op, mode) => self.install(op, mode),
            PendingDesc::Resumed(st) => self.install_resumed(st),
            PendingDesc::Continuation(op, mode, pred) => self.install_continuation(op, mode, pred),
        }
    }

    /// Oldest un-drained completion record, if any.
    pub fn pop_completion(&mut self) -> Option<DceCompletion> {
        self.completions.pop_front()
    }

    /// Ask the engine to suspend the active descriptor mid-transfer.
    /// Read issue stops immediately; the in-flight pipeline (reads
    /// awaiting data, the transpose queue, pending write bursts)
    /// drains organically, and once quiesced the job is
    /// extracted: a *partial* retirement record
    /// ([`DceCompletion::resumable`]) surfaces on the completion ring
    /// with the bytes moved so far, and the remainder becomes a
    /// [`SuspendedTransfer`] claimable via
    /// [`take_suspended`](Self::take_suspended). A job that finishes
    /// its last lines while draining completes normally instead — the
    /// request is absorbed.
    ///
    /// Returns `true` if a suspension was armed; `false` when the
    /// engine is idle or a suspension is already pending.
    pub fn request_suspend(&mut self) -> bool {
        match &mut self.job {
            Some(j) if !j.suspend_requested => {
                j.suspend_requested = true;
                true
            }
            _ => false,
        }
    }

    /// Whether the active job is draining toward a suspension.
    pub fn suspending(&self) -> bool {
        self.job.as_ref().is_some_and(|j| j.suspend_requested)
    }

    /// Claim the mid-transfer state of the suspended descriptor `seq`
    /// (the sequence number of its partial retirement record).
    pub fn take_suspended(&mut self, seq: u64) -> Option<SuspendedTransfer> {
        let idx = self.suspended.iter().position(|(s, _)| *s == seq)?;
        self.suspended.remove(idx).map(|(_, st)| st)
    }

    /// Engine cycle the active descriptor's current activation started,
    /// if one is executing — `cycle() - active_since()` is its
    /// residency, the quantity a time-slice (quantum) preemption policy
    /// bounds.
    pub fn active_since(&self) -> Option<u64> {
        self.job.as_ref().map(|j| j.started_at)
    }

    /// Sequence number of the descriptor currently executing, if any.
    /// A host-side preemption layer compares this against its ring's
    /// oldest in-flight descriptor before arming a suspension: a fused
    /// continuation runs under its successor's seq before the
    /// predecessor's retirement record is emitted, so the ring view can
    /// lag the engine, and kicking on the stale view would suspend the
    /// wrong chunk.
    pub fn active_seq(&self) -> Option<u64> {
        self.job.as_ref().map(|j| j.seq)
    }

    /// Queued descriptors not yet started (excludes the active job).
    pub fn pending_descriptors(&self) -> usize {
        self.pending.len()
    }

    /// Descriptors resident device-side: the active job plus the pending
    /// ring (retired-but-undrained completions not included).
    pub fn occupancy(&self) -> usize {
        usize::from(self.job.is_some()) + self.pending.len()
    }

    /// Advance one engine cycle.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.clock += 1;
        let source = self.source_id();
        let Some(job) = &mut self.job else { return };
        self.stats.busy_cycles += 1;

        // (5) Preprocessing unit: transpose completed reads.
        for _ in 0..self.cfg.preproc_lines_per_cycle {
            match job.transpose_q.pop_front() {
                Some(p) => job.write_ready.push_back(p),
                None => break,
            }
        }

        // (6)-(7) Issue writes toward the destination space.
        for _ in 0..self.cfg.issue_width {
            if self.outbox.len() >= self.outbox_cap {
                break;
            }
            let Some(p) = job.write_ready.pop_front() else {
                break;
            };
            let spaced = self.mapper.map(p.dst);
            let id = self.next_id;
            self.next_id += 1;
            self.outbox.push_back(OutRequest {
                space: spaced.space,
                req: MemRequest::write(id, p.dst, spaced.addr, source),
            });
            job.inflight_writes += 1;
            self.stats.writes_issued += 1;
        }

        // Serving-aware chaining (fusion): the moment the active
        // chunk's sweep is exhausted, a continuation already staged
        // behind it takes the live cursor — the successor's reads
        // issue this very cycle, while the predecessor's tail still
        // drains, so the line stream never sees the chunk boundary.
        // The predecessor becomes a fused segment whose retirement
        // record is emitted once its lines land (below); a shape
        // mismatch leaves the descriptor for the ordinary retirement
        // path, which falls back to a fresh build.
        if !job.suspend_requested
            && job.sched.remaining() == 0
            && matches!(
                self.pending.front(),
                Some(PendingDesc::Continuation(_, mode, pred))
                    if *pred == job.seq && *mode == job.sched.mode()
            )
        {
            let Some(PendingDesc::Continuation(op, mode, pred)) = self.pending.pop_front() else {
                unreachable!("front matched a continuation above");
            };
            if job.sched.continue_into(&op, &self.space) {
                self.stats.continuations += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                let added = job.sched.total_lines();
                self.tap.record_at_cycle(
                    SpanEvent::new(SpanKind::DeviceStart, 0.0)
                        .seq(seq)
                        .bytes(added * LINE_BYTES),
                    now,
                );
                job.segments.push_back(SegBoundary {
                    seq: job.seq,
                    end_lines: job.total,
                    started_at: job.started_at,
                });
                job.seq = seq;
                job.started_at = now;
                job.total += added;
            } else {
                self.pending
                    .push_front(PendingDesc::Continuation(op, mode, pred));
            }
        }

        // (1)-(3) Issue reads while the data buffer has room. A pending
        // suspension stops read issue cold — the drain is what bounds
        // the preemption latency to the in-flight pipeline depth.
        if !job.suspend_requested {
            let max_inflight = Self::max_inflight(&self.cfg, job.sched.mode());
            let mut stalled_on_buffer = false;
            for _ in 0..self.cfg.issue_width {
                if self.outbox.len() >= self.outbox_cap {
                    break;
                }
                if job.buffer_used >= self.cfg.data_buffer_lines() {
                    stalled_on_buffer = true;
                    break;
                }
                if job.inflight_reads.len() >= max_inflight {
                    break;
                }
                let Some(p) = job.sched.next_pair() else {
                    break;
                };
                let spaced = self.mapper.map(p.src);
                let id = self.next_id;
                self.next_id += 1;
                self.outbox.push_back(OutRequest {
                    space: spaced.space,
                    req: MemRequest::read(id, p.src, spaced.addr, source),
                });
                job.inflight_reads.insert(id, p);
                job.buffer_used += 1;
                self.stats.reads_issued += 1;
            }
            if stalled_on_buffer {
                self.stats.buffer_stall_cycles += 1;
            }
        }

        // Fused-segment retirements: a predecessor chunk completes when
        // the landed-line count crosses its boundary, and its record
        // surfaces on the completion ring exactly as if it had retired
        // unfused — same seq, same byte accounting, strictly in order.
        while let Some(seg) = job.segments.front().copied() {
            if job.lines_written < seg.end_lines {
                break;
            }
            job.segments.pop_front();
            let bytes = (seg.end_lines - job.base_lines) * LINE_BYTES;
            self.tap.record_at_cycle(
                SpanEvent::new(SpanKind::Retire, 0.0)
                    .seq(seg.seq)
                    .bytes(bytes),
                now,
            );
            self.completions.push_back(DceCompletion {
                seq: seg.seq,
                started_at: seg.started_at,
                completed_at: now,
                bytes,
                resumable: false,
            });
            self.stats.jobs_done += 1;
            job.base_lines = seg.end_lines;
        }

        // Completion: every line written and nothing in flight. The
        // descriptor retires itself and chains to the next pending one,
        // so back-to-back chunks lose no engine cycles to a host round
        // trip.
        let pipeline_empty = Self::pipeline_empty(job);
        if job.lines_written == job.total && pipeline_empty {
            let job = self.job.take().expect("checked above");
            let bytes = (job.total - job.base_lines) * LINE_BYTES;
            self.tap.record_at_cycle(
                SpanEvent::new(SpanKind::Retire, 0.0)
                    .seq(job.seq)
                    .bytes(bytes),
                now,
            );
            self.completions.push_back(DceCompletion {
                seq: job.seq,
                started_at: job.started_at,
                completed_at: now,
                bytes,
                resumable: false,
            });
            self.stats.jobs_done += 1;
            // Hold the retired sweep cursor for a possible continuation
            // chunk — exhausted, but its round-robin state is the warm
            // start the successor re-arms via `continue_into`.
            self.held_cursor = Some((job.seq, job.sched));
            if let Some(desc) = self.pending.pop_front() {
                // `clock` is already `now + 1`: the successor's first
                // busy cycle is the very next engine cycle.
                self.install_pending(desc);
            }
        } else if job.suspend_requested {
            self.stats.drain_cycles += 1;
            if !pipeline_empty {
                return; // still draining
            }
            // Quiesced mid-transfer: partial retirement. The record
            // credits only the bytes this activation moved; the live
            // scheduler (cursor and all) is parked for the host to
            // claim, and the engine chains straight to the next pending
            // descriptor — a suspension frees the engine exactly like a
            // retirement.
            let job = self.job.take().expect("suspending job is active");
            // Every fused boundary is behind the quiesced pipeline: a
            // segment's reads were fully issued before its successor
            // fused, so its lines all landed — the drain above already
            // emitted every boundary record, and the partial record
            // below covers only the newest segment.
            debug_assert!(
                job.segments.is_empty(),
                "quiesced pipeline implies every fused boundary crossed"
            );
            let bytes = (job.lines_written - job.base_lines) * LINE_BYTES;
            self.tap.record_at_cycle(
                SpanEvent::new(SpanKind::Suspend, 0.0)
                    .seq(job.seq)
                    .bytes(bytes),
                now,
            );
            self.completions.push_back(DceCompletion {
                seq: job.seq,
                started_at: job.started_at,
                completed_at: now,
                bytes,
                resumable: true,
            });
            self.suspended.push_back((
                job.seq,
                SuspendedTransfer {
                    kind: job.kind,
                    sched: job.sched,
                    lines_written: job.lines_written,
                    total: job.total,
                },
            ));
            self.stats.suspensions += 1;
            if let Some(desc) = self.pending.pop_front() {
                self.install_pending(desc);
            }
        }
    }

    /// Feed a memory completion back into the engine.
    pub fn on_completion(&mut self, c: Completion) {
        let Some(job) = &mut self.job else { return };
        if let Some(pair) = job.inflight_reads.remove(c.id) {
            // ❹ data buffered; queue for the preprocessing unit.
            job.transpose_q.push_back(pair);
        } else if job.inflight_writes > 0 {
            // ❼ write burst done: free the buffer line.
            job.inflight_writes -= 1;
            job.buffer_used = job.buffer_used.saturating_sub(1);
            job.lines_written += 1;
            self.stats.lines_done += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::AccessKind;
    use pim_mapping::{MemSpace, Organization, PhysAddr};

    fn setup() -> Dce {
        let dram = Organization::ddr4_dimm(4, 2);
        let pim = Organization::upmem_dimm(4, 2);
        let het = HetMap::pim_mmu(dram, pim);
        let space = PimAddrSpace::new(het.pim_base(), pim);
        Dce::with_shard(DceConfig::table1(), het, space, 0)
    }

    /// Drive the engine against a perfect memory that completes every
    /// request `latency` cycles after issue, honoring a one-shot
    /// suspension request at cycle `suspend_at`, until `n` completion
    /// records have been drained (or a million cycles elapse). Every
    /// issued request is appended to `issued` when given.
    fn drive_until_records(
        dce: &mut Dce,
        latency: u64,
        n: usize,
        suspend_at: Option<u64>,
        mut issued: Option<&mut Vec<OutRequest>>,
    ) -> Vec<DceCompletion> {
        let mut pending: VecDeque<(u64, Completion)> = VecDeque::new();
        let mut recs = Vec::new();
        for now in 0..1_000_000 {
            if suspend_at == Some(now) {
                assert!(dce.request_suspend(), "suspension must arm at {now}");
                assert!(dce.suspending());
                assert!(!dce.request_suspend(), "double-arm is rejected");
            }
            dce.tick();
            while let Some(r) = dce.outbox_mut().pop_front() {
                if let Some(log) = issued.as_deref_mut() {
                    log.push(r);
                }
                pending.push_back((
                    now + latency,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: now + latency,
                    },
                ));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, c) = pending.pop_front().unwrap();
                dce.on_completion(c);
            }
            while let Some(rec) = dce.pop_completion() {
                recs.push(rec);
            }
            if recs.len() >= n {
                break;
            }
        }
        recs
    }

    #[test]
    fn transfers_every_line_exactly_once() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..32).map(|i| (PhysAddr(i * 4096), u32::try_from(i).unwrap())),
            4096,
            0,
        );
        let total = op.total_bytes() / 64;
        dce.enqueue(op, DceMode::PimMs).unwrap();
        let recs = drive_until_records(&mut dce, 20, 1, None, None);
        assert_eq!(recs.len(), 1, "the descriptor retires");
        assert_eq!(recs[0].started_at, 0, "an idle engine starts at once");
        assert_eq!(recs[0].bytes, total * 64);
        assert_eq!(dce.stats().reads_issued, total);
        assert_eq!(dce.stats().writes_issued, total);
        assert_eq!(dce.stats().lines_done, total);
        assert!(!dce.busy());
        assert_eq!(dce.stats().jobs_done, 1);
    }

    #[test]
    fn enqueue_rejects_degenerate_jobs_without_panicking() {
        // Regression for the zero-byte / zero-core edges: the engine must
        // hand back a typed error, never reach the scheduler with a shape
        // that would build an empty schedule.
        let mut dce = setup();
        let zero_bytes = PimMmuOp::to_pim([(PhysAddr(0), 0)], 0, 0);
        assert_eq!(
            dce.enqueue(zero_bytes, DceMode::PimMs),
            Err(OpError::BadSize(0))
        );
        let zero_cores = PimMmuOp::to_pim(std::iter::empty(), 64, 0);
        assert_eq!(dce.enqueue(zero_cores, DceMode::PimMs), Err(OpError::Empty));
        assert!(!dce.busy(), "rejected descriptors must leave the DCE idle");
    }

    #[test]
    fn sharded_engines_tag_their_traffic() {
        let dram = Organization::ddr4_dimm(4, 2);
        let pim = Organization::upmem_dimm(4, 2);
        let het = HetMap::pim_mmu(dram, pim);
        let space = PimAddrSpace::new(het.pim_base(), pim);
        let mut dce = Dce::with_shard(DceConfig::table1(), het, space, 3);
        assert_eq!(dce.shard(), 3);
        assert_eq!(dce.source_id(), SourceId(DCE_SOURCE + 3));
        // Shard 0 (the plain constructor) keeps the historic tag.
        assert_eq!(setup().source_id(), SourceId(DCE_SOURCE));
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 128, 0);
        dce.enqueue(op, DceMode::PimMs).unwrap();
        dce.tick();
        let req = dce.outbox_mut().pop_front().expect("first read issued");
        assert_eq!(req.req.source, SourceId(DCE_SOURCE + 3));
    }

    #[test]
    fn cycle_counts_ticks() {
        let mut dce = setup();
        assert_eq!(dce.cycle(), 0);
        for _ in 0..5 {
            dce.tick();
        }
        assert_eq!(dce.cycle(), 5);
    }

    #[test]
    fn buffer_capacity_bounds_inflight_lines() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..64).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
            65536,
            0,
        );
        dce.enqueue(op, DceMode::PimMs).unwrap();
        // Never complete anything: reads pile up until the buffer is full.
        for _ in 0..10_000 {
            dce.tick();
            dce.outbox_mut().clear();
        }
        let lines = dce.config().data_buffer_lines() as u64;
        assert_eq!(dce.stats().reads_issued, lines);
        assert!(dce.stats().buffer_stall_cycles > 0);
    }

    #[test]
    fn coarse_mode_pipelines_shallowly() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..64).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
            65536,
            0,
        );
        dce.enqueue(op, DceMode::Coarse).unwrap();
        for _ in 0..10_000 {
            dce.tick();
            dce.outbox_mut().clear();
        }
        assert_eq!(
            dce.stats().reads_issued,
            dce.config().coarse_inflight_lines as u64
        );
    }

    #[test]
    fn dram_to_pim_reads_dram_writes_pim() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 5)], 128, 0);
        dce.enqueue(op, DceMode::PimMs).unwrap();
        let mut issued = Vec::new();
        let recs = drive_until_records(&mut dce, 10, 1, None, Some(&mut issued));
        assert_eq!(recs.len(), 1);
        let (reads, writes): (Vec<OutRequest>, Vec<OutRequest>) = issued
            .into_iter()
            .partition(|r| r.req.kind == AccessKind::Read);
        assert!(reads.iter().all(|r| r.space == MemSpace::Dram));
        assert!(writes.iter().all(|w| w.space == MemSpace::Pim));
        assert_eq!(writes.len(), 2);
    }

    #[test]
    fn pim_to_dram_reverses_spaces() {
        let mut dce = setup();
        let op = PimMmuOp::from_pim([(PhysAddr(0), 5)], 128, 0);
        dce.enqueue(op, DceMode::PimMs).unwrap();
        dce.tick();
        let first = dce.outbox_mut().pop_front().unwrap();
        assert_eq!(first.req.kind, AccessKind::Read);
        assert_eq!(first.space, MemSpace::Pim);
    }

    #[test]
    fn enqueue_chains_descriptors_without_host_round_trips() {
        let mut dce = setup();
        for k in 0..3u64 {
            let op = PimMmuOp::to_pim(
                (0..8).map(|i| {
                    (
                        PhysAddr(k * (1 << 20) + i * 4096),
                        u32::try_from(i).unwrap(),
                    )
                }),
                4096,
                k * 4096,
            );
            dce.enqueue(op, DceMode::PimMs).unwrap();
        }
        assert_eq!(dce.occupancy(), 3);
        assert_eq!(dce.pending_descriptors(), 2);
        let recs = drive_until_records(&mut dce, 20, 3, None, None);
        assert_eq!(recs.len(), 3, "all queued descriptors retire");
        assert!(!dce.busy());
        assert_eq!(dce.occupancy(), 0);
        assert_eq!(dce.stats().jobs_done, 3);
        for (k, rec) in recs.iter().enumerate() {
            assert_eq!(rec.seq, k as u64, "FIFO retirement order");
            assert_eq!(rec.bytes, 8 * 4096);
            assert!(rec.completed_at > rec.started_at);
        }
        // The engine transitions directly: the successor starts on the
        // cycle right after its predecessor completed.
        for w in recs.windows(2) {
            assert_eq!(
                w[1].started_at,
                w[0].completed_at + 1,
                "no host round trip between queued chunks"
            );
        }
    }

    #[test]
    fn enqueue_rejects_bad_descriptors_while_others_are_queued() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 64, 0);
        dce.enqueue(op.clone(), DceMode::PimMs).unwrap();
        dce.enqueue(op, DceMode::PimMs).unwrap();
        let bad = PimMmuOp::to_pim([(PhysAddr(0), 0)], 0, 0);
        assert_eq!(dce.enqueue(bad, DceMode::PimMs), Err(OpError::BadSize(0)));
        assert_eq!(dce.occupancy(), 2, "a rejected descriptor is not queued");
    }

    #[test]
    fn suspend_partially_retires_and_resume_finishes_the_job() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let total_bytes = op.total_bytes();
        dce.enqueue(op, DceMode::PimMs).unwrap();
        let recs = drive_until_records(&mut dce, 10, 1, Some(40), None);
        assert_eq!(recs.len(), 1);
        let partial = recs[0];
        assert!(partial.resumable);
        assert!(partial.bytes < total_bytes, "suspension is mid-transfer");
        assert!(!dce.busy(), "suspension frees the engine");
        assert_eq!(dce.stats().suspensions, 1);
        assert!(dce.stats().drain_cycles > 0);

        let st = dce.take_suspended(partial.seq).expect("state claimable");
        assert_eq!(st.bytes_done(), partial.bytes);
        assert_eq!(st.remaining_bytes(), total_bytes - partial.bytes);
        assert_eq!(st.entries(), 16);

        dce.resume(st);
        let recs = drive_until_records(&mut dce, 10, 1, None, None);
        assert_eq!(recs.len(), 1);
        let fin = recs[0];
        assert!(!fin.resumable);
        assert_eq!(fin.seq, partial.seq + 1, "resume is a fresh descriptor");
        assert_eq!(
            partial.bytes + fin.bytes,
            total_bytes,
            "records across activations conserve bytes"
        );
        assert_eq!(dce.stats().resumes, 1);
        // Every line read and written exactly once across activations.
        assert_eq!(dce.stats().lines_done, total_bytes / 64);
        assert_eq!(dce.stats().reads_issued, total_bytes / 64);
    }

    #[test]
    fn continuation_chunks_conserve_bytes_and_chain() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let chunks = op.chunks(32 << 10, 4096).unwrap();
        assert!(chunks.len() > 2, "need several chunks to chain");
        for (i, c) in chunks.iter().enumerate() {
            if i == 0 {
                dce.enqueue(c.clone(), DceMode::PimMs).unwrap();
            } else {
                // FIFO install order: chunk i's predecessor got seq i-1.
                let pred = u64::try_from(i).unwrap() - 1;
                dce.enqueue_continuation(c.clone(), DceMode::PimMs, pred)
                    .unwrap();
            }
        }
        let recs = drive_until_records(&mut dce, 10, chunks.len(), None, None);
        assert_eq!(recs.len(), chunks.len());
        assert_eq!(
            recs.iter().map(|r| r.bytes).sum::<u64>(),
            op.total_bytes(),
            "byte conservation across continuation boundaries"
        );
        for w in recs.windows(2) {
            // Fusion lets the successor's reads issue while the
            // predecessor's tail drains: it starts no later than the
            // cycle after its predecessor retires — and strictly
            // earlier whenever the chunks fused.
            assert!(
                w[1].started_at <= w[0].completed_at + 1,
                "device-side chain"
            );
            assert!(w[1].completed_at >= w[0].completed_at, "retire in order");
        }
        let overlapped = recs
            .windows(2)
            .any(|w| w[1].started_at <= w[0].completed_at);
        assert!(overlapped, "at least one boundary fused mid-flight");
        assert_eq!(
            dce.stats().continuations,
            u64::try_from(chunks.len()).unwrap() - 1
        );
        assert_eq!(dce.stats().continuation_fallbacks, 0);
        let lines = op.total_bytes() / 64;
        assert_eq!(dce.stats().reads_issued, lines);
        assert_eq!(dce.stats().writes_issued, lines);
        assert_eq!(dce.stats().lines_done, lines);
    }

    #[test]
    fn continuation_behind_a_suspension_falls_back_cleanly() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let chunks = op.chunks(64 << 10, 4096).unwrap();
        assert_eq!(chunks.len(), 2);
        dce.enqueue(chunks[0].clone(), DceMode::PimMs).unwrap();
        dce.enqueue_continuation(chunks[1].clone(), DceMode::PimMs, 0)
            .unwrap();
        // Recall chunk 0 mid-transfer: its cursor is parked for the
        // host, not held for the continuation, which must rebuild.
        let recs = drive_until_records(&mut dce, 10, 2, Some(20), None);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].resumable, "chunk 0 partially retired");
        assert!(!recs[1].resumable, "chunk 1 ran fresh behind it");
        assert_eq!(dce.stats().continuations, 0);
        assert_eq!(dce.stats().continuation_fallbacks, 1);
        // The recalled remainder resumes and the job still conserves
        // bytes across all three records.
        let st = dce.take_suspended(recs[0].seq).unwrap();
        dce.resume(st);
        let recs2 = drive_until_records(&mut dce, 10, 1, None, None);
        assert_eq!(
            recs[0].bytes + recs[1].bytes + recs2[0].bytes,
            op.total_bytes()
        );
        let lines = op.total_bytes() / 64;
        assert_eq!(dce.stats().lines_done, lines);
        assert_eq!(dce.stats().reads_issued, lines);
    }

    #[test]
    fn continuation_on_an_idle_engine_picks_up_the_held_cursor() {
        // The host-round-trip shape: the predecessor retires, the ring
        // drains, and only then is the next chunk dispatched. The
        // cursor is still held device-side, so the continuation is
        // taken even without deep queueing.
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 4096), u32::try_from(i).unwrap())),
            4096,
            0,
        );
        let chunks = op.chunks(16 << 10, 4096).unwrap();
        assert!(chunks.len() >= 2);
        dce.enqueue(chunks[0].clone(), DceMode::PimMs).unwrap();
        let recs = drive_until_records(&mut dce, 10, 1, None, None);
        assert!(!dce.busy(), "engine idle between chunks");
        dce.enqueue_continuation(chunks[1].clone(), DceMode::PimMs, recs[0].seq)
            .unwrap();
        let recs2 = drive_until_records(&mut dce, 10, 1, None, None);
        assert_eq!(recs2.len(), 1);
        assert_eq!(dce.stats().continuations, 1);
        assert_eq!(dce.stats().continuation_fallbacks, 0);
    }

    /// An engine ticked only at cycles where `next_event_cycle` reports
    /// work, and skipped at the rest, ends exactly like one ticked every
    /// cycle — same records, same counters — under fast memory, slow
    /// memory (a full data buffer), a narrow drain (a full outbox) and a
    /// mid-transfer suspension.
    #[test]
    fn skipping_parked_cycles_matches_ticking_them() {
        let mut exercised = DceStats::default();
        for (latency, drain_per_cycle, suspend_at) in [
            (20, 64, None),
            (400, 64, None),
            (20, 1, None),
            (60, 64, Some(100)),
        ] {
            let run = |sleep: bool| {
                let mut dce = setup();
                let op = PimMmuOp::to_pim(
                    (0..16).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
                    8192,
                    0,
                );
                dce.enqueue(op, DceMode::PimMs).unwrap();
                let mut inflight: VecDeque<(u64, Completion)> = VecDeque::new();
                let mut recs = Vec::new();
                let mut parked = 0u64;
                for now in 0..1_000_000u64 {
                    if suspend_at == Some(now) {
                        assert!(dce.request_suspend());
                    }
                    if sleep && dce.next_event_cycle().is_none() {
                        dce.skip_cycles(1);
                        parked += 1;
                    } else {
                        dce.tick();
                    }
                    for _ in 0..drain_per_cycle {
                        let Some(r) = dce.outbox_mut().pop_front() else {
                            break;
                        };
                        let done = now + latency;
                        inflight.push_back((
                            done,
                            Completion {
                                id: r.req.id,
                                kind: r.req.kind,
                                source: r.req.source,
                                cycle: done,
                            },
                        ));
                    }
                    while inflight.front().is_some_and(|&(t, _)| t <= now) {
                        dce.on_completion(inflight.pop_front().unwrap().1);
                    }
                    recs.extend(std::iter::from_fn(|| dce.pop_completion()));
                    if !dce.busy() {
                        break;
                    }
                }
                (recs, *dce.stats(), parked)
            };
            let (ticked, slept) = (run(false), run(true));
            let label =
                format!("latency {latency}, drain {drain_per_cycle}, suspend {suspend_at:?}");
            assert_eq!(ticked.0, slept.0, "{label}: records");
            assert_eq!(ticked.1, slept.1, "{label}: counters");
            assert!(slept.2 > 0, "{label}: the engine never parked");
            exercised.buffer_stall_cycles += slept.1.buffer_stall_cycles;
            exercised.drain_cycles += slept.1.drain_cycles;
        }
        assert!(exercised.buffer_stall_cycles > 0 && exercised.drain_cycles > 0);
    }

    #[test]
    fn suspend_is_refused_on_idle_engines() {
        let mut dce = setup();
        assert!(!dce.request_suspend(), "idle engine has nothing to kick");
        assert!(!dce.suspending());
    }

    #[test]
    fn suspension_chains_to_the_next_pending_descriptor() {
        let mut dce = setup();
        let big = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
            65536,
            0,
        );
        let small = PimMmuOp::to_pim([(PhysAddr(1 << 24), 100)], 128, 0);
        dce.enqueue(big, DceMode::PimMs).unwrap();
        dce.enqueue(small, DceMode::PimMs).unwrap();
        let recs = drive_until_records(&mut dce, 10, 2, Some(20), None);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].resumable, "big job suspended first");
        assert!(!recs[1].resumable, "small pending descriptor ran next");
        assert_eq!(recs[1].bytes, 128);
        // The engine moved straight on: the successor starts the cycle
        // after the quiesce.
        assert_eq!(recs[1].started_at, recs[0].completed_at + 1);
        // The suspended remainder resumes cleanly afterwards.
        let st = dce.take_suspended(recs[0].seq).unwrap();
        dce.resume(st);
        let recs2 = drive_until_records(&mut dce, 10, 1, None, None);
        assert_eq!(recs2[0].bytes + recs[0].bytes, 8 * 65536);
    }
}
