//! Device-level suspend/resume properties, over randomized ops and
//! arbitrary suspend points:
//!
//! * **byte conservation** — the partial retirement records plus the
//!   final one sum exactly to the op's payload, for any number of
//!   suspensions at any cycles;
//! * **emission is a permutation** — across all activations, every
//!   64 B line of the op is read exactly once and written exactly once
//!   (the resumed cursor neither re-emits nor skips lines);
//! * **cursor fidelity** — a suspend→resume with no intervening work
//!   emits the read sequence of an uninterrupted run bit-identically:
//!   the channel sweep continues, it does not restart.

use pim_dram::{AccessKind, Completion};
use pim_mapping::{HetMap, Organization, PhysAddr, PimAddrSpace};
use pim_mmu::{Dce, DceCompletion, DceConfig, DceMode, PimMmuOp};
use proptest::prelude::*;
use std::collections::VecDeque;

fn fresh_dce() -> Dce {
    let dram = Organization::ddr4_dimm(4, 2);
    let pim = Organization::upmem_dimm(4, 2);
    let het = HetMap::pim_mmu(dram, pim);
    let space = PimAddrSpace::new(het.pim_base(), pim);
    Dce::new(DceConfig::table1(), het, space)
}

/// `n` distinct PIM cores chosen pseudo-randomly from `seed` (odd
/// stride modulo the 512-core space, so all picks are distinct).
fn distinct_cores(seed: u64, n: usize) -> Vec<u32> {
    let step = 2 * (seed % 256) + 1;
    (0..n as u64)
        .map(|i| ((seed + i * step) % 512) as u32)
        .collect()
}

fn op_for(seed: u64, n_cores: usize, lines_per_core: u64) -> PimMmuOp {
    let size = lines_per_core * 64;
    PimMmuOp::to_pim(
        distinct_cores(seed, n_cores)
            .into_iter()
            .map(|c| (PhysAddr(c as u64 * size), c)),
        size,
        0,
    )
}

/// What one full run of an op emitted and retired: read source
/// addresses in issue order, write destinations in issue order, and
/// the completion records in retirement order.
struct RunTrace {
    reads: Vec<u64>,
    writes: Vec<u64>,
    records: Vec<DceCompletion>,
}

/// Drive the engine against a perfect memory (`latency` cycles), with
/// suspensions requested at the given cycles; every suspension is
/// resumed as soon as its partial record is drained. Runs until the
/// final (non-resumable) record retires.
fn run_with_suspends(
    dce: &mut Dce,
    op: PimMmuOp,
    mode: DceMode,
    latency: u64,
    suspend_at: &[u64],
) -> RunTrace {
    dce.enqueue(op, mode).unwrap();
    let mut pending: VecDeque<(u64, Completion)> = VecDeque::new();
    let mut trace = RunTrace {
        reads: Vec::new(),
        writes: Vec::new(),
        records: Vec::new(),
    };
    for now in 0..2_000_000u64 {
        if suspend_at.contains(&now) {
            // Best-effort: the request is refused if the engine is idle
            // (already between activations) or already suspending.
            dce.request_suspend();
        }
        dce.tick();
        while let Some(r) = dce.outbox_mut().pop_front() {
            match r.req.kind {
                AccessKind::Read => trace.reads.push(r.req.phys.0),
                AccessKind::Write => trace.writes.push(r.req.phys.0),
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
            let done = !rec.resumable;
            if rec.resumable {
                let st = dce
                    .take_suspended(rec.seq)
                    .expect("partial record parks suspended state");
                dce.resume(st);
            }
            trace.records.push(rec);
            if done {
                return trace;
            }
        }
    }
    panic!("transfer did not finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any schedule of suspensions conserves bytes and emits every line
    /// exactly once, in both scheduling modes.
    #[test]
    fn suspensions_conserve_bytes_and_emit_a_permutation(
        seed in 0u64..500,
        n_cores in 1usize..24,
        lines_per_core in 1u64..6,
        latency in 1u64..40,
        suspends in proptest::collection::vec(1u64..600, 0..4),
        mode in prop_oneof![Just(DceMode::PimMs), Just(DceMode::Coarse)],
    ) {
        let op = op_for(seed, n_cores, lines_per_core);
        let total_bytes = op.total_bytes();
        let mut dce = fresh_dce();
        let trace = run_with_suspends(&mut dce, op.clone(), mode, latency, &suspends);

        // Byte conservation across every activation's record.
        let credited: u64 = trace.records.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(credited, total_bytes, "records must sum to the payload");
        let partials = trace.records.len() - 1;
        prop_assert_eq!(dce.stats().suspensions, partials as u64);
        prop_assert_eq!(dce.stats().resumes, partials as u64);

        // Emission is a permutation: every source line read exactly
        // once, every destination line written exactly once.
        let lines = (total_bytes / 64) as usize;
        prop_assert_eq!(trace.reads.len(), lines, "read count");
        prop_assert_eq!(trace.writes.len(), lines, "write count");
        let mut reads = trace.reads.clone();
        reads.sort_unstable();
        reads.dedup();
        prop_assert_eq!(reads.len(), lines, "a line was re-read after a resume");
        let mut writes = trace.writes.clone();
        writes.sort_unstable();
        writes.dedup();
        prop_assert_eq!(writes.len(), lines, "a line was re-written after a resume");
        prop_assert_eq!(dce.stats().lines_done, lines as u64);
    }

    /// A suspend→resume with no intervening work continues the channel
    /// sweep bit-identically: the concatenated read sequence equals the
    /// uninterrupted run's sequence (same lines, same order).
    #[test]
    fn suspend_resume_without_intervening_work_is_bit_identical(
        seed in 0u64..500,
        n_cores in 2usize..24,
        lines_per_core in 2u64..6,
        latency in 1u64..30,
        suspend_cycle in 1u64..300,
        mode in prop_oneof![Just(DceMode::PimMs), Just(DceMode::Coarse)],
    ) {
        let op = op_for(seed, n_cores, lines_per_core);
        let mut plain = fresh_dce();
        let uninterrupted = run_with_suspends(&mut plain, op.clone(), mode, latency, &[]);
        let mut kicked = fresh_dce();
        let resumed = run_with_suspends(&mut kicked, op, mode, latency, &[suspend_cycle]);
        prop_assert_eq!(
            resumed.reads,
            uninterrupted.reads,
            "the resumed cursor must continue the sweep, not restart it"
        );
        prop_assert_eq!(resumed.writes, uninterrupted.writes);
    }
}
