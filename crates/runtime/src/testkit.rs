//! Shared perfect-memory test harness for runtime-level suites.
//!
//! Every runtime test crate used to carry its own copy of the same
//! three helpers — a Table-I engine builder, a fast driver model, and a
//! tick loop driving a [`Runtime`] against a fixed-latency "perfect"
//! memory (every request completes `latency` engine cycles after
//! issue). They are factored here so the conformance suite, the policy
//! regressions and the shard-layer tests all drive the *same* loop —
//! the composition order exactly mirrors `ServingSystem::step`: admit
//! arrivals, poll every shard's completion ring, run the shard-aware
//! dispatch over the whole engine array, then tick the engines. The
//! host acts at every engine cycle, so its edge `k` is at engine cycle
//! `k`'s time.
//!
//! The perfect memory keeps hundreds of randomized cases fast; the
//! full simulated machine is exercised by the serving integration
//! tests and the bench harnesses.

use crate::arrival::ArrivalProcess;
use crate::job::JobRecord;
use crate::runtime::{Runtime, TenantSpec};
use crate::JobSizer;
use pim_dram::Completion;
use pim_mapping::{HetMap, Organization, PimAddrSpace};
use pim_mmu::{Dce, DceConfig, DriverModel, XferKind};
use pim_sim::{period_ticks, ticks_to_ns};
use std::collections::VecDeque;

/// A Table-I engine for shard `shard` over the standard 4-channel
/// DDR4 + 4-channel UPMEM machine of the unit tests.
pub fn fresh_dce(shard: u32) -> Dce {
    let dram = Organization::ddr4_dimm(4, 2);
    let pim = Organization::upmem_dimm(4, 2);
    let het = HetMap::pim_mmu(dram, pim);
    let space = PimAddrSpace::new(het.pim_base(), pim);
    Dce::with_shard(DceConfig::table1(), het, space, shard)
}

/// A fast driver model so queues drain in few simulated microseconds.
pub fn quick_driver() -> DriverModel {
    DriverModel {
        submit_fixed_ns: 5.0,
        submit_per_entry_ns: 0.0,
        interrupt_ns: 5.0,
    }
}

/// A tenant submitting fixed-size jobs at explicit trace times.
pub fn trace_tenant(name: &str, times: Vec<f64>, per_core_bytes: u64, n_cores: u32) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        kind: XferKind::DramToPim,
        arrival: ArrivalProcess::Trace(times),
        sizer: JobSizer::Fixed {
            per_core_bytes,
            n_cores,
        },
        priority: 0,
        weight: 1,
        class: 0,
    }
}

/// Drive a (possibly sharded) runtime against one perfect-memory
/// engine per shard until it drains; returns the records, or `None` if
/// `max_cycles` elapsed first.
pub fn run_to_drain_sharded(
    rt: &mut Runtime,
    latency: u64,
    max_cycles: u64,
) -> Option<Vec<JobRecord>> {
    drive_sharded(rt, latency, max_cycles, true)
}

/// Same loop, but run for the full cycle budget regardless of drain
/// state (overload scenarios measuring shares under contention).
pub fn run_cycles_sharded(rt: &mut Runtime, latency: u64, cycles: u64) {
    drive_sharded(rt, latency, cycles, false);
}

fn drive_sharded(
    rt: &mut Runtime,
    latency: u64,
    max_cycles: u64,
    stop_at_drain: bool,
) -> Option<Vec<JobRecord>> {
    let shards = rt.config().shards;
    let mut dces: Vec<Dce> = (0..shards)
        .map(|s| fresh_dce(u32::try_from(s).expect("shard count fits u32")))
        .collect();
    // Mirror `ServingSystem::new`: when the runtime records spans, arm
    // each engine's cycle-stamped tap so device-side lifecycle events
    // reach the flight recorder through the poll path.
    if rt.recorder().enabled() {
        for dce in &mut dces {
            let ns_per_cycle = dce.config().period_ps() as f64 / 1000.0;
            dce.enable_span_tap(ns_per_cycle, 4096);
        }
    }
    let mut pending: Vec<VecDeque<(u64, Completion)>> =
        (0..shards).map(|_| VecDeque::new()).collect();
    let period = period_ticks(dces[0].config().period_ps());
    for cycle in 0..max_cycles {
        let now_ns = ticks_to_ns(cycle * period);
        rt.admit_arrivals(now_ns);
        for (s, dce) in dces.iter_mut().enumerate() {
            rt.poll_shard(s, dce, now_ns);
        }
        rt.dispatch(&mut dces, now_ns);
        for (s, dce) in dces.iter_mut().enumerate() {
            dce.tick();
            while let Some(r) = dce.outbox_mut().pop_front() {
                pending[s].push_back((
                    cycle + latency,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: cycle + latency,
                    },
                ));
            }
            while pending[s].front().is_some_and(|&(t, _)| t <= cycle) {
                let (_, c) = pending[s].pop_front().unwrap();
                dce.on_completion(c);
            }
        }
        if stop_at_drain && rt.drained() {
            return Some(rt.records().to_vec());
        }
    }
    None
}
