//! Skip ≡ tick: a controller that sleeps to its
//! [`next_event_cycle`](MemController::next_event_cycle) horizon and
//! catches up with [`skip_cycles`](MemController::skip_cycles) must be
//! indistinguishable from one ticked on every cycle. Both are fed the
//! same random arrivals (idle gaps and bursts of reads and writes), on
//! the DDR4 and UPMEM geometries and timings, with refresh on and off;
//! their command logs, completions (with the cycle each was drained at)
//! and every `ChannelStats` field must agree.

use pim_dram::{AccessKind, Completion, ControllerConfig, MemController, MemRequest, TimingParams};
use pim_mapping::{DramAddr, Organization, PhysAddr};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A request and the cycle at which it reaches the controller.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: u64,
    req: MemRequest,
}

/// Enqueue every arrival due at or before `now`, front first; a refused
/// request stops the feed and is retried on a later cycle, as
/// `System::drain_requests` does.
fn feed(ctrl: &mut MemController, pending: &mut VecDeque<Arrival>, now: u64) {
    while let Some(a) = pending.front() {
        if a.at > now || ctrl.enqueue(a.req).is_err() {
            return;
        }
        pending.pop_front();
    }
}

/// What a run leaves behind: the drained completions with the cycle of
/// the tick that produced them, the controller itself, and how many
/// times it ticked.
type Run = (Vec<(u64, Completion)>, MemController, u64);

/// The reference: tick on every cycle up to `end`.
fn run_ticked(mut ctrl: MemController, arrivals: &[Arrival], end: u64) -> Run {
    let mut pending: VecDeque<Arrival> = arrivals.iter().copied().collect();
    let mut done = Vec::new();
    while ctrl.clock() < end {
        let now = ctrl.clock();
        feed(&mut ctrl, &mut pending, now);
        ctrl.tick();
        done.extend(ctrl.drain_completions().map(|c| (now, c)));
    }
    (done, ctrl, end)
}

/// The sleeper: tick only at the horizon, and skip to the earlier of the
/// horizon and the next arrival the controller can accept. A refused
/// arrival waits for a tick, the only thing that frees a queue slot.
fn run_sleeping(mut ctrl: MemController, arrivals: &[Arrival], end: u64) -> Run {
    let mut pending: VecDeque<Arrival> = arrivals.iter().copied().collect();
    let mut done = Vec::new();
    let mut ticks = 0;
    while ctrl.clock() < end {
        let now = ctrl.clock();
        feed(&mut ctrl, &mut pending, now);
        let arrival = pending
            .front()
            .filter(|a| ctrl.can_accept(a.req.kind))
            .map(|a| a.at);
        let next = [ctrl.next_event_cycle(), arrival, Some(end)]
            .into_iter()
            .flatten()
            .min()
            .expect("end bounds the run");
        if next > now {
            ctrl.skip_cycles(next - now);
            continue;
        }
        ctrl.tick();
        ticks += 1;
        done.extend(ctrl.drain_completions().map(|c| (now, c)));
    }
    (done, ctrl, ticks)
}

/// One arrival: the gap since the previous one (mostly a burst, some
/// short pauses, a few idle stretches long enough to cross refresh
/// deadlines), the kind and an address inside `org`'s channel.
fn arb_arrival(org: Organization) -> impl Strategy<Value = (u64, MemRequest)> {
    (
        (0u32..32, 0u64..6000).prop_map(|(pick, n)| match pick {
            0 => n,
            1..=8 => n % 40,
            _ => 0,
        }),
        any::<bool>(),
        0..org.ranks,
        0..org.bank_groups,
        0..org.banks,
        0..org.rows.min(8),
        0..org.cols,
    )
        .prop_map(move |(gap, is_read, rank, bank_group, bank, row, col)| {
            let addr = DramAddr {
                channel: 0,
                rank,
                bank_group,
                bank,
                row,
                col,
            };
            let req = if is_read {
                MemRequest::read(0, PhysAddr(0), addr, Default::default())
            } else {
                MemRequest::write(0, PhysAddr(0), addr, Default::default())
            };
            (gap, req)
        })
}

fn arb_traffic(
    org: Organization,
    timing: TimingParams,
) -> impl Strategy<Value = (Organization, TimingParams, Vec<(u64, MemRequest)>)> {
    (
        Just(org),
        Just(timing),
        proptest::collection::vec(arb_arrival(org), 1..200),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn sleeping_to_the_horizon_matches_ticking_every_cycle(
        traffic in prop_oneof![
            arb_traffic(Organization::ddr4_dimm(1, 2), TimingParams::ddr4_2400()),
            arb_traffic(Organization::upmem_dimm(1, 2), TimingParams::upmem_2400()),
        ],
        refresh in any::<bool>(),
    ) {
        let (org, timing, draws) = traffic;
        let mut at = 0;
        let arrivals: Vec<Arrival> = draws
            .into_iter()
            .enumerate()
            .map(|(i, (gap, mut req))| {
                at += gap;
                req.id = i as u64;
                Arrival { at, req }
            })
            .collect();
        let cfg = ControllerConfig { refresh, ..ControllerConfig::default() };
        let mut ctrl = MemController::with_config(org, timing, cfg);
        ctrl.enable_command_log();
        // Long enough for the backlog to drain after the last arrival.
        let end = at + 64 * 200 + 2 * timing.refi;
        let (ticked, t, every_cycle) = run_ticked(ctrl.clone(), &arrivals, end);
        let (slept, s, ticks) = run_sleeping(ctrl, &arrivals, end);

        prop_assert_eq!(ticked.len(), arrivals.len(), "every request completes");
        prop_assert_eq!(s.command_log(), t.command_log());
        prop_assert_eq!(&slept, &ticked);
        prop_assert_eq!(format!("{:?}", s.stats()), format!("{:?}", t.stats()));
        prop_assert_eq!(s.clock(), t.clock());
        let writes = arrivals.iter().filter(|a| a.req.kind == AccessKind::Write).count();
        prop_assert_eq!(t.stats().writes, writes as u64);
        // The drain and the idle tail alone leave thousands of cycles to
        // sleep through; equality proves nothing if none were skipped.
        prop_assert!(2 * ticks < every_cycle, "slept too little: {ticks} of {every_cycle} cycles ticked");
    }
}
