//! Cross-check: the incremental timing model inside the controller must
//! never emit a command stream that the independent quadratic
//! [`TimingValidator`] rejects.

use pim_dram::{ControllerConfig, MemController, MemRequest, TimingParams, TimingValidator};
use pim_mapping::{DramAddr, Organization, PhysAddr};
use proptest::prelude::*;

/// Drive `reqs` through a controller (respecting back-pressure) and return
/// the full command trace.
fn run_trace(
    org: Organization,
    timing: TimingParams,
    cfg: ControllerConfig,
    reqs: Vec<MemRequest>,
) -> MemController {
    let mut ctrl = MemController::with_config(org, timing, cfg);
    ctrl.enable_command_log();
    let total = reqs.len();
    let mut pending: std::collections::VecDeque<_> = reqs.into();
    let mut done = 0usize;
    let mut guard = 0u64;
    while done < total {
        while let Some(&req) = pending.front() {
            if ctrl.enqueue(req).is_ok() {
                pending.pop_front();
            } else {
                break;
            }
        }
        ctrl.tick();
        done += ctrl.drain_completions().len();
        guard += 1;
        assert!(guard < 5_000_000, "trace did not drain");
    }
    ctrl
}

fn arb_request(org: Organization) -> impl Strategy<Value = MemRequest> {
    (
        any::<bool>(),
        0..org.ranks,
        0..org.bank_groups,
        0..org.banks,
        0..(org.rows.min(64)),
        0..org.cols,
    )
        .prop_map(move |(is_read, rank, bg, bank, row, col)| {
            let addr = DramAddr {
                channel: 0,
                rank,
                bank_group: bg,
                bank,
                row,
                col,
            };
            if is_read {
                MemRequest::read(0, PhysAddr(0), addr, Default::default())
            } else {
                MemRequest::write(0, PhysAddr(0), addr, Default::default())
            }
        })
}

/// One controller geometry with up to 160 requests addressed inside it.
fn arb_traffic(org: Organization) -> impl Strategy<Value = (Organization, Vec<MemRequest>)> {
    (
        Just(org),
        proptest::collection::vec(arb_request(org), 1..160),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The UPMEM channel's 128 banks span two words of the controller's
    // per-bank bitset; the DDR4 channel's 32 fit in one.
    #[test]
    fn random_traffic_obeys_ddr4_timing(
        traffic in prop_oneof![
            arb_traffic(Organization::ddr4_dimm(1, 2)),
            arb_traffic(Organization::upmem_dimm(1, 2)),
        ],
        refresh in any::<bool>(),
    ) {
        let (org, reqs) = traffic;
        let timing = TimingParams::ddr4_2400();
        let cfg = ControllerConfig { refresh, ..ControllerConfig::default() };
        let reqs: Vec<MemRequest> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| { r.id = i as u64; r })
            .collect();
        let ctrl = run_trace(org, timing, cfg, reqs);
        let mut validator = TimingValidator::new(timing);
        for c in ctrl.command_log().unwrap() {
            validator.record(c.cmd, c.addr, c.cycle);
        }
        let violations = validator.check();
        prop_assert!(violations.is_empty(), "violations: {:#?}", &violations[..violations.len().min(3)]);
    }
}

#[test]
fn every_request_completes_exactly_once() {
    let org = Organization::ddr4_dimm(1, 2);
    let timing = TimingParams::ddr4_2400();
    let reqs: Vec<MemRequest> = (0..500u64)
        .map(|i| {
            let addr = DramAddr {
                channel: 0,
                rank: (i % 2) as u32,
                bank_group: ((i / 2) % 4) as u32,
                bank: ((i / 8) % 4) as u32,
                row: (i / 32) % 16,
                col: (i % 128) as u32,
            };
            if i % 3 == 0 {
                MemRequest::write(i, PhysAddr(i * 64), addr, Default::default())
            } else {
                MemRequest::read(i, PhysAddr(i * 64), addr, Default::default())
            }
        })
        .collect();
    let mut ctrl = MemController::new(org, timing);
    let mut pending: std::collections::VecDeque<_> = reqs.into();
    let mut seen = std::collections::BTreeSet::new();
    let mut guard = 0;
    while seen.len() < 500 {
        while let Some(&req) = pending.front() {
            if ctrl.enqueue(req).is_ok() {
                pending.pop_front();
            } else {
                break;
            }
        }
        ctrl.tick();
        for c in ctrl.drain_completions() {
            assert!(seen.insert(c.id), "duplicate completion for {}", c.id);
        }
        guard += 1;
        assert!(guard < 1_000_000);
    }
    assert!(ctrl.idle());
    assert_eq!(ctrl.stats().reads + ctrl.stats().writes, 500);
}
