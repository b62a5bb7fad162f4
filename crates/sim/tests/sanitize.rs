//! Mutation-style tests for the scheduler shadow checker: the
//! sanitizer must stay silent on conforming runs and must trip on each
//! injected fault class (a checker that never fires proves nothing).
#![cfg(feature = "sanitize")]

use pim_cpu::streams::MemcpyStream;
use pim_cpu::{Thread, ThreadKind};
use pim_mapping::PhysAddr;
use pim_mmu::{DceMode, PimMmuOp};
use pim_sim::{run_memcpy, DesignPoint, SanitizeKind, System, SystemConfig, HOST_BUFFER_BASE};

fn empty_system() -> System {
    // BaseDHP instantiates the full machine (DCE + both controller
    // groups); no threads means the only standing work is DRAM/PIM
    // refresh — exactly the horizon the injections corrupt.
    System::new(SystemConfig::table1(DesignPoint::BaseDHP), vec![])
}

#[test]
fn clean_idle_run_is_silent() {
    let mut sys = empty_system();
    sys.sanitize_record_only();
    sys.run_until(500_000.0, |_| false);
    assert!(
        sys.sanitize_violations().is_empty(),
        "idle run must be violation-free: {:?}",
        sys.sanitize_violations()
    );
}

#[test]
fn clean_memcpy_run_is_silent() {
    // Real traffic through every component, with the checker in panic
    // mode: any invariant breach fails the test by panicking.
    let cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    let r = run_memcpy(&cfg, 1 << 20, 1e9);
    assert_eq!(r.bytes, 1 << 20);
}

#[test]
fn clean_baseline_memcpy_run_is_silent() {
    // The CPU cluster sleeps between its own events on the baseline's
    // software copy path; every one of its wakes is checked here.
    let cfg = SystemConfig::table1(DesignPoint::Baseline);
    let r = run_memcpy(&cfg, 256 << 10, 1e9);
    assert_eq!(r.bytes, 256 << 10);
}

#[test]
fn stale_horizon_injection_trips() {
    let mut sys = empty_system();
    sys.sanitize_record_only();
    // Reach steady state, then re-aim the DRAM domain past its true
    // refresh horizon, as a buggy `apply_horizons` would.
    sys.run_until(100_000.0, |_| false);
    sys.sanitize_inject_stale_horizon();
    for _ in 0..64 {
        if !sys.sanitize_violations().is_empty() {
            break;
        }
        sys.step();
    }
    let vs = sys.sanitize_violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == SanitizeKind::StaleHorizon && v.domain == "dram"),
        "overshot DRAM wake must be flagged: {vs:?}"
    );
}

#[test]
fn lost_wakeup_injection_trips() {
    let mut sys = empty_system();
    sys.sanitize_record_only();
    sys.run_until(100_000.0, |_| false);
    sys.sanitize_inject_lost_wakeup();
    for _ in 0..64 {
        if !sys.sanitize_violations().is_empty() {
            break;
        }
        sys.step();
    }
    let vs = sys.sanitize_violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == SanitizeKind::LostWakeup && v.domain == "dram"),
        "parked-with-work DRAM domain must be flagged: {vs:?}"
    );
}

#[test]
#[should_panic(expected = "LostWakeup")]
fn panic_mode_aborts_on_first_finding() {
    let mut sys = empty_system();
    sys.run_until(100_000.0, |_| false);
    sys.sanitize_inject_lost_wakeup();
    for _ in 0..64 {
        sys.step();
    }
}

#[test]
fn lost_engine_wakeup_injection_trips() {
    let mut sys = empty_system();
    sys.sanitize_record_only();
    let op = PimMmuOp::to_pim(
        (0..8u32).map(|i| (PhysAddr(HOST_BUFFER_BASE + u64::from(i) * 4096), i)),
        4096,
        0,
    );
    sys.engines_mut()[0].enqueue(op, DceMode::PimMs).unwrap();
    // Run until read data sits in the engine's transpose queue: the
    // engine can act at its next edge, so its domain must be armed.
    let mut steps = 0;
    while sys.engines()[0].lines_awaiting_transpose() == 0 {
        sys.step();
        steps += 1;
        assert!(steps < 1_000_000, "no read data ever reached the engine");
    }
    assert!(
        sys.sanitize_violations().is_empty(),
        "clean transfer must be violation-free: {:?}",
        sys.sanitize_violations()
    );
    sys.sanitize_inject_lost_engine_wakeup(0);
    sys.step();
    let vs = sys.sanitize_violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == SanitizeKind::LostWakeup && v.domain == "dce"),
        "parked engine with a line to transpose must be flagged: {vs:?}"
    );
}

#[test]
fn lost_cpu_wakeup_injection_trips() {
    let bytes = 64 << 10;
    let copy = MemcpyStream::new(
        PhysAddr(HOST_BUFFER_BASE),
        PhysAddr(HOST_BUFFER_BASE + (1 << 30)),
        bytes,
    );
    let threads = vec![Thread::new(Box::new(copy), ThreadKind::Transfer)];
    let mut sys = System::new(SystemConfig::table1(DesignPoint::Baseline), threads);
    sys.sanitize_record_only();
    // Run into the copy loop, then on to an edge where the cluster can
    // act: its domain must be armed.
    for _ in 0..2_000 {
        sys.step();
    }
    let mut steps = 0;
    while sys.cluster().next_event_cycle().is_none() {
        sys.step();
        steps += 1;
        assert!(steps < 1_000_000, "the copy loop never had work again");
    }
    assert!(
        sys.sanitize_violations().is_empty(),
        "clean copy loop must be violation-free: {:?}",
        sys.sanitize_violations()
    );
    sys.sanitize_inject_lost_cpu_wakeup();
    sys.step();
    let vs = sys.sanitize_violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == SanitizeKind::LostWakeup && v.domain == "cpu"),
        "parked cluster with a core that can act must be flagged: {vs:?}"
    );
}
