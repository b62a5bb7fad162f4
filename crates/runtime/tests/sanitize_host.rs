//! The scheduler shadow checker over the serving composer's host
//! clock: it sleeps between the host's events, so a parked host domain
//! with work to do must be flagged just like a parked machine
//! component.
#![cfg(feature = "sanitize")]

use pim_runtime::testkit::trace_tenant;
use pim_runtime::{policy_by_name, Runtime, RuntimeConfig, ServingSystem};
use pim_sim::{DesignPoint, SanitizeKind, SystemConfig, TimingMode};

fn serving() -> ServingSystem {
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.timing = TimingMode::EventDriven;
    let tenants = vec![trace_tenant("t", vec![0.0, 5_000.0], 256, 8)];
    let rt_cfg = RuntimeConfig {
        open_until_ns: 10_000.0,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(rt_cfg, tenants, policy_by_name("fcfs", 4_096).unwrap());
    ServingSystem::new(cfg, runtime)
}

#[test]
fn clean_serving_run_is_silent() {
    let mut s = serving();
    s.sanitize_record_only();
    assert!(s.run_until_drained(1e8));
    let vs = s.system().sanitize_violations();
    assert!(vs.is_empty(), "serving run must be violation-free: {vs:?}");
}

#[test]
fn lost_host_wakeup_injection_trips() {
    let mut s = serving();
    s.sanitize_record_only();
    // Run until the engine retires the first job: its record waits for
    // the ring poll, so the host must be armed for the next edge.
    let mut steps = 0;
    while !s.system().engines().iter().any(|e| e.awaits_poll()) {
        s.step();
        steps += 1;
        assert!(steps < 1_000_000, "the first job never retired");
    }
    assert!(s.system().sanitize_violations().is_empty());
    s.sanitize_inject_lost_host_wakeup();
    s.step();
    let vs = s.system().sanitize_violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == SanitizeKind::LostWakeup && v.domain == "runtime"),
        "a parked host with a retirement record to drain must be flagged: {vs:?}"
    );
}
