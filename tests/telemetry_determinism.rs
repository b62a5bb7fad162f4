//! Observability must be free when off and deterministic when on:
//!
//! * with telemetry disabled (the default), the PR 4 golden scenario
//!   replays **bit-for-bit** and the flight recorder stays empty — no
//!   extra clock domain, no allocation, no perturbation;
//! * with telemetry enabled, the same seeded scenario exports
//!   **byte-identical** trace and counter files across two runs, and
//!   the trace validates (parses, monotonic per-track timestamps,
//!   balanced slices).

use pim_bench::goldens::{golden_scenario, run_golden, GOLDEN_HORIZON_NS};
use pim_bench::json::parse;
use pim_bench::perfetto::{chrome_trace, snapshot_json, validate_chrome_trace};
use pim_runtime::TelemetryConfig;

#[test]
fn disabled_telemetry_replays_the_pr4_golden_bit_for_bit() {
    let (cfg, tenants) = golden_scenario(7);
    assert!(!cfg.telemetry.enabled, "telemetry must default to off");
    let serving = run_golden(cfg, tenants);
    pim_bench::goldens::assert_matches_pr4_golden(serving.runtime(), "telemetry-off");
    assert!(serving.runtime().recorder().is_empty());
    assert_eq!(serving.runtime().recorder().recorded(), 0);
    assert!(
        serving.sample_series().is_none(),
        "no sampler when disabled"
    );
}

#[test]
fn enabled_telemetry_does_not_move_the_golden_timeline() {
    let (mut cfg, tenants) = golden_scenario(7);
    cfg.telemetry = TelemetryConfig::on();
    let serving = run_golden(cfg, tenants);
    // The telemetry clock domain adds edges but no behavior: the
    // golden records must still match to the f64 bit.
    pim_bench::goldens::assert_matches_pr4_golden(serving.runtime(), "telemetry-on");
    assert!(!serving.runtime().recorder().is_empty());
    assert!(serving.sample_series().is_some());
}

fn export_once() -> (String, String) {
    let (mut cfg, tenants) = golden_scenario(7);
    cfg.telemetry = TelemetryConfig {
        sample_ns: 5_000.0,
        ..TelemetryConfig::on()
    };
    let shards = cfg.shards;
    let mut serving = run_golden(cfg, tenants);
    assert!(serving.run_until_drained(GOLDEN_HORIZON_NS * 100.0));
    serving.flush_spans();
    let rt = serving.runtime();
    let names: Vec<&str> = rt.tenant_stats().iter().map(|(n, _)| *n).collect();
    let trace = chrome_trace(
        rt.recorder(),
        &names,
        shards,
        serving.sample_series(),
        None,
        None,
    );
    let snap = snapshot_json(&serving.telemetry_snapshot());
    (trace.render(), snap.render())
}

#[test]
fn traced_exports_are_byte_identical_across_runs() {
    let (trace_a, counters_a) = export_once();
    let (trace_b, counters_b) = export_once();
    assert_eq!(trace_a, trace_b, "trace export drifted between seeded runs");
    assert_eq!(
        counters_a, counters_b,
        "counter dump drifted between seeded runs"
    );

    let doc = parse(&trace_a).expect("exported trace is well-formed JSON");
    let summary = validate_chrome_trace(&doc).expect("trace validates");
    assert!(summary.device_slices > 0, "device tracks present");
    assert!(summary.async_slices > 0, "tenant job tracks present");
    assert!(summary.counter_samples > 0, "sampled counters present");

    let counters = parse(&counters_a).expect("counter dump is well-formed JSON");
    let set = counters.get("counters").expect("counters object");
    for key in [
        "timing.events_fired",
        "host.doorbells",
        "ring.completed",
        "shard0.dce.lines_done",
        "tenant0.a.completed",
    ] {
        assert!(set.get(key).is_some(), "snapshot missing `{key}`");
    }
}
