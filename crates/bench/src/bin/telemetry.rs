//! Telemetry smoke harness: run a seeded multi-tenant, multi-shard
//! serving scenario with engine-side preemption under full
//! observability, export the flight recorder as a Chrome/Perfetto
//! trace plus a counter dump, and check the invariants the tracing
//! subsystem promises:
//!
//! * the exported trace is well-formed (parses, per-track timestamps
//!   monotonic, B/E and b/e balanced) and contains per-tenant job
//!   tracks with nested `suspended` slices;
//! * two runs of the same seed export **byte-identical** files;
//! * tracing overhead is bounded (off vs ring-only vs full export
//!   wall-clock, printed to stdout; the JSON document holds simulated
//!   outputs only, so it reproduces byte for byte).
//!
//! ```text
//! cargo run --release -p pim-bench --bin telemetry -- \
//!     [--smoke|--full] [--seed S] [--out PATH] [--trace PATH]
//! ```
//!
//! Open `BENCH_telemetry_trace.json` at <https://ui.perfetto.dev>:
//! pid 0 is the machine (one thread per DCE shard plus the sampled
//! counter tracks), pids 1+ are the tenants.

use pim_bench::flag_val;
use pim_bench::json::{parse, write_json, Json};
use pim_bench::perfetto::{chrome_trace, snapshot_json, validate_chrome_trace};
use pim_runtime::{
    policy_by_name, HostQueueConfig, Preemption, Runtime, RuntimeConfig, ServingSystem, SpanKind,
    TelemetryConfig, TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};
use std::time::Instant;

/// Top class: 4 KiB jobs on its own 64-core slice, steady cadence.
const TOP_PER_CORE: u64 = 64;
/// Bulk class: 1 MiB jobs — at 1 MiB chunks each occupies the engine
/// long enough that the priority kick visibly suspends it.
const BULK_PER_CORE: u64 = 16 << 10;
const CORES: u32 = 64;
const CORE_STRIDE: u32 = 64;
const TOP_MEAN_NS: f64 = 12_000.0;
const BULK_MEAN_NS: f64 = 30_000.0;
const SHARDS: usize = 2;
const CHUNK_BYTES: u64 = 1 << 20;

struct Args {
    horizon_ns: f64,
    seed: u64,
    out: String,
    trace: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let horizon_ns = if argv.iter().any(|a| a == "--smoke") {
        60_000.0
    } else if argv.iter().any(|a| a == "--full") {
        600_000.0
    } else {
        200_000.0
    };
    Args {
        horizon_ns,
        seed: flag_val("--seed")
            .map_or(0x0B5E6E, |v| v.parse().expect("--seed requires an integer")),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_telemetry.json".to_string()),
        trace: flag_val("--trace").unwrap_or_else(|| "BENCH_telemetry_trace.json".to_string()),
    }
}

fn tenants() -> Vec<TenantSpec> {
    let mut out = vec![TenantSpec::poisson("top", TOP_MEAN_NS, TOP_PER_CORE, CORES)];
    out[0].priority = 0;
    for i in 0..2 {
        let mut bulk = TenantSpec::poisson(&format!("bulk{i}"), BULK_MEAN_NS, BULK_PER_CORE, CORES);
        bulk.priority = 1;
        out.push(bulk);
    }
    out
}

/// Run the scenario to drain under the given telemetry config; returns
/// the drained serving system.
fn run(args: &Args, telemetry: TelemetryConfig) -> ServingSystem {
    let rt_cfg = RuntimeConfig {
        chunk_bytes: CHUNK_BYTES,
        open_until_ns: args.horizon_ns,
        seed: args.seed,
        hostq: HostQueueConfig {
            depth: 2,
            coalesce_count: 1,
            coalesce_timeout_ns: 0.0,
            poll_period_ps: 312,
        },
        shards: SHARDS,
        preemption: Preemption::PriorityKick,
        core_stride: CORE_STRIDE,
        telemetry,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(
        rt_cfg,
        tenants(),
        policy_by_name("prio", rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut serving = ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
    assert!(
        serving.run_until_drained(args.horizon_ns * 100.0),
        "scenario must drain"
    );
    serving.flush_spans();
    serving
}

/// Export one full-telemetry run: `(trace text, counter-dump text)`.
fn export(serving: &ServingSystem) -> (String, String) {
    let rt = serving.runtime();
    let names: Vec<&str> = rt.tenant_stats().iter().map(|(n, _)| *n).collect();
    let trace = chrome_trace(
        rt.recorder(),
        &names,
        rt.config().shards,
        serving.sample_series(),
        None,
        None,
    );
    let snap = snapshot_json(&serving.telemetry_snapshot());
    (trace.render(), snap.render())
}

fn main() {
    let args = parse_args();
    let telemetry_on = TelemetryConfig {
        sample_ns: 2_000.0,
        ..TelemetryConfig::on()
    };
    println!(
        "telemetry: {} us horizon, 3 tenants on {SHARDS} shards, strict-priority + kick",
        args.horizon_ns / 1000.0
    );

    // Overhead: the same scenario with tracing off, ring-only, and
    // full (ring + sampler + export + render).
    let t0 = Instant::now();
    let baseline = run(&args, TelemetryConfig::default());
    let wall_off_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        baseline.runtime().recorder().is_empty(),
        "disabled telemetry must record nothing"
    );
    assert!(baseline.sample_series().is_none());

    let t1 = Instant::now();
    let ring_only = run(&args, telemetry_on);
    let wall_ring_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let serving = run(&args, telemetry_on);
    let (trace_text, counters_text) = export(&serving);
    let wall_full_ms = t2.elapsed().as_secs_f64() * 1e3;

    // The telemetry clock domain must not perturb the simulation:
    // identical job records with tracing off and on.
    assert_eq!(
        baseline.runtime().records(),
        ring_only.runtime().records(),
        "telemetry must not perturb the simulated timeline"
    );

    // Determinism: a second full run exports byte-identical files.
    let rerun = run(&args, telemetry_on);
    let (trace2, counters2) = export(&rerun);
    assert_eq!(trace_text, trace2, "trace export must be deterministic");
    assert_eq!(
        counters2, counters_text,
        "counter dump must be deterministic"
    );

    // The exported trace is well-formed and contains the expected
    // structure. (Written before validation so a failing trace is
    // inspectable.)
    std::fs::write(&args.trace, &trace_text).expect("write trace file");
    let reparsed = parse(&trace_text).expect("exported trace parses");
    let summary = validate_chrome_trace(&reparsed).expect("exported trace validates");
    let rec = serving.runtime().recorder();
    let suspends = rec.iter().filter(|e| e.kind == SpanKind::Suspend).count();
    assert!(suspends > 0, "the kick scenario must actually suspend");
    assert!(summary.async_slices > 0 && summary.device_slices > 0);
    let series = serving.sample_series().expect("sampler enabled");
    assert!(!series.is_empty(), "sampler must have fired");

    println!(
        "trace: {} events, {} device slices, {} job/suspend slices, {} counter samples, \
         {} tracks -> {}",
        summary.events,
        summary.device_slices,
        summary.async_slices,
        summary.counter_samples,
        summary.tracks,
        args.trace
    );
    println!(
        "recorder: {} recorded, {} dropped, {} suspensions; sampler: {} rows x {} cols",
        rec.recorded(),
        rec.dropped(),
        suspends,
        series.len(),
        series.columns().len()
    );
    println!(
        "overhead: off {wall_off_ms:.1} ms, ring-only {wall_ring_ms:.1} ms, \
         full(+export) {wall_full_ms:.1} ms"
    );

    let doc = Json::obj([
        ("bench", Json::str("telemetry")),
        ("design", Json::str("Base+D+H+P")),
        ("horizon_ns", Json::num(args.horizon_ns)),
        ("seed", Json::int(args.seed)),
        ("shards", Json::int(SHARDS as u64)),
        ("chunk_bytes", Json::int(CHUNK_BYTES)),
        ("preemption", Json::str("kick")),
        (
            "jobs_completed",
            Json::int(serving.runtime().records().len() as u64),
        ),
        (
            "trace",
            Json::obj([
                ("events", Json::int(summary.events as u64)),
                ("device_slices", Json::int(summary.device_slices as u64)),
                ("async_slices", Json::int(summary.async_slices as u64)),
                ("counter_samples", Json::int(summary.counter_samples as u64)),
                ("tracks", Json::int(summary.tracks as u64)),
                ("recorded", Json::int(rec.recorded())),
                ("dropped", Json::int(rec.dropped())),
                ("suspensions", Json::int(suspends as u64)),
                ("deterministic", Json::Bool(true)),
            ]),
        ),
        (
            "snapshot",
            parse(&counters_text).expect("counter dump parses"),
        ),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {}", args.out);
}
