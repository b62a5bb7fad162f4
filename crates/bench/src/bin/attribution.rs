//! Latency-attribution harness: sweep offered load across the
//! saturation knee under two scheduling policies, join every job's
//! span stream into a stage waterfall, and report where each
//! configuration's latency actually goes.
//!
//! Checks the invariants the attribution pipeline promises:
//!
//! * **conservation** — every attributed job's stage durations sum to
//!   its end-to-end latency to the nanosecond;
//! * **recorder accounting** — `recorded + dropped == offered` on the
//!   flight ring;
//! * **determinism** — the whole sweep rerun renders byte-identical
//!   markdown and JSON reports, and the exported trace is byte-stable;
//! * **the saturation story** — below the knee the dominant stage is
//!   device service; past it queue-wait takes over;
//! * the full Perfetto export (waterfall args on job slices, SLO
//!   burn-rate counters, breach instants) validates.
//!
//! ```text
//! cargo run --release -p pim-bench --bin attribution -- \
//!     [--smoke|--full] [--seed S] [--out PATH] [--md PATH] [--trace PATH]
//! ```

use pim_bench::flag_val;
use pim_bench::json::{parse, write_json, Json};
use pim_bench::perfetto::{chrome_trace, validate_chrome_trace};
use pim_bench::report::{report_json, report_markdown, RunSection};
use pim_runtime::{
    policy_by_name, Attribution, HostQueueConfig, Preemption, Runtime, RuntimeConfig,
    ServingSystem, SloConfig, TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};

/// Interactive class: 4 KiB jobs (64 B x 64 cores).
const TOP_PER_CORE: u64 = 64;
/// Bulk class: 1 MiB jobs (16 KiB x 64 cores), four 256 KiB chunks.
const BULK_PER_CORE: u64 = 16 << 10;
const CORES: u32 = 64;
const CORE_STRIDE: u32 = 64;
/// Mean inter-arrivals at load 1.0 (the telemetry harness's sustained
/// mix, which the 2-shard machine serves with headroom).
const TOP_MEAN_NS: f64 = 12_000.0;
const BULK_MEAN_NS: f64 = 30_000.0;
const SHARDS: usize = 2;
const CHUNK_BYTES: u64 = 256 << 10;
/// Offered-load multipliers: well below the knee, near it, past it.
const LOADS: [f64; 3] = [0.4, 1.0, 2.2];

struct Args {
    horizon_ns: f64,
    seed: u64,
    out: String,
    md: String,
    trace: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let horizon_ns = if argv.iter().any(|a| a == "--smoke") {
        80_000.0
    } else if argv.iter().any(|a| a == "--full") {
        600_000.0
    } else {
        300_000.0
    };
    Args {
        horizon_ns,
        seed: flag_val("--seed").map_or(0xA77B, |v| v.parse().expect("--seed requires an integer")),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_attribution.json".to_string()),
        md: flag_val("--md").unwrap_or_else(|| "BENCH_attribution.md".to_string()),
        trace: flag_val("--trace").unwrap_or_else(|| "BENCH_attribution_trace.json".to_string()),
    }
}

/// The two-class SLO table: a tight interactive latency objective (the
/// one that burns past saturation) and a lax bulk objective with a
/// goodput floor.
fn slo_configs() -> Vec<SloConfig> {
    vec![
        SloConfig::latency("interactive", 25_000.0, 0.95).with_windows(20_000.0, 60_000.0),
        SloConfig::latency("bulk", 300_000.0, 0.9)
            .with_windows(20_000.0, 60_000.0)
            .with_goodput_floor(0.5),
    ]
}

fn tenants(load: f64) -> Vec<TenantSpec> {
    let mut top =
        TenantSpec::poisson("interactive", TOP_MEAN_NS / load, TOP_PER_CORE, CORES).with_class(0);
    top.priority = 0;
    let mut out = vec![top];
    for i in 0..2 {
        let mut bulk = TenantSpec::poisson(
            &format!("bulk{i}"),
            BULK_MEAN_NS / load,
            BULK_PER_CORE,
            CORES,
        )
        .with_class(1);
        bulk.priority = 1;
        out.push(bulk);
    }
    out
}

/// One analyzed sweep point.
struct Point {
    label: String,
    serving: ServingSystem,
    attribution: Attribution,
}

fn run_point(args: &Args, load: f64, policy: &str, preemption: Preemption) -> Point {
    let rt_cfg = RuntimeConfig {
        chunk_bytes: CHUNK_BYTES,
        open_until_ns: args.horizon_ns,
        seed: args.seed,
        hostq: HostQueueConfig {
            depth: 2,
            coalesce_count: 2,
            coalesce_timeout_ns: 500.0,
            poll_period_ps: 312,
        },
        shards: SHARDS,
        preemption,
        core_stride: CORE_STRIDE,
        telemetry: pim_runtime::TelemetryConfig {
            sample_ns: 2_000.0,
            ..pim_runtime::TelemetryConfig::on()
        },
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(
        rt_cfg,
        tenants(load),
        policy_by_name(policy, rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut serving = ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
    serving.attach_slo(slo_configs());
    serving.enable_self_profile();
    assert!(
        serving.run_until_drained(args.horizon_ns * 100.0),
        "load={load} {policy} must drain"
    );
    serving.flush_spans();

    let rec = serving.runtime().recorder();
    assert_eq!(
        rec.recorded() + rec.dropped(),
        rec.offered(),
        "recorder accounting"
    );
    assert_eq!(rec.dropped(), 0, "this sweep must fit the flight ring");
    let attribution = Attribution::from_recorder(rec);
    // Conservation: stages partition [arrival, complete] exactly.
    for j in attribution.jobs.iter().filter(|j| j.complete) {
        let sum: f64 = j.stages.iter().sum();
        assert!(
            (sum - j.e2e_ns()).abs() < 1e-6,
            "job {}: stages sum {sum} != e2e {} (load={load} {policy})",
            j.job,
            j.e2e_ns()
        );
    }
    assert_eq!(
        attribution.complete_jobs(),
        serving.runtime().records().len(),
        "every recorded job must be attributed"
    );
    Point {
        label: format!(
            "load={load:.1} policy={policy} preempt={}",
            preemption.name()
        ),
        serving,
        attribution,
    }
}

fn sweep(args: &Args) -> Vec<Point> {
    let mut points = Vec::new();
    for &load in &LOADS {
        for (policy, preemption) in [
            ("fcfs", Preemption::Off),
            ("prio", Preemption::PriorityKick),
        ] {
            points.push(run_point(args, load, policy, preemption));
        }
    }
    points
}

/// Render the sweep's report pair (markdown, JSON text).
fn render(points: &[Point]) -> (String, String) {
    let profiles: Vec<Vec<pim_sim::DomainProfile>> = points
        .iter()
        .map(|p| p.serving.system().self_profile())
        .collect();
    let sections: Vec<RunSection> = points
        .iter()
        .zip(profiles.iter())
        .map(|(p, prof)| RunSection {
            label: p.label.clone(),
            tenants: p
                .serving
                .runtime()
                .tenant_stats()
                .iter()
                .map(|(n, _)| n.to_string())
                .collect(),
            attribution: &p.attribution,
            slo: p.serving.slo(),
            profile: prof,
        })
        .collect();
    let title = "Latency attribution across the saturation knee";
    (
        report_markdown(title, &sections),
        report_json(title, &sections).render(),
    )
}

fn main() {
    let args = parse_args();
    println!(
        "attribution: {} us horizon, loads {LOADS:?}, fcfs/off vs prio/kick on {SHARDS} shards",
        args.horizon_ns / 1000.0
    );

    let points = sweep(&args);
    let (md, json_text) = render(&points);

    // Determinism: the whole sweep rerun renders byte-identical
    // reports (scheduler fire/skip counts included; wall time is
    // excluded by construction).
    let rerun = sweep(&args);
    let (md2, json2) = render(&rerun);
    assert_eq!(md, md2, "markdown report must be deterministic");
    assert_eq!(json_text, json2, "JSON report must be deterministic");

    // The saturation story, read off the prio/kick column.
    let dominant = |p: &Point| p.attribution.dominant_stage().expect("jobs ran").name();
    let kick: Vec<&Point> = points.iter().filter(|p| p.label.contains("prio")).collect();
    println!();
    for p in &kick {
        let slo = p.serving.slo().expect("attached");
        println!(
            "  {}: {} jobs, dominant {}, {} SLO breach instants",
            p.label,
            p.attribution.complete_jobs(),
            dominant(p),
            slo.breaches().len()
        );
    }
    assert_ne!(
        dominant(kick[0]),
        "queue-wait",
        "below the knee, latency must not be queueing"
    );
    assert_eq!(
        dominant(kick[kick.len() - 1]),
        "queue-wait",
        "past the knee, queue-wait must dominate"
    );

    // Export the saturated prio/kick run with the full analysis
    // overlay and validate it.
    let top = kick[kick.len() - 1];
    let rt = top.serving.runtime();
    let names: Vec<&str> = rt.tenant_stats().iter().map(|(n, _)| *n).collect();
    let trace = chrome_trace(
        rt.recorder(),
        &names,
        rt.config().shards,
        top.serving.sample_series(),
        Some(&top.attribution),
        top.serving.slo(),
    );
    let trace_text = trace.render();
    std::fs::write(&args.trace, &trace_text).expect("write trace file");
    let reparsed = parse(&trace_text).expect("exported trace parses");
    let summary = validate_chrome_trace(&reparsed).expect("exported trace validates");
    let breaches = top.serving.slo().expect("attached").breaches().len();
    assert!(
        breaches > 0,
        "the saturated run must burn its interactive SLO"
    );
    assert!(
        trace_text.contains("latency-burn"),
        "breach instants must be visible in the trace"
    );
    assert!(
        trace_text.contains("queue-wait"),
        "waterfall args must be on the job slices"
    );
    println!(
        "\ntrace: {} events, {} device slices, {} async slices, {} counter samples -> {}",
        summary.events,
        summary.device_slices,
        summary.async_slices,
        summary.counter_samples,
        args.trace
    );

    // The simulator's own cost, per clock domain (wall time is host
    // noise: printed here, never written to the report files).
    println!("\nself-profile of the saturated run (fires/skipped/wall):");
    for p in top.serving.system().self_profile() {
        println!(
            "  {:<10} {:>9} fires {:>9} skipped {:>9.3} ms",
            p.label,
            p.fires,
            p.skipped,
            p.wall_ns as f64 / 1e6
        );
    }

    std::fs::write(&args.md, &md).expect("write markdown report");
    let doc = Json::obj([
        ("bench", Json::str("attribution")),
        ("design", Json::str("Base+D+H+P")),
        ("horizon_ns", Json::num(args.horizon_ns)),
        ("seed", Json::int(args.seed)),
        ("shards", Json::int(SHARDS as u64)),
        ("chunk_bytes", Json::int(CHUNK_BYTES)),
        (
            "loads",
            Json::Arr(LOADS.iter().map(|&l| Json::num(l)).collect()),
        ),
        (
            "trace",
            Json::obj([
                ("events", Json::int(summary.events as u64)),
                ("counter_samples", Json::int(summary.counter_samples as u64)),
                ("breach_instants", Json::int(breaches as u64)),
                ("deterministic", Json::Bool(true)),
            ]),
        ),
        ("report", parse(&json_text).expect("report JSON parses")),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {} and {}", args.out, args.md);
}
