//! Event-driven timing-core benchmark: wall-clock cost of the
//! cycle-stepped reference vs the next-event scheduler on a light-load
//! serving scenario (where idle-skip pays) and on the baseline's one-shot
//! software copy (where the CPU cores sleep while they wait on memory),
//! plus a large-N traffic run (a million jobs by default) that is only
//! practical under event-driven timing.
//!
//! ```text
//! cargo run --release -p pim-bench --bin timing_sweep -- \
//!     [--smoke|--full] [--seed S] [--out PATH]
//! ```
//!
//! The light-load and baseline cells run the *same* scenario under both
//! [`TimingMode`]s and cross-check every job record (every transfer
//! result field, energy included) to the `f64` bit before reporting the
//! speedup — the number is only meaningful if the two runs are
//! observably identical (the broader conformance suite is
//! `tests/timing_differential.rs`). Each cell records the scheduler's
//! events, domain fires and skipped edges, which pin how often each
//! clock domain wakes.

use pim_bench::json::{write_json, Json};
use pim_bench::{flag_val, SweepMeta};
use pim_mmu::XferKind;
use pim_runtime::{Fcfs, Runtime, RuntimeConfig, ServingSystem, TenantSpec};
use pim_sim::{
    run_transfer_timed, DesignPoint, SystemConfig, TimingMode, TransferResult, TransferSpec,
};

struct Args {
    smoke: bool,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    Args {
        smoke: argv.iter().any(|a| a == "--smoke"),
        seed: flag_val("--seed")
            .map_or(0x71b1e5, |v| v.parse().expect("--seed requires an integer")),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_timing.json".to_string()),
    }
}

fn serving(rt_cfg: RuntimeConfig, tenants: Vec<TenantSpec>, mode: TimingMode) -> ServingSystem {
    let runtime = Runtime::new(rt_cfg, tenants, Box::new(Fcfs));
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.sample_ns = 1e9;
    cfg.timing = mode;
    ServingSystem::new(cfg, runtime)
}

/// The light-load scenario: two sparse Poisson tenants whose jobs leave
/// the machine fully idle most of the time. The cycle-stepped driver
/// still pays for every 312 ps edge of that idle time; the event-driven
/// core parks through it.
fn light_load(horizon_ns: f64, seed: u64, mode: TimingMode) -> (ServingSystem, SweepMeta) {
    let rt_cfg = RuntimeConfig {
        chunk_bytes: 16 << 10,
        open_until_ns: horizon_ns,
        seed,
        ..RuntimeConfig::default()
    };
    let tenants = vec![
        TenantSpec::poisson("a", 60_000.0, 256, 64),
        TenantSpec::poisson("b", 90_000.0, 128, 64),
    ];
    let mut sys = serving(rt_cfg, tenants, mode);
    let meta = SweepMeta::measure(|| {
        sys.run_for(horizon_ns);
        (sys.now_ns(), sys.system().timing_stats())
    });
    (sys, meta)
}

/// Cross-check the two runs' job records to the bit; a speedup between
/// diverging runs would be meaningless.
fn assert_identical(cs: &ServingSystem, ed: &ServingSystem) {
    let (a, b) = (cs.runtime().records(), ed.runtime().records());
    assert_eq!(a.len(), b.len(), "record count diverged across modes");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.id, x.tenant, x.bytes, x.complete_ns.to_bits()),
            (y.id, y.tenant, y.bytes, y.complete_ns.to_bits()),
            "job record diverged across timing modes"
        );
    }
}

/// Payload of the baseline one-shot cell.
const BASELINE_BYTES: u64 = 256 << 10;

/// The baseline one-shot cell: a DRAM→PIM transfer by the software copy
/// threads, whose cores spend most cycles stalled on memory.
fn baseline_one_shot(mode: TimingMode) -> (TransferResult, SweepMeta) {
    let mut cfg = SystemConfig::table1(DesignPoint::Baseline);
    cfg.timing = mode;
    let spec = TransferSpec::simple(XferKind::DramToPim, BASELINE_BYTES);
    let mut result = None;
    let meta = SweepMeta::measure(|| {
        let (r, stats) = run_transfer_timed(&cfg, &spec);
        let sim_ns = r.elapsed_ns;
        result = Some(r);
        (sim_ns, stats)
    });
    (result.expect("the cell ran"), meta)
}

fn transfer_cell(label: &str, meta: &SweepMeta) -> Json {
    Json::obj([("mode", Json::str(label)), ("meta", meta.json())])
}

/// The large-N point: sustained multi-tenant traffic sized to complete
/// `target_jobs` small transfers, run under event-driven timing only —
/// the cycle-stepped driver would spend hours stepping the idle edges.
fn large_n(target_jobs: u64, seed: u64) -> (ServingSystem, SweepMeta) {
    const TENANTS: u64 = 4;
    // Aggregate inter-arrival 5 µs against the driver's ~3.5 µs
    // occupancy per doorbell+interrupt (the serializing resource for
    // 512 B jobs on one shard): ~70% utilized, so the queue stays
    // finite and the run drains, while arrivals still overlap driver
    // windows often enough to exercise the stalled-host sleep.
    const MEAN_NS: f64 = 20_000.0;
    // Poisson arrivals: expected jobs = horizon * TENANTS / MEAN_NS.
    // 5% headroom over the target absorbs seed-to-seed variance (the
    // standard deviation at a million arrivals is about a thousand).
    let open_until_ns = target_jobs as f64 * MEAN_NS / TENANTS as f64 * 1.05;
    let rt_cfg = RuntimeConfig {
        chunk_bytes: 16 << 10,
        open_until_ns,
        seed,
        ..RuntimeConfig::default()
    };
    let tenants = (0..TENANTS)
        .map(|i| TenantSpec::poisson(&format!("t{i}"), MEAN_NS, 64, 8))
        .collect();
    let mut sys = serving(rt_cfg, tenants, TimingMode::EventDriven);
    let meta = SweepMeta::measure(|| {
        let drained = sys.run_until_drained(open_until_ns * 4.0);
        assert!(drained, "large-N run failed to drain");
        (sys.now_ns(), sys.system().timing_stats())
    });
    (sys, meta)
}

fn mode_cell(label: &str, sys: &ServingSystem, meta: &SweepMeta) -> Json {
    Json::obj([
        ("mode", Json::str(label)),
        (
            "jobs_completed",
            Json::int(sys.runtime().records().len() as u64),
        ),
        ("meta", meta.json()),
    ])
}

fn main() {
    let args = parse_args();
    let light_horizon_ns = if args.smoke { 300_000.0 } else { 2_000_000.0 };
    let target_jobs: u64 = if args.smoke { 100_000 } else { 1_000_000 };

    println!(
        "timing_sweep: light-load {} us horizon under both modes, then {} jobs event-driven",
        light_horizon_ns / 1e3,
        target_jobs
    );

    let (cs_sys, cs_meta) = light_load(light_horizon_ns, args.seed, TimingMode::CycleStepped);
    let (ed_sys, ed_meta) = light_load(light_horizon_ns, args.seed, TimingMode::EventDriven);
    assert_identical(&cs_sys, &ed_sys);
    assert_eq!(
        cs_meta.edges_skipped, 0,
        "cycle-stepped reference must not skip edges"
    );
    assert!(
        ed_meta.edges_skipped > 0,
        "light load must engage idle-skip"
    );
    let speedup = cs_meta.wall_ms / ed_meta.wall_ms.max(1e-9);
    println!(
        "  cycle-stepped: {:>8.1} ms wall, {:>12} events, {:>8.2e} sim ns/s",
        cs_meta.wall_ms,
        cs_meta.events_fired,
        cs_meta.sim_ns_per_wall_s()
    );
    println!(
        "  event-driven : {:>8.1} ms wall, {:>12} events ({} edges skipped), {:>8.2e} sim ns/s",
        ed_meta.wall_ms,
        ed_meta.events_fired,
        ed_meta.edges_skipped,
        ed_meta.sim_ns_per_wall_s()
    );
    println!(
        "  -> {speedup:.1}x wall-clock, records bit-identical ({} jobs){}",
        cs_sys.runtime().records().len(),
        if speedup >= 10.0 {
            ""
        } else {
            "  (below the 10x target!)"
        }
    );

    let (cs_base, cs_base_meta) = baseline_one_shot(TimingMode::CycleStepped);
    let (ed_base, ed_base_meta) = baseline_one_shot(TimingMode::EventDriven);
    if let Some(d) = cs_base.first_difference(&ed_base) {
        panic!("baseline one-shot diverged across timing modes: {d}");
    }
    println!(
        "  baseline one-shot {} KiB: cycle-stepped {:.1} ms wall, {} events; \
         event-driven {:.1} ms wall, {} events ({} edges skipped); results bit-identical",
        BASELINE_BYTES >> 10,
        cs_base_meta.wall_ms,
        cs_base_meta.events_fired,
        ed_base_meta.wall_ms,
        ed_base_meta.events_fired,
        ed_base_meta.edges_skipped
    );

    let (big_sys, big_meta) = large_n(target_jobs, args.seed);
    let jobs = big_sys.runtime().records().len() as u64;
    assert!(
        jobs >= target_jobs,
        "large-N run completed {jobs} jobs, wanted {target_jobs}"
    );
    let jobs_per_wall_s = jobs as f64 / (big_meta.wall_ms / 1e3);
    println!(
        "  large-N      : {jobs} jobs over {:.1} ms sim in {:.1} ms wall \
         ({:.0} jobs/s, {:.2e} sim ns/s, {} edges skipped)",
        big_meta.sim_ns / 1e6,
        big_meta.wall_ms,
        jobs_per_wall_s,
        big_meta.sim_ns_per_wall_s(),
        big_meta.edges_skipped
    );

    let doc = Json::obj([
        ("bench", Json::str("timing_sweep")),
        ("design", Json::str("Base+D+H+P")),
        ("seed", Json::int(args.seed)),
        (
            "light_load",
            Json::obj([
                ("horizon_ns", Json::num(light_horizon_ns)),
                (
                    "cycle_stepped",
                    mode_cell("cycle-stepped", &cs_sys, &cs_meta),
                ),
                ("event_driven", mode_cell("event-driven", &ed_sys, &ed_meta)),
                ("wall_speedup", Json::num(speedup)),
                ("records_bit_identical", Json::Bool(true)),
            ]),
        ),
        (
            "baseline_one_shot",
            Json::obj([
                ("design", Json::str("Base")),
                ("direction", Json::str("dram->pim")),
                ("bytes", Json::int(BASELINE_BYTES)),
                (
                    "cycle_stepped",
                    transfer_cell("cycle-stepped", &cs_base_meta),
                ),
                ("event_driven", transfer_cell("event-driven", &ed_base_meta)),
                ("results_bit_identical", Json::Bool(true)),
            ]),
        ),
        (
            "large_n",
            Json::obj([
                ("target_jobs", Json::int(target_jobs)),
                ("jobs_completed", Json::int(jobs)),
                ("jobs_per_wall_s", Json::num(jobs_per_wall_s)),
                ("meta", big_meta.json()),
            ]),
        ),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {}", args.out);
}
