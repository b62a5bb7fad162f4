//! Async host-interface sweep: ring depth × interrupt coalescing ×
//! chunk size under a saturating single-tenant load, measuring how much
//! of the driver-bound serving capacity the doorbell/queue-pair path
//! recovers over the synchronous handshake (depth 1, coalescing off).
//!
//! ```text
//! cargo run --release -p pim-bench --bin hostq_sweep -- \
//!     [--smoke|--full] [--seed S] [--out PATH]
//! ```
//!
//! The tenant offers an open-loop Poisson overload (≈ 2x the engine's
//! one-shot peak) of 1 MiB jobs over all 512 PIM cores, so serviced bytes
//! per unit time measure *capacity*, not offered load. Per chunk size,
//! every (depth, coalescing) cell runs twice — sweep continuation off
//! (every chunk re-publishes its full address buffer) and on (a chunk
//! staged behind its predecessor reloads the held sweep cursor at the
//! packed-context price) — and reports goodput, its recovery ratio
//! over the synchronous baseline, interrupts per job, and the observed
//! in-flight ring depth; results land in `BENCH_hostq.json`
//! (bit-identical across reruns of the same flags).

use pim_bench::flag_val;
use pim_bench::json::{write_json, Json};
use pim_runtime::{
    policy_by_name, HostQueueConfig, Runtime, RuntimeConfig, ServingSystem, TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};

/// 2 KiB per core x all 512 cores = 1 MiB jobs: spanning every PIM
/// channel (core ids are channel-major, so a small-core job would pin
/// PIM-MS to one channel and cap the engine well below its peak), and
/// large enough that every swept chunk size splits them into several
/// descriptors.
const PER_CORE: u64 = 2 << 10;
const CORES: u32 = 512;
/// Offered ≈ 66 GB/s, roughly 2x the one-shot DRAM→PIM peak: the DCE is
/// never starved by the arrival process, only by the host interface.
const MEAN_NS: f64 = 16_000.0;

const DEPTHS: [usize; 4] = [1, 2, 4, 8];
const CHUNKS_KIB: [u64; 3] = [16, 64, 256];
/// (coalesce_count, timeout_ns) pairs; (1, 0) is coalescing off.
const COALESCE: [(u32, f64); 2] = [(1, 0.0), (4, 4_000.0)];

struct Args {
    horizon_ns: f64,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let horizon_ns = if argv.iter().any(|a| a == "--smoke") {
        40_000.0
    } else if argv.iter().any(|a| a == "--full") {
        1_000_000.0
    } else {
        250_000.0
    };
    Args {
        horizon_ns,
        seed: flag_val("--seed").map_or(0xD00BE11, |v| {
            v.parse().expect("--seed requires an integer")
        }),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_hostq.json".to_string()),
    }
}

struct Cell {
    chunk_kib: u64,
    depth: usize,
    coalesce: (u32, f64),
    continuation: bool,
    goodput_gbps: f64,
    json: Json,
}

fn run_cell(
    chunk_kib: u64,
    depth: usize,
    coalesce: (u32, f64),
    continuation: bool,
    args: &Args,
) -> Cell {
    let hostq = HostQueueConfig {
        depth,
        coalesce_count: coalesce.0,
        coalesce_timeout_ns: coalesce.1,
        poll_period_ps: 312,
    };
    let rt_cfg = RuntimeConfig {
        chunk_bytes: chunk_kib << 10,
        open_until_ns: args.horizon_ns,
        seed: args.seed,
        hostq,
        sweep_continuation: continuation,
        ..RuntimeConfig::default()
    };
    let tenants = vec![TenantSpec::poisson("load", MEAN_NS, PER_CORE, CORES)];
    let runtime = Runtime::new(
        rt_cfg,
        tenants,
        policy_by_name("fcfs", rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.sample_ns = 100_000.0;
    let mut serving = ServingSystem::new(cfg, runtime);
    serving.run_for(args.horizon_ns);

    let rt = serving.runtime();
    let span = args.horizon_ns;
    let (_, stats) = rt.tenant_stats()[0];
    let goodput = stats.serviced_gbps(span);
    let host = rt.host_stats();
    let json = Json::obj([
        ("chunk_kib", Json::int(chunk_kib)),
        ("depth", Json::int(depth as u64)),
        ("coalesce_count", Json::int(coalesce.0 as u64)),
        ("coalesce_timeout_ns", Json::num(coalesce.1)),
        ("continuation", Json::Bool(continuation)),
        ("goodput_gbps", Json::num(goodput)),
        ("jobs_completed", Json::int(stats.completed)),
        ("chunks_dispatched", Json::int(rt.chunks_dispatched())),
        ("continuations_staged", Json::int(rt.continuations_staged())),
        ("doorbells", Json::int(host.doorbells)),
        ("interrupts", Json::int(host.interrupts)),
        ("interrupts_per_job", Json::num(host.interrupts_per_job)),
        ("interrupts_per_chunk", Json::num(host.interrupts_per_chunk)),
        ("fired_on_timer", Json::int(host.fired_on_timer)),
        ("max_in_flight", Json::int(host.max_in_flight as u64)),
        ("mean_in_flight", Json::num(host.mean_in_flight)),
        ("e2e_p50_ns", Json::num(stats.e2e.p50())),
        ("e2e_p99_ns", Json::num(stats.e2e.p99())),
        ("backlog_at_horizon", Json::int(rt.backlog() as u64)),
    ]);
    println!(
        "  chunk {chunk_kib:>4} KiB depth {depth:>2} coalesce {:>1}@{:>6} ns cont {}: \
         {goodput:>6.2} GB/s  irq/job {:>5.2}  inflight mean {:>4.2} max {}",
        coalesce.0,
        coalesce.1,
        if continuation { "on " } else { "off" },
        host.interrupts_per_job,
        host.mean_in_flight,
        host.max_in_flight
    );
    Cell {
        chunk_kib,
        depth,
        coalesce,
        continuation,
        goodput_gbps: goodput,
        json,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "hostq_sweep: {} us horizon, 1 MiB jobs over {CORES} cores, offered ~{:.0} GB/s",
        args.horizon_ns / 1000.0,
        (PER_CORE * CORES as u64) as f64 / MEAN_NS
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &chunk_kib in &CHUNKS_KIB {
        for &coalesce in &COALESCE {
            for &depth in &DEPTHS {
                // Depth 1 with coalescing is pointless (one in flight);
                // keep the grid meaningful.
                if depth == 1 && coalesce.0 > 1 {
                    continue;
                }
                for continuation in [false, true] {
                    cells.push(run_cell(chunk_kib, depth, coalesce, continuation, &args));
                }
            }
        }
    }

    // Capacity recovery per chunk size: every rebuild-path cell vs. the
    // synchronous baseline (depth 1, coalescing off, continuation off —
    // the historical grid, so recovery ratios stay comparable across
    // bench revisions).
    let mut recovery = Vec::new();
    let mut best_recovery_64k = 0.0f64;
    for &chunk_kib in &CHUNKS_KIB {
        let base = cells
            .iter()
            .find(|c| {
                c.chunk_kib == chunk_kib && c.depth == 1 && c.coalesce.0 == 1 && !c.continuation
            })
            .expect("baseline cell present")
            .goodput_gbps;
        for c in cells
            .iter()
            .filter(|c| c.chunk_kib == chunk_kib && !c.continuation)
        {
            let ratio = if base > 0.0 {
                c.goodput_gbps / base
            } else {
                0.0
            };
            if chunk_kib == 64 {
                best_recovery_64k = best_recovery_64k.max(ratio);
            }
            recovery.push(Json::obj([
                ("chunk_kib", Json::int(chunk_kib)),
                ("depth", Json::int(c.depth as u64)),
                ("coalesce_count", Json::int(c.coalesce.0 as u64)),
                ("sync_gbps", Json::num(base)),
                ("goodput_gbps", Json::num(c.goodput_gbps)),
                ("recovery", Json::num(ratio)),
            ]));
        }
    }
    println!(
        "\nbest recovery at 64 KiB chunks: {best_recovery_64k:.2}x over the synchronous path{}",
        if best_recovery_64k >= 1.5 {
            " (>= 1.5x target met)"
        } else {
            " (below the 1.5x target!)"
        }
    );

    // Serving-aware PIM-MS: per (chunk, depth, coalesce) point, the
    // goodput ratio of the continuation path over the rebuild path.
    // Small chunks are where the full address-buffer re-publish
    // dominates the round trip, so the headline is the 16 KiB
    // deep-ring cell.
    let mut continuation_gain = Vec::new();
    let mut gain_16k_deep = 0.0f64;
    for off in cells.iter().filter(|c| !c.continuation) {
        let on = cells
            .iter()
            .find(|c| {
                c.continuation
                    && c.chunk_kib == off.chunk_kib
                    && c.depth == off.depth
                    && c.coalesce == off.coalesce
            })
            .expect("every cell runs both ways");
        let ratio = if off.goodput_gbps > 0.0 {
            on.goodput_gbps / off.goodput_gbps
        } else {
            0.0
        };
        if off.chunk_kib == 16 && off.depth == 8 && off.coalesce.0 == 1 {
            gain_16k_deep = ratio;
        }
        continuation_gain.push(Json::obj([
            ("chunk_kib", Json::int(off.chunk_kib)),
            ("depth", Json::int(off.depth as u64)),
            ("coalesce_count", Json::int(off.coalesce.0 as u64)),
            ("rebuild_gbps", Json::num(off.goodput_gbps)),
            ("continuation_gbps", Json::num(on.goodput_gbps)),
            ("gain", Json::num(ratio)),
        ]));
    }
    println!(
        "continuation gain at 16 KiB chunks, depth 8: {gain_16k_deep:.2}x over the rebuild path{}",
        if gain_16k_deep >= 1.15 {
            " (>= 1.15x target met)"
        } else {
            " (below the 1.15x target!)"
        }
    );

    let doc = Json::obj([
        ("bench", Json::str("hostq_sweep")),
        ("design", Json::str("Base+D+H+P")),
        ("horizon_ns", Json::num(args.horizon_ns)),
        ("seed", Json::int(args.seed)),
        ("job_bytes", Json::int(PER_CORE * CORES as u64)),
        (
            "offered_gbps",
            Json::num((PER_CORE * CORES as u64) as f64 / MEAN_NS),
        ),
        ("best_recovery_64k", Json::num(best_recovery_64k)),
        ("continuation_gain_16k_deep", Json::num(gain_16k_deep)),
        (
            "runs",
            Json::Arr(cells.into_iter().map(|c| c.json).collect()),
        ),
        ("recovery", Json::Arr(recovery)),
        ("continuation_gain", Json::Arr(continuation_gain)),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {}", args.out);
}
