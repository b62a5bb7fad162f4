//! Serving-scenario sweep for the transfer-queue runtime: tenants ×
//! scheduling policy × load shape, reporting per-tenant latency
//! percentiles, achieved bandwidth and the Jain fairness index, and
//! emitting a machine-readable `BENCH_runtime.json`.
//!
//! ```text
//! cargo run --release -p pim-bench --bin runtime_serving -- \
//!     [--tenants N] [--policy fcfs|sjf|drr|prio] \
//!     [--load uniform|skewed|suite-mix] [--depth D] [--coalesce N,T_NS] \
//!     [--smoke|--full] [--seed S] [--out PATH]
//! ```
//!
//! `--policy`, `--load` and `--depth` pin a single configuration so one
//! sweep cell can be reproduced without editing code; unset, the bin
//! sweeps every scenario × policy at the synchronous host interface
//! (depth 1). `--depth`/`--coalesce` select the async doorbell path
//! (see `hostq_sweep` for the dedicated depth × coalescing study).
//!
//! Everything is seeded and single-threaded: two invocations with the
//! same flags produce bit-identical output files.

use pim_bench::flag_val;
use pim_bench::json::{write_json, Json};
use pim_runtime::{
    policy_by_name, ArrivalProcess, HostQueueConfig, JobSizer, Runtime, RuntimeConfig,
    ServingSystem, TenantSpec, POLICY_NAMES,
};
use pim_sim::{DesignPoint, SystemConfig};

const SCENARIOS: [&str; 3] = ["uniform", "skewed", "suite-mix"];

struct Args {
    tenants: usize,
    policy: Option<String>,
    load: Option<String>,
    hostq: HostQueueConfig,
    horizon_ns: f64,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let horizon_ns = if argv.iter().any(|a| a == "--smoke") {
        60_000.0
    } else if argv.iter().any(|a| a == "--full") {
        2_000_000.0
    } else {
        400_000.0
    };
    let mut hostq = HostQueueConfig::synchronous();
    if let Some(d) = flag_val("--depth") {
        hostq.depth = d.parse().expect("--depth requires a positive integer");
    }
    if let Some(c) = flag_val("--coalesce") {
        let (n, t) = c
            .split_once(',')
            .expect("--coalesce takes COUNT,TIMEOUT_NS");
        hostq.coalesce_count = n.parse().expect("coalesce count");
        hostq.coalesce_timeout_ns = t.parse().expect("coalesce timeout (ns)");
    }
    let load = flag_val("--load");
    if let Some(l) = &load {
        assert!(
            SCENARIOS.contains(&l.as_str()),
            "unknown load {l}; expected one of {SCENARIOS:?}"
        );
    }
    Args {
        tenants: flag_val("--tenants").map_or(4, |v| {
            v.parse().expect("--tenants requires a positive integer")
        }),
        policy: flag_val("--policy"),
        load,
        hostq,
        horizon_ns,
        seed: flag_val("--seed")
            .map_or(0xD15C0, |v| v.parse().expect("--seed requires an integer")),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_runtime.json".to_string()),
    }
}

/// Per-job shape used by the fixed-size scenarios: 1 KiB per core over
/// 64 cores = 64 KiB jobs.
const PER_CORE: u64 = 1024;
const CORES: u32 = 64;
const JOB_BYTES: f64 = (PER_CORE * CORES as u64) as f64;
/// Baseline per-tenant mean interarrival: offered ≈ 5.4 GB/s per tenant.
const MEAN_NS: f64 = 12_000.0;

fn scenario_tenants(scenario: &str, n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let mut t = match scenario {
                // Everyone offers the same open-loop Poisson load.
                "uniform" => TenantSpec::poisson(&format!("t{i}"), MEAN_NS, PER_CORE, CORES),
                // Tenant 0 offers 8x everyone else's byte rate.
                "skewed" => {
                    let mean = if i == 0 { MEAN_NS / 8.0 } else { MEAN_NS };
                    TenantSpec::poisson(&format!("t{i}"), mean, PER_CORE, CORES)
                }
                // Job sizes sampled from the PrIM suite's input shapes.
                "suite-mix" => TenantSpec {
                    name: format!("t{i}"),
                    kind: pim_mmu::XferKind::DramToPim,
                    arrival: ArrivalProcess::Poisson { mean_ns: 20_000.0 },
                    sizer: JobSizer::Suite {
                        cap_bytes: 1 << 20,
                        n_cores: CORES,
                    },
                    priority: 1,
                    weight: 1,
                    class: 0,
                },
                other => panic!("unknown scenario {other}"),
            };
            // Give strict priority something to differentiate: tenant
            // index is the priority class.
            t.priority = i as u32;
            t
        })
        .collect()
}

struct RunResult {
    scenario: &'static str,
    policy: &'static str,
    jain: f64,
    json: Json,
}

fn run_one(scenario: &'static str, policy: &str, args: &Args) -> RunResult {
    let rt_cfg = RuntimeConfig {
        chunk_bytes: 64 << 10,
        open_until_ns: args.horizon_ns,
        seed: args.seed,
        hostq: args.hostq,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(
        rt_cfg,
        scenario_tenants(scenario, args.tenants),
        policy_by_name(policy, rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.sample_ns = 100_000.0;
    let mut serving = ServingSystem::new(cfg, runtime);
    serving.run_for(args.horizon_ns);

    let rt = serving.runtime();
    let span = args.horizon_ns;
    let jain = rt.jain_by_bytes();
    let stats = rt.tenant_stats();
    let total_bytes: u64 = stats.iter().map(|(_, s)| s.bytes_serviced).sum();
    let total_gbps = total_bytes as f64 / span;
    let policy_name = rt.policy_name();

    let tenants_json: Vec<Json> = stats
        .iter()
        .map(|(name, s)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("submitted", Json::int(s.submitted)),
                ("completed", Json::int(s.completed)),
                ("bytes_completed", Json::int(s.bytes_completed)),
                ("bytes_serviced", Json::int(s.bytes_serviced)),
                ("goodput_gbps", Json::num(s.achieved_gbps(span))),
                ("serviced_gbps", Json::num(s.serviced_gbps(span))),
                ("queue_delay_p50_ns", Json::num(s.queue_delay.p50())),
                ("queue_delay_p99_ns", Json::num(s.queue_delay.p99())),
                ("service_p50_ns", Json::num(s.service.p50())),
                ("e2e_p50_ns", Json::num(s.e2e.p50())),
                ("e2e_p95_ns", Json::num(s.e2e.p95())),
                ("e2e_p99_ns", Json::num(s.e2e.p99())),
                ("e2e_mean_ns", Json::num(s.e2e.mean())),
                ("e2e_max_ns", Json::num(s.e2e.max())),
            ])
        })
        .collect();
    let json = Json::obj([
        ("scenario", Json::str(scenario)),
        ("policy", Json::str(policy_name)),
        ("jain_by_bytes", Json::num(jain)),
        ("total_gbps", Json::num(total_gbps)),
        ("chunks_dispatched", Json::int(rt.chunks_dispatched())),
        ("backlog_at_horizon", Json::int(rt.backlog() as u64)),
        ("tenants", Json::Arr(tenants_json)),
    ]);

    println!(
        "  {scenario:<10} {policy_name:<5} jain {jain:>6.3}  total {total_gbps:>6.2} GB/s  backlog {:>4}",
        rt.backlog()
    );
    for (name, s) in &stats {
        println!(
            "    {name:<4} {:>5} done  {:>7.2} GB/s  e2e p50 {:>9.0} ns  p95 {:>10.0}  p99 {:>10.0}",
            s.completed,
            s.serviced_gbps(span),
            s.e2e.p50(),
            s.e2e.p95(),
            s.e2e.p99()
        );
    }

    RunResult {
        scenario,
        policy: policy_name,
        jain,
        json,
    }
}

fn main() {
    let args = parse_args();
    // The sweep: every scenario × every requested policy. FCFS always
    // runs on the skewed scenario so the fairness comparison is present
    // even under a single --policy.
    let policies: Vec<&str> = match &args.policy {
        Some(p) => {
            assert!(
                POLICY_NAMES.contains(&p.as_str()),
                "unknown policy {p}; expected one of {POLICY_NAMES:?}"
            );
            vec![p.as_str()]
        }
        None => POLICY_NAMES.to_vec(),
    };

    let scenarios: Vec<&'static str> = SCENARIOS
        .iter()
        .filter(|s| args.load.as_deref().is_none_or(|l| l == **s))
        .copied()
        .collect();

    println!(
        "runtime_serving: {} tenants, horizon {} us, seed {:#x}, ring depth {}{}",
        args.tenants,
        args.horizon_ns / 1000.0,
        args.seed,
        args.hostq.depth,
        if args.hostq.coalescing_enabled() {
            format!(
                ", coalesce {}@{} ns",
                args.hostq.coalesce_count, args.hostq.coalesce_timeout_ns
            )
        } else {
            String::new()
        }
    );
    let mut runs: Vec<RunResult> = Vec::new();
    for scenario in scenarios {
        for p in &policies {
            runs.push(run_one(scenario, p, &args));
        }
        if scenario == "skewed" && !policies.contains(&"fcfs") {
            runs.push(run_one(scenario, "fcfs", &args));
        }
    }

    let fcfs_jain = runs
        .iter()
        .find(|r| r.scenario == "skewed" && r.policy == "fcfs")
        .map(|r| r.jain);
    let drr_jain = runs
        .iter()
        .find(|r| r.scenario == "skewed" && r.policy == "drr")
        .map(|r| r.jain);
    let mut fairness = vec![("scenario", Json::str("skewed"))];
    if let (Some(f), Some(d)) = (fcfs_jain, drr_jain) {
        println!(
            "\nskewed-load fairness: FCFS jain {f:.3} vs DRR jain {d:.3} -> DRR {}",
            if d > f {
                "strictly fairer"
            } else {
                "NOT fairer"
            }
        );
        fairness.push(("fcfs_jain", Json::num(f)));
        fairness.push(("drr_jain", Json::num(d)));
        fairness.push(("drr_strictly_fairer", Json::Bool(d > f)));
    }

    let doc = Json::obj([
        ("bench", Json::str("runtime_serving")),
        ("design", Json::str("Base+D+H+P")),
        ("tenants", Json::int(args.tenants as u64)),
        ("horizon_ns", Json::num(args.horizon_ns)),
        ("seed", Json::int(args.seed)),
        ("queue_depth", Json::int(args.hostq.depth as u64)),
        (
            "coalesce_count",
            Json::int(args.hostq.coalesce_count as u64),
        ),
        ("job_bytes", Json::num(JOB_BYTES)),
        (
            "runs",
            Json::Arr(runs.into_iter().map(|r| r.json).collect()),
        ),
        (
            "fairness_check",
            Json::Obj(
                fairness
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {}", args.out);
}
