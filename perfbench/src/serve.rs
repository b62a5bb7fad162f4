//! The serving workloads: open-loop tenants whose arrivals the benchmark
//! generates from the seed and hands to the runtime as fixed traces.
//!
//! Each tenant gets exactly `horizon / mean gap` arrivals placed
//! uniformly at random over the horizon: a Poisson process conditioned
//! on its count. The offered bytes are then the same on every seed, so
//! seeds move the arrival pattern but not the load.

use crate::layers::LayerData;
use crate::measure::{median, tail, Better, Digest, Metric, SplitMix64};
use crate::{Reduced, Workload};
use pim_mmu::XferKind;
use pim_runtime::{
    policy_by_name, ArrivalProcess, HostQueueConfig, JobSizer, Placement, Preemption, Runtime,
    RuntimeConfig, ServingSystem, TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};

/// One tenant's traffic.
pub struct Tenant {
    name: &'static str,
    kind: XferKind,
    mean_gap_ns: f64,
    per_core_bytes: u64,
    n_cores: u32,
    /// Strict-priority class (lower is more important).
    priority: u32,
    /// Whether its jobs count toward the latency percentiles.
    latency_class: bool,
}

impl Tenant {
    fn job_bytes(&self) -> u64 {
        self.per_core_bytes * u64::from(self.n_cores)
    }

    fn jobs(&self, horizon_ns: f64) -> usize {
        // The mixes choose horizons that are whole multiples of each gap.
        (horizon_ns / self.mean_gap_ns).round() as usize
    }
}

/// A serving traffic mix and the runtime configuration it runs under.
pub struct Mix {
    horizon_ns: f64,
    tenants: &'static [Tenant],
    policy: &'static str,
    runtime: fn() -> RuntimeConfig,
}

/// `serve_small`: four tenants of 512 B jobs (64 B on each of 8 cores),
/// each a Poisson stream with a 20 µs mean gap, on the synchronous
/// depth-1 driver, FCFS, one shard. The host-side domains run every
/// edge while the engine is live and the controllers sit nearly idle.
pub const SMALL: Mix = Mix {
    horizon_ns: 80e6,
    tenants: &[
        small_tenant("t0"),
        small_tenant("t1"),
        small_tenant("t2"),
        small_tenant("t3"),
    ],
    policy: "fcfs",
    runtime: || RuntimeConfig {
        chunk_bytes: 16 << 10,
        ..RuntimeConfig::default()
    },
};

const fn small_tenant(name: &'static str) -> Tenant {
    Tenant {
        name,
        kind: XferKind::DramToPim,
        mean_gap_ns: 20e3,
        per_core_bytes: 64,
        n_cores: 8,
        priority: 1,
        latency_class: true,
    }
}

/// `serve_mixed`: an interactive 4 KiB tenant (Poisson, 1 µs mean gap)
/// beside one scatter and one gather tenant of 256 KiB jobs (Poisson,
/// 40 µs each), on two least-loaded shards with depth-4 rings,
/// coalescing 2 @ 500 ns, sweep continuation on, channel affinity off,
/// strict priority with kick preemption, 64 KiB chunks and a 128-core
/// stride between tenants.
pub const MIXED: Mix = Mix {
    horizon_ns: 480e3,
    tenants: &[
        Tenant {
            name: "interactive",
            kind: XferKind::DramToPim,
            mean_gap_ns: 1e3,
            per_core_bytes: 64,
            n_cores: 64,
            priority: 0,
            latency_class: true,
        },
        Tenant {
            name: "scatter",
            kind: XferKind::DramToPim,
            mean_gap_ns: 40e3,
            per_core_bytes: 4 << 10,
            n_cores: 64,
            priority: 1,
            latency_class: false,
        },
        Tenant {
            name: "gather",
            kind: XferKind::PimToDram,
            mean_gap_ns: 40e3,
            per_core_bytes: 4 << 10,
            n_cores: 64,
            priority: 1,
            latency_class: false,
        },
    ],
    policy: "prio",
    runtime: || RuntimeConfig {
        chunk_bytes: 64 << 10,
        hostq: HostQueueConfig {
            depth: 4,
            coalesce_count: 2,
            coalesce_timeout_ns: 500.0,
            poll_period_ps: 312,
        },
        shards: 2,
        placement: Placement::LeastLoaded,
        preemption: Preemption::PriorityKick,
        core_stride: 128,
        sweep_continuation: true,
        channel_affinity: false,
        ..RuntimeConfig::default()
    },
};

/// A composed serving system and the arrivals it was given.
pub struct Served {
    sys: ServingSystem,
    arrivals: Vec<Vec<f64>>,
    drained: bool,
}

impl Mix {
    /// Each tenant's arrival times: `jobs` uniform draws over the
    /// horizon, sorted.
    fn arrivals(&self, seed: u64) -> Vec<Vec<f64>> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut rng =
                    SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(i as u64 + 1));
                let mut times: Vec<f64> = (0..t.jobs(self.horizon_ns))
                    .map(|_| rng.unit() * self.horizon_ns)
                    .collect();
                times.sort_by(f64::total_cmp);
                times
            })
            .collect()
    }

    /// Runs must drain by then.
    fn deadline_ns(&self) -> f64 {
        2.0 * self.horizon_ns
    }
}

impl Workload for Mix {
    type Input = Served;
    type Outcome = Served;
    const SEEDED: bool = true;

    fn setup(&self, seed: u64, traced: bool) -> Served {
        let arrivals = self.arrivals(seed);
        let tenants = self
            .tenants
            .iter()
            .zip(&arrivals)
            .map(|(t, times)| TenantSpec {
                name: t.name.to_string(),
                kind: t.kind,
                arrival: ArrivalProcess::Trace(times.clone()),
                sizer: JobSizer::Fixed {
                    per_core_bytes: t.per_core_bytes,
                    n_cores: t.n_cores,
                },
                priority: t.priority,
                weight: 1,
                class: 0,
            })
            .collect();
        let rt_cfg = RuntimeConfig {
            open_until_ns: self.horizon_ns,
            seed,
            ..(self.runtime)()
        };
        let policy = policy_by_name(self.policy, rt_cfg.chunk_bytes).expect("a built-in policy");
        let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
        // One power-sampling window per run: the sampler has no bearing
        // on serving results.
        cfg.sample_ns = 1e9;
        let mut sys = ServingSystem::new(cfg, Runtime::new(rt_cfg, tenants, policy));
        if traced {
            sys.enable_self_profile();
        }
        Served {
            sys,
            arrivals,
            drained: false,
        }
    }

    fn run(&self, mut s: Served) -> Served {
        s.drained = s.sys.run_until_drained(self.deadline_ns());
        s
    }

    fn reduce(&self, s: &Served) -> Reduced {
        let rt = s.sys.runtime();
        let records = rt.records();
        let mut problems = Vec::new();
        if !s.drained {
            problems.push(format!(
                "did not drain before the {} ns deadline",
                self.deadline_ns()
            ));
        }
        if rt.missed_dispatches() != 0 {
            problems.push(format!(
                "{} missed dispatches under a work-conserving policy",
                rt.missed_dispatches()
            ));
        }

        // Every generated arrival completes exactly once, with its own
        // id and its full payload.
        let offered: u64 = self
            .tenants
            .iter()
            .zip(&s.arrivals)
            .map(|(t, a)| t.job_bytes() * a.len() as u64)
            .sum();
        let attempted: u64 = s.arrivals.iter().map(|a| a.len() as u64).sum();
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != records.len() {
            problems.push(format!("{} duplicate job ids", records.len() - ids.len()));
        }
        let mut missing = 0u64;
        for (i, (t, want)) in self.tenants.iter().zip(&s.arrivals).enumerate() {
            let mut got: Vec<f64> = records
                .iter()
                .filter(|r| r.tenant == i)
                .map(|r| r.submit_ns)
                .collect();
            got.sort_by(f64::total_cmp);
            let matched = matched_arrivals(want, &got);
            missing += want.len() as u64 - matched;
            if matched != want.len() as u64 || got.len() != want.len() {
                problems.push(format!(
                    "tenant {}: {} arrivals, {} completions, {matched} matched",
                    t.name,
                    want.len(),
                    got.len()
                ));
            }
            let wrong = records
                .iter()
                .filter(|r| r.tenant == i && r.bytes != t.job_bytes())
                .count();
            if wrong > 0 {
                missing += wrong as u64;
                problems.push(format!("tenant {}: {wrong} jobs of the wrong size", t.name));
            }
        }
        let done_bytes: u64 = records.iter().map(|r| r.bytes).sum();
        if done_bytes != offered {
            problems.push(format!("completed {done_bytes} bytes of {offered} offered"));
        }
        let lines: u64 = s
            .sys
            .system()
            .engines()
            .iter()
            .map(|e| e.stats().lines_done)
            .sum();
        if lines * 64 != offered {
            problems.push(format!("engines moved {lines} lines for {offered} bytes"));
        }
        let failed = if problems.is_empty() {
            0
        } else {
            missing.max(1)
        };

        let mut digest = Digest::new();
        for r in records {
            digest.word(r.id);
            digest.word(r.tenant as u64);
            digest.f64(r.submit_ns);
            digest.f64(r.dispatch_ns);
            digest.f64(r.complete_ns);
            digest.word(r.bytes);
        }
        let hs = rt.host_stats();
        for w in [
            hs.doorbells,
            hs.descriptors,
            hs.interrupts,
            hs.fired_on_timer,
            hs.recalls,
            rt.preemptions(),
            rt.chunks_dispatched(),
        ] {
            digest.word(w);
        }
        for p in s.sys.system().self_profile() {
            digest.word(p.fires);
            digest.word(p.skipped);
        }

        let jobs = records.len().max(1) as f64;
        let first_ns = records
            .iter()
            .map(|r| r.submit_ns)
            .fold(f64::INFINITY, f64::min);
        let last_ns = records.iter().map(|r| r.complete_ns).fold(0.0, f64::max);
        let goodput = done_bytes as f64 / (last_ns - first_ns);
        let lat_us: Vec<f64> = records
            .iter()
            .filter(|r| self.tenants[r.tenant].latency_class)
            .map(|r| r.e2e_ns() / 1e3)
            .collect();
        let mut sim = Vec::new();
        let mut notes = vec![
            "goodput_gbps: completed payload bytes over first arrival to last completion".into(),
        ];
        if lat_us.is_empty() {
            problems.push("no latency samples".into());
        } else {
            sim.push(Metric::new(
                "lat_p50_us",
                median(&lat_us),
                "us",
                Better::Lower,
            ));
            match tail(&lat_us) {
                Some(t) => {
                    sim.push(Metric::new("lat_tail_us", t.value, "us", Better::Lower));
                    notes.push(format!(
                        "lat_tail_us is {} of {} latency samples ({} beyond it); latency counts {}",
                        t.label(),
                        t.n,
                        t.beyond,
                        self.latency_tenants()
                    ));
                }
                None => problems.push(format!(
                    "{} latency samples: too few for a tail",
                    lat_us.len()
                )),
            }
        }
        sim.push(Metric::new(
            "irq_per_job",
            hs.interrupts as f64 / jobs,
            "irq/job",
            Better::Lower,
        ));
        Reduced {
            digest,
            ops: attempted,
            failed,
            problems,
            payload_bytes: offered,
            goodput_gbps: goodput,
            sim,
            notes,
        }
    }

    fn layers(&self, s: &Served) -> Option<LayerData> {
        Some(LayerData::of_serving(&s.sys))
    }
}

impl Mix {
    fn latency_tenants(&self) -> String {
        let names: Vec<&str> = self
            .tenants
            .iter()
            .filter(|t| t.latency_class)
            .map(|t| t.name)
            .collect();
        if names.len() == self.tenants.len() {
            "every tenant".into()
        } else {
            format!("tenants {} only", names.join(", "))
        }
    }
}

/// How many of the sorted arrival times `want` appear, bit for bit, in
/// the sorted completed-job submit times `got` (each matched once).
fn matched_arrivals(want: &[f64], got: &[f64]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < want.len() && j < got.len() {
        match want[i].total_cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_match_exactly_once() {
        assert_eq!(
            matched_arrivals(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 2.0, 3.0]),
            4
        );
        // A duplicated completion cannot stand in for a lost one.
        assert_eq!(matched_arrivals(&[1.0, 2.0, 3.0], &[1.0, 1.0, 3.0]), 2);
        // A bit-level difference is a mismatch.
        assert_eq!(matched_arrivals(&[1.0], &[1.0 + f64::EPSILON]), 0);
        assert_eq!(matched_arrivals(&[1.0, 2.0], &[]), 0);
    }

    #[test]
    fn generated_inputs_repeat_per_seed_and_fix_the_load() {
        let a = SMALL.arrivals(3);
        assert_eq!(a, SMALL.arrivals(3));
        assert_ne!(a, SMALL.arrivals(4));
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), vec![4_000; 4]);
        for times in &a {
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times.iter().all(|&t| (0.0..SMALL.horizon_ns).contains(&t)));
        }
        let m = MIXED.arrivals(3);
        assert_eq!(
            m.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![480, 12, 12]
        );
    }

    /// A small mix end to end: every check passes, and a tampered
    /// outcome fails the output checks.
    #[test]
    fn output_checks_pass_on_a_real_run_and_catch_a_lost_job() {
        // 100 jobs: the fewest that still leave ten samples beyond p90.
        let mix = Mix {
            horizon_ns: 500e3,
            ..SMALL
        };
        let out = mix.run(mix.setup(5, false));
        let red = mix.reduce(&out);
        assert!(red.problems.is_empty(), "{:?}", red.problems);
        assert_eq!((red.ops, red.failed), (100, 0));
        assert_eq!(red.payload_bytes, 100 * 512);
        // Same seed, traced: bit-identical outputs.
        let traced = mix.run(mix.setup(5, true));
        assert_eq!(mix.reduce(&traced).digest, red.digest);

        // Claim one more arrival than the runtime was given.
        let mut tampered = mix.run(mix.setup(5, false));
        tampered.arrivals[0].push(mix.horizon_ns - 1.0);
        let bad = mix.reduce(&tampered);
        assert!(bad.failed >= 1);
        assert!(
            bad.problems.iter().any(|p| p.contains("matched")),
            "{:?}",
            bad.problems
        );
        assert!(
            bad.problems.iter().any(|p| p.contains("offered")),
            "{:?}",
            bad.problems
        );
        // Undrained runs are failures too.
        let mut stuck = mix.run(mix.setup(5, false));
        stuck.drained = false;
        assert!(mix
            .reduce(&stuck)
            .problems
            .iter()
            .any(|p| p.contains("drain")));
    }
}
