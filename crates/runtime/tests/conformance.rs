//! The cross-policy conformance suite: one parameterized set of
//! invariants instantiated over **every scheduling policy × both shard
//! placements × all three preemption modes × sweep continuation on/off ×
//! channel affinity on/off** (and one- and multi-shard engine arrays),
//! so a new policy, placement, preemption mode or dispatch hint is
//! automatically held to the same contract:
//!
//! * **exactly-once / loss-free** — the completed job ids are exactly
//!   the submitted ids, no duplicates, no losses;
//! * **byte conservation** — every submitted byte is serviced and
//!   credited to its owning tenant, *including across mid-chunk
//!   preemptions* (a recalled chunk's partial bytes plus its resumed
//!   remainder must sum to the chunk);
//! * **work conservation** — the policy never declines a dispatch
//!   opportunity while dispatchable work exists;
//! * **bounded rings** — no shard's device-side ring ever exceeds its
//!   configured depth;
//! * **seeded replay** — two runs of the same seeded configuration are
//!   bit-identical (every `f64` in every record), for every cell of
//!   the matrix.
//!
//! These invariants were previously asserted piecemeal (and only for
//! the no-preemption runtime) across `policy_properties.rs`,
//! `shard_runtime.rs` and `hostq_runtime.rs`; this suite is the single
//! parameterized home. The deterministic sweep drives each cell twice:
//! through the testkit's cycle loop and through a [`ServingSystem`] on
//! the event-driven machine.

use pim_runtime::testkit::{quick_driver, run_to_drain_sharded, trace_tenant};
use pim_runtime::{
    policy_by_name, HostQueueConfig, Placement, Preemption, Runtime, RuntimeConfig, ServingSystem,
    TenantSpec, POLICY_NAMES,
};
use pim_sim::{DesignPoint, SystemConfig};
use proptest::prelude::*;

/// A quantum short enough that the big chunks below actually get
/// time-sliced under `Preemption::Quantum`.
const QUANTUM_CYCLES: u64 = 96;

/// The full preemption axis.
fn preemption_modes() -> [Preemption; 3] {
    Preemption::modes(QUANTUM_CYCLES)
}

/// Three tenants with distinct priority classes and DRR weights, mixing
/// chunk-sized and multi-chunk jobs so chunk-boundary *and* mid-chunk
/// preemption both have something to act on. Returns the specs plus
/// each tenant's expected total bytes.
fn mixed_tenants() -> (Vec<TenantSpec>, Vec<u64>) {
    // t0: latency-sensitive top class — small frequent jobs.
    // t1: bulk low class — *multi-chunk* jobs (3 × 16 KiB chunks at the
    //     suite's chunk_bytes), so with a depth-2 ring two chunks of
    //     one job can be in flight at once and *both* can be recalled
    //     before either resumes (regression: a second recall used to
    //     overwrite the first remainder and leak its bytes).
    // t2: middle class, medium jobs.
    let shapes: [(Vec<f64>, u64, u32, u32, u32); 3] = [
        (vec![100.0, 500.0, 900.0, 1_300.0], 256, 2, 0, 1),
        (vec![0.0, 40.0, 80.0, 120.0], 24_576, 2, 2, 2),
        (vec![20.0, 600.0, 1_200.0], 1_024, 4, 1, 1),
    ];
    let mut tenants = Vec::new();
    let mut expected = Vec::new();
    for (i, (times, per_core, n_cores, priority, weight)) in shapes.into_iter().enumerate() {
        expected.push(times.len() as u64 * per_core * n_cores as u64);
        let mut t = trace_tenant(&format!("t{i}"), times, per_core, n_cores);
        t.priority = priority;
        t.weight = weight;
        tenants.push(t);
    }
    (tenants, expected)
}

/// The dispatch-hint axis: `(sweep_continuation, channel_affinity)`.
/// Continued chunks retire chain-silent (no interrupt), and affinity
/// redirects least-loaded ties — both change what the rings see.
const HINTS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn build(
    policy: &str,
    placement: Placement,
    preemption: Preemption,
    shards: usize,
    depth: usize,
    (sweep_continuation, channel_affinity): (bool, bool),
) -> (Runtime, Vec<u64>) {
    let (tenants, expected) = mixed_tenants();
    let cfg = RuntimeConfig {
        // Big t1 jobs are a single 16 KiB chunk (256 lines): long
        // enough to be mid-flight when t0 arrives.
        chunk_bytes: 16 << 10,
        driver: quick_driver(),
        open_until_ns: 2_000.0,
        hostq: HostQueueConfig::with_depth(depth),
        shards,
        placement,
        preemption,
        sweep_continuation,
        channel_affinity,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(cfg, tenants, policy_by_name(policy, 4_096).unwrap());
    (rt, expected)
}

/// The contract every drained run must meet, whichever loop drove it.
fn assert_contract(
    rt: &Runtime,
    label: &str,
    expected: &[u64],
    preemption: Preemption,
    shards: usize,
    depth: usize,
) {
    // Exactly-once, loss-free.
    let total_jobs = 4 + 4 + 3;
    let mut ids: Vec<u64> = rt.records().iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..total_jobs).collect::<Vec<_>>(),
        "{label}: completion ids"
    );

    // Byte conservation per tenant — partial credits from recalled
    // chunks plus their resumed remainders must land exactly.
    for (i, (_, stats)) in rt.tenant_stats().iter().enumerate() {
        assert_eq!(stats.completed, stats.submitted, "{label}: t{i}");
        assert_eq!(stats.bytes_completed, expected[i], "{label}: t{i} goodput");
        assert_eq!(
            stats.bytes_serviced, expected[i],
            "{label}: t{i} serviced bytes"
        );
        assert_eq!(
            stats.bytes_submitted, expected[i],
            "{label}: t{i} offered bytes"
        );
    }

    // Work conservation.
    assert_eq!(rt.missed_dispatches(), 0, "{label}: policy idled");

    // Every suspension was resumed by drain time, and the host ring saw
    // exactly one recall per preemption.
    assert_eq!(rt.preemptions(), rt.resumes(), "{label}");
    assert_eq!(rt.host_stats().recalls, rt.preemptions(), "{label}");

    // Bounded rings, and per-shard stats sum to the aggregate.
    let agg = rt.host_stats();
    assert!(agg.max_in_flight <= depth, "{label}: ring overflow");
    let per_shard = rt.shard_host_stats();
    assert_eq!(per_shard.len(), shards, "{label}");
    let db: u64 = per_shard.iter().map(|s| s.doorbells).sum();
    assert_eq!(db, agg.doorbells, "{label}");
    let descs: u64 = per_shard.iter().map(|s| s.descriptors).sum();
    assert_eq!(descs, agg.descriptors, "{label}");

    // `Off` must never suspend anything.
    if preemption == Preemption::Off {
        assert_eq!(rt.preemptions(), 0, "{label}: Off suspended");
    }
}

/// The deterministic sweep over the whole matrix: every cell drains
/// with every invariant intact, both under the testkit's cycle loop and
/// on the event-driven machine (real controllers, exact host, engine
/// and controller horizons; shadow-checked under `--features
/// sanitize`).
#[test]
fn every_policy_placement_and_preemption_mode_meets_the_contract() {
    for policy in POLICY_NAMES {
        for placement in Placement::ALL {
            for preemption in preemption_modes() {
                for shards in [1usize, 3] {
                    for (depth, hints) in
                        [1usize, 2].into_iter().flat_map(|d| HINTS.map(|h| (d, h)))
                    {
                        let label = format!(
                            "{policy}/{}/{}/N={shards}/d={depth}/continuation={}/affinity={}",
                            placement.name(),
                            preemption.name(),
                            hints.0,
                            hints.1
                        );
                        let (mut rt, expected) =
                            build(policy, placement, preemption, shards, depth, hints);
                        let drained = run_to_drain_sharded(&mut rt, 20, 3_000_000);
                        assert!(drained.is_some(), "{label}: never drained");
                        assert_contract(&rt, &label, &expected, preemption, shards, depth);

                        let label = format!("{label}/event-driven");
                        let (rt, expected) =
                            build(policy, placement, preemption, shards, depth, hints);
                        let mut serving =
                            ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), rt);
                        assert!(serving.run_until_drained(1e7), "{label}: never drained");
                        let rt = serving.runtime();
                        assert_contract(rt, &label, &expected, preemption, shards, depth);
                    }
                }
            }
        }
    }
}

/// The matrix actually exercises mid-chunk preemption where it should:
/// strict priority + `PriorityKick` kicks the bulk tenant's big chunk
/// when the top class arrives, and `Quantum` time-slices it for every
/// policy (a 16 KiB chunk far exceeds the 96-cycle quantum while other
/// tenants wait).
#[test]
fn preemption_modes_actually_preempt_in_the_conformance_scenario() {
    let plain = HINTS[0];
    let (mut kicked, _) = build(
        "prio",
        Placement::HashPin,
        Preemption::PriorityKick,
        1,
        1,
        plain,
    );
    run_to_drain_sharded(&mut kicked, 20, 3_000_000).expect("drains");
    assert!(
        kicked.preemptions() > 0,
        "PriorityKick under strict priority must suspend the bulk chunk"
    );
    // The victim is the low class, never the top class.
    let stats = kicked.tenant_stats();
    assert_eq!(stats[0].1.preemptions, 0, "top class is never kicked");
    assert!(stats[1].1.preemptions > 0, "bulk class takes the kicks");

    for policy in POLICY_NAMES {
        let (mut rt, _) = build(
            policy,
            Placement::HashPin,
            Preemption::Quantum {
                device_cycles: QUANTUM_CYCLES,
            },
            1,
            1,
            plain,
        );
        run_to_drain_sharded(&mut rt, 20, 3_000_000).expect("drains");
        assert!(
            rt.preemptions() > 0,
            "{policy}: Quantum must time-slice 16 KiB chunks at a 96-cycle quantum"
        );
    }

    // PriorityKick degenerates to Off for policies with no urgency
    // notion.
    for policy in ["fcfs", "sjf", "drr"] {
        let (mut rt, _) = build(
            policy,
            Placement::HashPin,
            Preemption::PriorityKick,
            1,
            1,
            plain,
        );
        run_to_drain_sharded(&mut rt, 20, 3_000_000).expect("drains");
        assert_eq!(
            rt.preemptions(),
            0,
            "{policy} ranks all tenants equally — no kicks"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded replay is bit-identical for every cell of the matrix —
    /// preemption decisions (and the recall/resume dance) must be a
    /// pure function of simulation state.
    #[test]
    fn seeded_replay_is_bit_identical_across_the_matrix(
        seed in 1u64..1_000_000,
        policy_sel in 0usize..4,
        placement_sel in 0usize..2,
        preempt_sel in 0usize..3,
        shards in 1usize..4,
        depth in 1usize..4,
        sweep_continuation in any::<bool>(),
        channel_affinity in any::<bool>(),
    ) {
        let policy = POLICY_NAMES[policy_sel];
        let placement = Placement::ALL[placement_sel];
        let preemption = preemption_modes()[preempt_sel];
        let build = || {
            let cfg = RuntimeConfig {
                chunk_bytes: 4 << 10,
                driver: quick_driver(),
                open_until_ns: 1_500.0,
                seed,
                hostq: HostQueueConfig::with_depth(depth),
                shards,
                placement,
                preemption,
                sweep_continuation,
                channel_affinity,
                ..RuntimeConfig::default()
            };
            let mut tenants = vec![
                TenantSpec::poisson("a", 300.0, 2_048, 2),
                TenantSpec::poisson("b", 500.0, 256, 4),
                TenantSpec::poisson("c", 800.0, 4_096, 2),
            ];
            for (i, t) in tenants.iter_mut().enumerate() {
                let i = u32::try_from(i).unwrap();
                t.priority = 2 - i; // a is the bulk low class
                t.weight = 1 + i;
            }
            Runtime::new(cfg, tenants, policy_by_name(policy, 2_048).unwrap())
        };
        let mut a = build();
        let mut b = build();
        let ra = run_to_drain_sharded(&mut a, 20, 3_000_000);
        let rb = run_to_drain_sharded(&mut b, 20, 3_000_000);
        prop_assert!(ra.is_some() && rb.is_some(), "{policy} never drained");
        // JobRecord equality is f64-exact: bit-for-bit replay.
        prop_assert_eq!(ra.unwrap(), rb.unwrap());
        prop_assert_eq!(a.host_stats(), b.host_stats());
        prop_assert_eq!(a.shard_host_stats(), b.shard_host_stats());
        prop_assert_eq!(a.preemptions(), b.preemptions());
        prop_assert_eq!(a.jain_by_bytes().to_bits(), b.jain_by_bytes().to_bits());
        prop_assert_eq!(
            a.jain_by_satisfaction().to_bits(),
            b.jain_by_satisfaction().to_bits()
        );
    }
}
