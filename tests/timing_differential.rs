//! Differential conformance: the event-driven scheduler must be a pure
//! performance optimization. Every scenario here is run twice — once
//! under [`TimingMode::CycleStepped`] (the reference driver: no domain
//! ever parks or defers, every edge ticks) and once under
//! [`TimingMode::EventDriven`] — and every observable output is
//! compared to the `f64` *bit*: one-shot [`TransferResult`]s (energy
//! segments and power samples included) across the design-point ladder,
//! the baseline beside spin and memory contenders, and memcpy under both
//! mappings, and serving-runtime job records, tenant stats and
//! host-interface counters across randomized policy × placement ×
//! preemption × continuation × affinity × idle-gap scenarios.
//!
//! The sparse scenarios additionally assert `edges_skipped > 0` in the
//! event-driven run, and that some engine continued a predecessor's
//! sweep: equality is only evidence if the idle-skip machinery and the
//! continuation path actually engaged. Two dense scenarios keep the
//! engines and rings busy with a standing backlog — the regime where
//! the engine and host-clock horizons sleep between their own events
//! rather than across idle gaps — and run again on a host clock slower
//! than the engine; one scenario is cut off by `run_for` while jobs are
//! still in flight.

use pim_mmu::XferKind;
use pim_runtime::{
    policy_by_name, HostQueueConfig, Placement, Preemption, Runtime, RuntimeConfig, ServingSystem,
    TenantSpec,
};
use pim_sim::{
    run_memcpy, run_transfer, ContenderSpec, DesignPoint, Intensity, SystemConfig, TimingMode,
    TransferResult, TransferSpec,
};

fn cfg(design: DesignPoint, mode: TimingMode) -> SystemConfig {
    let mut c = SystemConfig::table1(design);
    c.sample_ns = 20_000.0;
    c.timing = mode;
    c
}

fn assert_transfer_bits_eq(a: &TransferResult, b: &TransferResult, label: &str) {
    assert_eq!(
        a.first_difference(b),
        None,
        "{label}: the timing modes diverged"
    );
}

#[test]
fn one_shot_transfers_are_bit_identical_across_the_design_ladder() {
    for design in [
        DesignPoint::Baseline,
        DesignPoint::BaseD,
        DesignPoint::BaseDH,
        DesignPoint::BaseDHP,
    ] {
        for (kind, bytes) in [
            (XferKind::DramToPim, 256 << 10),
            (XferKind::PimToDram, 128 << 10),
        ] {
            let spec = TransferSpec::simple(kind, bytes);
            let cs = run_transfer(&cfg(design, TimingMode::CycleStepped), &spec);
            let ed = run_transfer(&cfg(design, TimingMode::EventDriven), &spec);
            assert_transfer_bits_eq(&cs, &ed, &format!("{design:?} {kind:?} {bytes}B"));
        }
    }
}

#[test]
fn software_memcpy_is_bit_identical() {
    // Under the locality-centric baseline mapping and under HetMap's.
    for design in [DesignPoint::Baseline, DesignPoint::BaseDHP] {
        let cs = run_memcpy(&cfg(design, TimingMode::CycleStepped), 1 << 20, 2e9);
        let ed = run_memcpy(&cfg(design, TimingMode::EventDriven), 1 << 20, 2e9);
        assert_transfer_bits_eq(&cs, &ed, &format!("memcpy 1MiB {design:?}"));
    }
}

/// The baseline's software copy threads beside co-located contenders:
/// the regimes where the CPU cluster sleeps between its own events and
/// must wake exactly. (No shipped stream makes a cacheable store, so
/// dirty writebacks are left to `crates/cpu/tests/skip_oracle.rs`.)
#[test]
fn contended_baseline_transfers_are_bit_identical() {
    let cells = [
        // Twenty runnable threads on eight cores under a short quantum:
        // OS rotation, context-switch stalls and ops handed back to
        // their thread at a switch.
        (
            "Spin(12), 20k-cycle quantum",
            ContenderSpec::Spin(12),
            Some(20_000),
        ),
        // Cacheable contender loads beside the copy loop: LLC hits,
        // merged fills and loads the full outbox refuses.
        (
            "Memory(2, Low)",
            ContenderSpec::Memory(2, Intensity::Low),
            None,
        ),
        (
            "Memory(2, High)",
            ContenderSpec::Memory(2, Intensity::High),
            None,
        ),
    ];
    for (label, contender, quantum) in cells {
        let spec = TransferSpec {
            contenders: vec![contender],
            ..TransferSpec::simple(XferKind::DramToPim, 64 << 10)
        };
        let run = |mode| {
            let mut c = cfg(DesignPoint::Baseline, mode);
            if let Some(q) = quantum {
                c.cpu.quantum_cycles = q;
            }
            run_transfer(&c, &spec)
        };
        let cs = run(TimingMode::CycleStepped);
        let ed = run(TimingMode::EventDriven);
        assert_transfer_bits_eq(&cs, &ed, label);
    }
}

/// One randomized serving scenario: tenant mix, host-queue shape,
/// placement, preemption, policy, sweep continuation and channel
/// affinity all derived from `seed` via a
/// splitmix64 stream, with arrival gaps long enough that the host goes
/// fully quiescent between bursts (the idle windows event-driven mode
/// must skip without observable effect).
struct Scenario {
    rt_cfg: RuntimeConfig,
    tenants: Vec<TenantSpec>,
    policy: &'static str,
    label: String,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scenario(seed: u64) -> Scenario {
    let mut s = seed;
    let policies = ["fcfs", "sjf", "prio", "drr"];
    let policy = policies[(splitmix(&mut s) % policies.len() as u64) as usize];
    let placement = if splitmix(&mut s).is_multiple_of(2) {
        Placement::HashPin
    } else {
        Placement::LeastLoaded
    };
    let preemption = match splitmix(&mut s) % 3 {
        0 => Preemption::Off,
        1 => Preemption::Quantum {
            device_cycles: 1600 + 800 * (splitmix(&mut s) % 4),
        },
        _ => Preemption::PriorityKick,
    };
    let shards = 1 + (splitmix(&mut s) % 2) as usize;
    let depth = 1 + (splitmix(&mut s) % 3) as usize;
    let coalesce_count = 1 + (splitmix(&mut s) % 2) as u32;
    // Sparse arrivals: mean inter-arrival far above a job's service
    // time, so the machine drains and parks between most jobs.
    let n_tenants = 2 + (splitmix(&mut s) % 2) as usize;
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| {
            let mean_ns = 6_000.0 + 4_000.0 * (splitmix(&mut s) % 4) as f64;
            let per_core = 256 << (splitmix(&mut s) % 3);
            let mut t = TenantSpec::poisson(&format!("t{i}"), mean_ns, per_core, 64);
            t.priority = (splitmix(&mut s) % 3) as u32;
            t.weight = 1 + (splitmix(&mut s) % 3) as u32;
            t
        })
        .collect();
    let mut rt_cfg = RuntimeConfig {
        chunk_bytes: 16 << 10,
        open_until_ns: 30_000.0,
        seed: splitmix(&mut s),
        hostq: HostQueueConfig {
            depth,
            coalesce_count,
            coalesce_timeout_ns: 200.0 * (splitmix(&mut s) % 3) as f64,
            poll_period_ps: 312,
        },
        shards,
        placement,
        core_stride: 64,
        preemption,
        ..RuntimeConfig::default()
    };
    // Drawn after every other axis, so those keep their per-seed values.
    rt_cfg.sweep_continuation = splitmix(&mut s).is_multiple_of(2);
    rt_cfg.channel_affinity = splitmix(&mut s).is_multiple_of(2);
    let label = format!(
        "seed {seed}: {policy}/{}/{} shards={shards} depth={depth} continuation={} affinity={}",
        placement.name(),
        preemption.name(),
        rt_cfg.sweep_continuation,
        rt_cfg.channel_affinity
    );
    Scenario {
        rt_cfg,
        tenants,
        policy,
        label,
    }
}

/// A dense scenario shaped like the benchmark's `serve_small`: four
/// tenants of 512 B jobs on the synchronous depth-1 driver, FCFS, one
/// shard — with arrivals every 2 µs on aggregate against a ~3.5 µs
/// driver round trip, so a backlog forms and the host clock sleeps on
/// the busy driver between dispatches. `host_ps` is the host clock's
/// period.
fn dense_small(seed: u64, host_ps: u64) -> Scenario {
    let tenants = (0..4)
        .map(|i| TenantSpec::poisson(&format!("t{i}"), 8_000.0, 64, 8))
        .collect();
    Scenario {
        rt_cfg: RuntimeConfig {
            chunk_bytes: 16 << 10,
            open_until_ns: 40_000.0,
            seed,
            hostq: HostQueueConfig {
                poll_period_ps: host_ps,
                ..HostQueueConfig::synchronous()
            },
            ..RuntimeConfig::default()
        },
        tenants,
        policy: "fcfs",
        label: format!("dense serve_small-shaped seed {seed}, {host_ps} ps host clock"),
    }
}

/// A dense scenario shaped like the benchmark's `serve_mixed`: an
/// urgent 4 KiB tenant beside scatter and gather bulk on two
/// least-loaded shards with depth-4 rings, coalescing 2 @ 500 ns,
/// strict priority with kick preemption and sweep continuation.
/// `host_ps` is the host clock's period.
fn dense_mixed(seed: u64, open_until_ns: f64, host_ps: u64) -> Scenario {
    let bulk = |name: &str, kind: XferKind| {
        let mut t = TenantSpec::poisson(name, 12_000.0, 1 << 10, 64);
        t.kind = kind;
        t
    };
    let mut urgent = TenantSpec::poisson("interactive", 1_000.0, 64, 64);
    urgent.priority = 0;
    Scenario {
        rt_cfg: RuntimeConfig {
            chunk_bytes: 16 << 10,
            open_until_ns,
            seed,
            hostq: HostQueueConfig {
                depth: 4,
                coalesce_count: 2,
                coalesce_timeout_ns: 500.0,
                poll_period_ps: host_ps,
            },
            shards: 2,
            placement: Placement::LeastLoaded,
            preemption: Preemption::PriorityKick,
            core_stride: 128,
            sweep_continuation: true,
            ..RuntimeConfig::default()
        },
        tenants: vec![
            urgent,
            bulk("scatter", XferKind::DramToPim),
            bulk("gather", XferKind::PimToDram),
        ],
        policy: "prio",
        label: format!("dense serve_mixed-shaped seed {seed}, {host_ps} ps host clock"),
    }
}

fn build_serving(sc: &Scenario, mode: TimingMode) -> ServingSystem {
    let runtime = Runtime::new(
        sc.rt_cfg,
        sc.tenants
            .iter()
            .map(|t| TenantSpec {
                name: t.name.clone(),
                kind: t.kind,
                arrival: t.arrival.clone(),
                sizer: t.sizer,
                priority: t.priority,
                weight: t.weight,
                class: t.class,
            })
            .collect(),
        policy_by_name(sc.policy, sc.rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.sample_ns = 20_000.0;
    cfg.timing = mode;
    ServingSystem::new(cfg, runtime)
}

fn run_serving(sc: &Scenario, mode: TimingMode) -> (ServingSystem, bool) {
    let mut serving = build_serving(sc, mode);
    let drained = serving.run_until_drained(5e8);
    (serving, drained)
}

/// Event-driven fires of the domain labelled `label`.
fn fires(s: &ServingSystem, label: &str) -> u64 {
    s.system()
        .self_profile()
        .iter()
        .filter(|p| p.label == label)
        .map(|p| p.fires)
        .sum()
}

fn assert_serving_eq(a: &ServingSystem, b: &ServingSystem, label: &str) {
    let (ra, rb) = (a.runtime(), b.runtime());
    assert_eq!(
        ra.records().len(),
        rb.records().len(),
        "{label}: record count"
    );
    for (x, y) in ra.records().iter().zip(rb.records()) {
        assert_eq!(x.id, y.id, "{label}: job order");
        assert_eq!(x.tenant, y.tenant, "{label}: job {} tenant", x.id);
        assert_eq!(x.bytes, y.bytes, "{label}: job {} bytes", x.id);
        for (name, p, q) in [
            ("submit", x.submit_ns, y.submit_ns),
            ("dispatch", x.dispatch_ns, y.dispatch_ns),
            ("complete", x.complete_ns, y.complete_ns),
        ] {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: job {} {name} drifted ({p} vs {q} ns)",
                x.id
            );
        }
    }
    for ((na, sa), (nb, sb)) in ra.tenant_stats().iter().zip(rb.tenant_stats()) {
        assert_eq!(na, &nb, "{label}: tenant order");
        assert_eq!(sa.completed, sb.completed, "{label}: {na} completed");
        assert_eq!(
            sa.bytes_completed, sb.bytes_completed,
            "{label}: {na} bytes completed"
        );
        assert_eq!(
            sa.bytes_serviced, sb.bytes_serviced,
            "{label}: {na} bytes serviced"
        );
        assert_eq!(sa.preemptions, sb.preemptions, "{label}: {na} preemptions");
    }
    let (ha, hb) = (ra.host_stats(), rb.host_stats());
    assert_eq!(ha.doorbells, hb.doorbells, "{label}: doorbells");
    assert_eq!(ha.interrupts, hb.interrupts, "{label}: interrupts");
    assert_eq!(ha.max_in_flight, hb.max_in_flight, "{label}: max in flight");
    // Every ring counter (chain-silent completions, coalescer causes,
    // recalls, in-flight sums) and every engine counter (busy,
    // buffer-stall and drain cycles included), shard by shard.
    for (s, (qa, qb)) in ra.queue_pairs().iter().zip(rb.queue_pairs()).enumerate() {
        assert_eq!(qa.stats(), qb.stats(), "{label}: shard {s} ring stats");
    }
    let (ea, eb) = (a.system().engines(), b.system().engines());
    assert_eq!(ea.len(), eb.len(), "{label}: engine count");
    for (s, (x, y)) in ea.iter().zip(eb).enumerate() {
        assert_eq!(x.stats(), y.stats(), "{label}: shard {s} engine stats");
    }
    assert_eq!(
        ra.missed_dispatches(),
        rb.missed_dispatches(),
        "{label}: missed dispatches"
    );
    assert_eq!(
        ra.jain_by_bytes().to_bits(),
        rb.jain_by_bytes().to_bits(),
        "{label}: jain"
    );
    assert_eq!(
        ra.preemptions(),
        rb.preemptions(),
        "{label}: engine preemptions"
    );
    // Every controller's request-driven counters, channel by channel.
    // Precharges, refreshes, elapsed cycles and occupancy sums are left
    // out: they depend on where each run stops.
    let (sa, sb) = (a.system(), b.system());
    for (group, xs, ys) in [
        ("dram", sa.dram_controllers(), sb.dram_controllers()),
        ("pim", sa.pim_controllers(), sb.pim_controllers()),
    ] {
        for (ch, (x, y)) in xs.iter().zip(ys).enumerate() {
            let (x, y) = (x.stats(), y.stats());
            for (name, p, q) in [
                ("reads", x.reads, y.reads),
                ("writes", x.writes, y.writes),
                ("activates", x.activates, y.activates),
                ("row hits", x.row_hits, y.row_hits),
                ("row misses", x.row_misses, y.row_misses),
                ("row conflicts", x.row_conflicts, y.row_conflicts),
                ("busy data cycles", x.busy_data_cycles, y.busy_data_cycles),
            ] {
                assert_eq!(p, q, "{label}: {group} channel {ch} {name}");
            }
        }
    }
}

/// Chunks that continued their predecessor's sweep, over all engines.
fn continuations(s: &ServingSystem) -> u64 {
    s.system()
        .engines()
        .iter()
        .map(|e| e.stats().continuations)
        .sum()
}

#[test]
fn randomized_serving_scenarios_are_bit_identical_and_actually_skip() {
    let mut skipped_any = false;
    let mut continued_any = false;
    for seed in 0..8u64 {
        let sc = scenario(seed);
        let (cs, cs_drained) = run_serving(&sc, TimingMode::CycleStepped);
        let (ed, ed_drained) = run_serving(&sc, TimingMode::EventDriven);
        assert_eq!(cs_drained, ed_drained, "{}: drained", sc.label);
        assert!(cs_drained, "{}: reference run must drain", sc.label);
        assert_serving_eq(&cs, &ed, &sc.label);
        let stats = ed.system().timing_stats();
        let ref_stats = cs.system().timing_stats();
        assert_eq!(
            ref_stats.edges_skipped, 0,
            "{}: the cycle-stepped reference must not skip",
            sc.label
        );
        assert!(
            stats.events_fired <= ref_stats.events_fired,
            "{}: event-driven fired more events ({} vs {})",
            sc.label,
            stats.events_fired,
            ref_stats.events_fired
        );
        skipped_any |= stats.edges_skipped > 0;
        assert_eq!(
            continuations(&cs),
            continuations(&ed),
            "{}: engine continuations",
            sc.label
        );
        continued_any |= continuations(&ed) > 0;
    }
    assert!(
        skipped_any,
        "no scenario engaged idle-skip; the differential proves nothing"
    );
    assert!(
        continued_any,
        "no scenario continued a sweep; the continuation path went untested"
    );
}

#[test]
fn dense_serve_small_shape_is_bit_identical_and_sleeps_between_events() {
    let sc = dense_small(1, 312);
    let ed = run_both_modes(&sc);
    let records = ed.runtime().records();
    assert!(
        records
            .iter()
            .any(|r| r.dispatch_ns > r.submit_ns + 1_000.0),
        "{}: no job waited behind another — the scenario formed no backlog",
        sc.label
    );
    // The engine wakes on its own events (issue, data return, retire),
    // the host on arrivals, retirements and driver-ready — a few dozen
    // fires per job, not one per edge of the job's residency.
    let jobs = records.len() as u64;
    for label in ["dce", "runtime"] {
        let per_job = fires(&ed, label) / jobs;
        assert!(
            per_job <= 40,
            "{}: `{label}` fired {per_job} times per job",
            sc.label
        );
    }
}

#[test]
fn dense_serve_mixed_shape_is_bit_identical() {
    assert_dense_mixed_is_bit_identical(&dense_mixed(2, 20_000.0, 312));
}

/// Run `sc` under both timing modes, require both to drain and to agree
/// to the bit, and return the event-driven run.
fn run_both_modes(sc: &Scenario) -> ServingSystem {
    let (cs, cs_drained) = run_serving(sc, TimingMode::CycleStepped);
    let (ed, ed_drained) = run_serving(sc, TimingMode::EventDriven);
    assert!(cs_drained && ed_drained, "{}: both runs drain", sc.label);
    assert_serving_eq(&cs, &ed, &sc.label);
    ed
}

/// Run a `dense_mixed` scenario in both modes, compare them, and check
/// that its preemption, fusion, coalescer-timer and chain-silent paths
/// all engaged.
fn assert_dense_mixed_is_bit_identical(sc: &Scenario) {
    let ed = run_both_modes(sc);
    assert!(
        ed.runtime().preemptions() > 0,
        "{}: no kick fired; the preemption horizon went untested",
        sc.label
    );
    assert!(
        continuations(&ed) > 0,
        "{}: no sweep continued; the fusion horizon went untested",
        sc.label
    );
    let rings = ed.runtime().ring_stats();
    assert!(
        rings.fired_on_timer > 0 && rings.chain_silent > 0,
        "{}: the coalescer timer and chain-silent reaping must both engage: {rings:?}",
        sc.label
    );
}

/// A host clock slower than the engine (625 ps against 312 ps): host
/// edges fall on every other engine cycle, so a retired record waits up
/// to a host period for its poll.
#[test]
fn dense_shapes_on_a_slower_host_clock_are_bit_identical() {
    run_both_modes(&dense_small(1, 625));
    assert_dense_mixed_is_bit_identical(&dense_mixed(2, 20_000.0, 625));
}

#[test]
fn run_for_cut_off_mid_flight_is_bit_identical() {
    // Cut the run while the bulk tenants' chunks are still moving: the
    // horizon lands between the events each mode happens to arm, so the
    // counters read afterwards must not depend on which edges those are.
    let sc = dense_mixed(3, 40_000.0, 312);
    let horizon_ns = 15_000.0;
    let mut cs = build_serving(&sc, TimingMode::CycleStepped);
    let mut ed = build_serving(&sc, TimingMode::EventDriven);
    cs.run_for(horizon_ns);
    ed.run_for(horizon_ns);
    assert!(
        ed.system().engines().iter().any(|e| e.busy()),
        "{}: no engine is live at the horizon",
        sc.label
    );
    assert_serving_eq(&cs, &ed, &sc.label);
    // And a second leg continues from the cut exactly as well.
    cs.run_for(2.0 * horizon_ns);
    ed.run_for(2.0 * horizon_ns);
    assert_serving_eq(&cs, &ed, &format!("{} (second leg)", sc.label));
}
