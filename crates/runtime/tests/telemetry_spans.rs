//! Span-event conservation: the flight recorder's story must agree
//! with the runtime's own accounting, for **every scheduling policy ×
//! all three preemption modes × sweep continuation on/off × channel
//! affinity on/off** on a sharded engine array. Continued chunks retire
//! chain-silent — no interrupt, the stage boundary the latency
//! waterfall partitions on — so the continuation axis is where the
//! span story and the ring's interrupt accounting could part ways.
//!
//! For a drained run with tracing on:
//!
//! * one `Arrival` and one `Enqueue` per submitted job, one `Complete`
//!   per completed record;
//! * one `DispatchPick` per dispatched chunk, and one `DeviceStart`
//!   per pick (every staged descriptor is installed exactly once);
//! * every engine occupancy closes: `DeviceStart` = `Retire` +
//!   `Suspend`;
//! * the suspension path balances: `Suspend` = `Recall` = `Resume` =
//!   the runtime's preemption/resume counters, and no suspension
//!   without a host request (`Suspend` ≤ `SuspendRequest`);
//! * `Doorbell` and `Interrupt` events match the host-interface
//!   counters;
//! * per-job bytes are conserved: the `Complete` event's bytes equal
//!   the `Arrival`'s, and device-side retired/suspended bytes sum to
//!   the job's total.
//!
//! The same scenario with tracing **off** must replay bit-identically
//! and record nothing — the observability layer is not allowed to
//! perturb the simulation.

use pim_runtime::testkit::{quick_driver, run_to_drain_sharded, trace_tenant};
use pim_runtime::{
    policy_by_name, Attribution, HostQueueConfig, Placement, Preemption, Rng, Runtime,
    RuntimeConfig, SpanKind, Stage, TelemetryConfig, TenantSpec, NO_JOB, POLICY_NAMES,
};

const QUANTUM_CYCLES: u64 = 96;
const TOTAL_JOBS: u64 = 4 + 4 + 3;

/// The conformance suite's mixed-shape tenants: a latency-sensitive
/// top class, a multi-chunk bulk class, and a middle class, so both
/// chunk-boundary and mid-chunk preemption trigger.
fn mixed_tenants() -> Vec<TenantSpec> {
    let shapes: [(Vec<f64>, u64, u32, u32, u32); 3] = [
        (vec![100.0, 500.0, 900.0, 1_300.0], 256, 2, 0, 1),
        (vec![0.0, 40.0, 80.0, 120.0], 24_576, 2, 2, 2),
        (vec![20.0, 600.0, 1_200.0], 1_024, 4, 1, 1),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (times, per_core, n_cores, priority, weight))| {
            let mut t = trace_tenant(&format!("t{i}"), times, per_core, n_cores);
            t.priority = priority;
            t.weight = weight;
            t
        })
        .collect()
}

/// The dispatch-hint axis: `(sweep_continuation, channel_affinity)`.
/// Affinity is a least-loaded tie-break, so its cells place that way.
const HINTS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn build_hinted(
    policy: &str,
    preemption: Preemption,
    telemetry: TelemetryConfig,
    shards: usize,
    (sweep_continuation, channel_affinity): (bool, bool),
) -> Runtime {
    let cfg = RuntimeConfig {
        chunk_bytes: 16 << 10,
        driver: quick_driver(),
        open_until_ns: 2_000.0,
        hostq: HostQueueConfig::with_depth(2),
        shards,
        preemption,
        telemetry,
        sweep_continuation,
        channel_affinity,
        placement: if channel_affinity {
            Placement::LeastLoaded
        } else {
            Placement::HashPin
        },
        ..RuntimeConfig::default()
    };
    Runtime::new(cfg, mixed_tenants(), policy_by_name(policy, 4_096).unwrap())
}

fn build_sharded(
    policy: &str,
    preemption: Preemption,
    telemetry: TelemetryConfig,
    shards: usize,
) -> Runtime {
    build_hinted(policy, preemption, telemetry, shards, HINTS[0])
}

fn build(policy: &str, preemption: Preemption, telemetry: TelemetryConfig) -> Runtime {
    build_sharded(policy, preemption, telemetry, 2)
}

fn count(rt: &Runtime, kind: SpanKind) -> u64 {
    rt.recorder().iter().filter(|e| e.kind == kind).count() as u64
}

#[test]
fn span_events_are_conserved_across_policies_and_preemption_modes() {
    let cells = POLICY_NAMES.iter().flat_map(|&policy| {
        Preemption::modes(QUANTUM_CYCLES)
            .into_iter()
            .flat_map(move |preemption| HINTS.map(|hints| (policy, preemption, hints)))
    });
    for (policy, preemption, hints) in cells {
        let label = format!(
            "{policy}/{}/continuation={}/affinity={}",
            preemption.name(),
            hints.0,
            hints.1
        );
        let mut rt = build_hinted(policy, preemption, TelemetryConfig::on(), 2, hints);
        let records = run_to_drain_sharded(&mut rt, 4, 3_000_000)
            .unwrap_or_else(|| panic!("{label}: must drain"));

        assert_eq!(rt.recorder().dropped(), 0, "{label}: recorder overflowed");
        assert_eq!(
            count(&rt, SpanKind::Arrival),
            TOTAL_JOBS,
            "{label}: arrivals"
        );
        assert_eq!(
            count(&rt, SpanKind::Enqueue),
            TOTAL_JOBS,
            "{label}: enqueues"
        );
        assert_eq!(
            count(&rt, SpanKind::Complete),
            records.len() as u64,
            "{label}: completes"
        );

        let picks = count(&rt, SpanKind::DispatchPick);
        assert_eq!(
            picks,
            rt.chunks_dispatched(),
            "{label}: picks vs dispatches"
        );
        assert_eq!(
            count(&rt, SpanKind::DeviceStart),
            picks,
            "{label}: every pick installs exactly once"
        );
        assert_eq!(
            count(&rt, SpanKind::DeviceStart),
            count(&rt, SpanKind::Retire) + count(&rt, SpanKind::Suspend),
            "{label}: every engine occupancy closes"
        );

        let suspends = count(&rt, SpanKind::Suspend);
        assert_eq!(
            suspends,
            rt.preemptions(),
            "{label}: suspends vs preemptions"
        );
        assert_eq!(count(&rt, SpanKind::Recall), suspends, "{label}: recalls");
        assert_eq!(count(&rt, SpanKind::Resume), suspends, "{label}: resumes");
        assert_eq!(rt.resumes(), suspends, "{label}: runtime resume counter");
        assert!(
            suspends <= count(&rt, SpanKind::SuspendRequest),
            "{label}: no suspension without a host request"
        );
        if preemption == Preemption::Off {
            assert_eq!(suspends, 0, "{label}: off mode must never suspend");
        }

        let host = rt.host_stats();
        assert_eq!(
            count(&rt, SpanKind::Doorbell),
            host.doorbells,
            "{label}: doorbells"
        );
        assert_eq!(
            count(&rt, SpanKind::Interrupt),
            host.interrupts,
            "{label}: interrupts"
        );

        // Byte conservation, per job: arrival bytes == complete
        // bytes, and the device-side story (retired + suspended
        // bytes of chunks joined through their picks) sums to it.
        for rec in &records {
            let arr: Vec<_> = rt
                .recorder()
                .iter()
                .filter(|e| e.kind == SpanKind::Arrival && e.job == rec.id)
                .collect();
            assert_eq!(arr.len(), 1, "{label}: job {} arrival", rec.id);
            assert_eq!(arr[0].bytes, rec.bytes, "{label}: job {} bytes", rec.id);
            let done: u64 = rt
                .recorder()
                .iter()
                .filter(|e| e.kind == SpanKind::Complete && e.job == rec.id)
                .map(|e| e.bytes)
                .sum();
            assert_eq!(done, rec.bytes, "{label}: job {} completed bytes", rec.id);
        }

        // Device-side bytes (every retire + every suspension's
        // partial) must cover exactly the submitted volume.
        let device_bytes: u64 = rt
            .recorder()
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Retire | SpanKind::Suspend))
            .map(|e| e.bytes)
            .sum();
        let submitted: u64 = records.iter().map(|r| r.bytes).sum();
        assert_eq!(device_bytes, submitted, "{label}: device-side byte ledger");

        // Every event the hot path stamped has a plausible tag:
        // job-tagged events reference submitted ids.
        for e in rt.recorder().iter() {
            if e.job != NO_JOB {
                assert!(
                    records.iter().any(|r| r.id == e.job),
                    "{label}: {:?} references unknown job {}",
                    e.kind,
                    e.job
                );
            }
        }
    }
}

/// The attribution layer's core promise, checked against **every**
/// scheduling policy × preemption mode × shard count: for each
/// completed job, the seven stage durations partition
/// `[arrival, complete]` exactly — conservation to the nanosecond —
/// and the waterfall's chunk/preemption tallies agree with the
/// runtime's own counters.
#[test]
fn attribution_conserves_latency_across_policies_and_shards() {
    for policy in POLICY_NAMES {
        for preemption in Preemption::modes(QUANTUM_CYCLES) {
            for (shards, hints) in [1usize, 2, 4]
                .into_iter()
                .flat_map(|n| HINTS.map(|h| (n, h)))
            {
                let label = format!(
                    "{policy}/{}/{shards}-shard/continuation={}/affinity={}",
                    preemption.name(),
                    hints.0,
                    hints.1
                );
                let mut rt = build_hinted(policy, preemption, TelemetryConfig::on(), shards, hints);
                let records = run_to_drain_sharded(&mut rt, 4, 3_000_000)
                    .unwrap_or_else(|| panic!("{label}: must drain"));
                assert_eq!(rt.recorder().dropped(), 0, "{label}: ring overflowed");

                let a = Attribution::from_recorder(rt.recorder());
                assert!(!a.degraded, "{label}: clean ring must not degrade");
                assert_eq!(a.incomplete, 0, "{label}: drained run leaves no orphans");
                assert_eq!(
                    a.complete_jobs(),
                    records.len(),
                    "{label}: every record attributed"
                );
                for w in &a.jobs {
                    assert!(w.complete, "{label}: job {} not joined", w.job);
                    let sum: f64 = w.stages.iter().sum();
                    assert!(
                        (sum - w.e2e_ns()).abs() < 1e-6,
                        "{label}: job {} stages sum {sum} != e2e {}",
                        w.job,
                        w.e2e_ns()
                    );
                    for (stage, &ns) in Stage::ALL.iter().zip(&w.stages) {
                        assert!(
                            ns >= -1e-9,
                            "{label}: job {} negative {} of {ns}",
                            w.job,
                            stage.name()
                        );
                    }
                    let rec = records
                        .iter()
                        .find(|r| r.id == w.job)
                        .unwrap_or_else(|| panic!("{label}: unknown job {}", w.job));
                    assert_eq!(w.bytes, rec.bytes, "{label}: job {} bytes", w.job);
                }
                // The waterfalls' tallies must agree with the runtime's
                // own counters, in aggregate.
                let chunks: u64 = a.jobs.iter().map(|w| u64::from(w.chunks)).sum();
                assert_eq!(chunks, rt.chunks_dispatched(), "{label}: chunk tally");
                let preempts: u64 = a.jobs.iter().map(|w| u64::from(w.preemptions)).sum();
                assert_eq!(preempts, rt.preemptions(), "{label}: preemption tally");
                if preemption == Preemption::Off {
                    assert_eq!(
                        a.totals()[Stage::Suspended as usize],
                        0.0,
                        "{label}: no suspended time without preemption"
                    );
                }
            }
        }
    }
}

/// Overflow property, fuzzed: under a deliberately tiny flight
/// recorder the accounting identity `recorded + dropped == offered`
/// must hold on every randomized run, and the span joiner must survive
/// the truncated stream — flagging itself `degraded`, never panicking,
/// and still conserving latency for each job whose endpoints did make
/// it into the recorder.
#[test]
fn tiny_ring_overflow_keeps_accounting_and_joiner_never_panics() {
    let mut rng = Rng::new(0xC0FF_EE00);
    let modes = Preemption::modes(QUANTUM_CYCLES);
    let mut overflowed = 0u32;
    for case in 0..20 {
        let capacity = 16 << rng.below(4); // 16..128 slots
        let policy = POLICY_NAMES[usize::try_from(rng.below(POLICY_NAMES.len() as u64)).unwrap()];
        let preemption = modes[usize::try_from(rng.below(modes.len() as u64)).unwrap()];
        let shards = 1 + usize::try_from(rng.below(3)).unwrap();
        let label = format!(
            "case {case} {policy}/{}/{shards}-shard cap={capacity}",
            preemption.name()
        );
        let telemetry = TelemetryConfig {
            capacity,
            ..TelemetryConfig::on()
        };
        let mut rt = build_sharded(policy, preemption, telemetry, shards);
        run_to_drain_sharded(&mut rt, 4, 3_000_000)
            .unwrap_or_else(|| panic!("{label}: must drain"));

        let rec = rt.recorder();
        assert_eq!(
            rec.recorded() + rec.dropped(),
            rec.offered(),
            "{label}: accounting identity"
        );
        assert!(
            rec.recorded() <= capacity as u64,
            "{label}: recorder retained more than its capacity"
        );
        if rec.dropped() > 0 {
            overflowed += 1;
        }

        // The joiner must accept whatever the recorder kept.
        let a = Attribution::from_recorder(rec);
        assert_eq!(
            a.degraded,
            rec.dropped() > 0,
            "{label}: degraded flag must mirror recorder drops"
        );
        for w in a.jobs.iter().filter(|w| w.complete) {
            let sum: f64 = w.stages.iter().sum();
            assert!(
                (sum - w.e2e_ns()).abs() < 1e-6,
                "{label}: job {} stages sum {sum} != e2e {}",
                w.job,
                w.e2e_ns()
            );
        }
    }
    // The fuzz must actually exercise the overflow path: every run
    // offers a few hundred events against at most 128 slots.
    assert!(
        overflowed >= 10,
        "only {overflowed}/20 cases overflowed; recorders too large to test drops"
    );
}

#[test]
fn disabled_telemetry_records_nothing_and_replays_bit_identically() {
    for preemption in Preemption::modes(QUANTUM_CYCLES) {
        let mut off = build("prio", preemption, TelemetryConfig::default());
        let mut on = build("prio", preemption, TelemetryConfig::on());
        let rec_off = run_to_drain_sharded(&mut off, 4, 3_000_000).expect("drains");
        let rec_on = run_to_drain_sharded(&mut on, 4, 3_000_000).expect("drains");
        assert!(
            off.recorder().is_empty(),
            "disabled recorder must stay empty"
        );
        assert_eq!(off.recorder().recorded(), 0);
        // Tracing must not move a single bit of the simulated outcome.
        assert_eq!(
            rec_off,
            rec_on,
            "{}: telemetry perturbed the run",
            preemption.name()
        );
    }
}

#[test]
fn two_traced_runs_record_identical_event_streams() {
    let run = || {
        let mut rt = build(
            "drr",
            Preemption::modes(QUANTUM_CYCLES)[1],
            TelemetryConfig::on(),
        );
        run_to_drain_sharded(&mut rt, 4, 3_000_000).expect("drains");
        rt.recorder().iter().copied().collect::<Vec<_>>()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.t_ns.to_bits(), y.t_ns.to_bits(), "timestamp drift");
        assert_eq!(
            (x.kind, x.tenant, x.shard, x.job, x.seq, x.bytes),
            (y.kind, y.tenant, y.shard, y.job, y.seq, y.bytes)
        );
    }
}
