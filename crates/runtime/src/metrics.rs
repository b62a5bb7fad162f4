//! Serving metrics: fixed-bucket log2 latency histograms, per-tenant
//! counters, and the Jain fairness index — all deterministic, so two
//! runs of the same seeded trace produce bit-identical reports.

use pim_hostq::HostQueueStats;
use pim_telemetry::{CounterSet, Counters};

// The log2 histogram moved down into `pim-telemetry` (PR 8) so the SLO
// tracker and attribution aggregates can use it; re-exported here to
// keep every existing `pim_runtime::LogHistogram` path working.
pub use pim_telemetry::{LogHistogram, HIST_BUCKETS};

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n·Σx²)`. 1.0 means perfectly equal shares, `1/n` means one
/// tenant holds everything. An empty or all-zero allocation is reported
/// as 1.0 (nobody is being treated unequally).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Jain's index over *demand-normalized* allocations: each tenant's
/// share is `serviced / offered` (its satisfaction ratio, in `[0, 1]`),
/// so tenants with unequal demand are compared on how completely they
/// were served rather than on raw bytes. This is the standard fairness
/// measure under heterogeneous demand: raw-byte Jain punishes any
/// scheduler that serves a heavy tenant's larger backlog, while the
/// satisfaction form rewards giving every tenant the same fraction of
/// what it asked for. Tenants that offered nothing are skipped.
pub fn jain_satisfaction(pairs: &[(u64, u64)]) -> f64 {
    let xs: Vec<f64> = pairs
        .iter()
        .filter(|&&(_, offered)| offered > 0)
        .map(|&(serviced, offered)| serviced as f64 / offered as f64)
        .collect();
    jain_index(&xs)
}

/// Host-interface summary of one serving run: how deep the submission
/// ring actually ran and how much interrupt/doorbell traffic the jobs
/// cost. Derived from [`pim_hostq::HostQueueStats`] plus the runtime's
/// job counters; the interesting ratios are `interrupts_per_job`
/// (1 × chunks-per-job for the synchronous path, approaching
/// 1/coalesce-count of that with coalescing) and `mean_in_flight`
/// (pinned to ≤ 1 at queue depth 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostIfaceStats {
    /// Doorbell MMIO writes (each publishes a whole staged batch).
    pub doorbells: u64,
    /// Descriptors (chunks) published.
    pub descriptors: u64,
    /// Completion interrupts fielded by the host.
    pub interrupts: u64,
    /// Interrupts delivered by the coalescing timer rather than the
    /// count threshold.
    pub fired_on_timer: u64,
    /// Descriptors recalled mid-transfer by an engine-side suspension
    /// (their remainders re-entered the tenant queues).
    pub recalls: u64,
    /// Largest device-side in-flight descriptor depth observed.
    pub max_in_flight: usize,
    /// Mean in-flight depth sampled at doorbell rings.
    pub mean_in_flight: f64,
    /// Completion interrupts per completed *job*.
    pub interrupts_per_job: f64,
    /// Completion interrupts per completed *chunk* (1.0 without
    /// coalescing).
    pub interrupts_per_chunk: f64,
}

impl HostIfaceStats {
    /// Derive the summary from ring counters plus the number of jobs
    /// whose completion those rings announced. Used both per shard (one
    /// ring, jobs finished via that shard's interrupts) and in
    /// aggregate (merged counters, all completed jobs).
    pub fn from_ring(s: &HostQueueStats, jobs: u64) -> Self {
        HostIfaceStats {
            doorbells: s.doorbells,
            descriptors: s.posted,
            interrupts: s.interrupts,
            fired_on_timer: s.fired_on_timer,
            recalls: s.recalled,
            max_in_flight: s.max_in_flight,
            mean_in_flight: s.mean_in_flight(),
            interrupts_per_job: if jobs == 0 {
                0.0
            } else {
                s.interrupts as f64 / jobs as f64
            },
            interrupts_per_chunk: s.interrupts_per_completion(),
        }
    }
}

impl Counters for HostIfaceStats {
    fn counters(&self, prefix: &str, out: &mut CounterSet) {
        out.push(prefix, "doorbells", self.doorbells as f64);
        out.push(prefix, "descriptors", self.descriptors as f64);
        out.push(prefix, "interrupts", self.interrupts as f64);
        out.push(prefix, "fired_on_timer", self.fired_on_timer as f64);
        out.push(prefix, "recalls", self.recalls as f64);
        out.push(prefix, "max_in_flight", self.max_in_flight as f64);
        out.push(prefix, "mean_in_flight", self.mean_in_flight);
        out.push(prefix, "interrupts_per_job", self.interrupts_per_job);
        out.push(prefix, "interrupts_per_chunk", self.interrupts_per_chunk);
    }
}

/// Cumulative serving statistics for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Jobs accepted into the tenant's queue.
    pub submitted: u64,
    /// Payload bytes of accepted jobs (the tenant's offered demand —
    /// the denominator of its satisfaction ratio).
    pub bytes_submitted: u64,
    /// Jobs fully completed (all chunks serviced).
    pub completed: u64,
    /// Payload bytes of completed jobs (goodput).
    pub bytes_completed: u64,
    /// Bytes of completed *chunks*, including those of jobs still in
    /// service — the engine time actually granted to this tenant, which
    /// is what fairness is judged on.
    pub bytes_serviced: u64,
    /// Queueing delay: job arrival → first chunk dispatched.
    pub queue_delay: LogHistogram,
    /// Service time: first dispatch → completion interrupt.
    pub service: LogHistogram,
    /// End-to-end latency: arrival → completion interrupt.
    pub e2e: LogHistogram,
    /// Chunks of this tenant preempted mid-transfer (engine-side
    /// suspensions whose remainder re-entered the queue).
    pub preemptions: u64,
    /// Suspended remainders re-dispatched (resumed). Trails
    /// [`preemptions`](Self::preemptions) by at most the number of
    /// currently-suspended chunks.
    pub resumes: u64,
    /// Suspended-state residency: time between a chunk's recall
    /// (preemption interrupt) and its resume dispatch.
    pub suspended: LogHistogram,
}

impl TenantStats {
    /// Achieved goodput (completed jobs) over a measurement span, in
    /// (decimal) GB/s.
    pub fn achieved_gbps(&self, span_ns: f64) -> f64 {
        if span_ns <= 0.0 {
            0.0
        } else {
            self.bytes_completed as f64 / span_ns
        }
    }

    /// Engine bandwidth granted (completed chunks) over a measurement
    /// span, in (decimal) GB/s.
    pub fn serviced_gbps(&self, span_ns: f64) -> f64 {
        if span_ns <= 0.0 {
            0.0
        } else {
            self.bytes_serviced as f64 / span_ns
        }
    }
}

impl Counters for TenantStats {
    fn counters(&self, prefix: &str, out: &mut CounterSet) {
        out.push(prefix, "submitted", self.submitted as f64);
        out.push(prefix, "bytes_submitted", self.bytes_submitted as f64);
        out.push(prefix, "completed", self.completed as f64);
        out.push(prefix, "bytes_completed", self.bytes_completed as f64);
        out.push(prefix, "bytes_serviced", self.bytes_serviced as f64);
        out.push(prefix, "preemptions", self.preemptions as f64);
        out.push(prefix, "resumes", self.resumes as f64);
        out.push(prefix, "queue_delay_p50", self.queue_delay.p50());
        out.push(prefix, "queue_delay_p99", self.queue_delay.p99());
        out.push(prefix, "e2e_p50", self.e2e.p50());
        out.push(prefix, "e2e_p99", self.e2e.p99());
        out.push(prefix, "e2e_p999", self.e2e.p999());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The LogHistogram unit tests moved with the type to
    // `pim_telemetry::hist`; what stays here exercises the
    // runtime-specific metrics (Jain, host-interface, bandwidth).

    #[test]
    fn satisfaction_jain_normalizes_by_demand() {
        // Everyone fully served: perfectly fair regardless of raw skew.
        assert!((jain_satisfaction(&[(800, 800), (100, 100)]) - 1.0).abs() < 1e-12);
        // Equal *ratios* are fair even with unequal raw bytes...
        assert!((jain_satisfaction(&[(400, 800), (50, 100)]) - 1.0).abs() < 1e-12);
        // ...which raw-byte Jain would call unfair.
        assert!(jain_index(&[400.0, 50.0]) < 0.7);
        // A starved heavy tenant next to satisfied light ones drags the
        // index down; zero-demand tenants are skipped.
        let skew = jain_satisfaction(&[(200, 1600), (100, 100), (0, 0)]);
        let fairer = jain_satisfaction(&[(600, 1600), (100, 100), (0, 0)]);
        assert!(skew < fairer && fairer < 1.0, "{skew} vs {fairer}");
        assert_eq!(jain_satisfaction(&[(0, 0)]), 1.0);
    }

    #[test]
    fn host_iface_from_ring_matches_counters() {
        let s = HostQueueStats {
            posted: 10,
            doorbells: 4,
            completed: 10,
            interrupts: 5,
            fired_on_count: 3,
            fired_on_timer: 2,
            recalled: 1,
            chain_silent: 0,
            max_in_flight: 3,
            inflight_sum: 8,
        };
        let h = HostIfaceStats::from_ring(&s, 5);
        assert_eq!(h.doorbells, 4);
        assert_eq!(h.descriptors, 10);
        assert_eq!(h.recalls, 1);
        assert_eq!(h.interrupts_per_job, 1.0);
        assert_eq!(h.interrupts_per_chunk, 0.5);
        assert_eq!(h.mean_in_flight, 2.0);
        assert_eq!(HostIfaceStats::from_ring(&s, 0).interrupts_per_job, 0.0);
    }

    #[test]
    fn jain_index_ranges() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything → 1/n.
        assert!((jain_index(&[12.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // 8:1:1:1 skew: (11)^2 / (4 * 67).
        let j = jain_index(&[8.0, 1.0, 1.0, 1.0]);
        assert!((j - 121.0 / 268.0).abs() < 1e-12);
    }

    #[test]
    fn achieved_bandwidth() {
        let s = TenantStats {
            bytes_completed: 1_000_000,
            ..TenantStats::default()
        };
        assert!((s.achieved_gbps(1e6) - 1.0).abs() < 1e-12);
        assert_eq!(s.achieved_gbps(0.0), 0.0);
    }
}
