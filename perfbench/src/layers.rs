//! Per-layer measurements, read from outside through the program's
//! public counters and its per-clock-domain self-profile.
//!
//! Every workload prints the same per-layer list; a layer the workload
//! does not use reads 0 (for example `runtime.*` on `xfer_ladder`).

use crate::measure::{median, Better, Metric};
use pim_runtime::ServingSystem;
use pim_sim::System;
use std::collections::BTreeMap;

/// Fire and skip counts of one clock-domain label (engine shards share
/// the label `dce` and are summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainCounts {
    pub fires: u64,
    pub skipped: u64,
}

/// One controller group's counters, summed over its channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlCounts {
    pub row_hits: u64,
    pub row_accesses: u64,
    pub busy_data_cycles: u64,
    pub elapsed_cycles: u64,
    pub q_occupancy_sum: u64,
}

/// Host-side serving counters (absent on the one-shot ladder).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostCounts {
    pub queue_wait_ns: Vec<f64>,
    pub preemptions: u64,
    pub missed_dispatches: u64,
    pub doorbells: u64,
    pub descriptors: u64,
    pub recalls: u64,
}

/// Deterministic per-layer counts: identical on every pass of one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub domains: BTreeMap<&'static str, DomainCounts>,
    pub dram: CtrlCounts,
    pub pim: CtrlCounts,
    pub events: u64,
    pub domain_ticks: u64,
    pub edges_skipped: u64,
    pub dce_busy_cycles: u64,
    pub dce_buffer_stall_cycles: u64,
    pub dce_suspensions: u64,
    pub dce_continuations: u64,
    pub dce_continuation_fallbacks: u64,
    pub dce_lines_done: u64,
    pub host: HostCounts,
    /// Operations served: jobs, or one-shot transfers.
    pub jobs: u64,
}

/// Host wall time the self-profile credited to each domain label.
pub type Walls = BTreeMap<&'static str, u64>;

/// A traced run's layer readings.
#[derive(Debug, Clone, Default)]
pub struct LayerData {
    pub counts: Counts,
    pub wall_ns: Walls,
}

impl LayerData {
    /// Read the machine's layers (controllers, engines, event core and
    /// the self-profile) after a run that served `jobs` operations.
    pub fn of_system(sys: &System, jobs: u64) -> Self {
        let mut d = LayerData::default();
        let c = &mut d.counts;
        c.jobs = jobs;
        for p in sys.self_profile() {
            let dc = c.domains.entry(p.label).or_default();
            dc.fires += p.fires;
            dc.skipped += p.skipped;
            *d.wall_ns.entry(p.label).or_default() += p.wall_ns;
        }
        for (group, ctrls) in [
            (&mut c.dram, sys.dram_controllers()),
            (&mut c.pim, sys.pim_controllers()),
        ] {
            for ctrl in ctrls {
                let s = ctrl.stats();
                group.row_hits += s.row_hits;
                group.row_accesses += s.row_hits + s.row_misses + s.row_conflicts;
                group.busy_data_cycles += s.busy_data_cycles;
                group.elapsed_cycles += s.elapsed_cycles;
                group.q_occupancy_sum += s.read_q_occupancy_sum + s.write_q_occupancy_sum;
            }
        }
        let t = sys.timing_stats();
        c.events = t.events_fired;
        c.domain_ticks = t.domain_ticks;
        c.edges_skipped = t.edges_skipped;
        for e in sys.engines() {
            let s = e.stats();
            c.dce_busy_cycles += s.busy_cycles;
            c.dce_buffer_stall_cycles += s.buffer_stall_cycles;
            c.dce_suspensions += s.suspensions;
            c.dce_continuations += s.continuations;
            c.dce_continuation_fallbacks += s.continuation_fallbacks;
            c.dce_lines_done += s.lines_done;
        }
        d
    }

    /// Read a serving run: the machine plus the runtime and host queues.
    pub fn of_serving(s: &ServingSystem) -> Self {
        let rt = s.runtime();
        let mut d = LayerData::of_system(s.system(), rt.records().len() as u64);
        let hs = rt.host_stats();
        d.counts.host = HostCounts {
            queue_wait_ns: rt.records().iter().map(|r| r.queue_delay_ns()).collect(),
            preemptions: rt.preemptions(),
            missed_dispatches: rt.missed_dispatches(),
            doorbells: hs.doorbells,
            descriptors: hs.descriptors,
            recalls: hs.recalls,
        };
        d
    }

    /// Fold another machine's readings (no host side) into these.
    pub fn merge(&mut self, o: &LayerData) {
        let (c, s) = (&mut self.counts, &o.counts);
        for (label, d) in &s.domains {
            let e = c.domains.entry(label).or_default();
            e.fires += d.fires;
            e.skipped += d.skipped;
        }
        for (label, w) in &o.wall_ns {
            *self.wall_ns.entry(label).or_default() += w;
        }
        for (g, og) in [(&mut c.dram, &s.dram), (&mut c.pim, &s.pim)] {
            g.row_hits += og.row_hits;
            g.row_accesses += og.row_accesses;
            g.busy_data_cycles += og.busy_data_cycles;
            g.elapsed_cycles += og.elapsed_cycles;
            g.q_occupancy_sum += og.q_occupancy_sum;
        }
        c.events += s.events;
        c.domain_ticks += s.domain_ticks;
        c.edges_skipped += s.edges_skipped;
        c.dce_busy_cycles += s.dce_busy_cycles;
        c.dce_buffer_stall_cycles += s.dce_buffer_stall_cycles;
        c.dce_suspensions += s.dce_suspensions;
        c.dce_continuations += s.dce_continuations;
        c.dce_continuation_fallbacks += s.dce_continuation_fallbacks;
        c.dce_lines_done += s.dce_lines_done;
        c.jobs += s.jobs;
    }

    fn fires(&self, label: &str) -> u64 {
        self.counts.domains.get(label).map_or(0, |d| d.fires)
    }

    fn wall_s(&self, label: &str) -> f64 {
        self.wall_ns.get(label).map_or(0, |&w| w) as f64 / 1e9
    }

    /// Credited wall over every domain, seconds.
    pub fn credited_s(&self) -> f64 {
        self.wall_ns.values().sum::<u64>() as f64 / 1e9
    }

    /// The domain with the most credited wall time.
    pub fn heaviest_domain(&self) -> Option<(&'static str, f64)> {
        self.wall_ns
            .iter()
            .max_by_key(|(_, &w)| w)
            .map(|(&l, &w)| (l, w as f64 / 1e9))
    }
}

/// `num / den`, or 0 when the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall-clock side of one traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PassWalls {
    /// The same pass run untraced, seconds.
    pub untraced_s: f64,
    /// The traced run, seconds.
    pub traced_s: f64,
    /// The benchmark's own output reduction, seconds.
    pub reduce_s: f64,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(d: &LayerData, w: PassWalls) -> Vec<Metric> {
    use Better::{Higher, Lower};
    let c = &d.counts;
    let mut out = Vec::new();
    let mut m = |name: &str, value: f64, unit: &'static str, better: Better| {
        out.push(Metric::new(name, value, unit, better));
    };
    let per_fire = |label: &str| ratio(d.wall_s(label) * 1e9, d.fires(label) as f64);
    for (label, g) in [("dram", &c.dram), ("pim", &c.pim)] {
        m(
            &format!("{label}.fires"),
            d.fires(label) as f64,
            "count",
            Lower,
        );
        m(&format!("{label}.wall_s"), d.wall_s(label), "s", Lower);
        m(
            &format!("{label}.ns_per_fire"),
            per_fire(label),
            "ns",
            Lower,
        );
        let cycles = g.elapsed_cycles as f64;
        m(
            &format!("{label}.q_occupancy"),
            ratio(g.q_occupancy_sum as f64, cycles),
            "entries",
            Lower,
        );
        m(
            &format!("{label}.row_hit_rate"),
            ratio(g.row_hits as f64, g.row_accesses as f64),
            "ratio",
            Higher,
        );
        m(
            &format!("{label}.bus_util"),
            ratio(g.busy_data_cycles as f64, cycles),
            "ratio",
            Higher,
        );
    }
    m("cpu.fires", d.fires("cpu") as f64, "count", Lower);
    m("cpu.wall_s", d.wall_s("cpu"), "s", Lower);
    m("cpu.ns_per_fire", per_fire("cpu"), "ns", Lower);
    let jobs = c.jobs as f64;
    let h = &c.host;
    m(
        "runtime.fires_per_job",
        ratio(d.fires("runtime") as f64, jobs),
        "fires/job",
        Lower,
    );
    m("runtime.wall_s", d.wall_s("runtime"), "s", Lower);
    m("runtime.ns_per_fire", per_fire("runtime"), "ns", Lower);
    let wait_p50_us = if h.queue_wait_ns.is_empty() {
        0.0
    } else {
        median(&h.queue_wait_ns) / 1e3
    };
    m("runtime.queue_wait_p50_us", wait_p50_us, "us", Lower);
    m("runtime.preemptions", h.preemptions as f64, "count", Lower);
    m(
        "runtime.missed_dispatches",
        h.missed_dispatches as f64,
        "count",
        Lower,
    );
    m("hostq.fires", d.fires("hostq") as f64, "count", Lower);
    m("hostq.wall_s", d.wall_s("hostq"), "s", Lower);
    m(
        "hostq.descs_per_doorbell",
        ratio(h.descriptors as f64, h.doorbells as f64),
        "descs/doorbell",
        Higher,
    );
    m("hostq.recalls", h.recalls as f64, "count", Lower);
    m("dce.fires", d.fires("dce") as f64, "count", Lower);
    m("dce.wall_s", d.wall_s("dce"), "s", Lower);
    m(
        "dce.buffer_stall_frac",
        ratio(c.dce_buffer_stall_cycles as f64, c.dce_busy_cycles as f64),
        "ratio",
        Lower,
    );
    m("dce.suspensions", c.dce_suspensions as f64, "count", Lower);
    m(
        "dce.continuation_hit_rate",
        ratio(
            c.dce_continuations as f64,
            (c.dce_continuations + c.dce_continuation_fallbacks) as f64,
        ),
        "ratio",
        Higher,
    );
    m("sim.events", c.events as f64, "count", Lower);
    m(
        "sim.events_per_job",
        ratio(c.events as f64, jobs),
        "events/job",
        Lower,
    );
    m("sim.edges_skipped", c.edges_skipped as f64, "count", Higher);
    m(
        "sim.skip_frac",
        ratio(
            c.edges_skipped as f64,
            (c.edges_skipped + c.domain_ticks) as f64,
        ),
        "ratio",
        Higher,
    );
    m(
        "sim.ns_per_event",
        ratio(w.untraced_s * 1e9, c.events as f64),
        "ns",
        Lower,
    );
    m("sim.self_s", w.traced_s - d.credited_s(), "s", Lower);
    m("bench.reduce_s", w.reduce_s, "s", Lower);
    m("trace.overhead_s", w.traced_s - w.untraced_s, "s", Lower);
    out
}
