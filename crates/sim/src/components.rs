//! [`Tickable`] implementations for the machine's components.
//!
//! `CpuCluster`, `Dce` and `MemController` live in substrate crates that
//! must not depend on the sim layer, so their engine adapters live here:
//! the trait is local, the types are foreign, and coherence permits the
//! impls. Each adapter delegates to the component's inherent cycle
//! methods and translates its queue surface into [`Output`]s.

use crate::engine::{Output, StatsSnapshot, Tickable};
use pim_cpu::CpuCluster;
use pim_dram::MemController;
use pim_hostq::QueuePair;
use pim_mmu::Dce;

impl Tickable for CpuCluster {
    fn name(&self) -> &'static str {
        "cpu-cluster"
    }

    fn tick(&mut self) {
        CpuCluster::tick(self);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Threads cannot start mid-run, so a quiescent cluster is
        // quiescent forever: park unconditionally.
        if self.quiescent() {
            None
        } else {
            Some(now)
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.skip_cycles(cycles);
    }

    fn drain_outputs(&mut self, sink: &mut dyn FnMut(Output) -> bool) {
        while let Some(&front) = self.outbox_mut().front() {
            let accepted = sink(Output::Request {
                space: front.space,
                req: front.req,
            });
            if !accepted {
                return;
            }
            self.outbox_mut().pop_front();
        }
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            core_active_cycles: self.core_stats().iter().map(|c| c.busy_cycles).sum(),
            transfer_instr: self.stats().retired_transfer,
            llc_accesses: self.llc().hits + self.llc().misses,
            ..StatsSnapshot::default()
        }
    }
}

impl Tickable for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn tick(&mut self) {
        Dce::tick(self);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // An engine with an active job or queued descriptors ticks every
        // cycle (so controller completions always land on an armed
        // domain); one with nothing resident is parked until the
        // composer wakes it on enqueue/doorbell/resume.
        if self.busy() || self.pending_descriptors() > 0 {
            Some(now)
        } else {
            None
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.skip_cycles(cycles);
    }

    fn drain_outputs(&mut self, sink: &mut dyn FnMut(Output) -> bool) {
        while let Some(&front) = self.outbox_mut().front() {
            let accepted = sink(Output::Request {
                space: front.space,
                req: front.req,
            });
            if !accepted {
                return;
            }
            self.outbox_mut().pop_front();
        }
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        let s = self.stats();
        StatsSnapshot {
            dce_lines: s.lines_done,
            dce_busy_cycles: s.busy_cycles,
            ..StatsSnapshot::default()
        }
    }
}

/// The host-side ring poller: a [`QueuePair`]'s completion ring is
/// checked at the edges of its own registered clock domain (its period
/// is [`poll_period_ps`](pim_hostq::HostQueueConfig::poll_period_ps)).
/// The pair issues no memory traffic itself — doorbells and interrupts
/// are latency modeling, not bus transactions — so `drain_outputs` is
/// empty; the composer (the serving runtime) drains completions at each
/// poll edge.
impl Tickable for QueuePair {
    fn name(&self) -> &'static str {
        "hostq"
    }

    fn tick(&mut self) {
        QueuePair::tick_poll(self);
    }

    // `next_event` keeps the every-edge default: whether poll edges can
    // be skipped depends on runtime state (backlog, open arrival
    // windows) the pair cannot see, so the serving composer manages the
    // poller domain's horizon itself.
    fn skip(&mut self, cycles: u64) {
        self.skip_polls(cycles);
    }

    fn drain_outputs(&mut self, _sink: &mut dyn FnMut(Output) -> bool) {}

    fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

impl Tickable for MemController {
    fn name(&self) -> &'static str {
        "mem-controller"
    }

    fn tick(&mut self) {
        MemController::tick(self);
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        self.next_event_cycle()
    }

    fn skip(&mut self, cycles: u64) {
        self.skip_cycles(cycles);
    }

    fn drain_outputs(&mut self, sink: &mut dyn FnMut(Output) -> bool) {
        for c in self.drain_completions() {
            let accepted = sink(Output::Done(c));
            debug_assert!(accepted, "completions are not flow-controlled");
        }
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        let s = self.stats();
        StatsSnapshot {
            dram_activates: s.activates,
            dram_reads: s.reads,
            dram_writes: s.writes,
            dram_refreshes: s.refreshes,
            ..StatsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::{MemRequest, TimingParams};
    use pim_mapping::{DramAddr, Organization, PhysAddr};

    #[test]
    fn controller_outputs_are_completions() {
        let mut ctrl = MemController::new(Organization::ddr4_dimm(1, 1), TimingParams::ddr4_2400());
        ctrl.enqueue(MemRequest::read(
            7,
            PhysAddr(0),
            DramAddr::default(),
            Default::default(),
        ))
        .unwrap();
        let mut seen = Vec::new();
        for _ in 0..200 {
            Tickable::tick(&mut ctrl);
            ctrl.drain_outputs(&mut |o| {
                seen.push(o);
                true
            });
            if !seen.is_empty() {
                break;
            }
        }
        assert!(matches!(seen.as_slice(), [Output::Done(c)] if c.id == 7));
        assert_eq!(ctrl.stats_snapshot().dram_reads, 1);
        assert_eq!(ctrl.name(), "mem-controller");
    }

    #[test]
    fn ring_poller_ticks_count_poll_edges() {
        use pim_hostq::HostQueueConfig;
        let mut qp = pim_hostq::QueuePair::new(HostQueueConfig::synchronous());
        assert_eq!(Tickable::name(&qp), "hostq");
        for _ in 0..5 {
            Tickable::tick(&mut qp);
        }
        qp.drain_outputs(&mut |_| unreachable!("the poller emits no outputs"));
        assert_eq!(qp.stats().polls, 5);
        assert_eq!(qp.stats_snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn refused_request_stays_queued() {
        use pim_cpu::streams::MemcpyStream;
        use pim_cpu::{CpuConfig, Thread, ThreadKind};
        use pim_mapping::HetMap;

        let mapper = HetMap::baseline_bios(
            Organization::ddr4_dimm(4, 2),
            Organization::upmem_dimm(4, 2),
        );
        let threads = vec![Thread::new(
            Box::new(MemcpyStream::new(PhysAddr(0), PhysAddr(1 << 30), 4096)),
            ThreadKind::Transfer,
        )];
        let mut cluster = CpuCluster::new(CpuConfig::table1(), mapper, threads);
        // Tick until the outbox holds something, then refuse everything.
        for _ in 0..10_000 {
            Tickable::tick(&mut cluster);
            if !cluster.outbox_mut().is_empty() {
                break;
            }
        }
        let before = cluster.outbox_mut().len();
        assert!(before > 0, "transfer thread must emit memory traffic");
        cluster.drain_outputs(&mut |_| false);
        assert_eq!(
            cluster.outbox_mut().len(),
            before,
            "refusal must not drop work"
        );
        // Now accept everything.
        cluster.drain_outputs(&mut |_| true);
        assert!(cluster.outbox_mut().is_empty());
    }
}
