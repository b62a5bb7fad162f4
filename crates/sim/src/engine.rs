//! The clock-domain scheduler.
//!
//! [`ClockDomains`] owns one edge grid per registered domain and
//! picks the next edge to deliver. `System` composes the machine over
//! it: it registers one domain per component group, asks the scheduler
//! which domains fire at the next edge, and calls each component's own
//! `tick`, `skip_cycles` and `next_event_cycle`.

use crate::clock::{period_ticks, ticks_to_ns, TICKS_PER_NS};
use pim_telemetry::{CounterSet, Counters};

/// Handle to one registered clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainId(usize);

impl DomainId {
    /// The domain's slot index (also its bit in [`Fired`]).
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from a slot index (scheduler-internal sweeps).
    pub(crate) fn from_index(i: usize) -> DomainId {
        DomainId(i)
    }
}

/// Scheduler counters: how much work the event-driven core actually did
/// versus how much the cycle-stepped driver would have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Events processed (steps taken / distinct edges visited).
    pub events_fired: u64,
    /// Domain fires delivered across all events.
    pub domain_ticks: u64,
    /// Edges elided entirely while their domain was quiescent (each one
    /// a `tick` the cycle-stepped driver would have paid for).
    pub edges_skipped: u64,
}

impl Counters for TimingStats {
    fn counters(&self, prefix: &str, out: &mut CounterSet) {
        out.push(prefix, "events_fired", self.events_fired as f64);
        out.push(prefix, "domain_ticks", self.domain_ticks as f64);
        out.push(prefix, "edges_skipped", self.edges_skipped as f64);
    }
}

/// The set of domains firing at one edge (result of
/// [`ClockDomains::peek`] and `System::step`).
#[derive(Debug, Clone, Copy)]
pub struct Fired {
    /// The tick of the edge.
    pub now: u64,
    mask: u64,
}

impl Fired {
    pub(crate) fn new(now: u64, mask: u64) -> Fired {
        Fired { now, mask }
    }

    /// Whether domain `d` has an edge at this tick.
    pub fn contains(&self, d: DomainId) -> bool {
        (self.mask >> d.0) & 1 == 1
    }
}

/// One registered clock domain's scheduling state.
///
/// The domain's edge grid is `{origin + k·period : k ≥ 0}` and never
/// moves; event-driven scheduling only changes *which* grid edges get
/// delivered. `delivered` counts edges consumed so far (fired or folded
/// into a fire as skipped), and `pending_skip` is how many upcoming grid
/// edges the scheduler has decided to elide before the next delivery, so
/// the next delivery is always at
/// `origin + (delivered + pending_skip)·period`.
#[derive(Debug, Clone, Copy)]
struct Domain {
    period: u64,
    origin: u64,
    delivered: u64,
    pending_skip: u64,
    armed: bool,
    /// Deliveries actually taken ([`ClockDomains::take_due`] successes);
    /// `delivered - fires` is the edges idle-skip elided for this domain.
    fires: u64,
}

impl Domain {
    /// Tick of the next edge this domain would deliver (if armed).
    #[inline]
    fn next(&self) -> u64 {
        self.origin + (self.delivered + self.pending_skip) * self.period
    }

    /// Grid edges strictly before tick `t`.
    #[inline]
    fn edges_before(&self, t: u64) -> u64 {
        if t <= self.origin {
            0
        } else {
            (t - 1 - self.origin) / self.period + 1
        }
    }

    /// Grid edges at or before tick `t`.
    #[inline]
    fn edges_through(&self, t: u64) -> u64 {
        if t < self.origin {
            0
        } else {
            (t - self.origin) / self.period + 1
        }
    }

    /// Index of the first grid edge at or after tick `t`.
    #[inline]
    fn edge_at_or_after(&self, t: u64) -> u64 {
        if t <= self.origin {
            0
        } else {
            (t - self.origin).div_ceil(self.period)
        }
    }
}

/// Owns every per-domain clock and schedules the next edge.
///
/// Components register a domain at build time and are ticked whenever
/// the scheduler reports their domain fired; `System` holds only
/// [`DomainId`] handles, no clock state.
///
/// Internally this is a next-event core: the next edge is the earliest
/// pending delivery over the armed domains, found by a scan (a machine
/// has a handful of clocks), so a parked or deferred domain's edges are
/// skipped without ever being visited.
#[derive(Debug, Default)]
pub struct ClockDomains {
    domains: Vec<Domain>,
    labels: Vec<&'static str>,
    stats: TimingStats,
}

impl ClockDomains {
    /// An empty scheduler.
    pub fn new() -> Self {
        ClockDomains::default()
    }

    fn push(&mut self, label: &'static str, period: u64, origin: u64) -> DomainId {
        assert!(self.domains.len() < 64, "at most 64 clock domains");
        self.domains.push(Domain {
            period,
            origin,
            delivered: 0,
            pending_skip: 0,
            armed: true,
            fires: 0,
        });
        self.labels.push(label);
        DomainId(self.domains.len() - 1)
    }

    /// Register a domain from a period in picoseconds; its first edge is
    /// at tick 0.
    pub fn add_period_ps(&mut self, label: &'static str, ps: u64) -> DomainId {
        self.push(label, period_ticks(ps), 0)
    }

    /// Register a domain with a period in raw ticks whose first edge is
    /// one full period in (used for sampling windows).
    pub fn add_period_ticks(&mut self, label: &'static str, ticks: u64) -> DomainId {
        let ticks = ticks.max(1);
        self.push(label, ticks, ticks)
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The label a domain was registered under.
    pub fn label(&self, d: DomainId) -> &'static str {
        self.labels[d.0]
    }

    /// The tick of the earliest pending edge.
    ///
    /// # Panics
    ///
    /// Panics if no domain is armed.
    pub fn next_edge(&self) -> u64 {
        self.peek().now
    }

    /// Deliver domain `d`'s edge at tick `now` if one is due there.
    /// Returns `Some(skipped)` — how many elided grid edges this
    /// delivery folded in — or `None` if the domain has no edge at
    /// `now`. The caller catches the component up over the skipped
    /// edges, then ticks it.
    pub fn take_due(&mut self, d: DomainId, now: u64) -> Option<u64> {
        let dom = &mut self.domains[d.0];
        if !dom.armed || dom.next() != now {
            return None;
        }
        let skipped = dom.pending_skip;
        dom.delivered += skipped + 1;
        dom.pending_skip = 0;
        dom.fires += 1;
        self.stats.domain_ticks += 1;
        self.stats.edges_skipped += skipped;
        Some(skipped)
    }

    /// Edges of `d` delivered so far (the component's cycle count when
    /// it is fully caught up).
    pub fn delivered(&self, d: DomainId) -> u64 {
        self.domains[d.0].delivered
    }

    /// Grid edges of `d` strictly before tick `t` — the cycle count a
    /// component on this domain would have after the cycle-stepped
    /// driver ticked it at every edge before `t`.
    pub fn edges_before(&self, d: DomainId, t: u64) -> u64 {
        self.domains[d.0].edges_before(t)
    }

    /// Grid edges of `d` at or before tick `t`.
    pub fn edges_through(&self, d: DomainId, t: u64) -> u64 {
        self.domains[d.0].edges_through(t)
    }

    /// Park `d`: deliver no further edges until it is re-armed by
    /// [`wake_at`](Self::wake_at) or [`defer_to_edge`](Self::defer_to_edge).
    pub fn park(&mut self, d: DomainId) {
        let dom = &mut self.domains[d.0];
        dom.armed = false;
        dom.pending_skip = 0;
    }

    /// Arm `d` so its next delivery is grid edge index `e` (clamped to
    /// the first undelivered edge); the elided edges in between are
    /// folded into that delivery as a skip count. `e = delivered` means
    /// "every edge from here on".
    pub fn defer_to_edge(&mut self, d: DomainId, e: u64) {
        let dom = &mut self.domains[d.0];
        let e = e.max(dom.delivered);
        dom.pending_skip = e - dom.delivered;
        dom.armed = true;
    }

    /// Re-arm `d` no later than the first of its grid edges at or after
    /// tick `t` (an external input arrives at `t`; the component must
    /// tick at its next own-clock edge). Never delays an
    /// already-earlier delivery.
    pub fn wake_at(&mut self, d: DomainId, t: u64) {
        let dom = &mut self.domains[d.0];
        let e = dom.edge_at_or_after(t).max(dom.delivered);
        if !dom.armed || e < dom.delivered + dom.pending_skip {
            dom.pending_skip = e - dom.delivered;
            dom.armed = true;
        }
    }

    /// Index of `d`'s first grid edge at or after tick `t`.
    pub fn edge_at_or_after(&self, d: DomainId, t: u64) -> u64 {
        self.domains[d.0].edge_at_or_after(t)
    }

    /// The tick of `d`'s grid edge `e`.
    pub fn edge_tick(&self, d: DomainId, e: u64) -> u64 {
        let dom = &self.domains[d.0];
        dom.origin + e * dom.period
    }

    /// Index of `d`'s first grid edge whose tick converts to at least
    /// `ns` nanoseconds under [`ticks_to_ns`] — the same f64 conversion
    /// edge-indexed participants use for their own notion of time, so a
    /// wake computed here is never one edge early by rounding.
    pub fn edge_at_or_after_ns(&self, d: DomainId, ns: f64) -> u64 {
        let dom = &self.domains[d.0];
        let ticks = ns * TICKS_PER_NS as f64;
        // Start from a safe underestimate, then walk forward using the
        // exact conversion (the walk is a couple of iterations at most).
        // Truncation toward zero is exactly the underestimate we want.
        #[allow(clippy::cast_possible_truncation)]
        let mut e = if ticks <= dom.origin as f64 {
            0
        } else {
            (((ticks - dom.origin as f64) / dom.period as f64) as u64).saturating_sub(2)
        };
        while ticks_to_ns(dom.origin + e * dom.period) < ns {
            e += 1;
        }
        e
    }

    /// Whether `d` is armed (has a pending delivery).
    /// Parked domains deliver nothing until re-armed by
    /// [`wake_at`](Self::wake_at) / [`defer_to_edge`](Self::defer_to_edge).
    pub fn armed(&self, d: DomainId) -> bool {
        self.domains[d.0].armed
    }

    /// The tick of `d`'s pending delivery. Meaningful only while
    /// [`armed`](Self::armed); used by shadow checkers comparing the
    /// schedule against independently re-derived component horizons.
    pub fn next_tick(&self, d: DomainId) -> u64 {
        self.domains[d.0].next()
    }

    /// The grid-edge index of `d`'s pending delivery
    /// (`delivered + pending_skip`).
    pub fn pending_edge(&self, d: DomainId) -> u64 {
        let dom = &self.domains[d.0];
        dom.delivered + dom.pending_skip
    }

    /// Deliveries actually taken for `d` (ticks its component ran).
    pub fn domain_fires(&self, d: DomainId) -> u64 {
        self.domains[d.0].fires
    }

    /// Edges of `d` elided by idle-skip (delivered as fold-ins rather
    /// than ticks). Together with [`domain_fires`](Self::domain_fires)
    /// this attributes [`TimingStats`] per clock domain.
    pub fn domain_skipped(&self, d: DomainId) -> u64 {
        let dom = &self.domains[d.0];
        dom.delivered - dom.fires
    }

    /// Count one processed event (a visited edge / one `System` step).
    pub(crate) fn count_event(&mut self) {
        self.stats.events_fired += 1;
    }

    /// Scheduler work counters.
    pub fn timing_stats(&self) -> TimingStats {
        self.stats
    }

    /// The earliest pending edge and every armed domain due there,
    /// without advancing any clock — lets a composer act *before* the
    /// components on a domain tick (e.g. submit work ahead of the
    /// engine's cycle at the same edge).
    ///
    /// # Panics
    ///
    /// Panics if no domain is armed.
    pub fn peek(&self) -> Fired {
        let mut now = u64::MAX;
        let mut mask = 0u64;
        for (i, d) in self.domains.iter().enumerate().filter(|(_, d)| d.armed) {
            let t = d.next();
            if t < now {
                now = t;
                mask = 0;
            }
            if t == now {
                mask |= 1 << i;
            }
        }
        assert!(mask != 0, "at least one armed clock domain");
        Fired { now, mask }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliver the earliest pending edge to every domain due there, as
    /// `System::step` does, and report which domains took it.
    fn advance(d: &mut ClockDomains) -> Fired {
        let now = d.peek().now;
        d.count_event();
        let mask = (0..d.len())
            .filter(|&i| d.take_due(DomainId(i), now).is_some())
            .fold(0, |m, i| m | 1 << i);
        Fired::new(now, mask)
    }

    #[test]
    fn domains_fire_at_their_own_rates() {
        let mut d = ClockDomains::new();
        let fast = d.add_period_ps("fast", 312); // 30 ticks
        let slow = d.add_period_ps("slow", 833); // 80 ticks
        let mut fast_edges = 0;
        let mut slow_edges = 0;
        loop {
            let f = advance(&mut d);
            if f.now > 2400 {
                break;
            }
            if f.contains(fast) {
                fast_edges += 1;
            }
            if f.contains(slow) {
                slow_edges += 1;
            }
        }
        // Both fire at t=0; 2400 ticks = 81 fast edges, 31 slow edges.
        assert_eq!(fast_edges, 81);
        assert_eq!(slow_edges, 31);
    }

    #[test]
    fn coincident_edges_fire_together() {
        let mut d = ClockDomains::new();
        let a = d.add_period_ticks("a", 6);
        let b = d.add_period_ticks("b", 10);
        // First coincidence after 0 is at lcm(6, 10) = 30.
        let mut coincident = None;
        for _ in 0..20 {
            let f = advance(&mut d);
            if f.contains(a) && f.contains(b) {
                coincident = Some(f.now);
                break;
            }
        }
        assert_eq!(coincident, Some(30));
    }

    #[test]
    fn labels_and_len() {
        let mut d = ClockDomains::new();
        assert!(d.is_empty());
        let a = d.add_period_ps("cpu", 312);
        assert_eq!(d.label(a), "cpu");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn parked_domain_edges_are_elided() {
        let mut d = ClockDomains::new();
        let fast = d.add_period_ticks("fast", 10);
        let slow = d.add_period_ticks("slow", 100);
        d.park(fast);
        // With fast parked, the scheduler jumps straight to slow's edges.
        let f = advance(&mut d);
        assert_eq!(f.now, 100);
        assert!(f.contains(slow) && !f.contains(fast));
        let f = advance(&mut d);
        assert_eq!(f.now, 200);
        assert_eq!(d.timing_stats().events_fired, 2);
        assert_eq!(d.timing_stats().domain_ticks, 2);
    }

    #[test]
    fn deferred_domain_reports_skipped_edges() {
        let mut d = ClockDomains::new();
        let dom = d.add_period_ticks("t", 10);
        // First delivery at edge 0 (tick 10).
        assert_eq!(d.take_due(dom, d.next_edge()), Some(0));
        // Defer to edge index 5 (tick 60): edges 1..=4 are elided.
        d.defer_to_edge(dom, 5);
        assert_eq!(d.next_edge(), 60);
        assert_eq!(d.take_due(dom, 60), Some(4));
        assert_eq!(d.delivered(dom), 6);
        assert_eq!(d.timing_stats().edges_skipped, 4);
        // Back to every-edge cadence afterwards.
        assert_eq!(d.next_edge(), 70);
    }

    #[test]
    fn wake_never_delays_and_lands_on_grid() {
        let mut d = ClockDomains::new();
        let dom = d.add_period_ticks("t", 10);
        d.park(dom);
        // Input at tick 42 → first own edge at or after is tick 50.
        d.wake_at(dom, 42);
        assert_eq!(d.next_edge(), 50);
        // A later wake must not push the pending delivery out.
        d.wake_at(dom, 95);
        assert_eq!(d.next_edge(), 50);
        // An earlier input pulls it in.
        d.wake_at(dom, 15);
        assert_eq!(d.next_edge(), 20);
        assert_eq!(d.take_due(dom, 20), Some(1));
    }

    #[test]
    fn edge_counts_match_the_grid() {
        let mut d = ClockDomains::new();
        let ps = d.add_period_ps("cpu", 312); // 30 ticks, origin 0
        let tk = d.add_period_ticks("s", 50); // origin 50
        assert_eq!(d.edges_before(ps, 0), 0);
        assert_eq!(d.edges_before(ps, 1), 1);
        assert_eq!(d.edges_before(ps, 30), 1);
        assert_eq!(d.edges_before(ps, 31), 2);
        assert_eq!(d.edges_through(ps, 30), 2);
        assert_eq!(d.edges_before(tk, 50), 0);
        assert_eq!(d.edges_through(tk, 50), 1);
        assert_eq!(d.edges_through(tk, 99), 1);
        assert_eq!(d.edges_through(tk, 100), 2);
    }

    /// The scheduler at its documented limit: 64 domains, so the last
    /// one is bit 63 of the [`Fired`] mask.
    #[test]
    fn sixty_four_domains_deliver_every_edge_through_a_horizon() {
        let mut d = ClockDomains::new();
        let ids: Vec<DomainId> = (0..64u64)
            .map(|i| d.add_period_ticks("d", 10 + 3 * i))
            .collect();
        let parked = |i: usize| i % 5 == 2;
        assert!(!parked(63));
        for (i, &id) in ids.iter().enumerate() {
            if parked(i) {
                d.park(id);
            }
        }
        let horizon = 5_000;
        loop {
            let f = d.peek();
            if f.now > horizon {
                break;
            }
            for &id in &ids {
                let took = d.take_due(id, f.now).is_some();
                assert_eq!(f.contains(id), took, "slot {} at {}", id.index(), f.now);
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            let want = if parked(i) {
                0
            } else {
                d.edges_through(id, horizon)
            };
            assert_eq!(d.domain_fires(id), want, "slot {i}");
        }
        assert!(d.domain_fires(ids[63]) > 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 clock domains")]
    fn a_sixty_fifth_domain_is_refused() {
        let mut d = ClockDomains::new();
        for _ in 0..65 {
            d.add_period_ticks("d", 10);
        }
    }
}
