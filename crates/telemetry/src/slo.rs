//! Online SLO tracking with multi-window burn rates.
//!
//! Each tenant class declares an objective — "`target` of jobs finish
//! under `latency_ns`" and optionally "windowed goodput stays above
//! `min_goodput_gbps`" — and the tracker watches completions stream in.
//! The health signal is the **burn rate**: the fraction of the error
//! budget being consumed, `bad_fraction / (1 − target)`. A burn rate of
//! 1.0 spends the budget exactly as fast as the objective allows; 10×
//! means the budget is gone in a tenth of the period.
//!
//! Alerting uses two windows (the Google-SRE multi-window idiom): the
//! *fast* window reacts quickly, the *slow* window confirms the
//! problem is sustained — a breach fires only when **both** exceed the
//! threshold, so a single slow job cannot page and a sustained
//! regression cannot hide. Breaches are edge-triggered instants (one
//! per excursion, not one per sample) so they can be dropped into a
//! Perfetto trace as markers; burn rates are additionally sampled into
//! a [`SampleSeries`] for counter tracks.
//!
//! Everything is deterministic: simulated-clock windows over recorded
//! completions, no wall time anywhere.

use crate::sampler::SampleSeries;

/// One class's objective and alerting policy.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Class label (report tables, trace track names).
    pub class: String,
    /// A job is *good* when its e2e latency is ≤ this, ns.
    pub latency_ns: f64,
    /// Objective: the fraction of jobs that must be good (e.g. 0.999).
    /// Must be < 1.0 — a zero error budget makes burn rates undefined.
    pub target: f64,
    /// Fast alerting window, ns.
    pub fast_window_ns: f64,
    /// Slow (confirming) window, ns.
    pub slow_window_ns: f64,
    /// Breach when *both* windows' burn rates exceed this.
    pub burn_threshold: f64,
    /// Goodput floor over the slow window, GB/s (0 disables the
    /// goodput objective).
    pub min_goodput_gbps: f64,
}

impl SloConfig {
    /// A latency objective with conventional alerting defaults: 50 µs /
    /// 600 µs windows, breach at 10× burn, no goodput floor.
    pub fn latency(class: &str, latency_ns: f64, target: f64) -> Self {
        assert!(target < 1.0, "a zero error budget cannot burn");
        SloConfig {
            class: class.to_string(),
            latency_ns,
            target,
            fast_window_ns: 50_000.0,
            slow_window_ns: 600_000.0,
            burn_threshold: 10.0,
            min_goodput_gbps: 0.0,
        }
    }

    /// Builder: add a goodput floor over the slow window.
    pub fn with_goodput_floor(mut self, gbps: f64) -> Self {
        self.min_goodput_gbps = gbps;
        self
    }

    /// Builder: override both alerting windows.
    pub fn with_windows(mut self, fast_ns: f64, slow_ns: f64) -> Self {
        assert!(fast_ns > 0.0 && slow_ns >= fast_ns);
        self.fast_window_ns = fast_ns;
        self.slow_window_ns = slow_ns;
        self
    }
}

/// What objective a breach violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreachKind {
    /// Both burn-rate windows exceeded the threshold.
    Latency,
    /// Slow-window goodput fell below the floor (only while jobs are
    /// completing — an idle window is not a breach).
    Goodput,
}

impl BreachKind {
    /// Stable label.
    pub fn name(&self) -> &'static str {
        match self {
            BreachKind::Latency => "latency-burn",
            BreachKind::Goodput => "goodput-floor",
        }
    }
}

/// One edge-triggered breach instant.
#[derive(Debug, Clone)]
pub struct SloBreach {
    /// Sample timestamp at which the excursion began, ns.
    pub t_ns: f64,
    /// Index into the tracker's configs.
    pub class: usize,
    /// Which objective.
    pub kind: BreachKind,
    /// Fast-window burn rate at the breach sample.
    pub fast_burn: f64,
    /// Slow-window burn rate at the breach sample.
    pub slow_burn: f64,
}

/// One completion observation retained inside the windows.
#[derive(Debug, Clone, Copy)]
struct Obs {
    t_ns: f64,
    good: bool,
    bytes: u64,
}

/// The online tracker: feed completions with
/// [`observe`](Self::observe), evaluate with [`sample`](Self::sample)
/// at the telemetry cadence.
#[derive(Debug, Clone)]
pub struct SloTracker {
    cfgs: Vec<SloConfig>,
    window: Vec<Vec<Obs>>,
    in_breach: Vec<[bool; 2]>,
    breaches: Vec<SloBreach>,
    series: SampleSeries,
}

impl SloTracker {
    /// A tracker over `cfgs`, sampling burn rates every `sample_ns`.
    /// Columns per class: `{class}.burn_fast`, `{class}.burn_slow`,
    /// `{class}.goodput_gbps`.
    pub fn new(cfgs: Vec<SloConfig>, sample_ns: f64) -> Self {
        let names: Vec<String> = cfgs
            .iter()
            .flat_map(|c| {
                [
                    format!("{}.burn_fast", c.class),
                    format!("{}.burn_slow", c.class),
                    format!("{}.goodput_gbps", c.class),
                ]
            })
            .collect();
        let cols: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        SloTracker {
            window: vec![Vec::new(); cfgs.len()],
            in_breach: vec![[false; 2]; cfgs.len()],
            breaches: Vec::new(),
            series: SampleSeries::new(&cols, sample_ns),
            cfgs,
        }
    }

    /// The class configs, in column order.
    pub fn configs(&self) -> &[SloConfig] {
        &self.cfgs
    }

    /// Feed one job completion for `class` at `t_ns` with the job's
    /// e2e latency and payload bytes. Observations should arrive in
    /// roughly completion-time order; small reorderings (e.g. within
    /// one multi-shard poll batch) are tolerated — the window scans
    /// filter by timestamp rather than assuming sortedness.
    pub fn observe(&mut self, class: usize, t_ns: f64, latency_ns: f64, bytes: u64) {
        let good = latency_ns <= self.cfgs[class].latency_ns;
        self.window[class].push(Obs { t_ns, good, bytes });
    }

    /// Burn rates for `class` over `(fast, slow)` windows ending at
    /// `t_ns`, plus slow-window goodput in GB/s. Empty windows burn 0.
    pub fn rates(&self, class: usize, t_ns: f64) -> (f64, f64, f64) {
        let cfg = &self.cfgs[class];
        let budget = 1.0 - cfg.target;
        let mut fast = (0u64, 0u64); // (bad, total)
        let mut slow = (0u64, 0u64);
        let mut bytes = 0u64;
        for o in self.window[class].iter().rev() {
            if o.t_ns < t_ns - cfg.slow_window_ns {
                // Not `break`: a multi-shard poll batch records
                // completions slightly out of time order, so keep
                // filtering (the retained window is already pruned to
                // the slow horizon, so this stays O(window)).
                continue;
            }
            slow.1 += 1;
            if !o.good {
                slow.0 += 1;
            }
            bytes += o.bytes;
            if o.t_ns >= t_ns - cfg.fast_window_ns {
                fast.1 += 1;
                if !o.good {
                    fast.0 += 1;
                }
            }
        }
        let burn = |(bad, total): (u64, u64)| {
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let goodput = bytes as f64 / cfg.slow_window_ns; // bytes/ns == GB/s
        (burn(fast), burn(slow), goodput)
    }

    /// Evaluate every class at `t_ns`: append one burn-rate row to the
    /// series and emit edge-triggered breach instants. Call at the
    /// telemetry sampling cadence, with non-decreasing `t_ns`.
    pub fn sample(&mut self, t_ns: f64) {
        let mut row = Vec::with_capacity(self.cfgs.len() * 3);
        for class in 0..self.cfgs.len() {
            // Prune observations older than the slow window first, so
            // memory stays bounded by throughput × window.
            let horizon = t_ns - self.cfgs[class].slow_window_ns;
            self.window[class].retain(|o| o.t_ns >= horizon);
            let (fast, slow, goodput) = self.rates(class, t_ns);
            row.extend([fast, slow, goodput]);
            let cfg = &self.cfgs[class];
            let latency_breach = fast > cfg.burn_threshold && slow > cfg.burn_threshold;
            let goodput_breach = cfg.min_goodput_gbps > 0.0
                && !self.window[class].is_empty()
                && goodput < cfg.min_goodput_gbps;
            for (slot, (breach, kind)) in [
                (latency_breach, BreachKind::Latency),
                (goodput_breach, BreachKind::Goodput),
            ]
            .into_iter()
            .enumerate()
            {
                if breach && !self.in_breach[class][slot] {
                    self.breaches.push(SloBreach {
                        t_ns,
                        class,
                        kind,
                        fast_burn: fast,
                        slow_burn: slow,
                    });
                }
                self.in_breach[class][slot] = breach;
            }
        }
        self.series.record(t_ns, &row);
    }

    /// Every breach instant emitted so far, in time order.
    pub fn breaches(&self) -> &[SloBreach] {
        &self.breaches
    }

    /// The sampled burn-rate/goodput series.
    pub fn series(&self) -> &SampleSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(burn_threshold: f64) -> SloTracker {
        SloTracker::new(
            vec![SloConfig {
                class: "latency".into(),
                latency_ns: 1000.0,
                target: 0.9, // 10% error budget: burn = 10 × bad fraction
                fast_window_ns: 100.0,
                slow_window_ns: 1000.0,
                burn_threshold,
                min_goodput_gbps: 0.0,
            }],
            100.0,
        )
    }

    #[test]
    fn burn_rates_window_correctly() {
        let mut t = tracker(5.0);
        // 8 good + 2 bad in the slow window; the 2 bad are recent.
        for i in 0..8 {
            t.observe(0, i as f64 * 100.0, 500.0, 100);
        }
        t.observe(0, 950.0, 5000.0, 100);
        t.observe(0, 980.0, 5000.0, 100);
        let (fast, slow, goodput) = t.rates(0, 1000.0);
        // Fast window [900, 1000]: 2 bad of 2 → burn 1.0/0.1 = 10.
        assert!((fast - 10.0).abs() < 1e-12, "{fast}");
        // Slow window [0, 1000]: 2 bad of 10 → burn 0.2/0.1 = 2.
        assert!((slow - 2.0).abs() < 1e-12, "{slow}");
        // 1000 bytes over 1000 ns = 1 GB/s.
        assert!((goodput - 1.0).abs() < 1e-12, "{goodput}");
        // Empty window burns nothing.
        assert_eq!(t.rates(0, 1e9), (0.0, 0.0, 0.0));
    }

    #[test]
    fn breach_requires_both_windows_and_is_edge_triggered() {
        let mut t = tracker(5.0);
        // A lone bad job: fast window screams (1 of 1 bad → burn 10)
        // but the slow window holds (1 of 11 bad → burn < 1): no page.
        for i in 0..10 {
            t.observe(0, i as f64 * 100.0, 10.0, 1);
        }
        t.observe(0, 999.0, 9999.0, 1);
        t.sample(1000.0);
        assert!(t.breaches().is_empty(), "single slow job must not page");

        // A sustained regression: every job bad → both windows at 10.
        let mut t = tracker(5.0);
        for i in 0..20 {
            t.observe(0, 900.0 + i as f64 * 5.0, 9999.0, 1);
        }
        t.sample(1000.0);
        // The regression continues through the next sample: still in
        // breach, but edge-triggered — no second instant.
        for i in 0..20 {
            t.observe(0, 1000.0 + i as f64 * 5.0, 9999.0, 1);
        }
        t.sample(1100.0);
        assert_eq!(t.breaches().len(), 1, "edge-triggered, not level");
        let b = &t.breaches()[0];
        assert_eq!(b.t_ns, 1000.0);
        assert_eq!(b.kind, BreachKind::Latency);
        assert!(b.fast_burn > 5.0 && b.slow_burn > 5.0);

        // Recovery then relapse: a second excursion, a second instant.
        t.sample(5000.0); // windows empty: burn 0, breach clears
        for i in 0..20 {
            t.observe(0, 5400.0 + i as f64 * 5.0, 9999.0, 1);
        }
        t.sample(5500.0);
        assert_eq!(t.breaches().len(), 2);
    }

    #[test]
    fn goodput_floor_breaches_only_while_serving() {
        let cfg = SloConfig::latency("bulk", 1e9, 0.5)
            .with_goodput_floor(2.0)
            .with_windows(100.0, 1000.0);
        let mut t = SloTracker::new(vec![cfg], 100.0);
        // Idle: no observations → no goodput breach.
        t.sample(1000.0);
        assert!(t.breaches().is_empty());
        // Serving 1 GB/s against a 2 GB/s floor → breach.
        for i in 0..10 {
            t.observe(0, 1000.0 + i as f64 * 100.0, 10.0, 100);
        }
        t.sample(2000.0);
        assert_eq!(t.breaches().len(), 1);
        assert_eq!(t.breaches()[0].kind, BreachKind::Goodput);
    }

    #[test]
    fn series_has_three_columns_per_class() {
        let mut t = SloTracker::new(
            vec![
                SloConfig::latency("a", 100.0, 0.99),
                SloConfig::latency("b", 100.0, 0.9),
            ],
            50.0,
        );
        t.sample(0.0);
        t.sample(50.0);
        assert_eq!(t.series().len(), 2);
        assert_eq!(
            t.series().columns(),
            [
                "a.burn_fast",
                "a.burn_slow",
                "a.goodput_gbps",
                "b.burn_fast",
                "b.burn_slow",
                "b.goodput_gbps"
            ]
        );
        assert!(t.series().column("b.burn_slow").is_some());
    }

    #[test]
    #[should_panic(expected = "error budget")]
    fn perfect_target_is_rejected() {
        let _ = SloConfig::latency("x", 100.0, 1.0);
    }

    #[test]
    fn pruning_bounds_memory() {
        let mut t = tracker(5.0);
        for i in 0..10_000 {
            t.observe(0, i as f64, 1.0, 1);
            if i % 100 == 0 {
                t.sample(i as f64);
            }
        }
        // Slow window is 1000 ns: at most ~1100 observations retained.
        assert!(t.window[0].len() <= 1101, "{}", t.window[0].len());
    }
}
