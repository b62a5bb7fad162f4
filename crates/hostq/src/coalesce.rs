//! Interrupt coalescing: fire on N completions or a T-ns timer,
//! whichever comes first (the NVMe aggregation-threshold/-time model).

/// Why a coalesced interrupt fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireCause {
    /// The pending-completion count reached the threshold.
    Count,
    /// The aggregation timer expired first.
    Timer,
}

/// Completion-interrupt moderation state.
///
/// Completions accumulate via [`on_completion`](Self::on_completion);
/// the first pending completion arms the timer. [`due`](Self::due)
/// reports whether an interrupt should be delivered at `now`, and
/// [`fire`](Self::fire) consumes the pending batch. With a threshold of
/// 1 every completion is due immediately — coalescing disabled.
#[derive(Debug, Clone)]
pub struct InterruptCoalescer {
    threshold: u32,
    timeout_ns: f64,
    pending: u32,
    armed_at_ns: Option<f64>,
    /// When the pending count first *reached* the threshold — the
    /// instant the count condition tripped, recorded so a later
    /// [`fire`](Self::fire) can attribute the cause to whichever
    /// condition actually went due first rather than re-checking the
    /// count at fire time (a completion landing on the same edge the
    /// timer expires must not flip a timer-bound delivery to
    /// [`FireCause::Count`]).
    count_due_at_ns: Option<f64>,
    fired_on_count: u64,
    fired_on_timer: u64,
}

impl InterruptCoalescer {
    /// A coalescer firing on `threshold` completions or `timeout_ns`
    /// after the first pending one.
    ///
    /// # Panics
    ///
    /// Panics on a zero threshold or negative timeout.
    pub fn new(threshold: u32, timeout_ns: f64) -> Self {
        assert!(threshold >= 1, "coalesce threshold must be at least 1");
        assert!(timeout_ns >= 0.0, "coalesce timeout cannot be negative");
        InterruptCoalescer {
            threshold,
            timeout_ns,
            pending: 0,
            armed_at_ns: None,
            count_due_at_ns: None,
            fired_on_count: 0,
            fired_on_timer: 0,
        }
    }

    /// Register a device-side completion that occurred at `done_ns`.
    pub fn on_completion(&mut self, done_ns: f64) {
        self.pending += 1;
        if self.armed_at_ns.is_none() {
            self.armed_at_ns = Some(done_ns);
        }
        if self.pending == self.threshold {
            self.count_due_at_ns = Some(done_ns);
        }
    }

    /// Completions accumulated since the last fire.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Whether an interrupt is deliverable at `now_ns`.
    pub fn due(&self, now_ns: f64) -> bool {
        if self.pending == 0 {
            return false;
        }
        self.pending >= self.threshold
            || self
                .armed_at_ns
                .is_some_and(|armed| now_ns >= armed + self.timeout_ns)
    }

    /// The earliest simulated time at which [`due`](Self::due) holds,
    /// or `None` with nothing pending: the first pending completion's
    /// time once the count threshold is reached, else its timer
    /// deadline. A poller may sleep until then — no interrupt can go due
    /// earlier without another completion arriving.
    pub fn due_at_ns(&self) -> Option<f64> {
        let armed = self.armed_at_ns.filter(|_| self.pending > 0)?;
        Some(if self.pending >= self.threshold {
            armed
        } else {
            armed + self.timeout_ns
        })
    }

    /// Deliver the pending batch: returns how many completions it
    /// announces and why it fired, resetting the aggregation state.
    ///
    /// # Panics
    ///
    /// Panics if nothing is pending.
    pub fn fire(&mut self, _now_ns: f64) -> (u32, FireCause) {
        assert!(self.pending > 0, "no pending completions to announce");
        // Attribute the cause to the condition that went due *first*,
        // not whichever happens to hold at fire time: with coalescing
        // enabled, a batch whose count crossing landed only at (or
        // after) the timer deadline was a timer-bound wait. Threshold 1
        // is coalescing disabled — always a count delivery.
        let deadline = self.armed_at_ns.map(|armed| armed + self.timeout_ns);
        let count_won = self.threshold == 1
            || match (self.count_due_at_ns, deadline) {
                (Some(count_at), Some(deadline)) => count_at < deadline,
                (Some(_), None) => true,
                (None, _) => false,
            };
        let cause = if count_won {
            self.fired_on_count += 1;
            FireCause::Count
        } else {
            self.fired_on_timer += 1;
            FireCause::Timer
        };
        let n = self.pending;
        self.pending = 0;
        self.armed_at_ns = None;
        self.count_due_at_ns = None;
        (n, cause)
    }

    /// Interrupts delivered because the count threshold was reached.
    pub fn fired_on_count(&self) -> u64 {
        self.fired_on_count
    }

    /// Interrupts delivered because the timer expired first.
    pub fn fired_on_timer(&self) -> u64 {
        self.fired_on_timer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_one_fires_immediately() {
        let mut c = InterruptCoalescer::new(1, 1_000.0);
        assert!(!c.due(0.0));
        c.on_completion(10.0);
        assert!(c.due(10.0));
        assert_eq!(c.fire(10.0), (1, FireCause::Count));
        assert!(!c.due(1e9));
    }

    #[test]
    fn count_threshold_beats_the_timer() {
        let mut c = InterruptCoalescer::new(3, 10_000.0);
        c.on_completion(100.0);
        c.on_completion(200.0);
        assert!(!c.due(300.0), "2 of 3 and timer not expired");
        c.on_completion(300.0);
        assert!(c.due(300.0));
        assert_eq!(c.fire(300.0), (3, FireCause::Count));
        assert_eq!(c.fired_on_count(), 1);
    }

    #[test]
    fn timer_bounds_the_wait() {
        let mut c = InterruptCoalescer::new(8, 500.0);
        c.on_completion(100.0);
        assert!(!c.due(599.0));
        assert!(c.due(600.0), "armed at 100, timeout 500");
        assert_eq!(c.fire(600.0), (1, FireCause::Timer));
        assert_eq!(c.fired_on_timer(), 1);
        // The timer re-arms from the next first completion.
        c.on_completion(1_000.0);
        assert!(!c.due(1_400.0));
        assert!(c.due(1_500.0));
    }

    #[test]
    fn same_edge_race_is_a_timer_delivery() {
        // Regression: a completion landing on the exact edge the timer
        // expires used to flip the attribution to Count because `fire`
        // re-checked `pending >= threshold` at fire time. The timer
        // went due first (the crossing was not strictly earlier), so
        // this is a timer-bound delivery.
        let mut c = InterruptCoalescer::new(2, 500.0);
        c.on_completion(100.0); // armed at 100, deadline 600
        c.on_completion(600.0); // threshold crossed *on* the deadline
        assert!(c.due(600.0));
        assert_eq!(c.fire(600.0), (2, FireCause::Timer));
        assert_eq!(c.fired_on_timer(), 1);
        assert_eq!(c.fired_on_count(), 0);
    }

    #[test]
    fn late_fire_still_attributes_an_early_crossing_to_count() {
        // The poll that delivers the batch may run well after both
        // conditions went due; attribution follows whichever tripped
        // first, not the state at fire time.
        let mut c = InterruptCoalescer::new(2, 500.0);
        c.on_completion(100.0);
        c.on_completion(300.0); // crossed at 300, deadline 600
        assert_eq!(c.fire(700.0), (2, FireCause::Count));
        // And a crossing that only happened after the deadline is a
        // timer delivery even though the count holds when fired.
        c.on_completion(1_000.0); // deadline 1500
        c.on_completion(1_600.0);
        assert_eq!(c.fire(1_600.0), (2, FireCause::Timer));
        assert_eq!(c.fired_on_count(), 1);
        assert_eq!(c.fired_on_timer(), 1);
    }

    #[test]
    fn due_at_is_the_first_instant_due_holds() {
        let mut c = InterruptCoalescer::new(3, 500.0);
        assert_eq!(c.due_at_ns(), None);
        c.on_completion(100.0);
        assert_eq!(c.due_at_ns(), Some(600.0), "timer deadline");
        assert!(!c.due(599.9) && c.due(600.0));
        c.on_completion(200.0);
        c.on_completion(300.0);
        assert_eq!(c.due_at_ns(), Some(100.0), "count reached: due already");
        assert!(c.due(300.0));
        c.fire(300.0);
        assert_eq!(c.due_at_ns(), None);
    }

    #[test]
    #[should_panic(expected = "no pending")]
    fn firing_empty_is_a_bug() {
        InterruptCoalescer::new(2, 0.0).fire(0.0);
    }
}
