//! The lost-wakeup / stale-horizon sanitizer (`--features sanitize`).
//!
//! The event-driven core's whole bargain is that a parked or deferred
//! domain *provably* has nothing to do before its armed wake edge. That
//! proof lives in each component's `next_event_cycle` and in the
//! scheduler's re-arm discipline — and a bug in either produces the
//! worst kind of failure: not a crash, but a simulation that silently
//! diverges from the cycle-stepped reference because a component slept
//! through work (a *lost wakeup*) or was re-aimed past its true horizon
//! (a *stale horizon*).
//!
//! Under the `sanitize` feature, [`System::step`](crate::System::step)
//! runs four shadow checks on the scheduler around **every** event:
//!
//! 1. **monotonic events** — the scheduler never moves time backwards;
//! 2. **no domain armed in the past** — every armed domain's pending
//!    delivery is strictly after the step that just completed;
//! 3. **skip reconciliation** — no component's clock, and no domain's
//!    delivered-edge count, is ever *ahead* of the grid at `now`;
//! 4. **lost-wakeup / stale-horizon** — every internal component's
//!    horizon is *re-derived* via `next_event_cycle` ([`CpuCluster`],
//!    [`Dce`] and [`MemController`]; a controller memoizes its horizon
//!    until its next tick or enqueue, and debug builds re-check each
//!    memo against a fresh derivation); a domain
//!    whose component reports work at edge `e` must be armed, at an
//!    edge no later than `e` (a parked domain with work is a lost
//!    wakeup; an armed one aimed past `e` is a stale horizon). This
//!    check runs as a step *begins*, so it also covers what a composer
//!    changed between steps (a dispatch that must wake an engine). A
//!    composer holds its own registered domains to the same rule by
//!    re-deriving their horizons and passing them to
//!    [`System::sanitize_check_external`](crate::System::sanitize_check_external)
//!    — the serving composer does so for its host clock (the `runtime`
//!    domain) before every step.
//!
//! The checks are pure reads: enabling the feature changes *no*
//! simulated state, so goldens stay bit-identical with the feature on
//! or off. By default a violation panics (checks are meant to run
//! under CI's test matrix); record mode
//! ([`System::sanitize_record_only`](crate::System::sanitize_record_only))
//! collects [`SanitizeViolation`]s instead, which is what the
//! fault-injection tests use.
//!
//! [`CpuCluster`]: pim_cpu::CpuCluster::next_event_cycle
//! [`Dce`]: pim_mmu::Dce::next_event_cycle
//! [`MemController`]: pim_dram::MemController::next_event_cycle

/// Which invariant a violation breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizeKind {
    /// The scheduler delivered an event at or before the previous
    /// event's tick (check 1).
    NonMonotonicEvent,
    /// An armed domain's pending delivery is at or before the step that
    /// just completed (check 2).
    ArmedInPast,
    /// A component's clock, or a domain's delivered-edge count, is
    /// ahead of its grid at `now` (check 3).
    ClockAhead,
    /// A component reports pending work but its domain is parked: the
    /// work would sleep forever absent an external wake (check 4).
    LostWakeup,
    /// A component's domain is armed *later* than the component's own
    /// re-derived horizon: the wake would arrive after the work was due
    /// (check 4).
    StaleHorizon,
}

/// One breached invariant, stamped with where and when.
#[derive(Debug, Clone)]
pub struct SanitizeViolation {
    /// Which invariant.
    pub kind: SanitizeKind,
    /// Label of the clock domain involved (`"-"` for whole-schedule
    /// checks).
    pub domain: &'static str,
    /// Tick of the step at which the check ran.
    pub t: u64,
    /// Specifics: the armed edge, the re-derived horizon, the offending
    /// counts.
    pub detail: String,
}

impl std::fmt::Display for SanitizeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sanitize: {:?} on domain `{}` at t={}: {}",
            self.kind, self.domain, self.t, self.detail
        )
    }
}

/// Per-`System` sanitizer state: the previous event tick plus the
/// violation log (empty in panic mode, which aborts on the first
/// finding instead).
#[derive(Debug, Default)]
pub(crate) struct Sanitizer {
    record_only: bool,
    last_event: Option<u64>,
    violations: Vec<SanitizeViolation>,
}

impl Sanitizer {
    /// Switch from panic-on-violation to recording.
    pub(crate) fn record_only(&mut self) {
        self.record_only = true;
    }

    /// Violations recorded so far (record mode only).
    pub(crate) fn violations(&self) -> &[SanitizeViolation] {
        &self.violations
    }

    /// Note a step's event tick, checking monotonicity (check 1).
    pub(crate) fn observe_event(&mut self, now: u64) {
        if let Some(prev) = self.last_event {
            if now <= prev {
                self.report(SanitizeViolation {
                    kind: SanitizeKind::NonMonotonicEvent,
                    domain: "-",
                    t: now,
                    detail: format!("event at t={now} after event at t={prev}"),
                });
            }
        }
        self.last_event = Some(now);
    }

    /// File (or panic on) one violation.
    pub(crate) fn report(&mut self, v: SanitizeViolation) {
        if self.record_only {
            self.violations.push(v);
        } else {
            panic!("{v}");
        }
    }
}
