//! The flight recorder: a bounded span-event buffer that keeps the
//! prefix of the run, plus the cycle-stamped [`SpanTap`] device
//! components record through.

use crate::event::SpanEvent;

/// Telemetry configuration, carried inside the runtime config so one
/// struct plumbs the whole stack. Disabled (the default) costs one
/// predictable branch per would-be event and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch: when false, no buffer is allocated, no sampler
    /// domain is registered, and every record call returns immediately.
    pub enabled: bool,
    /// Flight-recorder capacity in events (preallocated at enable).
    /// Once it is reached, new events are counted and discarded.
    pub capacity: usize,
    /// Time-series sampling cadence, ns.
    pub sample_ns: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            capacity: 1 << 16,
            sample_ns: 5_000.0,
        }
    }
}

impl TelemetryConfig {
    /// An enabled configuration with the default capacity and cadence.
    pub fn on() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// A bounded buffer of [`SpanEvent`]s. The buffer is preallocated at
/// construction; recording is a branch plus a `Copy` store. Once full,
/// it keeps the oldest events and counts the newer ones as dropped, so
/// its contents are a prefix of the run and a partial trace is still
/// causally closed. Iteration yields events in record order.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<SpanEvent>,
    capacity: usize,
    enabled: bool,
    recorded: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder per `cfg` (disabled config ⇒ no allocation).
    pub fn new(cfg: TelemetryConfig) -> Self {
        let capacity = if cfg.enabled { cfg.capacity.max(1) } else { 0 };
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            enabled: cfg.enabled,
            recorded: 0,
            dropped: 0,
        }
    }

    /// A permanently disabled recorder (no allocation).
    pub fn off() -> Self {
        FlightRecorder::new(TelemetryConfig::default())
    }

    /// Whether recording is live. Callers with nontrivial event
    /// construction can guard on this; [`record`](Self::record) checks
    /// it again either way.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event. Zero-allocation: the buffer never grows past
    /// its preallocated capacity; a disabled recorder does nothing, and
    /// a full one only bumps a counter.
    ///
    /// Accounting invariant: `recorded() + dropped()` equals the total
    /// number of events ever offered to an enabled recorder —
    /// `recorded` counts events retained, `dropped` those that arrived
    /// after the buffer filled.
    #[inline]
    pub fn record(&mut self, ev: SpanEvent) {
        if !self.enabled {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            self.recorded += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events retained, as a counter (== [`len`](Self::len)).
    /// `recorded() + dropped()` is the total offered while enabled.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever offered to the recorder while enabled:
    /// `recorded() + dropped()`.
    pub fn offered(&self) -> u64 {
        self.recorded + self.dropped
    }

    /// Retained events in record order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        self.buf.iter()
    }
}

/// A small cycle-stamped span buffer for device-side components that
/// know engine cycles but not wall-clock nanoseconds. The owner
/// records with cycle timestamps; the composer periodically
/// [`drain_into`](Self::drain_into)s the shared [`FlightRecorder`],
/// converting cycles to ns with the tap's `ns_per_cycle` and stamping
/// the component's shard id. Disabled taps cost one branch per call.
#[derive(Debug, Clone)]
pub struct SpanTap {
    enabled: bool,
    ns_per_cycle: f64,
    buf: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

impl SpanTap {
    /// A disabled tap (the default state of every component).
    pub fn off() -> Self {
        SpanTap {
            enabled: false,
            ns_per_cycle: 0.0,
            buf: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// An enabled tap converting local cycles at `ns_per_cycle`,
    /// holding at most `capacity` undrained events (overflow drops the
    /// newest and counts it).
    pub fn new(ns_per_cycle: f64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanTap {
            enabled: true,
            ns_per_cycle,
            buf: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Whether the tap records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event whose timestamp is a local cycle count; the ns
    /// conversion happens here (deterministic `f64` multiply).
    #[inline]
    pub fn record_at_cycle(&mut self, ev: SpanEvent, cycle: u64) {
        if !self.enabled {
            return;
        }
        if self.buf.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let mut ev = ev;
        ev.t_ns = cycle as f64 * self.ns_per_cycle;
        self.buf.push(ev);
    }

    /// Undrained events held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the tap holds nothing to drain.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to the capacity bound since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Move every buffered event into `rec`, stamping `shard` on each.
    /// Record order is preserved, so the recorder's stream stays
    /// deterministic.
    pub fn drain_into(&mut self, rec: &mut FlightRecorder, shard: usize) {
        for mut ev in self.buf.drain(..) {
            ev.shard = shard as u32;
            rec.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;

    fn ev(t: f64) -> SpanEvent {
        SpanEvent::new(SpanKind::Doorbell, t)
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let mut r = FlightRecorder::off();
        r.record(ev(1.0));
        assert!(!r.enabled() && r.is_empty());
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.buf.capacity(), 0, "disabled recorder allocates nothing");
    }

    #[test]
    fn drop_newest_keeps_the_prefix() {
        let mut r = FlightRecorder::new(TelemetryConfig {
            enabled: true,
            capacity: 3,
            sample_ns: 1.0,
        });
        for i in 0..5 {
            r.record(ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.recorded(), 3, "recorded counts retained events");
        assert_eq!(r.offered(), 5);
        let ts: Vec<f64> = r.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, [0.0, 1.0, 2.0]);
    }

    #[test]
    fn recording_never_reallocates() {
        let mut r = FlightRecorder::new(TelemetryConfig {
            enabled: true,
            capacity: 8,
            sample_ns: 1.0,
        });
        let cap = r.buf.capacity();
        for i in 0..100 {
            r.record(ev(i as f64));
        }
        assert_eq!(r.buf.capacity(), cap);
    }

    #[test]
    fn tap_converts_cycles_and_stamps_shard() {
        let mut tap = SpanTap::new(0.3125, 16);
        tap.record_at_cycle(SpanEvent::new(SpanKind::DeviceStart, 0.0).seq(4), 32);
        tap.record_at_cycle(SpanEvent::new(SpanKind::Retire, 0.0).seq(4), 100);
        let mut rec = FlightRecorder::new(TelemetryConfig::on());
        tap.drain_into(&mut rec, 2);
        assert!(tap.is_empty());
        let evs: Vec<&SpanEvent> = rec.iter().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].t_ns, 10.0);
        assert_eq!(evs[1].t_ns, 31.25);
        assert!(evs.iter().all(|e| e.shard == 2 && e.seq == 4));
    }

    #[test]
    fn tap_overflow_drops_and_counts() {
        let mut tap = SpanTap::new(1.0, 2);
        for c in 0..4 {
            tap.record_at_cycle(ev(0.0), c);
        }
        assert_eq!(tap.len(), 2);
        assert_eq!(tap.dropped(), 2);
        let mut off = SpanTap::off();
        off.record_at_cycle(ev(0.0), 5);
        assert!(off.is_empty() && !off.enabled());
    }
}
