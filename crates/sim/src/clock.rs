//! The common simulation tick.
//!
//! All clock domains are expressed in an integer tick of 1/96 ns, chosen
//! so that every frequency of interest has an integer period:
//! 3.2 GHz core/DCE clock = 30 ticks, DDR4-2400 memory clock (833.3 ps) =
//! 80 ticks, DDR4-3200 (625 ps) = 60 ticks.

/// Simulation ticks per nanosecond.
pub const TICKS_PER_NS: u64 = 96;

/// Convert ticks to nanoseconds.
#[inline]
pub fn ticks_to_ns(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_NS as f64
}

/// Convert nanoseconds to ticks, truncating toward zero (floor for the
/// non-negative spans it is used on) — the historical conversion for
/// sampling periods and run horizons; the golden pins depend on it.
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub fn ns_ticks_floor(ns: f64) -> u64 {
    (ns * TICKS_PER_NS as f64) as u64
}

/// Convert nanoseconds to ticks (rounding up).
#[inline]
// Ceil-then-truncate is the defined conversion: every simulated horizon
// fits u64 ticks by construction (u64 spans ~61 years of sim time).
#[allow(clippy::cast_possible_truncation)]
pub fn ns_to_ticks(ns: f64) -> u64 {
    (ns * TICKS_PER_NS as f64).ceil() as u64
}

/// A clock's period in ticks, from its period in picoseconds.
///
/// # Panics
///
/// Panics if the period rounds to zero ticks (1 tick = 125/12 ps).
pub fn period_ticks(ps: u64) -> u64 {
    let scaled = ps * TICKS_PER_NS;
    // Allow sub-1% rounding (312 ps for 3.2 GHz stores as 30 ticks).
    // Round-then-truncate is exact: any real period fits u64 ticks.
    #[allow(clippy::cast_possible_truncation)]
    let period = (scaled as f64 / 1000.0).round() as u64;
    assert!(period > 0, "period {ps} ps too small for the tick base");
    period
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_periods() {
        assert_eq!(period_ticks(312), 30); // 3.2 GHz
        assert_eq!(period_ticks(833), 80); // DDR4-2400
        assert_eq!(period_ticks(625), 60); // DDR4-3200
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn sub_tick_periods_are_rejected() {
        period_ticks(5);
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(ns_to_ticks(ticks_to_ns(960)), 960);
        assert_eq!(ns_to_ticks(1.0), 96);
        assert!((ticks_to_ns(48) - 0.5).abs() < 1e-12);
    }
}
