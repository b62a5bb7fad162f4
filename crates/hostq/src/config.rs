//! Queue-pair configuration.

/// Shape of the host submission path: ring depth, interrupt-coalescing
/// parameters, and the period of the host clock that polls the rings.
///
/// The identity configuration ([`synchronous`](Self::synchronous), also
/// the `Default`) — depth 1, coalescing off — degenerates to the
/// paper's synchronous driver: one descriptor in flight, one doorbell
/// and one interrupt per descriptor. Everything beyond it is the async
/// host interface: a deeper ring keeps the DCE fed across chunk
/// boundaries, and coalescing trades completion-notification latency
/// for fewer interrupts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostQueueConfig {
    /// Submission-ring depth: max descriptors posted and not yet drained
    /// from the completion ring (≥ 1).
    pub depth: usize,
    /// Interrupt after this many ring completions (≥ 1; 1 disables
    /// coalescing — every completion interrupts immediately).
    pub coalesce_count: u32,
    /// Timer bound: an armed coalescer fires at most this long after
    /// its first pending completion, even below
    /// [`coalesce_count`](Self::coalesce_count). Ignored when
    /// coalescing is disabled.
    pub coalesce_timeout_ns: f64,
    /// Period of the host clock, ps: the one clock domain at whose
    /// edges the host admits arrivals, polls every ring and dispatches
    /// (default: 312 ps, the 3.2 GHz engine clock).
    pub poll_period_ps: u64,
}

impl HostQueueConfig {
    /// The identity configuration: depth 1, coalescing off — bit-for-bit
    /// the synchronous `pim_mmu_transfer` handshake.
    pub fn synchronous() -> Self {
        HostQueueConfig {
            depth: 1,
            coalesce_count: 1,
            coalesce_timeout_ns: 0.0,
            poll_period_ps: 312,
        }
    }

    /// An async ring of the given depth with coalescing off.
    pub fn with_depth(depth: usize) -> Self {
        HostQueueConfig {
            depth,
            ..Self::synchronous()
        }
    }

    /// Whether completions are coalesced at all.
    pub fn coalescing_enabled(&self) -> bool {
        self.coalesce_count > 1
    }

    /// Check invariants.
    ///
    /// # Panics
    ///
    /// Panics on a zero depth, zero coalesce count, negative timeout, or
    /// zero poll period.
    pub fn validate(&self) {
        assert!(self.depth >= 1, "ring depth must be at least 1");
        assert!(
            self.coalesce_count >= 1,
            "coalesce count must be at least 1"
        );
        assert!(
            self.coalesce_timeout_ns >= 0.0,
            "coalesce timeout cannot be negative"
        );
        assert!(self.poll_period_ps > 0, "poll period must be positive");
    }
}

impl Default for HostQueueConfig {
    fn default() -> Self {
        HostQueueConfig::synchronous()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_is_the_default_identity() {
        let c = HostQueueConfig::default();
        assert_eq!(c, HostQueueConfig::synchronous());
        assert_eq!(c.depth, 1);
        assert!(!c.coalescing_enabled());
        c.validate();
        let d = HostQueueConfig::with_depth(8);
        assert_eq!(d.depth, 8);
        assert!(!d.coalescing_enabled());
    }

    #[test]
    #[should_panic(expected = "ring depth")]
    fn zero_depth_is_rejected() {
        HostQueueConfig {
            depth: 0,
            ..HostQueueConfig::synchronous()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "coalesce count")]
    fn zero_coalesce_count_is_rejected() {
        HostQueueConfig {
            coalesce_count: 0,
            ..HostQueueConfig::synchronous()
        }
        .validate();
    }
}
