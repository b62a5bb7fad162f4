//! Memory request and completion types exchanged with the controllers.

use pim_mapping::{DramAddr, MemSpace, PhysAddr};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A 64 B read burst.
    Read,
    /// A 64 B write burst.
    Write,
}

/// Identifies the agent that issued a request, for per-source statistics
/// (CPU core, the DCE, a contender thread, ...). The namespace is defined
/// by the system layer; the DRAM crate only groups by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SourceId(pub u32);

/// A 64 B memory transaction presented to a [`MemController`].
///
/// [`MemController`]: crate::MemController
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Caller-assigned identifier returned in the [`Completion`].
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Original physical address (for tracing/debug).
    pub phys: PhysAddr,
    /// Decoded DRAM coordinates within the owning channel.
    pub addr: DramAddr,
    /// Issuing agent.
    pub source: SourceId,
}

impl MemRequest {
    /// Construct a read request.
    pub fn read(id: u64, phys: PhysAddr, addr: DramAddr, source: SourceId) -> Self {
        MemRequest {
            id,
            kind: AccessKind::Read,
            phys,
            addr,
            source,
        }
    }

    /// Construct a write request.
    pub fn write(id: u64, phys: PhysAddr, addr: DramAddr, source: SourceId) -> Self {
        MemRequest {
            id,
            kind: AccessKind::Write,
            phys,
            addr,
            source,
        }
    }
}

/// A request waiting in a source's outbox (the CPU cluster's or a
/// DCE's), tagged with the memory space whose controllers must service
/// it. The system layer pops outboxes front-first as the target
/// controller queues accept.
#[derive(Debug, Clone, Copy)]
pub struct OutRequest {
    /// Which controller group services it.
    pub space: MemSpace,
    /// The request, already address-translated.
    pub req: MemRequest,
}

/// Completion record handed back by the controller.
///
/// For reads, `cycle` is the memory-clock cycle at which the last data
/// beat returned; for writes, the cycle at which the write burst finished
/// on the data bus (writes are posted: the issuer may consider them done
/// earlier, but the DCE uses this for buffer-space accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// The request's caller-assigned identifier.
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Issuing agent (copied from the request).
    pub source: SourceId,
    /// Memory-clock cycle of completion.
    pub cycle: u64,
}

/// Per-request state of a source's outstanding requests, keyed by
/// request id. A source hands out ids in increasing order, so the map is a
/// ring of slots starting at the oldest outstanding id: lookup is an
/// index, and the slots of ids never recorded (or already taken) stay
/// empty until the oldest entry is taken and the ring advances past
/// them.
#[derive(Debug, Clone)]
pub struct IdRing<T> {
    /// Request id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    live: usize,
}

impl<T> Default for IdRing<T> {
    fn default() -> Self {
        IdRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> IdRing<T> {
    /// Entries recorded and not yet taken.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entry is outstanding.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Record `v` for request `id`, which must exceed every id recorded
    /// before.
    ///
    /// # Panics
    ///
    /// Panics if the span from the oldest outstanding id to `id` does
    /// not fit `usize`.
    pub fn insert(&mut self, id: u64, v: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let idx = usize::try_from(id - self.base).expect("outstanding id span fits usize");
        debug_assert!(idx >= self.slots.len(), "ids are recorded in order");
        self.slots.resize_with(idx, || None);
        self.slots.push_back(Some(v));
        self.live += 1;
    }

    /// Take request `id`'s entry; `None` if no such request is
    /// outstanding.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let v = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let d = DramAddr::default();
        let r = MemRequest::read(1, PhysAddr(64), d, SourceId(3));
        let w = MemRequest::write(2, PhysAddr(128), d, SourceId(4));
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(r.source, SourceId(3));
        assert_eq!(w.id, 2);
    }

    #[test]
    fn id_ring_takes_out_of_order_and_skips_gaps() {
        let mut r = IdRing::default();
        assert!(r.is_empty());
        for id in [5u64, 7, 8, 12] {
            r.insert(id, id * 10);
        }
        assert_eq!(r.len(), 4);
        // Unknown ids: below the base, in a gap, past the end.
        assert_eq!(r.remove(4), None);
        assert_eq!(r.remove(6), None);
        assert_eq!(r.remove(13), None);
        assert_eq!(r.remove(8), Some(80));
        assert_eq!(r.remove(8), None);
        assert_eq!(r.remove(5), Some(50));
        assert_eq!(r.remove(12), Some(120));
        assert_eq!(r.remove(7), Some(70));
        assert!(r.is_empty());
        // An emptied ring restarts at the next id recorded.
        r.insert(1_000_000, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.remove(1_000_000), Some(1));
    }
}
