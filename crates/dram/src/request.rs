//! Memory request and completion types exchanged with the controllers.

use pim_mapping::{DramAddr, MemSpace, PhysAddr};
use serde::{Deserialize, Serialize};

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
}
