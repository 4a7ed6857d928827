//! The data-plane program interface a switch invokes per packet.

use crate::frame::Frame;

/// A switch-local port index.
pub type PortId = u16;

/// Result of ingress processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressVerdict {
    /// Enqueue on the given egress port.
    Forward(PortId),
    /// Discard the packet (no matching route / ACL deny / TTL expired).
    Drop,
}

/// Context for ingress processing (BMv2 `standard_metadata` at ingress).
#[derive(Debug, Clone, Copy)]
pub struct IngressCtx {
    /// Current time, ns since simulation epoch.
    pub now_ns: u64,
    /// Identity of the switch executing the program.
    pub switch_id: u32,
    /// Port the packet arrived on.
    pub ingress_port: PortId,
}

/// Context for the enqueue observation point (`enq_qdepth`).
#[derive(Debug, Clone, Copy)]
pub struct EnqueueCtx {
    /// Current time, ns.
    pub now_ns: u64,
    /// Egress port whose queue the packet joined.
    pub port: PortId,
    /// Queue depth in packets *ahead* of this packet at enqueue time
    /// (BMv2 `enq_qdepth`): zero on an idle port, so a lone probe never
    /// reads as congestion.
    pub qdepth_after_pkts: u32,
}

/// Context for egress processing (packet at head of queue, about to leave).
#[derive(Debug, Clone, Copy)]
pub struct EgressCtx {
    /// Current time, ns.
    pub now_ns: u64,
    /// Identity of the switch executing the program.
    pub switch_id: u32,
    /// Port the packet is leaving on.
    pub egress_port: PortId,
    /// Queue depth in packets at dequeue time (excluding this packet).
    pub qdepth_at_deq_pkts: u32,
}

/// A P4 program: the behaviour a switch executes at BMv2's three hook
/// points.
///
/// Implementations must be deterministic — all state lives in their
/// tables and registers, and all notion of time comes from the contexts.
pub trait DataPlaneProgram: Send {
    /// Parse + ingress control: decide the egress port and optionally
    /// rewrite the packet. Called once per packet on arrival.
    fn ingress(&mut self, frame: &mut Frame, ctx: &IngressCtx) -> IngressVerdict;

    /// Observation hook fired right after the packet joins an egress queue.
    fn on_enqueue(&mut self, frame: &Frame, ctx: &EnqueueCtx);

    /// Egress control: last chance to rewrite the packet before it is
    /// serialized onto the wire.
    fn egress(&mut self, frame: &mut Frame, ctx: &EgressCtx);
}
