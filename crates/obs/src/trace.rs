//! Typed trace-event ring buffer.
//!
//! Replaces ad-hoc `println!` debugging in `netsim`/`dataplane`: the
//! engine and data-plane programs push typed events and the ring keeps
//! the most recent `capacity` of them. Disabled (the default) it costs one
//! branch per emit.

use crate::json::JsonBuf;
use std::collections::VecDeque;

/// Why a frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Drop-tail queue at capacity.
    QueueFull,
    /// Data-plane program verdict (TTL expired, no route, …).
    DataPlane,
    /// Delivered to a host port with no bound application.
    HostUnbound,
    /// In flight on a link that went down (cable-pull semantics).
    LinkDown,
    /// In flight toward or queued on a failed switch.
    SwitchDown,
    /// Probabilistic per-link loss.
    LinkLoss,
}

impl DropReason {
    /// Stable label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::DataPlane => "dataplane",
            DropReason::HostUnbound => "host_unbound",
            DropReason::LinkDown => "link_down",
            DropReason::SwitchDown => "switch_down",
            DropReason::LinkLoss => "link_loss",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Frame accepted by an egress queue.
    Enqueue {
        /// Queue owner node id.
        node: u32,
        /// Egress port.
        port: u16,
        /// Queue depth in packets after the enqueue.
        depth_pkts: u32,
    },
    /// Frame left an egress queue for the wire.
    Dequeue {
        /// Queue owner node id.
        node: u32,
        /// Egress port.
        port: u16,
        /// Queue depth in packets after the dequeue.
        depth_pkts: u32,
    },
    /// Frame dropped.
    Drop {
        /// Node at which the drop happened.
        node: u32,
        /// Port involved (egress for queue drops, ingress otherwise).
        port: u16,
        /// Why.
        reason: DropReason,
    },
    /// A fault-plan action fired.
    Fault {
        /// Action label (`"link_down"`, `"switch_recover"`, …).
        action: &'static str,
        /// Primary subject node.
        subject: u32,
        /// Peer node for link actions (`u32::MAX` when not applicable).
        peer: u32,
    },
    /// An INT probe harvested a switch register at egress.
    ProbeHarvest {
        /// Switch the probe crossed.
        switch: u32,
        /// Egress port whose register was read.
        port: u16,
        /// Harvested max queue depth, packets.
        max_qlen_pkts: u32,
    },
    /// A read-and-reset register was cleared after harvest.
    RegisterReset {
        /// Switch owning the register.
        switch: u32,
        /// Register name.
        register: &'static str,
        /// Port index within the register array.
        port: u16,
    },
}

impl TraceKind {
    /// Stable kind label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Dequeue { .. } => "dequeue",
            TraceKind::Drop { .. } => "drop",
            TraceKind::Fault { .. } => "fault",
            TraceKind::ProbeHarvest { .. } => "probe_harvest",
            TraceKind::RegisterReset { .. } => "register_reset",
        }
    }

    /// The node the event is *about* — queue owner, drop site, fault
    /// subject, or register-owning switch. This is the secondary key of
    /// the canonical export order: every event is produced by exactly
    /// one node's dispatch, so per-`(at_ns, node)` groups are invariant
    /// under domain partitioning.
    pub fn node_key(&self) -> u32 {
        match *self {
            TraceKind::Enqueue { node, .. }
            | TraceKind::Dequeue { node, .. }
            | TraceKind::Drop { node, .. } => node,
            TraceKind::Fault { subject, .. } => subject,
            TraceKind::ProbeHarvest { switch, .. }
            | TraceKind::RegisterReset { switch, .. } => switch,
        }
    }
}

/// One trace event, stamped with sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time of the event, nanoseconds.
    pub at_ns: u64,
    /// Payload.
    pub kind: TraceKind,
}

/// Bounded ring of [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceRing {
    enabled: bool,
    capacity: usize,
    seen: u64,
    evicted: u64,
    buf: VecDeque<TraceEvent>,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl TraceRing {
    /// A disabled ring holding at most `capacity` events once enabled.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: false,
            capacity: capacity.max(1),
            seen: 0,
            evicted: 0,
            buf: VecDeque::new(),
        }
    }

    /// Enable or disable recording (events recorded so far are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is the ring recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (single branch when disabled).
    #[inline]
    pub fn push(&mut self, at_ns: u64, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        self.push_slow(at_ns, kind);
    }

    #[cold]
    fn push_slow(&mut self, at_ns: u64, kind: TraceKind) {
        self.seen += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(TraceEvent { at_ns, kind });
    }

    /// Events seen while enabled (before eviction).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted to respect the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterate held events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Drain the held events, keeping the cumulative `seen`/`evicted`
    /// counters — the per-epoch hook for streaming exports: each epoch
    /// takes what accumulated since the last one, so the ring never
    /// holds more than one epoch of events.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    /// Deterministic JSON export: `{"seen":…,"evicted":…,"events":[…]}`,
    /// events oldest-first, each `{"at_ns":…,"kind":…,…fields}`.
    pub fn to_json(&self) -> String {
        render_events_json(self.seen, self.evicted, &self.buf)
    }
}

/// Render one trace event as the next value in `j` — the single
/// definition of the export shape, shared by [`TraceRing::to_json`],
/// the streaming epoch writer, and the parallel-DES merged export.
pub fn write_event(j: &mut JsonBuf, ev: &TraceEvent) {
    j.obj_open();
    j.key("at_ns").u64(ev.at_ns);
    j.key("kind").str(ev.kind.label());
    match ev.kind {
        TraceKind::Enqueue { node, port, depth_pkts }
        | TraceKind::Dequeue { node, port, depth_pkts } => {
            j.key("node").u64(node as u64);
            j.key("port").u64(port as u64);
            j.key("depth_pkts").u64(depth_pkts as u64);
        }
        TraceKind::Drop { node, port, reason } => {
            j.key("node").u64(node as u64);
            j.key("port").u64(port as u64);
            j.key("reason").str(reason.as_str());
        }
        TraceKind::Fault { action, subject, peer } => {
            j.key("action").str(action);
            j.key("subject").u64(subject as u64);
            if peer != u32::MAX {
                j.key("peer").u64(peer as u64);
            }
        }
        TraceKind::ProbeHarvest { switch, port, max_qlen_pkts } => {
            j.key("switch").u64(switch as u64);
            j.key("port").u64(port as u64);
            j.key("max_qlen_pkts").u64(max_qlen_pkts as u64);
        }
        TraceKind::RegisterReset { switch, register, port } => {
            j.key("switch").u64(switch as u64);
            j.key("register").str(register);
            j.key("port").u64(port as u64);
        }
    }
    j.obj_close();
}

/// Render the `{"seen":…,"evicted":…,"events":[…]}` document over an
/// arbitrary event sequence (callers order it; see [`canonical_order`]).
pub fn render_events_json<'a>(
    seen: u64,
    evicted: u64,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> String {
    let mut j = JsonBuf::new();
    j.obj_open();
    j.key("seen").u64(seen);
    j.key("evicted").u64(evicted);
    j.key("events").arr_open();
    for ev in events {
        write_event(&mut j, ev);
    }
    j.arr_close();
    j.obj_close();
    j.finish()
}

/// Sort events into the canonical export order: `(at_ns, node_key)`,
/// stable. Every trace event is emitted by exactly one node's event
/// dispatch, and a node's dispatch sequence does not depend on how the
/// fabric is partitioned into domains — so after this sort, a merged
/// multi-domain event stream is byte-identical to the single-loop one
/// (provided nothing was evicted). Oracle: the parallel engine's trace
/// determinism test merges its domains' rings with it.
pub fn canonical_order(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.at_ns, e.kind.node_key()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TraceKind {
        TraceKind::Enqueue { node: n, port: 0, depth_pkts: 1 }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::new(4);
        r.push(1, ev(1));
        assert_eq!((r.seen(), r.len()), (0, 0));
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut r = TraceRing::new(2);
        r.set_enabled(true);
        for i in 0..5u32 {
            r.push(i as u64, ev(i));
        }
        assert_eq!((r.seen(), r.evicted(), r.len()), (5, 3, 2));
        let held: Vec<u64> = r.iter().map(|e| e.at_ns).collect();
        assert_eq!(held, vec![3, 4]);
    }

    #[test]
    fn json_export_shape() {
        let mut r = TraceRing::new(4);
        r.set_enabled(true);
        r.push(5, TraceKind::Drop { node: 2, port: 1, reason: DropReason::QueueFull });
        r.push(9, TraceKind::Fault { action: "link_down", subject: 3, peer: 4 });
        assert_eq!(
            r.to_json(),
            r#"{"seen":2,"evicted":0,"events":[{"at_ns":5,"kind":"drop","node":2,"port":1,"reason":"queue_full"},{"at_ns":9,"kind":"fault","action":"link_down","subject":3,"peer":4}]}"#
        );
    }

    #[test]
    fn take_events_drains_but_keeps_counters() {
        let mut r = TraceRing::new(8);
        r.set_enabled(true);
        for i in 0..3u32 {
            r.push(i as u64, ev(i));
        }
        let taken = r.take_events();
        assert_eq!(taken.len(), 3);
        assert_eq!((r.seen(), r.len()), (3, 0), "counters survive the drain");
        r.push(9, ev(9));
        assert_eq!((r.seen(), r.len()), (4, 1));
    }

    #[test]
    fn canonical_order_merges_per_node_streams() {
        // Two "domain" streams, each internally ordered; the merged
        // canonical order must equal the canonical order of the
        // interleaved single-loop stream.
        let mk = |at: u64, node: u32| TraceEvent { at_ns: at, kind: ev(node) };
        let mut merged = vec![mk(1, 5), mk(2, 5), mk(1, 2), mk(3, 2)];
        let mut single = vec![mk(1, 2), mk(1, 5), mk(2, 5), mk(3, 2)];
        canonical_order(&mut merged);
        canonical_order(&mut single);
        assert_eq!(merged, single);
        assert_eq!(
            render_events_json(4, 0, &merged),
            render_events_json(4, 0, &single)
        );
    }

    #[test]
    fn canonical_order_is_stable_within_a_node() {
        // Same (at, node): insertion order is preserved — per-node
        // subsequences are exactly the node's dispatch order.
        let e1 = TraceEvent { at_ns: 7, kind: TraceKind::Enqueue { node: 1, port: 0, depth_pkts: 1 } };
        let e2 = TraceEvent { at_ns: 7, kind: TraceKind::Dequeue { node: 1, port: 0, depth_pkts: 0 } };
        let mut v = vec![e1, e2];
        canonical_order(&mut v);
        assert_eq!(v, vec![e1, e2]);
    }
}
