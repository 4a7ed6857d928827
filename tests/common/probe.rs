//! The probe builders the integration tests share: one INT hop record and
//! one probe carrying a chain of them. Each test binary includes this file
//! as a module, as it does `alloc.rs`.

use int_edge_sched::packet::int::IntRecord;
use int_edge_sched::packet::ProbePayload;

/// One switch's INT record, entering on port 0 and leaving on port 1.
pub fn hop(
    switch_id: u32,
    max_qlen: u32,
    qlen: u32,
    link_latency_ns: u64,
    egress_ts_ns: u64,
) -> IntRecord {
    IntRecord {
        switch_id,
        ingress_port: 0,
        egress_port: 1,
        max_qlen_pkts: max_qlen,
        qlen_at_probe_pkts: qlen,
        link_latency_ns,
        egress_ts_ns,
    }
}

/// A probe from `origin`, sent at time 0, that crossed `hops` in order.
pub fn probe(origin: u32, seq: u64, hops: impl IntoIterator<Item = IntRecord>) -> ProbePayload {
    let mut p = ProbePayload::new(origin, seq, 0);
    for h in hops {
        p.int.push(h);
    }
    p
}
