//! # int-bench
//!
//! Benchmark support crate. The benchmarks themselves live in `benches/`:
//!
//! * `codec` — wire-format hot paths: frame build/parse, probe
//!   encode/decode, INT record append,
//! * `dataplane` — P4 pipeline per-packet cost: LPM lookup, ingress,
//!   probe augmentation, register ops,
//! * `engine` — event queue, end-to-end simulated packet throughput, TCP
//!   transfer throughput,
//! * `core` — the scheduler: probe ingestion, graph traversal, ranking.

/// Common fixture: a standard probe traversing `n` switches.
pub fn probe_with_hops(n: usize) -> int_packet::ProbePayload {
    let mut p = int_packet::ProbePayload::new(1, 7, 1_000);
    for i in 0..n {
        p.int.push(int_packet::int::IntRecord {
            switch_id: i as u32,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: (i * 3) as u32,
            qlen_at_probe_pkts: i as u32,
            link_latency_ns: 10_000_000,
            egress_ts_ns: (i as u64 + 1) * 11_000_000,
        });
    }
    p
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixture_builds() {
        assert_eq!(super::probe_with_hops(5).int.hop_count(), 5);
    }
}
