//! P4 pipeline per-packet costs — the simulator's inner loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use int_bench::probe_with_hops;
use int_dataplane::{
    DataPlaneProgram, EgressCtx, EnqueueCtx, Frame, IngressCtx, IntProgramConfig,
    IntTelemetryProgram, Key, MatchActionTable, MatchKind, RegisterArray,
};
use int_packet::wire::WireEncode;
use int_packet::PacketBuilder;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn program(routes: u32) -> IntTelemetryProgram {
    let mut p = IntTelemetryProgram::new(IntProgramConfig {
        switch_id: 1,
        num_ports: 8,
        int_enabled: true,
    });
    for i in 0..routes {
        p.install_host_route(Ipv4Addr::from(0x0A000001u32 + i), (i % 8) as u16);
    }
    p
}

fn data_frame() -> Frame {
    let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 5), 2, Ipv4Addr::new(10, 0, 0, 2))
        .udp(5001, 5001, &vec![0u8; 1400]);
    Frame::new(b)
}

fn probe_frame() -> Frame {
    let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 5), 2, Ipv4Addr::new(10, 0, 0, 2))
        .udp_msg(41000, int_packet::PROBE_UDP_PORT, &probe_with_hops(4));
    Frame::new(b)
}

fn bench_flow_table(c: &mut Criterion) {
    // Flow-table microbench (PR 4): the indexed
    // lookup against the reference linear scan at 8, 64, and 512 installed
    // /32 routes. Probes rotate through every installed route so the
    // single-entry caches upstream can't mask the table cost.
    let mut g = c.benchmark_group("flow_table");
    for n in [8usize, 64, 512] {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        let keys: Vec<[u8; 4]> =
            (0..n as u32).map(|i| (0x0A000000u32 + i * 7).to_be_bytes()).collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(Key::Lpm { value: k.to_vec(), prefix_len: 32 }, i as u16);
        }
        g.bench_with_input(BenchmarkId::new("lpm_indexed", n), &keys, |b, keys| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                if i == keys.len() {
                    i = 0;
                }
                black_box(t.lookup(black_box(&keys[i])))
            })
        });
        g.bench_with_input(BenchmarkId::new("lpm_linear", n), &keys, |b, keys| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                if i == keys.len() {
                    i = 0;
                }
                black_box(t.lookup_linear(black_box(&keys[i])))
            })
        });
    }
    g.finish();
}

fn bench_ingress(c: &mut Criterion) {
    let mut p = program(16);
    let ctx = IngressCtx { now_ns: 1_000, switch_id: 1, ingress_port: 0 };
    c.bench_function("pipeline/ingress_data_pkt", |b| {
        b.iter_batched(
            data_frame,
            |mut f| black_box(p.ingress(&mut f, &ctx)),
            criterion::BatchSize::SmallInput,
        )
    });
    let mut p2 = program(16);
    c.bench_function("pipeline/ingress_probe_pkt", |b| {
        b.iter_batched(
            probe_frame,
            |mut f| black_box(p2.ingress(&mut f, &ctx)),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_probe_augment(c: &mut Criterion) {
    // Full probe path through one switch: ingress + enqueue + egress
    // (including the re-deparse that grows the INT stack).
    let mut p = program(16);
    let ictx = IngressCtx { now_ns: 1_000, switch_id: 1, ingress_port: 0 };
    c.bench_function("pipeline/probe_full_transit", |b| {
        b.iter_batched(
            probe_frame,
            |mut f| {
                let v = p.ingress(&mut f, &ictx);
                p.on_enqueue(&f, &EnqueueCtx { now_ns: 1_000, port: 0, qdepth_after_pkts: 3 });
                p.egress(
                    &mut f,
                    &EgressCtx { now_ns: 2_000, switch_id: 1, egress_port: 0, qdepth_at_deq_pkts: 2 },
                );
                black_box((v, f.wire_len()))
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_registers(c: &mut Criterion) {
    let mut a = RegisterArray::new(64);
    c.bench_function("registers/write_max", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            a.write_max((i % 64) as usize, black_box(i));
        })
    });
    c.bench_function("registers/take", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(a.take((i % 64) as usize))
        })
    });
}

fn bench_probe_wire_growth(c: &mut Criterion) {
    // Cost of serializing probes as they grow per hop (overhead model of
    // §III-A: record size × hops).
    let mut g = c.benchmark_group("probe_wire_len");
    for hops in [0usize, 4, 12] {
        let p = probe_with_hops(hops);
        g.bench_with_input(BenchmarkId::from_parameter(hops), &p, |b, p| {
            b.iter(|| black_box(p.to_bytes().len()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_flow_table,
    bench_ingress,
    bench_probe_augment,
    bench_registers,
    bench_probe_wire_growth
);
criterion_main!(benches);
