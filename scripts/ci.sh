#!/usr/bin/env bash
# Repo CI gate. Run from the repository root.
#
#   tier 1  — release build + root-package tests (the seed contract)
#   tier 2  — full workspace tests
#   lints   — clippy, warnings are errors
#   benches — criterion harness in --test mode (one-iteration smoke, no
#             timing; catches bench bit-rot without the cost of a run)
#   intbench — the benchmark of record: its tests + every workload at
#             smoke size
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scenario below writes its artifacts under one scratch root,
# removed on exit (one trap: a later `trap … EXIT` replaces an earlier one).
tmp_root="$(mktemp -d)"
trap 'rm -rf "$tmp_root"' EXIT
scratch() { mkdir -p "$tmp_root/$1" && echo "$tmp_root/$1"; }

echo "== tier 1: build + root tests"
cargo build --release
cargo test -q

echo "== tier 2: workspace tests"
cargo test --workspace --release -q

echo "== clippy (deny warnings)"
cargo clippy --workspace --release --all-targets -- -D warnings

echo "== benches (smoke)"
bench_log="$(cargo bench -p int-bench -- --test 2>&1)"
echo "$bench_log"
# The PR-4 hot-path benches must stay registered: the timing-wheel
# overflow variants and the indexed-vs-linear flow-table pair are the
# regression guards for results/bench_pr4.json. The PR-5 rank_throughput
# pair guards results/bench_pr5.json the same way.
# rank_throughput_mt (PR 6) guards results/bench_pr6.json: the sharded
# serve_batch path at 1/2/4/8 workers. rank_throughput_kpaths and
# fabric_build (PR 8) guard results/bench_pr8.json: k-path ranking cost
# vs the k=1 baseline, and the Clos control-plane build.
# sim_throughput/domains_{1,2,4} (PR 9) guard results/bench_pr9.json:
# the conservative parallel engine at each domain count (domains_1 is
# the plain-engine baseline the overhead is priced against).
# publish_throughput/clos_512s/{full,incremental} and
# ingest_throughput/clos_512s_960probes (PR 10) guard
# results/bench_pr10.json: the O(dirty) incremental epoch publish vs
# the full rebuild, and the dense edge-indexed batched probe drain.
# publish_throughput/clos_512s/all_dirty (PR 14) is the dense case —
# every host re-probes, every edge dirty — that `intbench ctl_ingest`
# measures end to end; with the drain it keeps the write path honest.
# rank_throughput_churn/fabric_64s_128h (PR 12) is the cold serve path:
# publish → serve 128 distinct requesters, one tree per query.
# sim_throughput/clos_obs_{off,on} (PR 15) price the lit metrics
# registry at fabric scale (≈ 200 hosts, > 1 000 live series) — the
# cost `cbr_5s_one_switch_obs_on`, with its five series, cannot show.
# collector_ingest/route_flap (PR 16) is the route memo's miss path —
# every probe re-walks and re-records — beside the collector_ingest/{2,5,10}
# hit cases; it must stay within reach of the walk the memo replaced.
for name in push_pop_far_1k timer_heavy_20s flow_table/lpm_indexed/512 flow_table/lpm_linear/512 \
            rank_throughput/testbed_8h rank_throughput/fabric_64s_128h \
            rank_throughput_mt/fabric_64s_128h/1 rank_throughput_mt/fabric_64s_128h/2 \
            rank_throughput_mt/fabric_64s_128h/4 rank_throughput_mt/fabric_64s_128h/8 \
            rank_throughput_kpaths/fabric_mp_128h/1 rank_throughput_kpaths/fabric_mp_128h/4 \
            fabric_build/clos_128s_240h \
            sim_throughput/domains_1 sim_throughput/domains_2 sim_throughput/domains_4 \
            sim_throughput/clos_obs_off sim_throughput/clos_obs_on \
            publish_throughput/clos_512s/full publish_throughput/clos_512s/incremental \
            publish_throughput/clos_512s/all_dirty \
            ingest_throughput/clos_512s_960probes \
            rank_throughput_churn/fabric_64s_128h \
            collector_ingest/route_flap; do
    grep -q "$name" <<<"$bench_log" \
        || { echo "bench smoke: $name missing from harness"; exit 1; }
done

echo "== intbench (tests + every workload at smoke size)"
# The benchmark of record is a package of its own (BENCHMARK.json): its
# tests pin the harness, and the smoke pass runs each workload's
# correctness gate — sharded digest == single-threaded oracle replay.
cargo test --release -q --manifest-path intbench/Cargo.toml
cargo run --release -q --manifest-path intbench/Cargo.toml -- --all --smoke

echo "== failover (smoke)"
# Tiny grid, fixed seed, serial: the INT row must report a finite
# time-to-detect for the failed link (the baselines report null).
smoke_dir="$(scratch smoke)"
INT_RESULTS_DIR="$smoke_dir" INT_EXP_THREADS=1 \
    cargo run --release -q -p int-experiments --bin repro -- failover --seed 1 --scale 0.25
grep -A2 '"policy": "IntDelay"' "$smoke_dir/failover.json" \
    | grep -q '"detect_ms": [0-9]' \
    || { echo "failover smoke: no finite detect_ms for IntDelay"; exit 1; }

echo "== fabric ECMP determinism (smoke)"
# Flow-hash ECMP is a pure function of the 5-tuple and the cell grid is
# regrouped in input order, so the fabric artifact — multipath compare +
# cable-pull failover on a scaled Clos — must be byte-identical across
# worker counts. The multipath row must reroute; single-path never does.
fab1_dir="$(scratch fab1)"
fab4_dir="$(scratch fab4)"
INT_RESULTS_DIR="$fab1_dir" INT_EXP_THREADS=1 \
    cargo run --release -q -p int-experiments --bin repro -- fabric --seed 1 --scale 0.05
INT_RESULTS_DIR="$fab4_dir" INT_EXP_THREADS=4 \
    cargo run --release -q -p int-experiments --bin repro -- fabric --seed 1 --scale 0.05
cmp "$fab1_dir/fabric.json" "$fab4_dir/fabric.json" \
    || { echo "fabric smoke: INT_EXP_THREADS changed the artifact"; exit 1; }
grep -A3 '"mode": "multipath"' "$fab1_dir/fabric.json" \
    | grep -q '"reroute_ms": [0-9]' \
    || { echo "fabric smoke: multipath cell did not reroute"; exit 1; }
grep -A3 '"mode": "singlepath"' "$fab1_dir/fabric.json" \
    | grep -q '"reroute_ms": null' \
    || { echo "fabric smoke: singlepath cell unexpectedly rerouted"; exit 1; }

echo "== sustained load (smoke)"
# The sharded control plane's determinism contract, end to end: the
# `repro sustained` artifact must be byte-identical with one read shard
# and with the default shard count (the digest covers every outcome, in
# admission order).
one_dir="$(scratch sus1)"
many_dir="$(scratch susN)"
INT_RESULTS_DIR="$one_dir" INT_SCHED_SHARDS=1 \
    cargo run --release -q -p int-experiments --bin repro -- sustained --seed 1 --scale 0.05
INT_RESULTS_DIR="$many_dir" \
    cargo run --release -q -p int-experiments --bin repro -- sustained --seed 1 --scale 0.05
cmp "$one_dir/sustained.json" "$many_dir/sustained.json" \
    || { echo "sustained smoke: shard count changed the artifact"; exit 1; }
grep -q '"digest"' "$one_dir/sustained.json" \
    || { echo "sustained smoke: artifact has no digest"; exit 1; }
# (Full-rebuild instead of incremental publication must reproduce the
# same bytes too: tests/shard_determinism.rs asserts that in-process.)

echo "== shard stress (publish/read races)"
# One extra pass over the concurrency tests with the stress cfg: more
# churn rounds, more epochs in flight, same oracle equality.
RUSTFLAGS="--cfg shard_stress --check-cfg=cfg(shard_stress)" \
    cargo test --release -q --test shard_determinism

echo "== workflow (smoke)"
# Tiny deadline-aware DAG sweep: every composite-policy cell must be
# present with its task accounting and observability counters, and the
# artifact must be byte-identical across worker counts.
wf_dir="$(scratch wf)"
INT_RESULTS_DIR="$smoke_dir" INT_EXP_THREADS=1 \
    cargo run --release -q -p int-experiments --bin repro -- workflow --seed 1 --scale 0.25
INT_RESULTS_DIR="$wf_dir" INT_EXP_THREADS=4 \
    cargo run --release -q -p int-experiments --bin repro -- workflow --seed 1 --scale 0.25
cmp "$smoke_dir/workflow.json" "$wf_dir/workflow.json" \
    || { echo "workflow smoke: INT_EXP_THREADS changed the artifact"; exit 1; }
for key in '"policy": "NetworkOnly"' '"policy": "LeastLoaded"' '"policy": "IntLeastLoaded"' \
           '"policy": "IntEdf"' '"miss_rate"' '"queue_wait_mean_ms"' '"makespan_mean_s"' \
           '"tasks_dispatched"' '"sched_load_reports"'; do
    grep -q "$key" "$smoke_dir/workflow.json" \
        || { echo "workflow smoke: $key missing from artifact"; exit 1; }
done

echo "== audit export (smoke)"
# Tiny instrumented cell: the exported artifact and both embedded JSON
# documents (decision audit trail, metrics snapshot) must parse, and the
# IntDelay cell must name at least one ExcludeReason after the link cut.
INT_RESULTS_DIR="$smoke_dir" INT_EXP_THREADS=1 \
    cargo run --release -q -p int-experiments --bin repro -- audit --seed 1 --scale 0.5
python3 - "$smoke_dir/audit.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cells = doc["cells"]
assert cells, "no audit cells"
for c in cells:
    trail = json.loads(c["audit_json"])
    json.loads(c["metrics_json"])
    assert trail["total"] == c["decisions"], "trail total mismatch"
assert any(
    r["reason"] in ("NoFreshPath", "OriginSilent")
    for c in cells if c["policy"] == "IntDelay"
    for r in c["exclude_reasons"]
), "no ExcludeReason in the IntDelay cell after the link cut"
print("audit smoke OK: %d decisions audited" % sum(c["decisions"] for c in cells))
EOF

echo "== giant run: streaming + domain determinism (smoke)"
# Two contracts at once on a scaled-down giant Clos run:
#  - the streaming epoch writer is an I/O strategy, not a format — the
#    streamed (INT_OBS_STREAM=1) and in-core (=0) exports must be
#    byte-identical;
#  - the conservative parallel engine is invisible in the artifact —
#    INT_SIM_DOMAINS=4 must reproduce the single-domain giant.jsonl
#    byte-for-byte. (giant.json records the domain count and I/O mode,
#    so only the epoch export is compared.)
gs_dir="$(scratch giant_stream)"
gi_dir="$(scratch giant_incore)"
gd_dir="$(scratch giant_domains)"
INT_RESULTS_DIR="$gs_dir" INT_OBS_STREAM=1 INT_SIM_DOMAINS=1 \
    cargo run --release -q -p int-experiments --bin repro -- giant --seed 1 --scale 0.02
INT_RESULTS_DIR="$gi_dir" INT_OBS_STREAM=0 INT_SIM_DOMAINS=1 \
    cargo run --release -q -p int-experiments --bin repro -- giant --seed 1 --scale 0.02
cmp "$gs_dir/giant.jsonl" "$gi_dir/giant.jsonl" \
    || { echo "giant smoke: INT_OBS_STREAM changed the epoch export"; exit 1; }
INT_RESULTS_DIR="$gd_dir" INT_OBS_STREAM=1 INT_SIM_DOMAINS=4 \
    cargo run --release -q -p int-experiments --bin repro -- giant --seed 1 --scale 0.02
cmp "$gs_dir/giant.jsonl" "$gd_dir/giant.jsonl" \
    || { echo "giant smoke: INT_SIM_DOMAINS changed the epoch export"; exit 1; }
grep -q '"host_cores"' "$gs_dir/giant.runmeta.json" \
    || { echo "giant smoke: runmeta sidecar missing host_cores"; exit 1; }

echo "CI OK"
