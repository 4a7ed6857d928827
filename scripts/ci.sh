#!/usr/bin/env bash
# Repo CI gate. Run from the repository root. Same seed ⇒ same bytes under
# every execution strategy is tests/invariance.rs (tier 1; its heavy rows
# run in the release pass of tier 2), not a stanza here.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== tier 1: build + root tests"
cargo build --release
cargo test -q

echo "== tier 2: workspace tests"
cargo test --workspace --release -q

echo "== clippy (deny warnings)"
cargo clippy --workspace --release --all-targets -- -D warnings

echo "== rustdoc (deny warnings: a doc link to a deleted item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== benches (smoke: one iteration each, and every guard still registered)"
bench_log="$(cargo bench -p int-bench -- --test 2>&1)"
echo "$bench_log"
for name in push_pop_far_1k timer_heavy_20s flow_table/lpm_indexed/512 flow_table/lpm_linear/512 \
            rank_throughput/testbed_8h rank_throughput/fabric_64s_128h \
            rank_throughput_mt/fabric_64s_128h/1 rank_throughput_mt/fabric_64s_128h/2 \
            rank_throughput_mt/fabric_64s_128h/4 rank_throughput_mt/fabric_64s_128h/8 \
            rank_throughput_kpaths/fabric_mp_128h/1 rank_throughput_kpaths/fabric_mp_128h/4 \
            fabric_build/clos_128s_240h \
            sim_throughput/domains_1 sim_throughput/domains_2 sim_throughput/domains_4 \
            sim_throughput/clos_obs_off sim_throughput/clos_obs_on \
            publish_throughput/clos_512s/full publish_throughput/clos_512s/incremental \
            publish_throughput/clos_512s/all_dirty ingest_throughput/clos_512s_960probes \
            rank_throughput_churn/fabric_64s_128h collector_ingest/route_flap; do
    grep -q "$name" <<<"$bench_log" || { echo "bench smoke: $name missing from harness"; exit 1; }
done

echo "== intbench (the benchmark of record: its tests + every workload's correctness gate)"
cargo test --release -q --manifest-path intbench/Cargo.toml
cargo run --release -q --manifest-path intbench/Cargo.toml -- --all --smoke
cargo run --release -q --manifest-path intbench/Cargo.toml -- --all --smoke --seed 2 --runs 1

echo "== shard stress (publish/read races: more churn rounds, same oracle equality)"
RUSTFLAGS="--cfg shard_stress --check-cfg=cfg(shard_stress)" \
    cargo test --release -q --test shard_determinism

echo "== repro binary (smoke: flag parsing, results-dir override, runmeta sidecar)"
INT_RESULTS_DIR="$tmp" \
    cargo run --release -q -p int-experiments --bin repro -- giant --seed 1 --scale 0.02 --domains 2
for f in giant.json giant.jsonl giant.runmeta.json; do
    [ -s "$tmp/$f" ] || { echo "repro smoke: $f not written"; exit 1; }
done
grep -q '"domains": 2' "$tmp/giant.json" || { echo "repro smoke: --domains ignored"; exit 1; }
grep -q '"host_cores"' "$tmp/giant.runmeta.json" || { echo "repro smoke: no host_cores"; exit 1; }

echo "== one configuration surface (library crates read the environment in one place)"
if grep -rn 'env::var' crates/*/src | grep -v '^crates/experiments/src/report.rs:'; then
    echo "env read outside experiments::report"; exit 1
fi

echo "== one hash index (open-addressed probe loops live in int_obs::SlabIndex only)"
if grep -rn '(i + 1) & mask' crates/*/src | grep -v '^crates/obs/src/index.rs:'; then
    echo "hand-rolled probe loop outside obs::index"; exit 1
fi

echo "== one switch program (IntTelemetryProgram, held by value)"
if grep -rn 'impl DataPlaneProgram for' crates/*/src | grep -v '^crates/dataplane/src/programs/int_telemetry.rs:' \
    || grep -rn 'dyn DataPlaneProgram' crates src tests examples; then
    echo "a second switch program or a boxed one"; exit 1
fi

echo "CI OK"
