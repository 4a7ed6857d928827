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

echo "== int-core unit tests in debug (debug_asserts and overflow checks fire only here)"
cargo test -q -p int-core

echo "== tier 2: workspace tests"
cargo test --workspace --release -q

echo "== clippy (deny warnings)"
cargo clippy --workspace --release --all-targets -- -D warnings

echo "== rustdoc (deny warnings: a doc link to a deleted item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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

echo "== one experiment table (experiments are named in EXPERIMENTS; repro.rs only looks them up)"
names="$(grep -o 'Experiment::new("[a-z0-9-]*"' crates/experiments/src/experiment.rs | cut -d'"' -f2 | paste -sd'|')"
[ -n "$names" ] || { echo "no experiment names found in experiment.rs"; exit 1; }
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/experiments/src/bin/repro.rs \
    | grep -E "\"($names)\""; then
    echo "repro.rs names an experiment outside its tests"; exit 1
fi

echo "== serialize-only artifacts, one benchmark harness (nothing derives Deserialize; intbench is the only bench)"
if grep -rn 'Deserialize' crates/*/src src tests examples \
    || grep -rn --include=Cargo.toml --include=Cargo.lock --exclude-dir=target --exclude-dir=.bench_build 'criterion' .; then
    echo "a Deserialize outside vendor/ and intbench/, or a criterion dependency"; exit 1
fi

echo "== one hash index (open-addressed probe loops live in int_obs::SlabIndex only)"
if grep -rn '(i + 1) & mask' crates/*/src | grep -v '^crates/obs/src/index.rs:'; then
    echo "hand-rolled probe loop outside obs::index"; exit 1
fi

echo "== fabric construction stays linear (add_node checks names through its index; route installs copy no key)"
strays="$(awk 'FNR == 1 { owner = ""; f = ""; tests = 0 }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    tests || /^[[:space:]]*\/\// { next }
    /^impl/ { owner = $0; sub(/^impl(<[^>]*>)? */, "", owner); sub(/[^A-Za-z0-9_].*/, "", owner) }
    /^(pub )?(fn|struct|enum|const|static|type) / { owner = "" }
    match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    (owner == "Topology" && f == "add_node" && /self\.nodes\.iter\(\)/) \
        || (owner == "MatchActionTable" && f ~ /^insert/ && /to_vec\(\)/) \
        || (owner == "L3ForwardProgram" && f == "install_route" && /to_vec\(\)/) {
        print FILENAME ":" FNR ": " $0
    }' crates/netsim/src/topology.rs crates/dataplane/src/table.rs crates/dataplane/src/programs/l3fwd.rs)"
if [ -n "$strays" ]; then
    echo "$strays"; echo "a scan of every node in Topology::add_node, or a copied key in a route install"; exit 1
fi

echo "== one switch program (IntTelemetryProgram, held by value)"
if grep -rn 'impl DataPlaneProgram for' crates/*/src | grep -v '^crates/dataplane/src/programs/int_telemetry.rs:' \
    || grep -rn 'dyn DataPlaneProgram' crates src tests examples; then
    echo "a second switch program or a boxed one"; exit 1
fi

echo "== one node record and one drop path (drop counters move only in NetStats::count_drop)"
if grep -rn 'drops_[a-z_]* += 1' crates/netsim/src | grep -v '^crates/netsim/src/stats.rs:' \
    || grep -rn 'enum NodeState' crates/netsim/src; then
    echo "a drop counted outside NetStats::count_drop, or a per-kind node enum"; exit 1
fi

echo "== one Dijkstra (the serving stack's heap lives in snapshot.rs; map.rs keeps the reference's)"
if grep -rn 'BinaryHeap' crates/core/src | grep -v '^crates/core/src/snapshot.rs:\|^crates/core/src/map.rs:' \
    || [ "$(grep -c 'fn dijkstra' crates/core/src/snapshot.rs)" -gt 1 ]; then
    echo "a heap in int-core outside snapshot.rs and map.rs, or a second Dijkstra in snapshot.rs"; exit 1
fi

echo "== one candidate sort (snapshot.rs sorts only in the CSR build, order_by_keys and resort_clamped_runs)"
strays="$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /^impl/ { owner = $2 }
    /^(pub )?(fn|struct|enum|const|static|type) / { owner = "" }
    match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    /sort_unstable/ && !((owner == "CsrTopo" && f == "build") || f == "order_by_keys" || f == "resort_clamped_runs") {
        print FILENAME ":" FNR ": " $0
    }' crates/core/src/snapshot.rs)"
if [ -n "$strays" ]; then
    echo "$strays"; echo "a sort in snapshot.rs outside the CSR build, order_by_keys and resort_clamped_runs"; exit 1
fi

echo "== one batch split, threads start once (shard.rs: no scoped threads, and a spawn only in Worker::start)"
strays="$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /^impl/ { owner = $2 }
    /^(pub )?(fn|struct|enum|const|static|type) / { owner = "" }
    match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    /thread::scope/ || (/spawn/ && !(owner == "Worker" && f == "start")) {
        print FILENAME ":" FNR ": " $0
    }' crates/core/src/shard.rs)"
if [ -n "$strays" ]; then
    echo "$strays"; echo "a scoped thread, or a thread started outside Worker::start, in shard.rs"; exit 1
fi

echo "== one downcast (Simulator::app finds an app by type; App's provided pair in app.rs is the only fn as_any)"
if grep -rn 'fn as_any' crates/*/src src tests examples | grep -v '^crates/netsim/src/app.rs:'; then
    echo "a hand-written as_any outside netsim/src/app.rs"; exit 1
fi

echo "CI OK"
