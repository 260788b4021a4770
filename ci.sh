#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 verify (ROADMAP.md).
# Run from the repository root. Fails fast on the first broken stage.
#
#   ./ci.sh          — the standard gate (includes building the
#                      perfbench/ wall-clock benchmark package)
#   ./ci.sh --chaos  — additionally runs the seeded-torture block:
#                      mutation smoke (both protocol faults must be found
#                      and shrunk; output includes the reproducing seed),
#                      the conformance tests built with fault injection
#                      (the same armed faults through the library on
#                      both runtimes), clean chaos sweeps on the threaded runtime
#                      (fully replicated and 4-shard × 3-replica sharded)
#                      and the TCP runtime, scenario sweeps (YCSB A/E/F,
#                      compose, skew, geo as torture workloads under all
#                      five models), then the crash/rejoin block:
#                      250 seeds per runtime (50 × all 5 models) with up
#                      to two crash→rejoin points per schedule — rolling
#                      restarts under load, audited by the epoch-aware
#                      oracles. The nightly block (500 seeds per model
#                      per runtime) is documented in EXPERIMENTS.md
#                      §Verification.
#   ./ci.sh --bench  — additionally runs the perfbench package tests, a
#                      2 s des-ycsb-a perfbench smoke that must report
#                      "correct": true with 0 failed calls, and
#                      the minos-bench quick sweep,
#                      writes BENCH_results.json, and reruns the sweep
#                      with --compare against the file it just wrote.
#                      Both bench runtimes are deterministic, so the
#                      self-compare must report zero regressions — this
#                      gates the sweep, the JSON writer/parser, and the
#                      compare logic in one pass. The sweep includes the
#                      simspeed/* simulator-speed cells (checked present
#                      below), and a final `--par-gate` run insists the
#                      parallel per-shard-group DES mode is bit-identical
#                      to the sequential one.
set -euo pipefail
cd "$(dirname "$0")"

CHAOS=0
BENCH=0
for arg in "$@"; do
    case "$arg" in
    --chaos) CHAOS=1 ;;
    --bench) BENCH=1 ;;
    *)
        echo "unknown flag: $arg (supported: --chaos, --bench)" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> perfbench: build the wall-clock benchmark package"
# perfbench/ is a workspace of its own that builds against the crates'
# public names by path, so the workspace gate above cannot see a break
# there.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> trace assembly: 3-process TCP cluster -> skew-corrected causal timelines"
# Spawn a real multi-process cluster (one clock epoch per process), push
# replicated writes through two coordinators, then require minos-trace
# to assemble the three JSONL shards into timelines whose hops are all
# causally ordered after the clock fit (corrected send <= recv).
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
NODED=target/release/minos-noded
PORT_BASE=$((20000 + RANDOM % 20000))
PEERS=""
for i in 0 1 2; do PEERS="$PEERS 127.0.0.1:$((PORT_BASE + i))"; done
NODED_PIDS=""
for i in 0 1 2; do
    "$NODED" --trace-out "$TRACE_DIR/shard$i.jsonl" \
        "$i" synch "127.0.0.1:$((PORT_BASE + 10 + i))" $PEERS \
        2>/dev/null &
    NODED_PIDS="$NODED_PIDS $!"
done
sleep 1
# Ten replicated puts through each of two coordinators (the offset fit
# wants wire traffic in both directions), over the raw client protocol.
python3 - "$PORT_BASE" <<'PYEOF'
import socket, struct, sys
base = int(sys.argv[1])
def frame(b): return struct.pack('<I', len(b)) + b
def put(s, creq, key, val):
    body = bytes([1]) + struct.pack('<Q', creq) + struct.pack('<Q', key) + b'\x00' + val
    s.sendall(frame(body))
    n = struct.unpack('<I', s.recv(4))[0]
    got = b''
    while len(got) < n: got += s.recv(n - len(got))
for port in (base + 10, base + 12):
    s = socket.create_connection(('127.0.0.1', port), timeout=10)
    for i in range(10): put(s, i + 1, i, b'v')
    s.close()
PYEOF
sleep 0.5
kill $NODED_PIDS 2>/dev/null || true
wait $NODED_PIDS 2>/dev/null || true
target/release/minos-trace --check-causal "$TRACE_DIR"/shard*.jsonl

if [ "$CHAOS" -eq 1 ]; then
    echo "==> chaos: build minos-torture (with fault injection)"
    cargo build --release -p minos-check --features fault-injection
    TORTURE=target/release/minos-torture

    echo "==> chaos: mutation smoke — armed faults must be found and shrunk"
    # A checker that cannot see a dropped INV or a skipped persist is
    # vacuous; each fault must produce a violation within 100 seeds.
    "$TORTURE" --model synch --seeds 100 --clients 2 --ops 8 \
        --fault skip-inv@0 --expect-violation
    "$TORTURE" --model synch --seeds 100 --clients 2 --ops 8 \
        --fault phantom-persist@1 --expect-violation
    "$TORTURE" --runtime tcp --model synch --seeds 20 --clients 2 --ops 8 \
        --fault skip-inv@1 --expect-violation
    "$TORTURE" --runtime tcp --model synch --seeds 20 --clients 2 --ops 8 \
        --fault phantom-persist@1 --expect-violation

    echo "==> chaos: conformance tests with fault injection (armed faults on both runtimes)"
    cargo test --release -p minos-check --features fault-injection --test conformance

    echo "==> chaos: rebuild minos-torture (faults compiled out)"
    cargo build --release -p minos-check

    echo "==> chaos: clean sweep — threaded, all models"
    "$TORTURE" --model all --seeds 20 --clients 2 --ops 8

    echo "==> chaos: clean sweep — threaded sharded (4 shards x 3 replicas, 12 nodes)"
    "$TORTURE" --model all --seeds 20 --clients 2 --ops 8 \
        --nodes 12 --shards 4 --replicas 3 --keys 8

    echo "==> chaos: clean sweep — tcp, all models"
    "$TORTURE" --runtime tcp --model all --seeds 5 --clients 2 --ops 8

    echo "==> chaos: scenario sweeps — every open-loop scenario doubles as a torture workload"
    # RMW (ycsb-a/f), scans (ycsb-e), compose flows, the hot-key skew
    # storm, and the WAN geo profile, each under all five models on the
    # threaded runtime; one representative scenario rides the TCP wire.
    for wl in ycsb-a ycsb-e ycsb-f compose skew geo; do
        "$TORTURE" --model all --seeds 6 --clients 2 --ops 8 --workload "$wl"
    done
    "$TORTURE" --runtime tcp --model all --seeds 3 --clients 2 --ops 8 \
        --workload ycsb-a

    echo "==> chaos: crash/rejoin — threaded, 250 seeds (all models, rolling restarts)"
    "$TORTURE" --model all --seeds 50 --clients 2 --ops 8 --max-crashes 2

    echo "==> chaos: crash/rejoin — tcp, 250 seeds (all models, rolling restarts)"
    "$TORTURE" --runtime tcp --model all --seeds 50 --clients 2 --ops 8 \
        --max-crashes 2
fi

if [ "$BENCH" -eq 1 ]; then
    echo "==> bench: perfbench package tests"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    echo "==> bench: perfbench des-ycsb-a smoke (run, not only build)"
    # A short run of one benchmark workload. The result line must say the
    # run was correct (for the DES: the fingerprint gate held) with no
    # failed call; a build that passes but no longer runs clean fails here.
    SMOKE=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload des-ycsb-a --seconds 2 --trace 0 | tail -n 1)
    python3 - "$SMOKE" <<'PYEOF'
import json, sys
r = json.loads(sys.argv[1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit(f"des-ycsb-a smoke: correct={r.get('correct')} failed={r.get('failed')}")
print(f"    des-ycsb-a: correct, {r['attempted']} calls, 0 failed")
PYEOF

    echo "==> bench: build minos-bench"
    cargo build --release -p minos-bench
    BENCH_BIN=target/release/minos-bench

    echo "==> bench: quick sweep -> BENCH_results.json"
    "$BENCH_BIN" --quick --out BENCH_results.json

    echo "==> bench: self-compare (deterministic rerun must show 0 regressions)"
    "$BENCH_BIN" --quick --out target/bench_rerun.json --compare BENCH_results.json --threshold 5%

    echo "==> bench: sim-speed cells self-compare (virtual-time metrics must be deterministic)"
    # The simspeed/* cells ride the quick sweep, so the rerun above
    # already re-measured them; here we insist they exist and that their
    # deterministic metrics survived the --compare gate (wall-clock
    # figures live in gauges, which compare ignores by design).
    CELLS=$(grep -c '"id":"simspeed/' BENCH_results.json || true)
    if [ "$CELLS" -lt 4 ]; then
        echo "expected >=4 simspeed/* cells in BENCH_results.json, found $CELLS" >&2
        exit 1
    fi
    echo "    $CELLS simspeed/* cells present and gated"

    echo "==> bench: parallel-vs-sequential DES equivalence gate"
    "$BENCH_BIN" --quick --par-gate
fi

echo "==> ci: all stages passed"
