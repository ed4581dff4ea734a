#!/bin/sh
# Tier-1 CI gate for the workspace: formatting, release build, full
# test suite, and a warning-free clippy pass over every target
# (benches included).
set -eux

cargo fmt --check
cargo build --release
# The end-to-end benchmark is its own workspace over these crates: a
# crate-API change that breaks it should fail here, not at bench time.
cargo build --release --offline --manifest-path e2ebench/Cargo.toml
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Docs gate: rustdoc must build warning-free (broken intra-doc links
# fail the build) and every documented example must actually run.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test -q --workspace --doc

# Chaos smoke: the fault-injection suite — including the 240-client
# connection-churn soak under readiness faults (DESIGN.md §14) —
# warning-free and serial: the soak's stall detection and the
# watchdog's real-time grace want a quiet machine, not test-thread
# contention. The drain suite pins event-loop shutdown latency with
# idle connections held open.
RUSTFLAGS=-Dwarnings cargo test -q -p dt-server --test chaos -- --test-threads=1
RUSTFLAGS=-Dwarnings cargo test -q -p dt-server --test drain -- --test-threads=1

# End-to-end correctness smoke: short e2ebench runs of every
# workload. Every generated frame must be decoded and offered, and
# every unshed window must equal the offline ideal; the last stdout
# line says "correct": true (e2ebench/README.md).
for workload in fig7-join fanout-ingest bursty-join; do
    cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 2 --trace 0 \
        | tail -n 1 > "/tmp/e2e_$workload.json"
    grep -q '"correct": true' "/tmp/e2e_$workload.json"
done
# Progress sealing (DESIGN.md §7): each workload's single generator
# connection is always past a window's end soon after it, so every p50
# window latency must stay under half the 60 ms seal grace. A silent
# fall back to grace-only sealing puts it at ~61 ms and fails here; on
# fanout-ingest that covers the 2-shard seal path too.
for workload in fig7-join fanout-ingest bursty-join; do
    P50=$(grep -o '"window_latency_p50_ms": {"value": [0-9.e+-]*' "/tmp/e2e_$workload.json" \
        | awk '{print $NF}')
    awk -v p50="$P50" 'BEGIN { exit !(p50 != "" && p50 + 0 < 30) }'
done
# Traced-close smoke: `--trace 1` replays fanout-ingest through the
# layers, merging each window's shard seals from the live shard data
# with merge_sealed and checking every query's exact_batch + payload
# split against close_window's result. It writes .bench_trace/ to the
# current directory, so it runs from a temp directory.
TRACE_DIR=$(mktemp -d)
(cd "$TRACE_DIR" && cargo run --release --offline --quiet \
    --manifest-path "$OLDPWD/e2ebench/Cargo.toml" -- \
    --workload fanout-ingest --seed 7 --seconds 2 --trace 1) \
    | tail -n 1 > "$TRACE_DIR/trace.json"
grep -q '"correct": true' "$TRACE_DIR/trace.json"
rm -rf "$TRACE_DIR"

# Observability smoke: start a live dt-serve (stdin held open by the
# sleep), scrape GET /metrics through the bundled example, and require
# known metric families in the Prometheus exposition, including the
# reactor gauge of the one TCP ingest plane.
sleep 20 | ./target/release/dt-serve \
    --stream R:a --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
    --listen 127.0.0.1:7183 --window 1.0 > /tmp/dt_serve_smoke.json &
SERVE_PID=$!
SCRAPED=0
for _ in $(seq 1 50); do
    if cargo run --release -p dt-server --example scrape -- 127.0.0.1:7183 \
        > /tmp/metrics_smoke.txt 2>/dev/null; then
        SCRAPED=1
        break
    fi
    sleep 0.2
done
test "$SCRAPED" = 1
grep -q '^dt_server_ingest_frames_total' /tmp/metrics_smoke.txt
grep -q '^# TYPE dt_server_queue_depth gauge' /tmp/metrics_smoke.txt
grep -q '^dt_server_seals_total' /tmp/metrics_smoke.txt
grep -q '^dt_server_reactor_conns' /tmp/metrics_smoke.txt
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# Registry smoke: a live dt-serve under the chaos disconnect fault.
# Connection ids are assigned in first-line order (readiness poll,
# two registers, tuple sender, final list), so the sender — the only
# connection that ever writes a 6th line — lands somewhere in 2..=5;
# injecting the same line-5 cut on all four ids guarantees it is
# dropped mid-stream and must reconnect-and-resend, whatever the
# exact numbering. Two queries registered over the loopback client
# share stream R's triage; both must emit windows and show up in
# /stats.
sleep 20 | ./target/release/dt-serve \
    --stream R:a --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
    --listen 127.0.0.1:7184 --window 1.0 --grace 100 \
    --fault-disconnect 2:5 --fault-disconnect 3:5 \
    --fault-disconnect 4:5 --fault-disconnect 5:5 \
    > /tmp/dt_registry_smoke.json &
REG_PID=$!
REG_UP=0
for _ in $(seq 1 50); do
    if ./target/release/dt-serve list --addr 127.0.0.1:7184 \
        > /dev/null 2>&1; then
        REG_UP=1
        break
    fi
    sleep 0.2
done
test "$REG_UP" = 1
./target/release/dt-serve register --addr 127.0.0.1:7184 \
    --sql 'SELECT a, COUNT(*) FROM R GROUP BY a' | grep -q '^registered 1$'
./target/release/dt-serve register --addr 127.0.0.1:7184 \
    --sql 'SELECT a, SUM(a) FROM R GROUP BY a' --tenant acme --weight 2 \
    | grep -q '^registered 2$'
# The producer is paced (one write per line) so the injected close is
# seen as a write failure rather than vanishing into the TCP buffer —
# the sender must then actually reconnect-and-resend at least once.
i=0; while [ "$i" -lt 40 ]; do
    printf '{"stream":"R","row":[%d],"ts":%d}\n' $((i % 3)) $((1500000 + i * 20000))
    sleep 0.01
    i=$((i + 1))
done | ./target/release/dt-serve send --addr 127.0.0.1:7184 \
    2> /tmp/registry_send.txt
cat /tmp/registry_send.txt
grep -Eq 'forwarded 40 lines \([1-9][0-9]* retries\)' /tmp/registry_send.txt
sleep 3
./target/release/dt-serve list --addr 127.0.0.1:7184 > /tmp/registry_list.txt
cat /tmp/registry_list.txt
test "$(grep -c ' active ' /tmp/registry_list.txt)" = 3
grep -vq 'windows=0' /tmp/registry_list.txt
cargo run --release -p dt-server --example scrape -- 127.0.0.1:7184 --raw \
    > /tmp/registry_stats.json
grep -q '"queries":\[' /tmp/registry_stats.json
grep -q 'SELECT a, SUM(a) FROM R GROUP BY a' /tmp/registry_stats.json
kill "$REG_PID" 2>/dev/null || true
wait "$REG_PID" 2>/dev/null || true

# Shard smoke: the same registry-under-disconnect-fault run, but with
# a 4-wide worker group per stream (DESIGN.md §15). Both registered
# queries share stream R's *sharded* triage; every query must still
# emit windows through the merge_sealed fan-in, and the per-shard
# metric families must be live in the exposition.
sleep 20 | ./target/release/dt-serve \
    --stream R:a --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
    --listen 127.0.0.1:7185 --window 1.0 --grace 100 --shards 4 \
    --fault-disconnect 2:5 --fault-disconnect 3:5 \
    --fault-disconnect 4:5 --fault-disconnect 5:5 \
    > /tmp/dt_shard_smoke.json &
SHARD_PID=$!
SHARD_UP=0
for _ in $(seq 1 50); do
    if ./target/release/dt-serve list --addr 127.0.0.1:7185 \
        > /dev/null 2>&1; then
        SHARD_UP=1
        break
    fi
    sleep 0.2
done
test "$SHARD_UP" = 1
./target/release/dt-serve register --addr 127.0.0.1:7185 \
    --sql 'SELECT a, SUM(a) FROM R GROUP BY a' | grep -q '^registered 1$'
i=0; while [ "$i" -lt 40 ]; do
    printf '{"stream":"R","row":[%d],"ts":%d}\n' $((i % 3)) $((1500000 + i * 20000))
    sleep 0.01
    i=$((i + 1))
done | ./target/release/dt-serve send --addr 127.0.0.1:7185 \
    2> /tmp/shard_send.txt
grep -Eq 'forwarded 40 lines' /tmp/shard_send.txt
sleep 3
./target/release/dt-serve list --addr 127.0.0.1:7185 > /tmp/shard_list.txt
cat /tmp/shard_list.txt
test "$(grep -c ' active ' /tmp/shard_list.txt)" = 2
grep -vq 'windows=0' /tmp/shard_list.txt
cargo run --release -p dt-server --example scrape -- 127.0.0.1:7185 \
    > /tmp/shard_metrics.txt
grep -q 'dt_server_shard_depth{stream="R",shard="3"}' /tmp/shard_metrics.txt
grep -q 'dt_server_steal_batches_total{stream="R",shard="0"}' /tmp/shard_metrics.txt
kill "$SHARD_PID" 2>/dev/null || true
wait "$SHARD_PID" 2>/dev/null || true

# Columnar-equivalence gate: the vectorized executor and the batched
# synopsis inserts must stay bit-identical to the row-at-a-time
# reference across randomized plans and inputs.
cargo test -q -p dt-engine --test columnar_equivalence
cargo test -q -p dt-synopsis --test columnar_equivalence

# Bench smoke: every criterion harness must run end to end on a tiny
# time budget, and the perf-trajectory snapshot must regenerate. The
# numbers themselves are not gated here (CI hardware is too noisy);
# BENCH_baseline.json records the interleaved measurements — see its
# methodology field.
CRITERION_BUDGET_MS=25 cargo bench -p dt-bench
cargo run --release -p dt-bench --bin fig8 -- --quick
cargo run --release -p dt-bench --bin bench_baseline -- --out /tmp/bench_smoke.json

# Simulator output pin: the deterministic figure and ablation
# binaries must print exactly the committed results/ text that
# EXPERIMENTS.md quotes. fig6 prints wall-clock timings, so it is not
# pinned.
PIN_DIR=$(mktemp -d)
for bin in fig8 fig9 ablation_burstlen ablation_cellwidth ablation_policy ablation_queue; do
    (cd "$PIN_DIR" && cargo run --release --quiet --manifest-path "$OLDPWD/Cargo.toml" \
        -p dt-bench --bin "$bin") > "$PIN_DIR/$bin.txt"
    diff "$PIN_DIR/$bin.txt" "results/$bin.txt"
done
# ablation_synopsis is the pinned run of the simulator's MHIST,
# adaptive and reservoir paths (every other pin runs sparse). Its
# last column is wall time, so both sides drop it before the diff.
(cd "$PIN_DIR" && cargo run --release --quiet --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin ablation_synopsis) | sed 's/ *[0-9.]* s$//' > "$PIN_DIR/ablation_synopsis.txt"
sed 's/ *[0-9.]* s$//' results/ablation_synopsis.txt | diff "$PIN_DIR/ablation_synopsis.txt" -
# The delay-constraint sweep (DESIGN.md §11) is the pinned run in
# which the adaptive controller engages; it writes delay_sweep.json to
# the current directory, so it too runs from the pin directory.
(cd "$PIN_DIR" && cargo run --release --quiet --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin delay_sweep -- --quick) > "$PIN_DIR/delay_sweep_quick.txt"
diff "$PIN_DIR/delay_sweep_quick.txt" results/delay_sweep_quick.txt
# The multi-query example is the pinned simulator run that closes
# several queries per window under shedding (three queries over one
# stream, 39.4 % shed).
(cd "$PIN_DIR" && cargo run --release --quiet --manifest-path "$OLDPWD/Cargo.toml" \
    -p datatriage --example multi_query) > "$PIN_DIR/multi_query.txt"
diff "$PIN_DIR/multi_query.txt" results/multi_query.txt
rm -rf "$PIN_DIR"

# Perf-regression smoke: re-measure the headline metrics and fail if
# any is >10 % worse than the committed BENCH_baseline.json after
# machine-drift normalization (see bench_baseline's calibration
# kernel). --quick keeps it cheap; suspicious metrics self-escalate.
cargo run --release -p dt-bench --bin bench_baseline -- --compare --quick

# Multi-query sharing smoke: the shared-vs-naive sweep (DESIGN.md §12)
# must run end to end; the shared-triage invariant itself is gated by
# dt-server's registry tests.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin multiq_sweep -- --quick)

# Connection-sweep smoke: the TCP ingest plane under real worker
# processes (DESIGN.md §14) must accept, ingest, and drain end to
# end; the full curves live in the committed CONN_sweep.json.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin conn_sweep -- --quick)

# Shard-sweep smoke: the worker-group critical-path model (DESIGN.md
# §15) must run end to end, conserve every tuple through the sharded
# seal/merge path, and hold the >=2x zipfian-at-4-shards headline the
# binary itself asserts; the full curves live in SHARD_sweep.json.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin shard_sweep -- --quick)
