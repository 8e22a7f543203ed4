#!/usr/bin/env bash
# Repo verification: tier-1 (build + tests) plus a tiny-corpus smoke of the
# telemetry ledger and the perf regression gate, so the gate itself is
# exercised on every PR.
#
#   scripts/verify.sh            # everything
#   SKIP_SMOKE=1 scripts/verify.sh   # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== construction suites: gapbs-parallel + gapbs-graph tests =="
# `cargo test` at the root covers the root package only. The scatter's
# boundary and stability tests, the builder's oracles and the golden
# corpus hashes live in these two crates.
cargo test -q --release -p gapbs-parallel -p gapbs-graph

echo "== lint: cargo fmt --check =="
cargo fmt --check

echo "== lint: cargo clippy --all-targets -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== telemetry feature parity: build + tests with counters on =="
cargo build -q --features telemetry
cargo test -q --features telemetry --test shape_claims

if [[ "${SKIP_SMOKE:-0}" == "1" ]]; then
    echo "SKIP_SMOKE=1: skipping ledger/perf_compare smoke"
    exit 0
fi

echo "== smoke: tiny-corpus run_all --ledger =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
GAPBS_SCALE=tiny GAPBS_TRIALS=1 GAPBS_CSV="$smoke_dir/results.csv" \
    cargo run -q --release --features telemetry -p gapbs-bench --bin run_all -- \
    --ledger "$smoke_dir/ledger.jsonl" > "$smoke_dir/run_all.out"
[[ -s "$smoke_dir/ledger.jsonl" ]] || { echo "FAIL: ledger is empty"; exit 1; }
for fw in GAP SuiteSparse Galois GraphIt GKC NWGraph; do
    grep -q "\"framework\":\"$fw\"" "$smoke_dir/ledger.jsonl" \
        || { echo "FAIL: no ledger records for $fw"; exit 1; }
done
# Structured ledger sanity: finite times, verified outputs, non-empty
# graphs, and (telemetry build) every trial examined at least one edge.
# The bounded-RSS ceiling rides along: a tiny-corpus run that cannot fit
# in 8 GiB means the accounting broke, and the same flag with an absurd
# 1 MiB budget must trip, proving the gate actually gates.
cargo run -q --release -p gapbs-bench --bin perf_compare -- \
    --lint --max-rss-mb 8192 "$smoke_dir/ledger.jsonl"
if grep -q '"peak_rss_bytes":[1-9]' "$smoke_dir/ledger.jsonl"; then
    if cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        --lint --max-rss-mb 1 "$smoke_dir/ledger.jsonl" > /dev/null; then
        echo "FAIL: --max-rss-mb 1 did not trip on recorded RSS peaks"
        exit 1
    fi
else
    echo "  (no nonzero peak_rss_bytes recorded on this host: RSS trip test skipped)"
fi

echo "== smoke: execution trace + trace_stats =="
# A traced BFS on the Kron generator must produce a loadable Chrome
# trace with direction-optimizing level events, and trace_stats must
# distill it to a parseable imbalance metric.
cargo run -q --release --features telemetry --bin bfs -- \
    -g 10 -k 16 -n 2 --trace "$smoke_dir/trace.json" > /dev/null
[[ -s "$smoke_dir/trace.json" ]] || { echo "FAIL: trace is empty"; exit 1; }
cargo run -q --release -p gapbs-bench --bin trace_stats -- \
    "$smoke_dir/trace.json" > "$smoke_dir/trace_stats.out"
grep -Eq '^imbalance: [0-9]+\.[0-9]+' "$smoke_dir/trace_stats.out" \
    || { echo "FAIL: no parseable imbalance metric"; cat "$smoke_dir/trace_stats.out"; exit 1; }
grep -q 'direction switch' "$smoke_dir/trace_stats.out" \
    || { echo "FAIL: traced Kron BFS shows no push/pull switch"; exit 1; }

echo "== smoke: region-launch microbenchmark =="
# The persistent pool exists to make tiny per-level regions cheap. Two
# gates, one per regime. With every worker on a core of its own
# (min(nproc, 4) threads) a region launched after a kernel-sized serial
# gap must cost at most 5 us: an absolute bound that bites on a 2-core
# host, where a barrier that parks between regions measures ~29 us. At 4
# threads whatever the host (oversubscribed below 4 cores, where an
# impolite spin-wait loses) the pool must stay at least 5x cheaper per
# region than scoped spawning.
region_threads=$(( $(nproc) < 4 ? $(nproc) : 4 ))
if [[ "$region_threads" -ge 2 ]]; then
    cargo run -q --release -p gapbs-bench --bin region_bench -- \
        --threads "$region_threads" --regions 2000 --n 256 --max-us-per-region 5
else
    echo "  (host has 1 core: no worker gets a core, absolute launch gate skipped)"
fi
cargo run -q --release -p gapbs-bench --bin region_bench -- \
    --threads 4 --regions 300 --n 256 --min-speedup 5

echo "== smoke: parallel graph construction (build_bench) =="
# build_bench asserts the pooled pipeline's graphs are byte-identical to
# the 1-thread run before reporting speedups, so this smoke is a
# correctness check on every host. The 1.8x speedup gate only means
# something with real cores behind the pool, so it applies when the
# host has at least 4.
build_gate=()
if [[ "$(nproc)" -ge 4 ]]; then
    build_gate=(--min-speedup 1.8)
else
    echo "  (host has $(nproc) core(s): identity checked, speedup gate skipped)"
fi
build_threads=$(( $(nproc) < 4 ? $(nproc) : 4 ))
cargo run -q --release -p gapbs-bench --bin build_bench -- \
    --threads "$build_threads" --scale 18 --reps 3 \
    --ledger "$smoke_dir/build.jsonl" "${build_gate[@]}"
# The gate that bites on any core count: diff the one-thread cells
# against the committed baseline. At scale 18 they are >= 100 ms, so a
# cell that doubles (and moves by more than 50 ms) is a lost
# optimisation, not host jitter; the work-normalised cells
# (generate/Medge, build/Mitem) say which loop lost it.
if [[ -f results/baseline-build.jsonl ]]; then
    cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        --ratio 2 --floor 0.05 \
        results/baseline-build.jsonl "$smoke_dir/build.jsonl"
else
    echo "WARN: results/baseline-build.jsonl missing; skipping build baseline compare"
fi

echo "== smoke: GraphBLAS kernel engine (grb_bench) =="
# grb_bench asserts the pooled engine's kernel outputs are bit-identical
# to the 1-thread run (including f64 bit patterns) before reporting
# speedups, so this smoke is a determinism check on every host. The
# speedup gate applies only with real cores behind the pool.
grb_gate=()
if [[ "$(nproc)" -ge 4 ]]; then
    grb_gate=(--min-speedup 1.8)
else
    echo "  (host has $(nproc) core(s): bit-identity checked, speedup gate skipped)"
fi
cargo run -q --release -p gapbs-bench --bin grb_bench -- \
    --threads 4 --scale 12 --reps 2 \
    --ledger "$smoke_dir/grb.jsonl" "${grb_gate[@]}"
# Diff engine kernel times against the committed baseline. Same wide
# thresholds as the build baseline: catches order-of-magnitude blowups
# (an accidental O(n) alloc per op, a serialized path), not host jitter.
if [[ -f results/baseline-grb.jsonl ]]; then
    cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        --ratio 3 --floor 0.25 \
        results/baseline-grb.jsonl "$smoke_dir/grb.jsonl"
else
    echo "WARN: results/baseline-grb.jsonl missing; skipping grb baseline compare"
fi

echo "== smoke: multi-source BFS engine (msbfs_bench) =="
# msbfs_bench asserts every batched search's canonical depths are
# bit-identical to an independent direction-optimizing bfs run (and
# thread-count invariant) before any timing claim, so this smoke is a
# correctness check on every host. Batching 64 sources into word-packed
# sweeps shares edge scans across searches; the aggregate-TEPS gate
# applies only with real cores behind the pool.
msbfs_gate=()
if [[ "$(nproc)" -ge 4 ]]; then
    msbfs_gate=(--min-speedup 4)
else
    echo "  (host has $(nproc) core(s): bit-identity checked, speedup gate skipped)"
fi
cargo run -q --release -p gapbs-bench --bin msbfs_bench -- \
    --threads 4 --scale 13 --sources 64 --reps 2 \
    --ledger "$smoke_dir/msbfs.jsonl" "${msbfs_gate[@]}"
# Diff against the committed baseline with the same wide thresholds as
# the other microbench baselines: catches order-of-magnitude blowups,
# not host jitter.
if [[ -f results/baseline-msbfs.jsonl ]]; then
    cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        --ratio 3 --floor 0.25 \
        results/baseline-msbfs.jsonl "$smoke_dir/msbfs.jsonl"
else
    echo "WARN: results/baseline-msbfs.jsonl missing; skipping msbfs baseline compare"
fi

echo "== smoke: layout engine (layout_bench) =="
# layout_bench first proves the compact u32-offset layout cannot change
# answers: all six reference kernels run on both offset widths at thread
# counts {1,2,7,16} and every canonical output must be bit-identical to
# the 1-thread compact run. That identity check runs on every host, and
# so does the TC gate: marked rows over an oriented DAG against the
# scalar-merge legacy arm is an algorithmic ratio (probes vs merge
# steps), so it needs no spare cores. The geomean TEPS gate over tc and
# pr (strips vs per-vertex chunks) only means something with real cores
# behind the pool.
layout_threads=$(( $(nproc) < 4 ? $(nproc) : 4 ))
layout_gate=(--min-tc-speedup 2)
if [[ "$(nproc)" -ge 4 ]]; then
    layout_gate+=(--min-speedup 1.2)
else
    echo "  (host has $(nproc) core(s): bit-identity and TC gate checked, geomean gate skipped)"
fi
cargo run -q --release -p gapbs-bench --bin layout_bench -- \
    --threads "$layout_threads" --scale 15 --reps 3 \
    --ledger "$smoke_dir/layout.jsonl" "${layout_gate[@]}"
# Diff kernel times and resident bytes against the committed baseline.
# Same wide time thresholds as the other microbench baselines; the
# GRAPH-BYTES section is report-only but makes any layout growth visible
# in the verify log.
if [[ -f results/baseline-layout.jsonl ]]; then
    cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        --ratio 3 --floor 0.25 \
        results/baseline-layout.jsonl "$smoke_dir/layout.jsonl"
else
    echo "WARN: results/baseline-layout.jsonl missing; skipping layout baseline compare"
fi

echo "== smoke: snapshot round-trip + corruption rejection =="
# Build two tiny corpus snapshots, inspect one, load it back through the
# full paranoid sweep (mmap -> Graph -> from_parts invariants), then
# corrupt a single mid-file byte and demand a structured checksum error
# -- never UB, never a panic.
snap_dir="$smoke_dir/snaps"
cargo run -q --release --bin gapbs-snapshot -- \
    build --dir "$snap_dir" --scale tiny --graphs kron,road > /dev/null
cargo run -q --release --bin gapbs-snapshot -- \
    info "$snap_dir/kron-tiny-v2.gsnap" > "$smoke_dir/snap_info.out"
grep -q 'format version : 2' "$smoke_dir/snap_info.out" \
    || { echo "FAIL: snapshot info shows no format version"; cat "$smoke_dir/snap_info.out"; exit 1; }
cargo run -q --release --bin gapbs-snapshot -- \
    verify "$snap_dir/kron-tiny-v2.gsnap" --paranoid > /dev/null
cp "$snap_dir/road-tiny-v2.gsnap" "$snap_dir/bad.gsnap"
orig=$(dd if="$snap_dir/bad.gsnap" bs=1 skip=2048 count=1 status=none | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(( (orig + 1) % 256 )))" \
    | dd of="$snap_dir/bad.gsnap" bs=1 seek=2048 count=1 conv=notrunc status=none
if cargo run -q --release --bin gapbs-snapshot -- \
    verify "$snap_dir/bad.gsnap" 2> "$smoke_dir/bad.err" > /dev/null; then
    echo "FAIL: corrupted snapshot verified clean"
    exit 1
fi
grep -q 'checksum mismatch' "$smoke_dir/bad.err" \
    || { echo "FAIL: corruption did not surface as a structured checksum error"; cat "$smoke_dir/bad.err"; exit 1; }
rm "$snap_dir/bad.gsnap"

echo "== smoke: snapshot_bench (mmap cold-start gate + identity matrix) =="
# snapshot_bench first proves decompressed loads are bit-identical to the
# in-memory build (kernels + streamed decode, both offset widths, thread
# counts {1,2,7,16}), then gates the zero-copy mmap load at >=10x over a
# full rebuild on the medium corpus (19x geomean here; the gate stood at
# 50x until the rebuild in the numerator got 4-6x faster).
# mmap-vs-rebuild is not a parallelism claim, so unlike the speedup
# benches this gate applies on every host.
cargo run -q --release -p gapbs-bench --bin snapshot_bench -- \
    --scale medium --reps 3 --min-speedup 10 \
    --ledger "$smoke_dir/snapshot.jsonl"
# Diff cold-start times against the committed baseline with the same wide
# thresholds as the other microbench baselines.
if [[ -f results/baseline-snapshot.jsonl ]]; then
    cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        --ratio 3 --floor 0.25 \
        results/baseline-snapshot.jsonl "$smoke_dir/snapshot.jsonl"
else
    echo "WARN: results/baseline-snapshot.jsonl missing; skipping snapshot baseline compare"
fi

echo "== smoke: perf_compare gate =="
# Identical ledgers must pass...
cargo run -q --release -p gapbs-bench --bin perf_compare -- \
    "$smoke_dir/ledger.jsonl" "$smoke_dir/ledger.jsonl"
# ...and an injected 10x slowdown must fail the gate.
sed 's/"seconds":\([0-9.e-]*\)/"seconds":1.0/' "$smoke_dir/ledger.jsonl" \
    > "$smoke_dir/slow.jsonl"
if cargo run -q --release -p gapbs-bench --bin perf_compare -- \
    "$smoke_dir/ledger.jsonl" "$smoke_dir/slow.jsonl" > /dev/null; then
    echo "FAIL: perf_compare did not flag a synthetic regression"
    exit 1
fi

echo "== smoke: perf_compare against the recorded baseline =="
# results/baseline-tiny.jsonl is a committed tiny-corpus ledger; the 5 ms
# absolute floor keeps microsecond cells from tripping on host jitter, so
# this catches only real (milliseconds-scale) kernel regressions.
if [[ -f results/baseline-tiny.jsonl ]]; then
    cargo run -q --release -p gapbs-bench --bin perf_compare -- \
        results/baseline-tiny.jsonl "$smoke_dir/ledger.jsonl"
else
    echo "WARN: results/baseline-tiny.jsonl missing; skipping baseline compare"
fi

echo "== smoke: serve daemon + serve_bench + metrics plane =="
# Start the daemon on an ephemeral port over a tiny two-graph corpus with
# the full observability plane on: a metrics listener, and --slow-ms 0 so
# every successful query must emit a structured slow-query line. Hammer
# it with 64 concurrent clients in --check mode (every response
# fingerprint must be bit-identical to a local batch-mode run), scrape
# both the TCP stats command and the HTTP exposition endpoints, then run
# a throughput-gated pass whose client-side percentiles are cross-checked
# against the daemon's own histogram (--check-quantiles) and which ends
# with an in-protocol shutdown. The daemon must drain and exit 0, and its
# per-query ledger must lint clean.
serve_log="$smoke_dir/serve.log"
cargo run -q --release --bin serve -- \
    --addr 127.0.0.1:0 --port-file "$smoke_dir/serve.port" \
    --metrics-addr 127.0.0.1:0 --metrics-port-file "$smoke_dir/metrics.port" \
    --slow-ms 0 \
    --scale tiny --graphs kron,road --threads 2 \
    --snapshot-dir "$snap_dir" \
    --ledger "$smoke_dir/serve.jsonl" > /dev/null 2> "$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$smoke_dir/serve.port" && -s "$smoke_dir/metrics.port" ]] && break
    kill -0 "$serve_pid" 2> /dev/null || { echo "FAIL: serve died on startup"; cat "$serve_log"; exit 1; }
    sleep 0.1
done
[[ -s "$smoke_dir/serve.port" ]] || { echo "FAIL: serve never wrote its port file"; cat "$serve_log"; exit 1; }
[[ -s "$smoke_dir/metrics.port" ]] || { echo "FAIL: serve never wrote its metrics port file"; cat "$serve_log"; exit 1; }
serve_port="$(cat "$smoke_dir/serve.port")"
serve_addr="127.0.0.1:$serve_port"
metrics_port="$(cat "$smoke_dir/metrics.port")"
# 64 concurrent clients, bit-identity checked on every response.
cargo run -q --release --bin serve_bench -- \
    --addr "$serve_addr" --clients 64 --requests 4 \
    --check --scale tiny --threads 2 > "$smoke_dir/serve_check.json"
# Scrape the TCP stats command (bash /dev/tcp; no curl in the image) and
# hold the snapshot to the structured consistency rules: lifecycle
# counters balance exactly, histogram count equals completions, bucket
# table monotone.
exec 3<> "/dev/tcp/127.0.0.1/$serve_port"
printf '{"cmd":"stats"}\n' >&3
head -n 1 <&3 > "$smoke_dir/stats.json"
exec 3>&- 3<&-
cargo run -q --release -p gapbs-bench --bin perf_compare -- \
    --lint-stats "$smoke_dir/stats.json"
# Scrape the HTTP endpoints the same way.
http_get() {
    exec 4<> "/dev/tcp/127.0.0.1/$metrics_port"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&4
    cat <&4
    exec 4>&- 4<&-
}
http_get /metrics | tr -d '\r' > "$smoke_dir/metrics.txt"
head -n 1 "$smoke_dir/metrics.txt" | grep -q ' 200 ' \
    || { echo "FAIL: /metrics did not return 200"; head -n 1 "$smoke_dir/metrics.txt"; exit 1; }
# Body = everything after the header blank line.
sed -e '1,/^$/d' "$smoke_dir/metrics.txt" > "$smoke_dir/metrics.body"
for needle in \
    '# TYPE gapbs_serve_queries_admitted_total counter' \
    '# TYPE gapbs_serve_latency_us histogram' \
    'gapbs_serve_latency_us_bucket{le=' \
    'gapbs_serve_queries_completed_total ' \
    'gapbs_serve_rss_bytes ' \
    'gapbs_serve_pool_regions_total ' \
    'gapbs_serve_time_to_ready_seconds ' \
    'gapbs_serve_snapshot_hit{graph="Kron"} 1' \
    'gapbs_serve_snapshot_hit{graph="Road"} 1'; do
    grep -qF "$needle" "$smoke_dir/metrics.body" \
        || { echo "FAIL: /metrics missing $needle"; cat "$smoke_dir/metrics.body"; exit 1; }
done
# Exposition syntax: every sample line is `name[{labels}] value`.
if grep -vE '^(#.*|[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|)$' \
    "$smoke_dir/metrics.body" > "$smoke_dir/metrics.bad"; then
    echo "FAIL: malformed Prometheus exposition lines:"; cat "$smoke_dir/metrics.bad"; exit 1
fi
http_get /health | tail -n 1 | grep -q '^ok$' \
    || { echo "FAIL: /health probe"; exit 1; }
http_get /ready | tail -n 1 | grep -q '^ready$' \
    || { echo "FAIL: /ready probe"; exit 1; }
# An on-demand traced query returns inline Chrome events that trace_stats
# can read straight off the response line.
exec 3<> "/dev/tcp/127.0.0.1/$serve_port"
printf '{"kernel":"bfs","graph":"kron","source":0,"trace":true}\n' >&3
head -n 1 <&3 > "$smoke_dir/traced.json"
exec 3>&- 3<&-
cargo run -q --release -p gapbs-bench --bin trace_stats -- \
    "$smoke_dir/traced.json" > /dev/null \
    || { echo "FAIL: trace_stats cannot read a served inline trace"; cat "$smoke_dir/traced.json"; exit 1; }
# Throughput gate + daemon-vs-client quantile cross-check + graceful
# in-protocol shutdown. The QPS floor doubles as the metrics-overhead
# gate: the always-on histograms ride inside this measured run.
cargo run -q --release --bin serve_bench -- \
    --addr "$serve_addr" --clients 8 --requests 25 --min-qps 20 \
    --check-quantiles --shutdown > "$smoke_dir/serve_bench.json"
if ! wait "$serve_pid"; then
    echo "FAIL: serve did not exit 0 after shutdown"; cat "$serve_log"; exit 1
fi
grep -q "shut down cleanly" "$serve_log" \
    || { echo "FAIL: serve log shows no clean drain"; cat "$serve_log"; exit 1; }
# --slow-ms 0 means every successful query crosses the threshold: the
# structured slow-query log must have fired.
grep -q '"slow_query":true' "$serve_log" \
    || { echo "FAIL: slow-query log never fired at --slow-ms 0"; cat "$serve_log"; exit 1; }
[[ -s "$smoke_dir/serve.jsonl" ]] || { echo "FAIL: serve ledger is empty"; exit 1; }
# Per-query records must satisfy the same structured rules as trial
# records, including the queries_completed <= queries_admitted invariant.
cargo run -q --release -p gapbs-bench --bin perf_compare -- \
    --lint "$smoke_dir/serve.jsonl"

echo "verify.sh: all checks passed"
