#!/usr/bin/env bash
# Repo verification: tier-1, every workspace suite, lints, the benchmark's
# own build and tests, then a tiny-corpus smoke of the ledger, traces,
# snapshots and the serve daemon. Performance verdicts come from
# benchmark/; the work golden (tests/work_golden.rs) runs in tier-1.
# `SKIP_SMOKE=1 scripts/verify.sh` stops before the smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace suites: cargo test -q --release --workspace =="
# `cargo test` at the root covers the root package only; the crates' own
# suites (graph, parallel, serve, grb, telemetry, ...) run here.
cargo test -q --release --workspace

echo "== lint: cargo fmt --check =="
cargo fmt --check

echo "== lint: cargo clippy --workspace --all-targets -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== repo benchmark: build + its own tests =="
# benchmark/ is its own package linking the workspace crates: break it here.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

if [[ "${SKIP_SMOKE:-0}" == "1" ]]; then
    echo "SKIP_SMOKE=1: skipping the smoke stages"
    exit 0
fi

smoke_dir=$(mktemp -d)
serve_pid=""
cleanup() {
    [[ -n "$serve_pid" ]] && kill "$serve_pid" 2> /dev/null || true
    rm -rf "$smoke_dir"
}
trap cleanup EXIT
fail() { echo "FAIL: $1"; [[ -n "${2:-}" ]] && cat "$2"; exit 1; }
perf_compare() { cargo run -q --release -p gapbs-bench --bin perf_compare -- "$@"; }
trace_stats() { cargo run -q --release -p gapbs-bench --bin trace_stats -- "$@"; }
snapshot() { cargo run -q --release --bin gapbs-snapshot -- "$@"; }

echo "== smoke: tiny-corpus run_all --ledger =="
ledger="$smoke_dir/ledger.jsonl"
GAPBS_SCALE=tiny GAPBS_TRIALS=1 GAPBS_CSV="$smoke_dir/results.csv" \
    cargo run -q --release -p gapbs-bench --bin run_all -- \
    --ledger "$ledger" > "$smoke_dir/run_all.out"
[[ -s "$ledger" ]] || fail "ledger is empty"
for fw in GAP SuiteSparse Galois GraphIt GKC NWGraph; do
    grep -q "\"framework\":\"$fw\"" "$ledger" || fail "no ledger records for $fw"
done
# Structured ledger sanity: finite times, verified outputs, non-empty
# graphs, and every trial examined at least one edge.
# A tiny-corpus run must fit in 8 GiB, and an absurd 1 MiB budget must
# trip, proving the RSS gate actually gates.
perf_compare --lint --max-rss-mb 8192 "$ledger"
if grep -q '"peak_rss_bytes":[1-9]' "$ledger"; then
    if perf_compare --lint --max-rss-mb 1 "$ledger" > /dev/null; then
        fail "--max-rss-mb 1 did not trip on recorded RSS peaks"
    fi
else
    echo "  (no nonzero peak_rss_bytes recorded on this host: RSS trip test skipped)"
fi

echo "== smoke: execution trace + trace_stats =="
# A traced Kron BFS must produce a loadable Chrome trace with
# direction-optimizing level events, distilled to a parseable metric.
cargo run -q --release --bin bfs -- \
    -g 10 -k 16 -n 2 --trace "$smoke_dir/trace.json" > /dev/null
[[ -s "$smoke_dir/trace.json" ]] || fail "trace is empty"
trace_stats "$smoke_dir/trace.json" > "$smoke_dir/trace_stats.out"
grep -Eq '^imbalance: [0-9]+\.[0-9]+' "$smoke_dir/trace_stats.out" \
    || fail "no parseable imbalance metric" "$smoke_dir/trace_stats.out"
grep -q 'direction switch' "$smoke_dir/trace_stats.out" \
    || fail "traced Kron BFS shows no push/pull switch"

echo "== smoke: snapshot round-trip + corruption rejection =="
# Build two tiny corpus snapshots, inspect one, load it back through the
# paranoid sweep, then corrupt one mid-file byte and demand a structured
# checksum error -- never UB, never a panic.
snap_dir="$smoke_dir/snaps"
snapshot build --dir "$snap_dir" --scale tiny --graphs kron,road,twitter > /dev/null
snapshot info "$snap_dir/kron-tiny-v2.gsnap" > "$smoke_dir/snap_info.out"
grep -q 'format version : 2' "$smoke_dir/snap_info.out" \
    || fail "snapshot info shows no format version" "$smoke_dir/snap_info.out"
snapshot verify "$snap_dir/kron-tiny-v2.gsnap" --paranoid > /dev/null
bad="$smoke_dir/bad.gsnap"
cp "$snap_dir/road-tiny-v2.gsnap" "$bad"
orig=$(dd if="$bad" bs=1 skip=2048 count=1 status=none | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(( (orig + 1) % 256 )))" \
    | dd of="$bad" bs=1 seek=2048 count=1 conv=notrunc status=none
if snapshot verify "$bad" 2> "$smoke_dir/bad.err" > /dev/null; then
    fail "corrupted snapshot verified clean"
fi
grep -q 'checksum mismatch' "$smoke_dir/bad.err" \
    || fail "corruption did not surface as a structured checksum error" "$smoke_dir/bad.err"

echo "== smoke: serve daemon + metrics plane =="
# The daemon serves the tiny snapshots with a metrics listener and
# --slow-ms 0, so every successful query must emit a slow-query line.
# Queries, the stats scrape and the shutdown all go over bash /dev/tcp.
serve_log="$smoke_dir/serve.log"
cargo run -q --release --bin serve -- \
    --addr 127.0.0.1:0 --port-file "$smoke_dir/serve.port" \
    --metrics-addr 127.0.0.1:0 --metrics-port-file "$smoke_dir/metrics.port" \
    --slow-ms 0 --scale tiny --graphs kron,road,twitter --threads 2 \
    --snapshot-dir "$snap_dir" --ledger "$smoke_dir/serve.jsonl" > /dev/null 2> "$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$smoke_dir/serve.port" && -s "$smoke_dir/metrics.port" ]] && break
    kill -0 "$serve_pid" 2> /dev/null || fail "serve died on startup" "$serve_log"
    sleep 0.1
done
for f in serve.port metrics.port; do
    [[ -s "$smoke_dir/$f" ]] || fail "serve never wrote its $f file" "$serve_log"
done
serve_port="$(cat "$smoke_dir/serve.port")"
metrics_port="$(cat "$smoke_dir/metrics.port")"
# Sends each argument as one request line on one connection and prints
# one reply line per request.
serve_send() {
    exec 3<> "/dev/tcp/127.0.0.1/$serve_port"
    local line reply
    for line in "$@"; do
        printf '%s\n' "$line" >&3
        IFS= read -r reply <&3
        printf '%s\n' "$reply"
    done
    exec 3>&- 3<&-
}
queries=()
for q in {bfs,sssp,pr,cc,bc,tc}:{kron,road}:{GAP,SuiteSparse}; do
    IFS=: read -r kernel graph fw <<< "$q"
    queries+=("{\"kernel\":\"$kernel\",\"graph\":\"$graph\",\"framework\":\"$fw\",\"source\":1}")
done
# Last: per graph, a batch line, then its sources one line each. Both
# batches pull a level (directed twitter through its in-arcs).
for graph in kron twitter; do
    queries+=("{\"kernel\":\"bfs\",\"graph\":\"$graph\",\"sources\":[1,2,3]}")
    for s in 1 2 3; do queries+=("{\"kernel\":\"bfs\",\"graph\":\"$graph\",\"source\":$s}"); done
done
serve_send "${queries[@]}" > "$smoke_dir/replies.jsonl"
[[ "$(grep -c '"ok":true' "$smoke_dir/replies.jsonl")" -eq "${#queries[@]}" ]] \
    || fail "not every query succeeded" "$smoke_dir/replies.jsonl"
mapfile -t fps < <(tail -n 8 "$smoke_dir/replies.jsonl" | grep -o '"fingerprint":"[0-9a-f]*"')
[[ "${#fps[@]}" -eq 12 && "${fps[*]:0:3}" == "${fps[*]:3:3}" && "${fps[*]:6:3}" == "${fps[*]:9:3}" ]] \
    || fail "batch fingerprints differ from the single-source replies" "$smoke_dir/replies.jsonl"
# Stats consistency: lifecycle balances, histogram count == completions.
serve_send '{"cmd":"stats"}' > "$smoke_dir/stats.json"
perf_compare --lint-stats "$smoke_dir/stats.json"
http_get() {
    exec 4<> "/dev/tcp/127.0.0.1/$metrics_port"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&4
    cat <&4
    exec 4>&- 4<&-
}
http_get /metrics | tr -d '\r' > "$smoke_dir/metrics.txt"
head -n 1 "$smoke_dir/metrics.txt" | grep -q ' 200 ' || fail "/metrics did not return 200"
sed -e '1,/^$/d' "$smoke_dir/metrics.txt" > "$smoke_dir/metrics.body"
for needle in '# TYPE gapbs_serve_queries_admitted_total counter' \
    '# TYPE gapbs_serve_latency_us histogram' 'gapbs_serve_latency_us_bucket{le=' \
    'gapbs_serve_queries_completed_total ' 'gapbs_serve_queries_inline_total ' \
    'gapbs_serve_rss_bytes ' \
    'gapbs_serve_pool_regions_total ' 'gapbs_serve_time_to_ready_seconds ' \
    'gapbs_serve_snapshot_hit{graph="Kron"} 1' 'gapbs_serve_snapshot_hit{graph="Road"} 1' \
    'gapbs_serve_snapshot_hit{graph="Twitter"} 1'; do
    grep -qF "$needle" "$smoke_dir/metrics.body" || fail "/metrics missing $needle" "$smoke_dir/metrics.body"
done
# Exposition syntax: every sample line is `name[{labels}] value`.
if grep -vE '^(#.*|[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|)$' \
    "$smoke_dir/metrics.body" > "$smoke_dir/metrics.bad"; then
    fail "malformed Prometheus exposition lines:" "$smoke_dir/metrics.bad"
fi
http_get /health | tail -n 1 | grep -q '^ok$' || fail "/health probe"
http_get /ready | tail -n 1 | grep -q '^ready$' || fail "/ready probe"
# A traced query returns inline Chrome events trace_stats can read.
serve_send '{"kernel":"bfs","graph":"kron","source":0,"trace":true}' > "$smoke_dir/traced.json"
trace_stats "$smoke_dir/traced.json" > /dev/null \
    || fail "trace_stats cannot read a served inline trace" "$smoke_dir/traced.json"
# In-protocol shutdown: acknowledged, then a clean drain and exit 0.
serve_send '{"cmd":"shutdown"}' > "$smoke_dir/shutdown.json"
grep -q '"ok":true' "$smoke_dir/shutdown.json" || fail "shutdown was not acknowledged"
wait "$serve_pid" || fail "serve did not exit 0 after shutdown" "$serve_log"
serve_pid=""
grep -q "shut down cleanly" "$serve_log" || fail "serve log shows no clean drain" "$serve_log"
grep -q '"slow_query":true' "$serve_log" || fail "no slow-query line at --slow-ms 0" "$serve_log"
[[ -s "$smoke_dir/serve.jsonl" ]] || fail "serve ledger is empty"
# Per-query records obey the trial-record rules.
perf_compare --lint "$smoke_dir/serve.jsonl"
# Batch records are those whose cumulative batch_queries grew (queries
# ran one at a time); the kron and twitter batches must have pulled.
prev=0
pulled=()
while IFS= read -r rec; do
    bq=$(grep -o '"batch_queries":[0-9]*' <<< "$rec" | cut -d: -f2)
    ds=$(grep -o '"direction_switches":[0-9]*' <<< "$rec" | cut -d: -f2)
    if ((bq > prev && ds > 0)); then
        pulled+=("$(grep -o '"graph":"[A-Za-z]*"' <<< "$rec" | cut -d'"' -f4)")
    fi
    prev=$bq
done < "$smoke_dir/serve.jsonl"
[[ "${pulled[*]}" == "Kron Twitter" ]] \
    || fail "batch records with direction switches: '${pulled[*]}', want 'Kron Twitter'" "$smoke_dir/serve.jsonl"

echo "verify.sh: all checks passed"
