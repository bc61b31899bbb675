#!/usr/bin/env bash
# Repo-wide CI gate: formatting, lints on the driver and IR crates, full test
# suite. Everything runs offline against the committed Cargo.lock — the
# workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check (rake-driver, rake-served, rake-bench)"
# The seed crates predate the fmt gate and keep their original style; the
# service layer, the server and the harness (with the workspace tests/*.rs
# files, which are rake-bench targets) are rustfmt-clean and stay that way.
cargo fmt -p rake-driver -p rake-served -p rake-bench --check

echo "== cargo clippy (rake-driver and the three IR crates, -D warnings)"
# The service layer and the IRs whose S-expressions it stores are held to
# a stricter bar than the other crates. The driver is linted twice: the
# production build and the chaos (fault-injection) build.
cargo clippy --offline --locked -p rake-driver --all-targets -- -D warnings
cargo clippy --offline --locked -p rake-driver --features chaos --all-targets -- -D warnings
cargo clippy --offline --locked -p halide-ir -p uber-ir -p rake-hvx --all-targets -- -D warnings

echo "== cargo test: fast partition (everything but the socket/e2e suites)"
# The workspace tests are split so a hang or runaway is localized fast:
# the fast partition is pure-compute unit + integration tests, the slow
# partition is the real-socket server suites and the end-to-end bench
# suites. Each partition asserts a wall-clock budget — generous enough
# for a loaded CI machine, tight enough that a deadlock (a test waiting
# forever on a condition) fails the gate instead of stalling it.
fast_t0="$(date +%s)"
cargo test -q --offline --locked --workspace \
  --exclude rake-served --exclude rake-bench
fast_elapsed="$(( $(date +%s) - fast_t0 ))"
echo "   fast partition: ${fast_elapsed}s"
[ "$fast_elapsed" -le 900 ] \
  || { echo "fast test partition blew its 900s budget (${fast_elapsed}s)"; exit 1; }

echo "== cargo test: slow partition (rake-served + rake-bench suites)"
slow_t0="$(date +%s)"
cargo test -q --offline --locked -p rake-served -p rake-bench
slow_elapsed="$(( $(date +%s) - slow_t0 ))"
echo "   slow partition: ${slow_elapsed}s"
[ "$slow_elapsed" -le 2700 ] \
  || { echo "slow test partition blew its 2700s budget (${slow_elapsed}s)"; exit 1; }

echo "== release-only tests (goldens, heavy end-to-end runs, memoization equivalence, lowering proptests)"
# These tests are ignored in debug builds (too slow there), so the two
# partitions above skip them. The goldens pin every suite program and its
# scheduled cycles; a codegen change that is not regenerated fails here.
# hot_path compiles generated streams memoized and unmemoized and demands
# the same programs, and checks the ledger: over the traced quick suite,
# the SMT query and proof-cache hit counts equal their spans, and no proof
# ends unknown or sat. end_to_end also runs `full_eval --quick`, which
# must leave results/ alone.
cargo test -q --release --offline --locked -p rake-bench --test golden --test end_to_end --test hot_path
cargo test -q --release --offline --locked -p rake-synth

echo "== oracle smoke (seeded differential fuzz, 60s budget)"
# Every workload compiled and executed against the interpreter, plus a
# budget-capped slice of generated expressions. Deterministic seed, so a
# failure here is immediately reproducible.
cargo run -q --release --offline --locked -p rake-bench --bin oracle_fuzz -- \
  --seed 0xRAKE --cases 60 --budget 60

echo "== conform gate (metamorphic relations, full catalog, every proof decided)"
# The full metamorphic conformance gate, exactly as CI runs it: all 21
# workloads x the whole relation catalog plus the generated/seeded
# corpus, both sides compiled and compared lane-for-lane, with --check
# (zero violations, >= 8 relations applied, untruncated). Deterministic
# seed. Every proof in its trace must be decided: an "unknown" outcome
# is a lifting step accepted on differential evidence alone. "sat" stays
# allowed: the sweep's refuted candidates are correctly rejected. The
# report is deterministic for its seed, so it must match the committed
# results/conform-coverage.json byte for byte. trace_report --check
# validates every event of the whole-sweep trace.
conform_dir="$(mktemp -d /tmp/rake-conform-XXXXXX)"
cargo run -q --release --offline --locked -p rake-bench --bin conform -- \
  --seed 0xRAKE --check --coverage-out "$conform_dir/coverage.json" \
  --trace-out "$conform_dir/trace.json"
cargo run -q --release --offline --locked -p rake-bench --bin trace_report -- \
  --check "$conform_dir/trace.json" \
  || { echo "conform gate: trace_report --check rejected the sweep's trace"; exit 1; }
grep -q '"schema":"rake-conform-coverage-v1"' "$conform_dir/coverage.json" \
  || { echo "conform gate: coverage report missing its schema tag"; exit 1; }
cmp "$conform_dir/coverage.json" results/conform-coverage.json \
  || { echo "conform gate: results/conform-coverage.json is stale; regenerate it:" \
         "cargo run --release -p rake-bench --bin conform --" \
         "--seed 0xRAKE --check --coverage-out results/conform-coverage.json"; exit 1; }
if grep -o '"outcome":"unknown"' "$conform_dir/trace.json"; then
  echo "conform gate: the SMT proofs above ran out of budget"
  exit 1
fi
rm -rf "$conform_dir"

echo "== rakebench (unit tests + fuzz-batch, full-width paper-suite, serve-mixed and serve-warm smokes)"
# The benchmark of record is a package of its own, outside the workspace,
# so the workspace steps above never build it. Its unit tests, then one
# short run of each workload: `bench` exits non-zero on a wrong output or
# a failed unit. The paper-suite run checks every program at its full 64-
# or 128-lane width against the Halide interpreter, which the quick-width
# goldens do not. The serve-mixed run drives rake-served's cold path (its
# on-disk cache and journal included) and checks every served program;
# the serve-warm run does the same for the warm path, where every request
# is a renamed cache hit. No timing thresholds.
cargo test -q --release --offline --locked --manifest-path rakebench/Cargo.toml
cargo run -q --release --offline --locked --manifest-path rakebench/Cargo.toml -- \
  bench --workload fuzz-batch --seconds 3 --trace 0
cargo run -q --release --offline --locked --manifest-path rakebench/Cargo.toml -- \
  bench --workload paper-suite --seconds 3 --trace 0
cargo run -q --release --offline --locked --manifest-path rakebench/Cargo.toml -- \
  bench --workload serve-mixed --seconds 3 --trace 0
cargo run -q --release --offline --locked --manifest-path rakebench/Cargo.toml -- \
  bench --workload serve-warm --seconds 3 --trace 0

echo "== server smoke (rake-served round-trip, warm cache, metrics)"
# Boots the compilation server on an ephemeral port, compiles three
# expressions through rake-client, then repeats them and asserts the
# second round is answered from the cache. /healthz and /metrics are
# scraped over the same socket the real clients use.
cargo build -q --release --offline --locked -p rake-served
smoke_dir="$(mktemp -d /tmp/rake-smoke-XXXXXX)"
./target/release/rake-served --addr 127.0.0.1:0 --port-file "$smoke_dir/port" \
  --cache "$smoke_dir/cache" --log "$smoke_dir/journal.jsonl" \
  >"$smoke_dir/server.log" 2>&1 &
served_pid=$!
cleanup_smoke() {
  kill "$served_pid" 2>/dev/null || true
  wait "$served_pid" 2>/dev/null || true
  rm -rf "$smoke_dir"
}
trap cleanup_smoke EXIT
for _ in $(seq 100); do
  [ -s "$smoke_dir/port" ] && break
  sleep 0.1
done
addr="$(cat "$smoke_dir/port")"
smoke_exprs=(
  '(add (load a u8 0 0) (load b u8 0 0))'
  '(max (load a u8 0 0) (load b u8 0 0))'
  '(min (load a u8 0 0) (load b u8 0 0))'
)
for expr in "${smoke_exprs[@]}"; do
  echo "$expr" | ./target/release/rake-client --addr "$addr" --lanes 128 >/dev/null
done
for expr in "${smoke_exprs[@]}"; do
  echo "$expr" | ./target/release/rake-client --addr "$addr" --lanes 128 --json \
    | grep -q '"cache_hit":true' \
    || { echo "server smoke: warm round missed the cache for: $expr"; exit 1; }
done
./target/release/rake-client --addr "$addr" --healthz | grep -qx ok
./target/release/rake-client --addr "$addr" --metrics \
  | grep -q 'rake_served_requests_total{endpoint="compile"} 6' \
  || { echo "server smoke: /metrics does not reflect the 6 compiles"; exit 1; }
kill "$served_pid"
wait "$served_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$smoke_dir"

echo "== soak smoke (bounded cache lifecycle: eviction, compaction, bounded files)"
# A tightly-capped server under 18 sequential requests, each a unique
# cache key (load offsets survive canonicalization): every one must
# compile and be counted, the entry cap must evict (cost-aware LRU), the
# tiny segment-log threshold must compact, the on-disk snapshot and log
# must stay bounded, and the journal (about 11 KB of records) must roll
# over, each of its two files within the 4 KiB bound plus the one line
# that crossed it, while the server stays healthy.
soak_dir="$(mktemp -d /tmp/rake-soak-XXXXXX)"
./target/release/rake-served --addr 127.0.0.1:0 --port-file "$soak_dir/port" \
  --cache "$soak_dir/cache" --log "$soak_dir/journal.jsonl" \
  --cache-max-entries 6 --cache-log-max-bytes 16384 --journal-rotate-bytes 4096 \
  >"$soak_dir/server.log" 2>&1 &
soak_pid=$!
cleanup_soak() {
  kill "$soak_pid" 2>/dev/null || true
  wait "$soak_pid" 2>/dev/null || true
  rm -rf "$soak_dir"
}
trap cleanup_soak EXIT
for _ in $(seq 100); do
  [ -s "$soak_dir/port" ] && break
  sleep 0.1
done
addr="$(cat "$soak_dir/port")"
for i in $(seq 0 17); do
  echo "(add (cast u16 (load a u8 $i 0)) (cast u16 (load a u8 $((i + 19)) 0)))" \
    | ./target/release/rake-client --addr "$addr" --lanes 64 >/dev/null \
    || { echo "soak smoke: soak request $i did not compile"; exit 1; }
done
soak_metrics="$(./target/release/rake-client --addr "$addr" --metrics)"
soak_metric() { echo "$soak_metrics" | awk -v n="$1" '$1 == n { print int($2) }'; }
compiles="$(soak_metric 'rake_served_requests_total{endpoint="compile"}')"
[ "${compiles:-0}" -eq 18 ] \
  || { echo "soak smoke: /metrics counts ${compiles:-no} compile requests, the client sent 18"; exit 1; }
evicted="$(soak_metric rake_served_cache_evicted_total)"
entries="$(soak_metric rake_served_cache_entries)"
compactions="$(soak_metric rake_served_cache_compactions_total)"
log_bytes="$(soak_metric rake_served_cache_log_bytes)"
rollovers="$(soak_metric rake_served_journal_rotations_total)"
[ "${evicted:-0}" -ge 1 ] \
  || { echo "soak smoke: 18 unique keys into 6 slots must evict (got ${evicted:-none})"; exit 1; }
[ "${entries:-99}" -le 6 ] \
  || { echo "soak smoke: entry cap violated (${entries:-none} > 6)"; exit 1; }
[ "${compactions:-0}" -ge 1 ] \
  || { echo "soak smoke: the segment log never compacted"; exit 1; }
[ "${log_bytes:-999999}" -le 65536 ] \
  || { echo "soak smoke: segment log unbounded (${log_bytes} bytes)"; exit 1; }
[ "${rollovers:-0}" -ge 1 ] \
  || { echo "soak smoke: the journal never rolled over"; exit 1; }
for f in "$soak_dir/journal.jsonl" "$soak_dir/journal.jsonl.1"; do
  before_last=$(( $(wc -c <"$f") - $(tail -n 1 "$f" | wc -c) ))
  [ "$before_last" -le 4096 ] \
    || { echo "soak smoke: $f holds $before_last bytes before its last line (bound 4096)"; exit 1; }
done
./target/release/rake-client --addr "$addr" --healthz | grep -qx ok \
  || { echo "soak smoke: /healthz went red under soak"; exit 1; }
kill "$soak_pid"
wait "$soak_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$soak_dir"

echo "== crash smoke (worker isolation: abort containment, quarantine, respawn)"
# An --isolate server with the chaos plane on. A poison expression aborts
# its worker subprocess mid-compile: the request must fail structured
# (rake-client exit 5), /healthz must stay green, a repeat of the key must
# be answered from the quarantine (exit 7) without risking another worker,
# a fresh key must still compile, and the supervisor must have recorded
# the respawn. The storm of poison and healthy keys from concurrent
# clients is crates/served/tests/isolate.rs's
# a_crash_storm_is_contained_and_every_poison_key_quarantined.
crash_dir="$(mktemp -d /tmp/rake-crash-XXXXXX)"
./target/release/rake-served --addr 127.0.0.1:0 --port-file "$crash_dir/port" \
  --cache "$crash_dir/cache" --log "$crash_dir/journal.jsonl" \
  --isolate --workers 2 --chaos --crash-threshold 1 \
  >"$crash_dir/server.log" 2>&1 &
crash_pid=$!
cleanup_crash() {
  kill "$crash_pid" 2>/dev/null || true
  wait "$crash_pid" 2>/dev/null || true
  rm -rf "$crash_dir"
}
trap cleanup_crash EXIT
for _ in $(seq 100); do
  [ -s "$crash_dir/port" ] && break
  sleep 0.1
done
addr="$(cat "$crash_dir/port")"
poison='(add (load a u8 9 9) (load b u8 9 9))'
echo "$poison" | ./target/release/rake-client --addr "$addr" --chaos abort >/dev/null \
  && rc=0 || rc=$?
[ "$rc" -eq 5 ] \
  || { echo "crash smoke: worker abort must fail the job as panicked (exit 5), got $rc"; exit 1; }
./target/release/rake-client --addr "$addr" --healthz | grep -qx ok \
  || { echo "crash smoke: /healthz went red after a worker crash"; exit 1; }
echo "$poison" | ./target/release/rake-client --addr "$addr" >/dev/null \
  && rc=0 || rc=$?
[ "$rc" -eq 7 ] \
  || { echo "crash smoke: the crashing key must be quarantined (exit 7), got $rc"; exit 1; }
echo '(add (load a u8 0 0) (load b u8 0 0))' \
  | ./target/release/rake-client --addr "$addr" >/dev/null \
  || { echo "crash smoke: a fresh key must still compile after the crash"; exit 1; }
# The supervisor respawns on its 150 ms monitor tick, so poll the
# counter for up to 5 s instead of sampling it once.
respawned() {
  ./target/release/rake-client --addr "$addr" --metrics \
    | awk '$1 == "rake_served_worker_restarts_total" && int($2) >= 1 { ok = 1 } END { exit !ok }'
}
for _ in $(seq 50); do
  respawned && break
  sleep 0.1
done
respawned \
  || { echo "crash smoke: the supervisor never recorded a respawn within 5 s"; exit 1; }
kill "$crash_pid"
wait "$crash_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$crash_dir"

echo "== trace smoke (end-to-end spans: CLI, isolated server, trace_report)"
# A CLI compile and an --isolate server compile, both traced. The server
# trace must be one stitched tree: the worker subprocess's spans (pid !=
# server pid) riding back over the job frame into the request's file.
# trace_report --check strictly validates every event in both files.
cargo build -q --release --offline --locked -p rake-bench
trace_dir="$(mktemp -d /tmp/rake-trace-XXXXXX)"
# The absd lift is verified by an SMT query, so the trace must show an
# smt.prove_unsat span, even though word-level normalization decides that
# query while it is built.
echo '(absd (load a u8 0 0) (load b u8 0 0))' \
  | ./target/release/rakec --trace-out "$trace_dir/cli.json" >/dev/null
grep -q '"rake-trace-v1"' "$trace_dir/cli.json" \
  || { echo "trace smoke: rakec trace missing its schema tag"; exit 1; }
grep -q '"smt.prove_unsat"' "$trace_dir/cli.json" \
  || { echo "trace smoke: rakec trace has no SMT query spans"; exit 1; }
# Every proof in that trace must be decided. An "unknown" is a lifting
# step accepted on differential evidence alone; a "sat" is a compiler bug
# (minimize it through the oracle and fix it; never regenerate a golden).
# The whole quick suite gets the same check, with its ledger, in hot_path.
if grep -oE '"outcome":"(unknown|sat)"' "$trace_dir/cli.json"; then
  echo "trace smoke: SMT proofs above ended unknown or sat"
  exit 1
fi
mkdir "$trace_dir/served"
./target/release/rake-served --addr 127.0.0.1:0 --port-file "$trace_dir/port" \
  --cache "$trace_dir/cache" --log "$trace_dir/journal.jsonl" \
  --isolate --workers 2 --trace-out "$trace_dir/served" \
  >"$trace_dir/server.log" 2>&1 &
trace_pid=$!
cleanup_trace() {
  kill "$trace_pid" 2>/dev/null || true
  wait "$trace_pid" 2>/dev/null || true
  rm -rf "$trace_dir"
}
trap cleanup_trace EXIT
for _ in $(seq 100); do
  [ -s "$trace_dir/port" ] && break
  sleep 0.1
done
addr="$(cat "$trace_dir/port")"
echo '(add (cast u16 (load a u8 0 0)) (cast u16 (load a u8 1 0)))' \
  | ./target/release/rake-client --addr "$addr" --json \
  | grep -q '"trace_id"' \
  || { echo "trace smoke: /compile response did not echo a trace_id"; exit 1; }
served_trace="$(ls "$trace_dir"/served/trace-*.json 2>/dev/null | head -1)"
[ -n "$served_trace" ] \
  || { echo "trace smoke: the server wrote no trace file"; exit 1; }
grep -q '"worker.compile"' "$served_trace" \
  || { echo "trace smoke: worker spans did not stitch into the request trace"; exit 1; }
./target/release/trace_report --check "$trace_dir/cli.json" "$trace_dir/served" \
  || { echo "trace smoke: trace_report --check rejected the traces"; exit 1; }
./target/release/trace_report "$trace_dir/served" | grep -q 'per-stage' \
  || { echo "trace smoke: trace_report rendered no breakdown"; exit 1; }
kill "$trace_pid"
wait "$trace_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$trace_dir"

echo "== chaos smoke (seeded fault injection, one schedule, ~60s budget)"
# The full 21-workload suite under one deterministic fault schedule:
# injected panics, forced deadline exhaustion, latency, and cache
# corruption. Asserts the resilience invariants (batches terminate in
# order, compiled programs stay oracle-clean, every job handed a forced
# deadline ends timed_out with the baseline program after one attempt --
# and some job must be handed one -- and the cache self-heals). Same seed
# every run.
cargo run -q --release --offline --locked -p rake-bench --features chaos --bin chaos -- \
  --seeds 1

echo "all checks passed"
