#!/usr/bin/env bash
# Tier-1 verification: offline workspace build, full test suite, and the
# perf-bin, daemon and byte-identity smoke runs below.
#
# The build environment has no registry access; --offline makes that
# assumption explicit so a dependency regression fails here, not in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# Formatting gate: the workspace must be rustfmt-clean. `e2e/` is a
# workspace of its own and is not covered.
cargo fmt --all -- --check
# Lint gate: every target of the workspace must be clippy-clean.
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo test -q --offline --workspace

# The docs must build without a single rustdoc warning: every intra-doc
# link resolves (a deleted item cannot leave one dangling), no public doc
# links a private item, and no link is redundant.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The end-to-end benchmark's own tests: a smoke run of all four workloads
# (traced and untraced) and the check that its output checker, which calls
# `sim::equivalent_random`, rejects a wrong mapping. The benchmark is its
# own package, outside the workspace above.
cargo test -q --offline --manifest-path e2e/Cargo.toml

# Smoke-run the labeling micro-bench: asserts the steady-state
# zero-allocation contract via the binary's counting allocator and writes
# BENCH_label.json (quick mode keeps this to a couple of seconds).
DAGMAP_BENCH_QUICK=1 cargo run -q --release --offline -p dagmap-bench --bin labelperf -- \
  --quick --out target/BENCH_label_smoke.json
# Belt-and-braces on the contract the binary asserts internally: every row
# metered zero mid-level allocations.
! grep -q '"wave_allocs": [^0]' target/BENCH_label_smoke.json

# Smoke-run the match-acceleration micro-bench: asserts labels and mapped
# BLIF are bit-identical with the automaton index on or off, and writes
# BENCH_match.json.
cargo run -q --release --offline -p dagmap-bench --bin matchperf -- \
  --quick --out target/BENCH_match_smoke.json

# Smoke-run the supergate experiment: bounded generation on 44-1, asserting
# the extension is bit-identical at 1 vs N threads and that the extended
# library maps the c6288 analogue with delay <= the base library's.
cargo run -q --release --offline -p dagmap-bench --bin supergate -- \
  --quick --out target/BENCH_supergate_smoke.json

# Deterministic differential-fuzzing smoke: a fixed seed over ~20 cases must
# sweep the full configuration matrix (accel, incremental edits,
# boolean/hybrid, supergate libraries, retiming) with zero invariant
# violations. Repros, if any, land
# in target/ so a failure never dirties the checked-in corpus. The run is
# traced, and the trace must pass the validator like any other.
cargo run -q --release --offline -- fuzz \
  --seed 1729 --cases 20 --corpus target/fuzz-corpus-smoke \
  --trace target/obs_fuzz_trace.json
cargo run -q --release --offline -- trace-check target/obs_fuzz_trace.json

# Observability smoke: tracing must be inert — the mapped BLIF is
# byte-identical with tracing off and on (with --profile) — and the emitted
# Chrome trace must pass the crate's own offline validator.
cargo run -q --release --offline -- gen add16 --out target/obs_smoke.blif
cargo run -q --release --offline -- map target/obs_smoke.blif \
  --out target/obs_plain.blif > /dev/null
cargo run -q --release --offline -- map target/obs_smoke.blif \
  --out target/obs_traced.blif \
  --trace target/obs_trace.json --profile > /dev/null 2> /dev/null
cmp target/obs_plain.blif target/obs_traced.blif
cargo run -q --release --offline -- trace-check target/obs_trace.json

# Observability overhead micro-bench: enabled-vs-disabled mapping times and
# the cost of a disabled span call, with bit-identity asserted either way.
DAGMAP_BENCH_QUICK=1 cargo run -q --release --offline -p dagmap-bench --bin obsperf -- \
  --quick --out target/BENCH_obs_smoke.json

# Serve smoke: daemon on a temp unix socket, map one circuit through it,
# and the served BLIF must be byte-identical to the one-shot mapping of
# the same file. Shutdown must drain cleanly (the daemon exits 0).
SERVE_SOCK="target/tier1-serve.sock"
rm -f "$SERVE_SOCK"
cargo run -q --release --offline -- gen cmp16 --out target/serve_smoke.blif
cargo run -q --release --offline -- map target/serve_smoke.blif \
  --out target/serve_oneshot.blif > /dev/null
cargo run -q --release --offline -- serve --unix "$SERVE_SOCK" \
  --libs lib2 --workers 2 2> target/serve_smoke.log &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { cat target/serve_smoke.log; exit 1; }
cargo run -q --release --offline -- client --unix "$SERVE_SOCK" --ping
cargo run -q --release --offline -- client --unix "$SERVE_SOCK" \
  target/serve_smoke.blif --out target/serve_served.blif > /dev/null
cargo run -q --release --offline -- client --unix "$SERVE_SOCK" --shutdown > /dev/null
wait "$SERVE_PID"
cmp target/serve_oneshot.blif target/serve_served.blif

# One-shot vs served 44-3 smoke: the c6288 analogue mapped one-shot and
# through the daemon, cold and then warm (the library's automaton table
# already grown), byte for byte.
SERVE44_SOCK="target/tier1-serve44.sock"
rm -f "$SERVE44_SOCK"
cargo run -q --release --offline -- gen c6288 --out target/serve44_smoke.blif
cargo run -q --release --offline -- map target/serve44_smoke.blif --builtin 44-3 \
  --out target/serve44_oneshot.blif > /dev/null
cargo run -q --release --offline -- serve --unix "$SERVE44_SOCK" \
  --libs 44-3 --workers 2 2> target/serve44_smoke.log &
SERVE44_PID=$!
for _ in $(seq 100); do [ -S "$SERVE44_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE44_SOCK" ] || { cat target/serve44_smoke.log; exit 1; }
for pass in cold warm; do
  cargo run -q --release --offline -- client --unix "$SERVE44_SOCK" --lib 44-3 \
    target/serve44_smoke.blif --out "target/serve44_$pass.blif" > /dev/null
done
cargo run -q --release --offline -- client --unix "$SERVE44_SOCK" --shutdown > /dev/null
wait "$SERVE44_PID"
cmp target/serve44_oneshot.blif target/serve44_cold.blif
cmp target/serve44_oneshot.blif target/serve44_warm.blif

# Metrics smoke: a daemon with every telemetry layer on (request log, tail
# trace sampling, and the always-on registry) serves 50 pipelined requests;
# `dagmap top --once` and the metrics frame must both count exactly 50, the
# request log must hold one line per request, and the served BLIF must stay
# byte-identical to the one-shot mapping.
METRICS_SOCK="target/tier1-metrics.sock"
rm -f "$METRICS_SOCK" target/tier1-requests.jsonl
rm -rf target/tier1-tail
cargo run -q --release --offline -- serve --unix "$METRICS_SOCK" \
  --libs lib2 --workers 2 \
  --log-requests target/tier1-requests.jsonl \
  --tail-traces target/tier1-tail --tail-quantile 0 --tail-keep 4 \
  2> target/tier1-metrics.log &
METRICS_PID=$!
for _ in $(seq 100); do [ -S "$METRICS_SOCK" ] && break; sleep 0.1; done
[ -S "$METRICS_SOCK" ] || { cat target/tier1-metrics.log; exit 1; }
cargo run -q --release --offline -- client --unix "$METRICS_SOCK" \
  --repeat 50 target/serve_smoke.blif \
  --out target/serve_metrics_served.blif > /dev/null
cargo run -q --release --offline -- top --unix "$METRICS_SOCK" --once \
  > target/tier1-top.txt
grep -q 'requests 50' target/tier1-top.txt
cargo run -q --release --offline -- client --unix "$METRICS_SOCK" \
  --metrics > target/tier1-metrics.txt
grep -q '^dagmap_requests_total 50$' target/tier1-metrics.txt
cargo run -q --release --offline -- client --unix "$METRICS_SOCK" --shutdown > /dev/null
wait "$METRICS_PID"
cmp target/serve_oneshot.blif target/serve_metrics_served.blif
[ "$(wc -l < target/tier1-requests.jsonl)" -eq 50 ]
# The tail ring keeps every trace at quantile 0, bounded by --tail-keep.
[ "$(ls target/tier1-tail | wc -l)" -eq 4 ]

# Traffic-driven serve bench in quick mode: ~120 pipelined requests over two
# libraries; asserts zero errors and a per-pair bit-identity spot check
# against one-shot mapping.
cargo run -q --release --offline -p dagmap-bench --bin serveperf -- \
  --quick --out target/BENCH_serve_smoke.json
grep -q '"bit_identical": true' target/BENCH_serve_smoke.json
grep -q '"errors": 0' target/BENCH_serve_smoke.json

# Permutation smoke: c3540 under 44-3 `dag-extended` used to enumerate every
# pin permutation of every match (11.8M matches, about ten minutes). With the
# library's symmetric NANDs bound in one fanin order it must map in seconds
# at the same optimum delay, with the match count bounded.
cargo run -q --release --offline -- gen c3540 --out target/perm_smoke.blif
timeout 60 target/release/dagmap map target/perm_smoke.blif \
  --builtin 44-3 --algo dag-extended --json > target/perm_smoke.json
grep -Eq '"delay":30(\.0+[0-9]*)?[,}]' target/perm_smoke.json
PERM_MATCHES=$(grep -o '"matches_enumerated":[0-9]*' target/perm_smoke.json | cut -d: -f2)
[ "$PERM_MATCHES" -lt 100000 ]

# Wide-parity smoke: the c7552 analogue has 34-input XORs, which the BLIF
# writer emits as 2-input XOR trees; the written file must map (and verify).
cargo run -q --release --offline -- gen c7552 --out target/c7552_smoke.blif
cargo run -q --release --offline -- map target/c7552_smoke.blif > /dev/null

# Strash/incremental bench in quick mode: asserts cold == incremental
# mapped BLIF byte-identity, and the incremental re-map of an edited
# circuit clears the 5x speedup floor.
cargo run -q --release --offline -p dagmap-bench --bin strashperf -- \
  --quick --out target/BENCH_strash_smoke.json
grep -q '"all_identical": true' target/BENCH_strash_smoke.json

# Boolean-matching smoke: priority-cut NPN matching must be byte-
# deterministic — two identical `map --boolean` runs may not differ by a
# byte — and the hybrid run must verify too.
cargo run -q --release --offline -- gen cmp16 --out target/bool_smoke.blif
cargo run -q --release --offline -- map target/bool_smoke.blif \
  --algo boolean --out target/bool_run1.blif > /dev/null
cargo run -q --release --offline -- map target/bool_smoke.blif \
  --algo boolean --out target/bool_run2.blif > /dev/null
cmp target/bool_run1.blif target/bool_run2.blif
cargo run -q --release --offline -- map target/bool_smoke.blif \
  --algo hybrid --out target/bool_hybrid.blif > /dev/null
# Wide-cut Boolean smoke: the smoke above and the fuzzer match at k = 4, so
# neither canonicalizes a 5- or 6-input cut function. Map the c3540 analogue
# under 44-3 with hybrid matching at k = 6 twice, each within a time bound,
# and the two netlists must agree byte for byte.
cargo run -q --release --offline -- gen c3540 --out target/bool6_smoke.blif
for run in 1 2; do
  timeout 60 target/release/dagmap map target/bool6_smoke.blif --builtin 44-3 \
    --algo hybrid -k 6 --out "target/bool6_run$run.blif" > /dev/null
done
cmp target/bool6_run1.blif target/bool6_run2.blif
# Boolean-matching bench in quick mode: asserts hybrid never loses to
# structural or boolean alone, NPN reaches strictly more cone classes than
# P-only, and both engines are byte-deterministic.
cargo run -q --release --offline -p dagmap-bench --bin boolperf -- \
  --quick --out target/BENCH_bool_smoke.json
grep -q '"deterministic": true' target/BENCH_bool_smoke.json

echo "tier1: OK"
