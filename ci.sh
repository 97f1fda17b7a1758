#!/bin/sh
# Offline CI gate for the routergeo workspace. Every step runs without
# network access; failures stop the script immediately. A per-step
# timing table prints on exit — including on failure — so slow or hung
# gates are visible from the log alone. Machine-readable gate reports
# are collected under target/ci-artifacts/ and listed in the summary.
set -eu

cd "$(dirname "$0")"

ART_DIR=target/ci-artifacts
mkdir -p "$ART_DIR"

STEP_LOG=$(mktemp)
CURRENT_STEP=""
CURRENT_START=0

summary() {
    status=$?
    if [ -n "$CURRENT_STEP" ]; then
        # The step that was running when we exited never logged itself.
        echo "$CURRENT_STEP $(( $(date +%s) - CURRENT_START )) INTERRUPTED" >> "$STEP_LOG"
    fi
    echo ""
    echo "==> ci.sh step timing summary"
    awk '{ printf "    %-28s %4ss  %s\n", $1, $2, $3 }' "$STEP_LOG"
    rm -f "$STEP_LOG"
    echo ""
    echo "==> ci.sh artifacts ($ART_DIR)"
    for art in "$ART_DIR"/*; do
        [ -f "$art" ] || continue
        echo "    $(basename "$art") ($(wc -c < "$art") bytes)"
    done
    if [ "$status" -eq 0 ]; then
        echo "ci.sh: all gates passed"
    else
        echo "ci.sh: FAILED (exit $status)" >&2
    fi
    exit "$status"
}
trap summary EXIT

# step <name> <cmd...>: run a gate, echo a banner, record wall time.
step() {
    CURRENT_STEP=$1
    shift
    echo "==> $CURRENT_STEP"
    CURRENT_START=$(date +%s)
    "$@"
    echo "$CURRENT_STEP $(( $(date +%s) - CURRENT_START )) ok" >> "$STEP_LOG"
    CURRENT_STEP=""
}

# step_budget <name> <secs> <cmd...>: like step, but fail the run if the
# gate exceeds its wall-clock budget. Budgets catch regressions the
# gate's own assertions can't see — real sleeps where an injected clock
# belongs, a parallel stage gone quadratic, a wedged reader.
step_budget() {
    budget_name=$1
    budget_secs=$2
    shift 2
    budget_start=$(date +%s)
    step "$budget_name" "$@"
    budget_elapsed=$(( $(date +%s) - budget_start ))
    if [ "$budget_elapsed" -gt "$budget_secs" ]; then
        echo "ci.sh: $budget_name took ${budget_elapsed}s (> ${budget_secs}s budget)" >&2
        exit 1
    fi
}

step fmt cargo fmt --all --check

# Clippy gate: the workspace lint policy (`[workspace.lints]` in
# Cargo.toml, clippy.toml, and the file-scoped attributes on the lookup
# paths) over the library and binary code of every non-vendor package.
# Warnings are errors, so a stale `#[expect]` fails too. The budget
# covers a cold check of the whole workspace.
step_budget clippy 60 cargo clippy -q -p 'routergeo*' -p xtask -- -D warnings

# The same policy over tests, benches and examples. clippy.toml exempts
# `#[test]` code from the panic-safety lints; a test helper, bench or
# example waives a lint with `#[expect]` like library code. `--no-deps`
# keeps the vendored stubs, workspace members by path, out of
# `-D warnings`. The budget covers a cold check (9 s on 2 vCPUs).
step_budget clippy-all-targets 60 cargo clippy -q -p 'routergeo*' -p xtask --all-targets --no-deps -- -D warnings

# Doc gate: rustdoc over the same packages with warnings as errors, so
# a broken or ambiguous intra-doc link, or a public doc linking a
# private item, fails here instead of rendering as dead text. The
# budget covers documenting every package from a cold cache.
step_budget doc 120 env RUSTDOCFLAGS='-D warnings' cargo doc -q --no-deps -p 'routergeo*' -p xtask

# Bench targets: no other step compiles `crates/bench/benches`, and
# `forbid(unsafe_code)` from `[workspace.lints]` only bites on a target
# that is compiled. A plain rustc check is enough: forbid is a hard
# error there.
step bench-targets cargo check -q -p routergeo-bench --benches

# Benchmark build: perfbench is a package of its own, so no other step
# compiles it. Its `GeoDatabase` wrappers and its `view.column(d)` reads
# use the program's API; a change that breaks them fails here, not only
# when the benchmark runs.
step perfbench-build cargo check -q --offline --manifest-path perfbench/Cargo.toml --tests

# Lint gate: the custom rules clippy cannot express, with
# machine-readable output (archived as a CI artifact) and a wall-clock
# budget on the scan itself. The engine is a single-pass token walk per
# file; a blowout means a rule regressed to something quadratic. The
# xtask binary is built in a separate step so compile time never eats
# the scan budget.
step lint-build cargo build -q -p xtask
step_budget lint 30 sh -c "cargo xtask lint --json > $ART_DIR/lint_ci.json"

step deps cargo xtask deps

# Pool gate: the worker pool's own tests under a hard timeout, before
# any step that runs the pool (report-check, the determinism gate, the
# workspace tests). A worker waits on the fold at the edge of its
# window, so a lost wake-up would hang a step, and step_budget only
# reads the clock once a step ends. The tests' own watchdogs fail a
# wedged pool after 30 s; the timeout catches what they cannot.
step pool-build cargo test -q -p routergeo-pool --no-run
step pool-test timeout 120 cargo test -q -p routergeo-pool

# Fault-matrix gate: the resilient bulk-whois path must stay wall-clock
# deterministic. Backoff sleeps run on an injected clock, so the whole
# matrix — retries, timeouts, circuit breaker — completes in seconds of
# real time; the budget catches any regression to real sleeps.
step fault-matrix-build cargo test -q -p routergeo-cymru --test fault_matrix --no-run
step_budget fault-matrix 60 cargo test -q -p routergeo-cymru --test fault_matrix

step build-release cargo build --release

# Report gate: the release `repro all --csv` at tenth scale, seed
# 20170301, must reproduce results/results_tenth.txt (stdout) and every
# CSV under results/results_tenth_csv/ byte for byte. The determinism
# gate compares thread counts within one build; this one pins the
# figures across commits. Before the compare (and before any
# `--bless`) the fresh CSVs must hold the README's at-a-glance
# orderings, so a re-bless cannot flip a finding. Refresh with
# `cargo xtask report-check --bless` only when a figure is meant to
# move. The budget bounds one tenth-scale lab build and report (about
# 1.5 s).
step_budget report-check 30 cargo xtask report-check

# Determinism gate: the full Tiny-scale report must be byte-identical at
# 1, 2, and 8 worker threads. The budget bounds the three lab builds —
# a blowout means a parallel stage fell back to something quadratic or a
# worker is deadlocked on the shard queue.
step determinism-build cargo test -q --test parallel_determinism --no-run
step_budget determinism-gate 120 cargo test -q --test parallel_determinism

# Perf gate: the per-stage medians of five fresh repro --timings runs
# vs the committed BENCH_pipeline.json baseline; fails on a >2x
# per-stage wall-clock regression after median-normalising away
# machine speed, or when the runs disagree outside their timings.
# Refresh with `cargo xtask bench-check --bless` when a slowdown is
# intentional. The budget bounds five Tiny runs (about 2 s each).
step_budget bench-check 60 cargo xtask bench-check

# Observability gate: a traced Tiny run must satisfy every structural
# invariant of the obs JSONL schema — span open/close accounting,
# counter identities (cdf/cymru/pool/serve), histogram bucket totals.
step obs-trace env ROUTERGEO_SCALE=tiny ROUTERGEO_SEED=20170301 \
    sh -c "cargo run --release -q -p routergeo-bench --bin repro -- \
        table1 coverage consistency fig2 --obs $ART_DIR/obs_ci.jsonl > /dev/null"
step obs-check cargo xtask obs-check "$ART_DIR/obs_ci.jsonl"

# Fuzz gate: the seeded mutation/protocol/differential harness must
# come back clean, and its JSON report (archived as a CI artifact) is
# deterministic for a given budget. The trial plan is a pure function
# of --budget-ms — it never reads the wall clock — so the budget check
# bounds harness wall time, not trial count: a blowout means a mutated
# image wedged the reader or a protocol scenario hit real sleeps
# instead of the injected clock.
step fuzz-build cargo build -q -p xtask -p routergeo-fuzz
step_budget fuzz 45 sh -c "cargo xtask fuzz --budget-ms 30000 --json > $ART_DIR/fuzz_ci.json"

# Serve gate: the lookup daemon must hold its production discipline
# under a deterministic loadgen — the seeded traffic mix replayed
# through the daemon's own frame loop with exact accounting (one
# answer per frame, each fitting its request, daemon counters equal to
# the answers; byte-identical serve_ci.json across runs), one hot swap
# under concurrent load with zero failed lookups and zero torn reads,
# raw-socket and faultnet abuse fully attributed, and wall-clock
# latency/throughput gated by machine-speed-cancelling ratios. The
# budget catches a wedged worker pool or a drain that never completes.
step serve-build cargo build --release -q -p routergeo-serve
step_budget serve-loadgen 90 cargo xtask serve-check --budget-ms 8000

# Resolve gate: the paper-scale lookup workload — four synthetic vendor
# databases written as RGDB images, 1.5 M interface addresses pushed
# through ResolvedView's batched lookup path — run five times: each
# run's resolve stage must finish inside the wall budget, the runs must
# agree outside their timings, and their medians are gated against
# BENCH_resolve.json: the per-lookup cost by ratio, and the peak
# resident set at no more than 1.25x the baseline's (a fixed ceiling:
# memory does not scale with machine speed). This is the §5 hot path at
# the paper's real size; a blowout means the interval sweep over each
# sorted shard regressed to per-lookup parsing or allocation, or the
# pool's fold window stopped bounding the parked shard results.
# The inner budget (20 s) bounds one run's resolve stage; the outer
# budget adds slack for synthesis and image writing around the gated
# stage in each of the five runs.
step resolve-build cargo build --release -q -p routergeo-bench
step_budget resolve-smoke 90 cargo xtask resolve-check --budget-ms 20000

step test cargo test -q

step test-workspace cargo test --workspace -q
