#!/usr/bin/env bash
# CI gate: formatting; clippy over every target with -D warnings, which
# also enforces the workspace's unsafe-code and lint policy (a SAFETY
# comment on every unsafe block and unsafe impl, a reasoned allow for
# every unsafe declaration and every lint opt-out; see Cargo.toml's
# [workspace.lints] and DESIGN.md); a clippy pass over the stand-alone
# perfbench benchmark under the same unsafe-block and allow-reason
# lints; docs; tests; the speclint static-analysis pass over the shipped
# rule books, controllers and step lists, the specsem semantic analysis
# of the rule books under their world models, a miri pass over parkit
# when the interpreter is installed, the certkit certification +
# decide-only vs certified differential suite (including the scaled
# drivesim/warehouse models), an instrumented bench smoke run
# (allocation tracking on) validated against the obskit.bench.v2 report
# schema (metrics_check), byte-equality gates proving the performance
# and gating knobs (--threads, semantic pre-flight, allocation tracking)
# never change artifacts, a digest gate pinning the fast headline
# artifacts across commits, and a noise-aware perf-regression gate
# (bench_diff) that diffs a fresh fast headline run against the
# committed baseline under results/PERF_BUDGETS.json — including a
# seeded-regression self-test proving the gate really fails when one
# span slows down.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is a stand-alone package that no workspace command builds,
# so a deleted public API could break the benchmark silently. It is its
# own workspace and cannot inherit [workspace.lints], so the unsafe-block
# and allow-reason lints are passed here. cargo rewrites a stale edge in
# its lock file; the gate puts the lock back so it leaves the
# benchmark's files as it found them.
echo "==> cargo clippy perfbench (the benchmark compiles and keeps the lint policy)"
perfbench_lock="$(mktemp -t perfbench_lock.XXXXXX)"
cp perfbench/Cargo.lock "$perfbench_lock"
perfbench_status=0
cargo clippy -q --offline --manifest-path perfbench/Cargo.toml -- \
    -D clippy::undocumented_unsafe_blocks \
    -D clippy::allow_attributes_without_reason \
    -D unsafe_op_in_unsafe_fn || perfbench_status=$?
cp "$perfbench_lock" perfbench/Cargo.lock
rm -f "$perfbench_lock"
if [ "$perfbench_status" -ne 0 ]; then
    echo "perfbench no longer compiles or breaks the lint policy"
    exit 1
fi

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> miri gate (parkit under the interpreter)"
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p parkit
else
    echo "miri gate: SKIPPED (cargo miri not installed)"
fi

echo "==> speclint --deny-warnings"
cargo run -q -p speclint -- --deny-warnings

echo "==> speclint --semantic --deny-warnings (SL3xx over shipped books)"
cargo run -q --release -p speclint -- --semantic --deny-warnings

echo "==> certkit gate (certification + differential suite, incl. scaled models)"
cargo run -q -p certkit --release

echo "==> obskit smoke gate (instrumented 2-thread bench run, alloc tracking on)"
smoke_report="$(mktemp -t BENCH_smoke.XXXXXX.json)"
smoke_art1="$(mktemp -t headline_t1.XXXXXX.json)"
smoke_art2="$(mktemp -t headline_t2.XXXXXX.json)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 2 --alloc --metrics-out "$smoke_report" \
    --artifacts-out "$smoke_art2" > /dev/null
cargo run -q --release -p bench --bin metrics_check -- "$smoke_report" \
    --require pipeline.pairs_formed,pipeline.responses_scored,ltlcheck.checks,ltlcheck.automaton_cache_hits,ltlcheck.product_states,pretrain.tokens,dpo.pairs_trained,pool.tasks,verify.cache_hits,verify.cache_misses,verify.cache_entries,verify.cache_evictions,verify.cache_hit_rate,dpo.ref_cache_hits,dpo.tokens_per_sec,tape.nodes,tape.grad_buffer_reuses,speclint.semantic_rules,speclint.semantic_checks,speclint.semantic_errors,speclint.semantic_notes,alloc.allocs,alloc.bytes_allocated,alloc.bytes_freed,alloc.frees,alloc.current_bytes,alloc.peak_bytes \
    --require-span pipeline.run,pipeline.pretrain,pipeline.collect,pipeline.sample,pipeline.parse,pipeline.verify,pipeline.rank,pipeline.train,pipeline.eval,pipeline.score_batch,pipeline.score,dpo.ref,dpo.epoch,dpo.forward,dpo.backward

# smoke_art2 was produced at --threads 2 with --alloc; smoke_art1 is
# --threads 1 --no-obs, so this one cmp also proves the tracking
# allocator and recorder never leak into artifacts.
echo "==> parallel determinism gate (headline artifacts, --threads 1 vs 2, alloc on vs off)"
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --no-obs --threads 1 --artifacts-out "$smoke_art1" > /dev/null
cmp "$smoke_art1" "$smoke_art2"

# The cmp above compares two runs of one build, so it cannot see the
# artifact format or the science drift between commits. Pin the bytes to
# a committed digest. A change that alters the artifacts on purpose
# re-records results/headline_fast_artifacts.sha256 and says why.
echo "==> artifact digest gate (fast headline artifacts match the committed sha256)"
sha256sum -c results/headline_fast_artifacts.sha256 < "$smoke_art1"

echo "==> semantic pre-flight purity gate (gate on vs off, identical artifacts)"
smoke_art4="$(mktemp -t headline_nosem.XXXXXX.json)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_art4"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --no-obs --threads 1 --no-semantic-preflight \
    --artifacts-out "$smoke_art4" > /dev/null
cmp "$smoke_art1" "$smoke_art4"

echo "==> perf budget gate (bench_diff vs committed fast-headline baseline)"
perf_report="$(mktemp -t BENCH_perf.XXXXXX.json)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_art4" "$perf_report"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 1 --alloc --metrics-out "$perf_report" > /dev/null
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json "$perf_report" \
    --budgets results/PERF_BUDGETS.json

# Self-test against the baseline *itself* so the verdicts are
# deterministic: identical reports must pass, and the same pair with a
# seeded +25% dpo.forward slowdown must fail naming the span —
# machine noise in the fresh candidate above cannot mask the seed here.
# dpo.forward is the largest training span; it clears the gate's
# min-share floor now that the semantic pre-flight no longer dominates
# the fast baseline's wall (DESIGN.md §10), so the gate sees training.
echo "==> perf gate self-test (identical reports pass, seeded +25% regression fails)"
seeded_out="$(mktemp -t bench_diff_seeded.XXXXXX.txt)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_art4" "$perf_report" "$seeded_out"' EXIT
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json results/BENCH_headline_fast.json \
    --budgets results/PERF_BUDGETS.json > /dev/null
if cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json results/BENCH_headline_fast.json \
    --budgets results/PERF_BUDGETS.json \
    --seed-regression dpo.forward=1.25 > "$seeded_out"; then
    echo "perf gate self-test FAILED: seeded regression was not detected"
    cat "$seeded_out"
    exit 1
fi
grep -q "dpo.forward" "$seeded_out"

echo "ci: all gates passed"
