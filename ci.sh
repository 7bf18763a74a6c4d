#!/usr/bin/env bash
# CI gate: formatting, lints, docs, a warning-free test build, tests,
# the speclint static-analysis pass over the shipped rule books,
# controllers and step lists, the specsem semantic analysis of the rule
# books under their world models, the unsafe-code audit, the conckit
# concurrency model-checking gate (exhaustive interleaving exploration
# of the parkit pool/deque and the sharded verdict cache, plus a miri
# pass when the interpreter is installed), the certkit certification +
# explicit-vs-symbolic differential suite (including the scaled
# drivesim/warehouse models under a time budget), the symbolic backend
# gate (a fast backend_compare --sweep whose symbolic.* counters are
# validated by metrics_check and diffed exactly against the committed
# results/BENCH_backend.json baseline), an instrumented bench smoke run
# (allocation tracking on) validated against the obskit.bench.v2 report
# schema (metrics_check), byte-equality gates proving the performance
# and gating knobs (--threads, semantic pre-flight, allocation tracking)
# never change artifacts, the kernel gate (fast-math tolerance envelope
# over real sequence graphs), and a noise-aware perf-regression gate
# (bench_diff) that diffs a fresh fast headline run against the
# committed baseline under results/PERF_BUDGETS.json — including a
# seeded-regression self-test proving the gate really fails when one
# span slows down.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# clippy above skips test targets, so a warning that only the test
# build sees (e.g. a duplicated #[test]) must fail here instead.
echo "==> cargo test --workspace --no-run (deny warnings)"
test_build_log="$(mktemp -t test_build.XXXXXX.log)"
trap 'rm -f "$test_build_log"' EXIT
cargo test --workspace --no-run 2>&1 | tee "$test_build_log"
if grep -q "^warning:" "$test_build_log"; then
    echo "test build printed warnings"
    exit 1
fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> model-feature tests (parkit under conckit's exploring scheduler)"
cargo clippy -q -p conckit -p parkit -p bench --all-targets \
    --features bench/model -- -D warnings
cargo test -q -p conckit -p parkit --features conckit/model,parkit/model

echo "==> miri gate (parkit + conckit under the interpreter)"
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p parkit -p conckit
else
    echo "miri gate: SKIPPED (cargo miri not installed)"
fi

echo "==> speclint --deny-warnings"
cargo run -q -p speclint -- --deny-warnings

echo "==> speclint --semantic --deny-warnings (SL3xx over shipped books)"
cargo run -q --release -p speclint -- --semantic --deny-warnings

echo "==> unsafe-code audit (every unsafe site carries a SAFETY comment)"
cargo run -q --release -p bench --bin unsafe_audit -- --no-obs

echo "==> conckit exploration gate (model-checked pool/deque/cache interleavings)"
conc_report="$(mktemp -t BENCH_conc.XXXXXX.json)"
trap 'rm -f "$test_build_log" "$conc_report"' EXIT
cargo run -q --release -p bench --features model --bin conc_check -- \
    --metrics-out "$conc_report"
cargo run -q --release -p bench --bin metrics_check -- "$conc_report" \
    --require conckit.schedules,conckit.steps,conckit.violations,conckit.max_depth

echo "==> certkit gate (certification + differential suite, incl. scaled models)"
cargo run -q -p certkit --release

echo "==> symbolic backend gate (fast sweep, symbolic.* metrics, counter diff vs baseline)"
sweep_report="$(mktemp -t BENCH_backend.XXXXXX.json)"
trap 'rm -f "$test_build_log" "$conc_report" "$sweep_report"' EXIT
cargo run -q --release -p bench --bin backend_compare -- \
    --sweep --fast --quiet --metrics-out "$sweep_report" > /dev/null
cargo run -q --release -p bench --bin metrics_check -- "$sweep_report" \
    --require symbolic.checks,symbolic.cache_hits,symbolic.cache_lookups,symbolic.el_iterations,symbolic.peak_nodes,symbolic.reach_rings,backend.sweep_scales,ltlcheck.checks
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_backend.json "$sweep_report" \
    --budgets results/PERF_BUDGETS.json

echo "==> obskit smoke gate (instrumented 2-thread bench run, alloc tracking on)"
smoke_report="$(mktemp -t BENCH_smoke.XXXXXX.json)"
smoke_art1="$(mktemp -t headline_t1.XXXXXX.json)"
smoke_art2="$(mktemp -t headline_t2.XXXXXX.json)"
trap 'rm -f "$test_build_log" "$smoke_report" "$smoke_art1" "$smoke_art2" "$conc_report" "$sweep_report"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 2 --alloc --metrics-out "$smoke_report" \
    --artifacts-out "$smoke_art2" > /dev/null
cargo run -q --release -p bench --bin metrics_check -- "$smoke_report" \
    --require pipeline.pairs_formed,pipeline.responses_scored,ltlcheck.checks,ltlcheck.automaton_cache_hits,ltlcheck.product_states,pretrain.tokens,dpo.pairs_trained,pool.tasks,pool.steals,verify.cache_hits,verify.cache_misses,verify.cache_entries,verify.cache_evictions,verify.cache_hit_rate,dpo.ref_cache_hits,dpo.tokens_per_sec,tape.nodes,tape.grad_buffer_reuses,speclint.semantic_rules,speclint.semantic_checks,speclint.semantic_errors,speclint.semantic_notes,alloc.allocs,alloc.bytes_allocated,alloc.bytes_freed,alloc.frees,alloc.current_bytes,alloc.peak_bytes \
    --require-span pipeline.run,pipeline.pretrain,pipeline.collect,pipeline.sample,pipeline.parse,pipeline.verify,pipeline.rank,pipeline.train,pipeline.eval,pipeline.score_batch,pipeline.score,dpo.ref,dpo.epoch,dpo.forward,dpo.backward

# smoke_art2 was produced at --threads 2 with --alloc; smoke_art1 is
# --threads 1 --no-obs, so this one cmp also proves the tracking
# allocator and recorder never leak into artifacts.
echo "==> parallel determinism gate (headline artifacts, --threads 1 vs 2, alloc on vs off)"
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --no-obs --threads 1 --artifacts-out "$smoke_art1" > /dev/null
cmp "$smoke_art1" "$smoke_art2"

echo "==> semantic pre-flight purity gate (gate on vs off, identical artifacts)"
smoke_art4="$(mktemp -t headline_nosem.XXXXXX.json)"
trap 'rm -f "$test_build_log" "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_art4" "$conc_report" "$sweep_report"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --no-obs --threads 1 --no-semantic-preflight \
    --artifacts-out "$smoke_art4" > /dev/null
cmp "$smoke_art1" "$smoke_art4"

echo "==> kernel gate (fast-math tolerance, DESIGN.md §13)"
cargo run -q --release -p bench --bin kernel_gate -- --no-obs

echo "==> perf budget gate (bench_diff vs committed fast-headline baseline)"
perf_report="$(mktemp -t BENCH_perf.XXXXXX.json)"
trap 'rm -f "$test_build_log" "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_art4" "$conc_report" "$sweep_report" "$perf_report"' EXIT
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
trap 'rm -f "$test_build_log" "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_art4" "$conc_report" "$sweep_report" "$perf_report" "$seeded_out"' EXIT
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
