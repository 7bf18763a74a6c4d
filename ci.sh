#!/usr/bin/env bash
# CI gate: formatting; clippy over every target with -D warnings, which
# also enforces the workspace's unsafe-code and lint policy (a SAFETY
# comment on every unsafe block and unsafe impl, a reasoned allow for
# every unsafe declaration and every lint opt-out; see Cargo.toml's
# [workspace.lints] and DESIGN.md); a clippy pass over the stand-alone
# perfbench benchmark under the same unsafe-block and allow-reason
# lints; docs; tests; the exhaustive check of tinylm's tanh kernel
# against fdlibm and libm on every f32; a miri pass over parkit when the
# interpreter is installed; the one speclint pass over the shipped rule
# books (analysed under their world models), controllers and step lists;
# the certkit certification + decide-only vs certified differential
# suite (including the scaled drivesim/warehouse models); an
# instrumented bench smoke run (allocation tracking on) validated against
# the obskit.bench.v2 report schema (metrics_check); byte-equality gates
# proving the performance and gating knobs (--threads, semantic
# pre-flight, allocation tracking) never change artifacts; a digest gate
# pinning the fast headline artifacts across commits; a noise-aware
# perf-regression gate (bench_diff) that diffs a fresh fast headline run
# against the committed baseline under results/PERF_BUDGETS.json; a
# thread-parity gate (bench_diff under results/THREAD_PARITY_BUDGETS.json)
# proving the work counters do not depend on the thread count; a
# seeded-regression self-test proving the perf gate really fails when
# one span slows down; and a manifest gate regenerating every committed
# results/*.txt (the paper demo controllers' verdicts and counterexamples
# in results/demo.txt among them) and checking it against
# results/ARTIFACTS.sha256.
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

# kernels::tanh claims glibc tanhf's bits on every f32; the unit test
# covers the branch thresholds and a 2^20-input sweep, this one all 2^32
# inputs against the fdlibm transcription and f32::tanh (about a minute
# on 2 vCPUs).
echo "==> exhaustive tanh gate (tinylm's ignored tests, release)"
cargo test -q --release -p tinylm -- --ignored

echo "==> miri gate (parkit under the interpreter)"
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p parkit
else
    echo "miri gate: SKIPPED (cargo miri not installed)"
fi

echo "==> speclint --deny-warnings (shipped rule books, controllers and step lists)"
cargo run -q --release -p speclint -- --deny-warnings

echo "==> certkit gate (certification + differential suite, incl. scaled models)"
cargo run -q -p certkit --release

echo "==> obskit smoke gate (instrumented 2-thread bench run, alloc tracking on)"
smoke_report="$(mktemp -t BENCH_smoke.XXXXXX.json)"
smoke_art1="$(mktemp -t headline_t1.XXXXXX.json)"
smoke_art2="$(mktemp -t headline_t2.XXXXXX.json)"
smoke_trace="$(mktemp -t headline_trace.XXXXXX.json)"
smoke_flame="$(mktemp -t headline_flame.XXXXXX.folded)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_trace" "$smoke_flame"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 2 --alloc --metrics-out "$smoke_report" \
    --trace-out "$smoke_trace" --flame-out "$smoke_flame" \
    --artifacts-out "$smoke_art2" > /dev/null
# Both exporters read the recorder of a real run: the flamegraph the
# span tree, the Chrome trace the span timeline and the events, which
# the recorder keeps only because --trace-out was given.
grep -q '^pipeline.run;pipeline.train;dpo.epoch;dpo.forward ' "$smoke_flame"
grep -q '"traceEvents"' "$smoke_trace"
grep -q '"name":"pipeline.run","cat":"span"' "$smoke_trace"
grep -q '"name":"dpo.epoch","cat":"event"' "$smoke_trace"
grep -q '"cache_hits":' "$smoke_trace"
cargo run -q --release -p bench --bin metrics_check -- "$smoke_report" \
    --require pipeline.pairs_formed,pipeline.responses_scored,ltlcheck.checks,ltlcheck.automaton_cache_hits,ltlcheck.product_states,pretrain.tokens,dpo.pairs_trained,pool.tasks,verify.cache_hits,verify.cache_misses,verify.cache_entries,verify.cache_evictions,verify.cache_hit_rate,dpo.ref_cache_hits,dpo.tokens_per_sec,tape.nodes,tape.grad_buffer_reuses,tinylm.packed_floats,speclint.semantic_rules,speclint.semantic_checks,speclint.semantic_errors,speclint.semantic_notes,alloc.allocs,alloc.bytes_allocated,alloc.bytes_freed,alloc.frees,alloc.current_bytes,alloc.peak_bytes \
    --require-span pipeline.run,pipeline.pretrain,pipeline.collect,pipeline.sample,pipeline.parse,pipeline.verify,autokit.product,pipeline.rank,pipeline.train,pipeline.eval,pipeline.score_batch,pipeline.score,dpo.ref,dpo.epoch,dpo.forward,dpo.backward

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
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_trace" "$smoke_flame" "$smoke_art4"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --no-obs --threads 1 --no-semantic-preflight \
    --artifacts-out "$smoke_art4" > /dev/null
cmp "$smoke_art1" "$smoke_art4"

echo "==> perf budget gate (bench_diff vs committed fast-headline baseline)"
perf_report="$(mktemp -t BENCH_perf.XXXXXX.json)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_trace" "$smoke_flame" "$smoke_art4" "$perf_report"' EXIT
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 1 --alloc --metrics-out "$perf_report" > /dev/null
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json "$perf_report" \
    --budgets results/PERF_BUDGETS.json

# perf_report ran at --threads 1 and smoke_report at --threads 2, both
# with --alloc. Counters describe the work done, so they must agree;
# the budgets skip every span and ignore only the readings that depend
# on the schedule by nature.
echo "==> thread-parity gate (work counters at --threads 1 and 2 agree)"
cargo run -q --release -p bench --bin bench_diff -- \
    "$perf_report" "$smoke_report" \
    --budgets results/THREAD_PARITY_BUDGETS.json

# Self-test against the baseline *itself* so the verdicts are
# deterministic: identical reports must pass, and the same pair with a
# seeded +25% dpo.forward slowdown must fail naming the span —
# machine noise in the fresh candidate above cannot mask the seed here.
# dpo.forward is the largest training span; it clears the gate's
# min-share floor now that the semantic pre-flight, which runs only the
# checks that can fail it, is under a tenth of the fast baseline's wall
# (DESIGN.md §10), so the gate sees training.
echo "==> perf gate self-test (identical reports pass, seeded +25% regression fails)"
seeded_out="$(mktemp -t bench_diff_seeded.XXXXXX.txt)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_trace" "$smoke_flame" "$smoke_art4" "$perf_report" "$seeded_out"' EXIT
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

# Every committed result file is pinned by results/ARTIFACTS.sha256: the
# manifest must name exactly the committed results/*.txt, and each is
# regenerated from source (the bench bin of the same name, --no-obs;
# warehouse.txt from the warehouse_robot example) and must hash as
# recorded. This also pins results/demo.txt, the paper's four
# demonstration controllers with their verdicts and counterexamples. A
# change that moves a result on purpose re-records the file and its
# manifest line, and says why.
echo "==> results manifest gate (every results/*.txt, demo.txt included, regenerates byte for byte)"
results_dir="$(mktemp -d -t results.XXXXXX)"
trap 'rm -f "$smoke_report" "$smoke_art1" "$smoke_art2" "$smoke_trace" "$smoke_flame" "$smoke_art4" "$perf_report" "$seeded_out"; rm -rf "$results_dir"' EXIT
diff <(ls results/*.txt | sort) <(awk '{print $2}' results/ARTIFACTS.sha256 | sort)
sha256sum -c --quiet results/ARTIFACTS.sha256
mkdir "$results_dir/results"
while read -r _ path; do
    name="$(basename "$path" .txt)"
    if [ "$name" = warehouse ]; then
        cargo run -q --release --example warehouse_robot \
            > "$results_dir/$path" 2> "$results_dir/$name.log"
    else
        cargo run -q --release -p bench --bin "$name" -- --no-obs \
            > "$results_dir/$path" 2> "$results_dir/$name.log"
    fi
done < results/ARTIFACTS.sha256
(cd "$results_dir" && sha256sum -c --quiet) < results/ARTIFACTS.sha256

echo "ci: all gates passed"
