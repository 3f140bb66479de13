#!/usr/bin/env bash
# Offline CI gate: format, lint, build, tier-1 + workspace tests.
# Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors: no dangling, ambiguous or private links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo clippy on the feature-gated bench/proptest code (warnings are errors)"
cargo clippy --workspace --all-targets --features criterion,proptest -- -D warnings

echo "== tier-1: release build + root test suite"
cargo build --release
cargo test -q

echo "== workspace tests"
cargo test -q --workspace

echo "== frozen benchmark builds and passes against the current API"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "== telemetry equivalence (recording sink must not change the trees)"
cargo test -q -p sllt-cts --test telemetry

echo "== robustness: degenerate corpus + fault-injection suite"
cargo test -q -p sllt-cts --test degenerate --test faults

echo "== robustness: reader fuzz (byte soup must never panic)"
cargo test -q -p sllt-design --features proptest --test io_prop

echo "== run-record smoke: JSONL must parse back bit-identically"
# The bin self-validates every record (parse + re-encode) and exits
# nonzero on any schema drift; double-check the artifact landed. The
# summary goes to a scratch path so the committed BENCH_cts.json stays
# the pristine baseline bench_diff gates against below.
cargo run --release -q -p sllt-bench --bin run_record -- --design s35932 \
    --out results/bench_smoke.json
test -s results/run_record_s35932.jsonl
test -s results/bench_smoke.json

echo "== run-record overwrite guard: a newer-schema baseline must be refused"
printf '{"bench":"cts","schema":9999,"designs":[]}\n' > results/bench_future.json
if cargo run --release -q -p sllt-bench --bin run_record -- --design grid48 \
    --out results/bench_future.json; then
  echo "run_record must refuse to overwrite a newer-schema baseline" >&2; exit 1
fi
rm -f results/bench_future.json

echo "== bench regression gate: every BENCH_cts.json row vs a fresh run"
# Deterministic counters and QoR must match the committed baseline
# exactly, on every design it records; the last invocation self-tests
# that the gate actually trips on drift.
designs=$(python3 -c 'import json; print(" ".join(d["design"] for d in json.load(open("BENCH_cts.json"))["designs"]))')
test -n "$designs"
for design in $designs; do
  cargo run --release -q -p sllt-bench --bin bench_diff -- --design "$design"
done
if cargo run --release -q -p sllt-bench --bin bench_diff -- \
    --design s35932 --inject-drift cts.route.clusters; then
  echo "bench_diff must exit nonzero on injected counter drift" >&2; exit 1
fi

echo "== golden trees: square 10^4 and 10^5 grids byte-identical at 1, 2 and 4 workers, square 10^6 at 2 (release)"
# The level-0 kernels must reproduce every float of the tree, at any
# worker count; the 10^5 and 10^6 cases and the 1/4-worker runs are
# ignored in debug builds and run here. The 10^6 tree is the benchmark's
# grid_1m workload (about 5 s and 330 MB). The heap budget pins the live
# heap bytes of a one-worker square-10^5 run at level 0's LevelStart,
# its LevelDone and at Assembled, so no level holds a copy of its nodes
# and routed clusters stay held in their compact form.
cargo test -q --release -p sllt-cts --test golden --test memory_budget

echo "== results record: deterministic bins print the committed results/<bin>.txt byte for byte"
# table6 and table7 print wall times, so they stay out of this step.
for bin in table1 table2 table3 table4 fig4_sa_ablation fig5_buffering_ablation \
    ocv_robustness; do
  cargo run --release -q -p sllt-bench --bin "$bin" | cmp - "results/$bin.txt"
done

echo "== trace smoke: traced s35932 exports valid Chrome JSON, tree untouched"
# `sllt run --trace` self-validates the export (parses it back before
# exiting 0); here we additionally pin the observation-only contract —
# the traced tree is bit-identical to the untraced one at 1/2/4 route
# workers — and that the export carries stage spans and counter tracks.
cargo build --release -q --bin sllt
./target/release/sllt run --design s35932 --tree results/tree_untraced.sllt > /dev/null
for w in 1 2 4; do
  ./target/release/sllt run --design s35932 --trace --progress --workers "$w" \
      --tree "results/tree_traced_$w.sllt" > /dev/null 2> /dev/null
  cmp "results/tree_traced_$w.sllt" results/tree_untraced.sllt
done
grep -q '"name":"cts.route.cluster"' results/trace_s35932.json
grep -q '"ph":"C"' results/trace_s35932.json
grep -q '"name":"partition.mcf.augmentations"' results/trace_s35932.json
rm -f results/tree_untraced.sllt results/tree_traced_*.sllt

echo "== trace property tests: Chrome export survives hostile names"
cargo test -q -p sllt-obs --features proptest --test trace_prop

echo "== fault smoke: ladder recovers on s35932 and square 10^5, log non-empty, runs bit-identical"
# The fault suite's scenario table runs on s35932 in release only: every
# scenario must recover into a valid tree with a non-empty downgrade log
# and build the same tree at 1/2/4 workers. The transient route panic
# also runs on the square 10^5-sink grid (release only, about 1.6 s for
# the three runs) under the same contract.
cargo test -q --release -p sllt-cts --test faults

echo "== durability: checkpoint/resume + cancellation suites (release, incl. ISCAS kill/resume)"
# Covers: truncate-at-every-boundary resume, torn-tail tolerance,
# fingerprint drift refusal, refusal of schema-2 and schema-3 journals,
# bounded cancellation latency, resume-after-kill bit-identity on
# s35932/s38584 at 1/2/4 workers, and a square-10^5 journal cut at its
# middle level boundary and inside the next record, resumed at 1 and 2
# workers to the golden tree's bytes. (The ISCAS and square-10^5 tests
# are ignore-gated in debug builds only; a release run executes them.)
cargo test -q --release -p sllt-cts --test checkpoint --test cancel

echo "== partition fast path: worker determinism + warm assignment vs flow oracles (release)"
# Parallel restarts, SA chains, and the sharded grid must build
# bit-identical trees at 1/2/4 workers, the warm overflow-repair
# assignment must reach the dense-flow oracle's optimal cost, and the
# unbuilt repair network must reach the built network's assignment and
# counters exactly.
cargo test -q --release -p sllt-cts --test partition_fastpath
cargo test -q --release -p sllt-partition --features proptest -- \
    proptest_pruned_assignment_matches_scan \
    proptest_warm_assignment_cost_matches_cold \
    repair_matches_the_network_solver

echo "== scale smoke: grid200000 end-to-end under a wall budget"
# Near-linear scaling regression gate: ~110 us/sink on the reference
# box puts 200k sinks around 22 s; 180 s is the hard budget (timeout
# exits 124 on breach, and the bin exits nonzero on a failed flow).
timeout 180 cargo run --release -q -p sllt-bench --bin scale_sweep -- --sizes 200000

echo "== slltd smoke: isolation, mid-run cancel, SIGTERM drain, --resume"
# A live daemon on a unix socket must: finish a healthy job while a
# panicking sibling burns its retries, cancel a third job mid-run, exit
# 0 on SIGTERM with a sealed (drained) journal, and complete the jobs
# it checkpointed when restarted with --resume.
cargo build --release -q -p sllt-server --bin slltd
cargo build --release -q --bin sllt
rm -rf results/slltd_ci
SLLTD_DIR=results/slltd_ci
SOCK=$SLLTD_DIR/slltd.sock
JOBS="./target/release/sllt jobs"
./target/release/slltd --state-dir "$SLLTD_DIR" --workers 2 \
    --drain-grace 0.5 --cancel-grace 1 &
SLLTD_PID=$!
for _ in $(seq 1 100); do
  $JOBS ping --connect "$SOCK" > /dev/null 2>&1 && break
  sleep 0.1
done
job_id() { sed -n 's/.*"job":"\([^"]*\)".*/\1/p'; }
J1=$($JOBS submit --connect "$SOCK" --design grid48 | job_id)
J2=$($JOBS submit --connect "$SOCK" --design grid36 --fault panic --retries 1 | job_id)
J3=$($JOBS submit --connect "$SOCK" --design grid36 --fault sleep:30000 | job_id)
# Every named config must build through the daemon, not just base.
JT=$($JOBS submit --connect "$SOCK" --design grid36 --config tight | job_id)
JN=$($JOBS submit --connect "$SOCK" --design grid36 --config nosa | job_id)
# The healthy job must land ok despite its panicking sibling...
$JOBS result --connect "$SOCK" --job "$J1" --wait | grep -q '"status":"ok"'
$JOBS result --connect "$SOCK" --job "$JT" --wait | grep -q '"status":"ok"'
$JOBS result --connect "$SOCK" --job "$JN" --wait | grep -q '"status":"ok"'
$JOBS result --connect "$SOCK" --job "$J2" --wait | grep -q '"status":"panic"'
# ...and the slow third job is cancelled mid-run (running by now: the
# panic job released its worker).
for _ in $(seq 1 200); do
  $JOBS status --connect "$SOCK" --job "$J3" | grep -q '"state":"running"' && break
  sleep 0.1
done
$JOBS cancel --connect "$SOCK" --job "$J3"
$JOBS result --connect "$SOCK" --job "$J3" --wait | grep -q '"status":"cancelled"'
# Two in-flight jobs at SIGTERM: drain must exit 0, seal the journal,
# and leave both resumable.
J4=$($JOBS submit --connect "$SOCK" --design grid48 --fault sleep:3000 | job_id)
J5=$($JOBS submit --connect "$SOCK" --design grid48 --fault sleep:3000 | job_id)
kill -TERM "$SLLTD_PID"
wait "$SLLTD_PID"
grep -q '"kind":"drained"' "$SLLTD_DIR/jobs.jsonl"
./target/release/slltd --state-dir "$SLLTD_DIR" --workers 2 --resume &
SLLTD_PID=$!
for _ in $(seq 1 100); do
  $JOBS ping --connect "$SOCK" > /dev/null 2>&1 && break
  sleep 0.1
done
$JOBS result --connect "$SOCK" --job "$J4" --wait | grep -q '"status":"ok"'
$JOBS result --connect "$SOCK" --job "$J5" --wait | grep -q '"status":"ok"'
$JOBS drain --connect "$SOCK"
wait "$SLLTD_PID"
rm -rf results/slltd_ci

echo "== A/B driver self-test: the pairing, claim and bound rules on canned tables"
python3 scripts/ab.py --self-test

echo "== slltd benchmark smoke: every daemon tree byte-identical to the in-process tree"
# The benchmark's slltd_mix workload (run as is, short) byte-compares
# each tree the daemon writes with the in-process tree of the same
# design, so a tree-writer or supervisor regression fails here.
CARGO_TARGET_DIR=target python3 perfbench/run.py --workload slltd_mix --seed 1 \
    --seconds 3 --trace 0 > results/perfbench_slltd_mix.txt
tail -n 1 results/perfbench_slltd_mix.txt | grep -q '"correct":true'
rm -f results/perfbench_slltd_mix.txt

echo "== storage degradation: ENOSPC/EIO/short/torn mid-run must not change trees"
# Every fault kind against the checkpoint writer: the flow degrades to
# in-memory, reports StorageDegraded exactly once, and still builds the
# bit-identical tree (pre-flight journal-create failures stay fatal).
cargo test -q --release -p sllt-cts --test storage

echo "== journal reader fuzz: multi-fragment corruption never panics or invents"
cargo test -q -p sllt-obs --features proptest --test journal_prop

echo "== torture smoke: randomized fault-schedule x kill-point matrices"
# Phase A: checkpointed runs under random FaultFs schedules, then
# resume from a random-truncation kill point — every outcome must be
# bit-identical to the clean reference or a clean Checkpoint refusal.
# Phase B: SIGKILL a live daemon mid-batch (slltd binary built above),
# assert no orphans, --resume to completion, artifacts GC'd under the
# disk budget. Exits nonzero on any violation.
cargo run --release -q -p sllt-bench --bin torture -- --schedules 8 --json

echo "CI green"
