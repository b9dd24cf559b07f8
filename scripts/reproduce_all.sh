#!/usr/bin/env bash
# Full reproduction pipeline: build, test, train the four models, run every
# table/figure bench. Run from the repository root. Training dominates the
# runtime. Stages are toggled with environment variables (see --help).
set -euo pipefail

usage() {
  cat <<'EOF'
usage: scripts/reproduce_all.sh

Reproduces the paper artifacts end to end: configure + build, full ctest,
train the four models (CNV / n-CNV / u-CNV binarized + FP32 baseline),
then run every bench binary in build/bench/. Run from the repo root.

Stages are controlled by environment variables (all default off/full):
  QUICK=1            reduced training schedules (minutes instead of hours)
  STATIC_ANALYSIS=1  also run scripts/static_analysis.sh: clang-tidy, the
                     R1-R8, R10, R11 repo-invariant lint plus its fixture self-test,
                     and the binary-level hot-path audit (nm/objdump over
                     the interpreter and metric-recording objects); the
                     concurrency contracts themselves compile-check under
                     Clang with -DBCOP_THREAD_SAFETY=ON
  STATIC_ANALYSIS_STRICT=1  same, but tool-missing stages (e.g. no
                     clang-tidy) count as failures instead of skips
  SERVING_BENCH=1    re-run bench_serving_throughput with --full sample
                     counts (the bench loop always runs it once quickly)
  WORKSPACE_BENCH=1  verify the zero-allocation steady state: the serving
                     bench re-runs with --check-allocs and the stage fails
                     if any measured steady state touched the heap
  METRICS_BENCH=1    exercise the observability exporters: the serving
                     bench re-runs with --metrics and the stage fails if
                     the Prometheus snapshot comes out empty (see
                     docs/observability.md)
  NET_BENCH=1        drive the HTTP front-end past capacity with the
                     repository benchmark's http_overload workload (10 s
                     of open-loop load at 16000 req/s); the stage fails
                     unless its result line reads "correct": true, i.e.
                     no lost, timed-out, 4xx or 5xx request, a conserved
                     ledger and 503s matching the rejection counter; the
                     run's output lands in bench_artifacts/net_bench.out
                     (see docs/networking.md)
  KERNEL_BENCH=1     run the per-tier kernel micro-benchmarks (the
                     BM_Kernel* rows of bench_micro_kernels: scalar vs
                     avx2 vs avx512 popcount GEMM / threshold on whatever
                     tiers this host can execute, plus the one shared
                     im2row) and save the JSON to
                     bench_artifacts/kernel_tiers.json

Exit status is non-zero when any enabled stage fails; a per-stage summary
prints at the end either way.
EOF
}
if [[ "${1:-}" == "-h" || "${1:-}" == "--help" ]]; then
  usage
  exit 0
fi

declare -a SUMMARY
note() { SUMMARY+=("$1"); }

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
note "build+ctest: PASS"

if [[ "${STATIC_ANALYSIS:-0}" == "1" || "${STATIC_ANALYSIS_STRICT:-0}" == "1" ]]; then
  STRICT_FLAG=()
  [[ "${STATIC_ANALYSIS_STRICT:-0}" == "1" ]] && STRICT_FLAG=(--strict)
  if scripts/static_analysis.sh "${STRICT_FLAG[@]}" build; then
    note "static_analysis${STRICT_FLAG:+ (--strict)}: PASS"
  else
    note "static_analysis${STRICT_FLAG:+ (--strict)}: FAIL"
  fi
else
  note "static_analysis: skipped (set STATIC_ANALYSIS=1 to enable)"
fi

TRAIN=build/examples/train_binarycop
if [[ "${QUICK:-0}" == "1" ]]; then
  $TRAIN --arch ncnv --per-class 400 --epochs 6 --eval-every 3 --out models/ncnv.bcop
  $TRAIN --arch ucnv --per-class 400 --epochs 6 --eval-every 3 --out models/ucnv.bcop
  $TRAIN --arch cnv  --per-class 300 --epochs 3 --eval-every 3 --out models/cnv.bcop
  $TRAIN --arch fp32 --per-class 300 --epochs 3 --eval-every 3 --out models/fp32_cnv.bcop
else
  $TRAIN --arch ncnv --per-class 1200 --epochs 18 --eval-every 6 --out models/ncnv.bcop
  $TRAIN --arch ucnv --per-class 1200 --epochs 18 --eval-every 6 --out models/ucnv.bcop
  $TRAIN --arch cnv  --per-class 800  --epochs 6  --eval-every 3 --out models/cnv.bcop
  $TRAIN --arch fp32 --per-class 600  --epochs 5  --eval-every 3 --out models/fp32_cnv.bcop
fi
note "training: PASS"

for b in build/bench/*; do
  echo "=== $b ==="
  "$b"
done
note "benches: PASS"

if [[ "${SERVING_BENCH:-0}" == "1" ]]; then
  if build/bench/bench_serving_throughput --full \
      --out bench_artifacts/serving_throughput.json; then
    note "serving_bench (--full): PASS"
  else
    note "serving_bench (--full): FAIL"
  fi
else
  note "serving_bench: quick pass only (set SERVING_BENCH=1 for --full)"
fi

if [[ "${WORKSPACE_BENCH:-0}" == "1" ]]; then
  if build/bench/bench_serving_throughput --check-allocs \
      --out bench_artifacts/serving_workspace.json; then
    note "workspace_bench (--check-allocs): PASS (0 allocs/inference)"
  else
    note "workspace_bench (--check-allocs): FAIL"
  fi
else
  note "workspace_bench: skipped (set WORKSPACE_BENCH=1 to verify the zero-allocation steady state)"
fi

if [[ "${METRICS_BENCH:-0}" == "1" ]]; then
  if build/bench/bench_serving_throughput \
      --out bench_artifacts/serving_metrics.json \
      --metrics bench_artifacts/metrics.prom \
      && [[ -s bench_artifacts/metrics.prom ]]; then
    note "metrics_bench (--metrics): PASS ($(wc -l < bench_artifacts/metrics.prom) Prometheus lines)"
  else
    note "metrics_bench (--metrics): FAIL"
  fi
else
  note "metrics_bench: skipped (set METRICS_BENCH=1 to exercise the observability exporters)"
fi

if [[ "${NET_BENCH:-0}" == "1" ]]; then
  mkdir -p bench_artifacts
  if python3 perfbench/run.py --workload http_overload --seed 1 --seconds 10 \
      > bench_artifacts/net_bench.out \
      && tail -n 1 bench_artifacts/net_bench.out | grep -q '"correct": true'; then
    note "net_bench (perfbench http_overload): PASS"
  else
    note "net_bench (perfbench http_overload): FAIL"
  fi
else
  note "net_bench: skipped (set NET_BENCH=1 to load-test the HTTP front-end)"
fi

if [[ "${KERNEL_BENCH:-0}" == "1" ]]; then
  if build/bench/bench_micro_kernels \
      --benchmark_filter='BM_Kernel' \
      --benchmark_out=bench_artifacts/kernel_tiers.json \
      --benchmark_out_format=json; then
    note "kernel_bench (BM_Kernel*): PASS"
  else
    note "kernel_bench (BM_Kernel*): FAIL"
  fi
else
  note "kernel_bench: skipped (set KERNEL_BENCH=1 to compare kernel dispatch tiers)"
fi

echo
echo "reproduce_all summary:"
status=0
for line in "${SUMMARY[@]}"; do
  echo "  $line"
  [[ "$line" == *FAIL* ]] && status=1
done
exit $status
