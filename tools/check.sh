#!/usr/bin/env bash
# Full verification flow: the tier-1 gate (which includes the tier1_resume
# kill-and-resume determinism matrix and the tier1_net HTTP loopback
# suite), an end-to-end HTTP smoke (demo server + curl + graceful SIGTERM),
# the observability, serving and network suites under ThreadSanitizer
# (including the model hot-swap hammer and the net chaos fault injection),
# a failpoint-enabled kill -> resume -> hot-reload chaos smoke, the
# benchmark's self-test, and the SIMD kernel / sampler / ledger suites and
# the failpoint chaos suite under AddressSanitizer + UBSan. --bench instead
# ends with a paired cold-score gate (tools/bench_gate.py): five alternated
# perfbench cold_solo pairs of BASE against the working tree, failing when
# the median change/base p50 exceeds 1.10.
#
#   tools/check.sh                # tier-1 + tsan obs/serve + perfbench + asan
#   tools/check.sh --fast         # tier-1 only
#   tools/check.sh --bench [BASE] # tier-1 + http smoke + paired gate vs
#                                 # BASE (default HEAD)
#
# Run from anywhere; paths resolve relative to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

fast=0
bench=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
elif [[ "${1:-}" == "--bench" ]]; then
  bench=1
  bench_base="${2:-HEAD}"
fi

echo "=== tier-1: configure + build + ctest (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest -L tier1 --no-tests=error --output-on-failure -j"$(nproc)")

if [[ "${fast}" != "1" ]]; then
  echo "=== http smoke: demo server up -> curl healthz/metrics/score -> graceful SIGTERM ==="
  cmake --build build -j --target example_http_server_demo >/dev/null
  smoke_dir="$(mktemp -d /tmp/dbg4eth_http_smoke.XXXXXX)"
  smoke_log="${smoke_dir}/server.log"
  smoke_port=18742
  ./build/examples/example_http_server_demo \
      --port="${smoke_port}" --ckpt-dir="${smoke_dir}/ckpt" \
      > "${smoke_log}" 2>&1 &
  smoke_pid=$!
  trap 'kill -9 "${smoke_pid}" 2>/dev/null || true; rm -rf "${smoke_dir}"' EXIT
  # First run trains the demo model before binding; wait for the banner.
  for _ in $(seq 1 600); do
    grep -q "listening on" "${smoke_log}" && break
    kill -0 "${smoke_pid}" 2>/dev/null || { cat "${smoke_log}"; exit 1; }
    sleep 0.5
  done
  grep -q "listening on" "${smoke_log}" || { cat "${smoke_log}"; exit 1; }
  base="http://127.0.0.1:${smoke_port}"
  [[ "$(curl -sf "${base}/healthz")" == "ok" ]]
  # grep without -q: -q would close the pipe early and fail curl under
  # pipefail with a write error.
  curl -sf "${base}/metrics" | grep "^net_requests_total" >/dev/null
  score_addr="$(grep -o '"address": [0-9]*' "${smoke_log}" | head -1 | grep -o '[0-9]*')"
  curl -sf -X POST "${base}/v1/score" -d "{\"address\": ${score_addr}}" \
      | grep '"score": ' >/dev/null
  # Trace propagation: a client traceparent id comes back as x-trace-id;
  # the debug surface serves trace trees, vars and a live profile.
  smoke_tid="1234567890abcdef1234567890abcdef"
  curl -sf -D - -o /dev/null -X POST "${base}/v1/score" \
      -H "traceparent: 00-${smoke_tid}-00f067aa0ba902b7-01" \
      -d "{\"address\": ${score_addr}}" \
      | grep -i "x-trace-id: ${smoke_tid}" >/dev/null
  # Exemplars are dialect-gated: a classic 0.0.4 scrape must stay clean
  # (a '#' after a sample value fails the whole Prometheus scrape) while
  # a negotiated OpenMetrics scrape carries them plus the "# EOF" marker.
  if curl -sf "${base}/metrics" | grep -F ' # {' >/dev/null; then
    echo "http smoke: classic /metrics carries exemplar suffixes"
    exit 1
  fi
  openmetrics="$(curl -sf -H 'Accept: application/openmetrics-text' "${base}/metrics")"
  echo "${openmetrics}" | grep -F '# {trace_id="' >/dev/null
  echo "${openmetrics}" | tail -1 | grep -x '# EOF' >/dev/null
  curl -sf "${base}/debug/traces" | grep '"traces"' >/dev/null
  curl -sf "${base}/debug/vars" | grep '"metrics"' >/dev/null
  # One second of wall-clock sampling must yield non-empty folded stacks
  # ("name;name count" lines) for flamegraph tooling.
  profile_out="$(curl -sf "${base}/debug/profile?seconds=1")"
  [[ -n "${profile_out}" ]]
  echo "${profile_out}" | head -1 | grep -E ' [0-9]+$' >/dev/null
  kill -TERM "${smoke_pid}"
  smoke_status=0
  wait "${smoke_pid}" || smoke_status=$?
  trap - EXIT
  rm -rf "${smoke_dir}"
  if [[ "${smoke_status}" != "0" ]]; then
    echo "http smoke: server exited ${smoke_status} (graceful drain failed)"
    exit 1
  fi
  echo "  http smoke passed (server drained and exited 0)"
fi

if [[ "${bench}" == "1" ]]; then
  echo "=== bench gate: cold_solo p50, ${bench_base} vs working tree, alternated pairs ==="
  python3 tools/bench_gate.py "${bench_base}"
fi

if [[ "${fast}" == "1" || "${bench}" == "1" ]]; then
  echo "=== skipping tsan pass (fast/bench mode) ==="
  exit 0
fi

echo "=== tsan: configure + build (build-tsan/) ==="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j

echo "=== tsan: obs suite (ctest -L obs) ==="
(cd build-tsan && ctest -L obs --no-tests=error --output-on-failure -j"$(nproc)")

echo "=== tsan: serve + chaos + inference fast-path suites ==="
(cd build-tsan && ctest -R "Serve|ServerStats|ThreadPool|RequestQueue|ResultCache|InferenceArena|TapeFree|FastPath|MaskedAttentionAlpha|ModelRegistry" \
    --no-tests=error --output-on-failure -j"$(nproc)")

# The network suite carries the event loops' cross-thread handoffs
# (acceptor -> loop inbox -> handler pool -> loop completion), and the
# net chaos tests inject accept/read/write faults under that concurrency
# — both must be clean under tsan.
echo "=== tsan: net suite + net chaos (ctest -L net / -R NetChaos) ==="
(cd build-tsan && ctest -L net --no-tests=error --output-on-failure -j"$(nproc)")
(cd build-tsan && ctest -R "NetChaos" --no-tests=error --output-on-failure -j"$(nproc)")

# The tsan preset compiles with DBG4ETH_FAILPOINTS=ON, so this stage
# actually injects the faults; in the default build these tests skip.
echo "=== failpoints: kill during snapshot/epoch -> resume -> hot-reload smoke ==="
(cd build-tsan && ctest -R "ResumeReloadChaos" \
    --no-tests=error --output-on-failure -j"$(nproc)")

# The benchmark checks every served score bit for bit against an
# in-process oracle; its self-test proves a one-ulp corruption fails it.
echo "=== perfbench self-test: a corrupted score must fail the run ==="
python3 perfbench/run.py --self-test

# The SIMD matmul kernels load and store vectors up to each row's tail,
# the sampler indexes the ledger's counterparty lists, the inference
# arena recycles nodes from shared_ptr deleters (including releases on
# other threads and after the arena is gone), and the GAT's fused CSR
# attention indexes raw row offsets on the training tape and the arena:
# run their suites (and the ledger index's) under AddressSanitizer + UBSan.
# The asan preset compiles failpoints in, so the serving and network chaos
# suites inject their faults here too.
echo "=== asan: configure + build (build-asan/) ==="
cmake --preset asan >/dev/null
cmake --build --preset asan -j --target dbg4eth_tests dbg4eth_chaos_tests

echo "=== asan: matrix kernel, sampling, ledger, CSV-ledger, GAT attention and inference-arena suites ==="
(cd build-asan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ctest \
    -R "^(Matrix|MatMulKernel|Sampling|SamplingEquivalence|Ledger|LedgerIndex|LedgerIndexDeath|CsvLedger|MaskedAttentionAlpha|GatConv|InferenceArena|TapeFreeLayer|GsgFastPath|LdgFastPath)Test\\." \
    --no-tests=error --output-on-failure -j"$(nproc)")

echo "=== asan: chaos suite (ctest -L chaos) ==="
(cd build-asan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ctest \
    -L chaos --no-tests=error --output-on-failure -j"$(nproc)")

echo "=== all checks passed ==="
