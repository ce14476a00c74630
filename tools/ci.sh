#!/usr/bin/env bash
# Tier-1 CI entry point: configure + build + full test suite, then the two
# static-analysis gates — clang-tidy over the sources (tools/lint.sh, skipped
# when clang-tidy is absent) and a lint smoke over the example scripts: each
# examples/scripts/*.sqleq must exit sqleq-lint with its expected code
# (examples/scripts/lint_expected.txt, default 0 = clean).
#
# The default run also compiles the end-to-end benchmark without running
# it: e2ebench/ is configured into its own build directory next to the main
# one (<build-dir>-e2ebench) and only its `e2ebench` and `sqleqd` targets are
# built, so a src/ API change that breaks the benchmark's compile fails CI
# even when e2ebench-smoke is not run.
#
# usage: tools/ci.sh [build-dir]
#        tools/ci.sh bench-smoke [build-dir]
#        tools/ci.sh service-smoke [build-dir]
#        tools/ci.sh crash-smoke [build-dir]
#        tools/ci.sh fleet-smoke [build-dir]
#        tools/ci.sh workload-smoke [build-dir]
#        tools/ci.sh e2ebench-smoke
#
# bench-smoke builds the benchmarks, runs each one for a single pinned
# iteration (SQLEQ_BENCH_ITERS=1) in a mktemp -d directory, where every
# binary emits its BENCH_<name>.json, and validates each file against the
# Google Benchmark JSON shape with check_bench_json. For the chase-scaling,
# homomorphism and workload-e2e suites it gates the fresh output on
# check_bench_regress against the committed baseline at the repo root
# (fails when the median cpu_time ratio exceeds 1.5x). The committed
# baselines are only read: the run fails if it changed `git status`.
#
# service-smoke builds sqleqd + sqleq-client, boots the daemon on an
# ephemeral port, drives a catalog upload, check, reformulate, and stats
# through the client (checking one pair before and after the dep that makes
# it equivalent, so the verdict must flip), then SIGTERMs the daemon and
# asserts a clean drain and a valid Prometheus export (docs/service.md). Between the two it runs
# 100 sequential one-request clients and fails if the daemon's VmSize
# (/proc/<pid>/status) grew by 100 MiB or more: each closed connection's
# thread, with its stack mapping, must be joined while the daemon runs.
#
# crash-smoke exercises the durable memo end to end (docs/service.md,
# "Durability & Recovery"): boot sqleqd with --memo-dir, warm the memo,
# SIGKILL the daemon (no drain), restart it on the same directory, and
# assert the verdict comes back from the recovered tier-2 store
# (memo.disk.recovered > 0 and a memo hit instead of a re-chase).
#
# workload-smoke exercises the semantic query cache end to end
# (docs/workload.md): generate a 200-query corpus at overlap 0.5, boot a
# 1-shard daemon, and replay the corpus through sqleq-replay with every
# semantic-tier confirm routed to the daemon, gating on the measured hit
# rate landing within ±10% of the generator's ground truth
# (--assert-tolerance 0.10). It also re-runs bench_workload_e2e for one
# pinned iteration and gates it on check_bench_regress against the
# committed BENCH_workload_e2e.json baseline.
#
# e2ebench-smoke runs the end-to-end benchmark briefly: `python3
# e2ebench/run.py --workload W --seed 1 --seconds 2 --trace T` for W in
# check-resident, check-spill and reformulate and T in 0 and 1. e2ebench
# compiles against the src/ APIs and passes sqleqd flags, so this catches a
# change that breaks either one. It fails on any non-zero exit, which
# includes a build failure and an oracle disagreement. run.py builds into
# $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench; about 90 s the
# first time), and each run then takes a few seconds.
#
# fleet-smoke exercises the sharded fleet end to end (docs/fleet.md): a
# 3-shard sqleq-fleet with --restart and per-shard durable memos, verdicts
# byte-identical to a single node with every request forced through the
# not_owner redirect path (--route first), byte-identical verdicts from a
# legacy v1 client served by local chases on one shard, a SIGKILL of one
# shard mid-run with byte-identical verdicts after its supervised restart,
# and a fleet stats rollup showing served redirects.
set -eu

cd "$(dirname "$0")/.."

bench_smoke() {
  local build_dir="${1:-build}"

  echo "== configure =="
  cmake -B "${build_dir}" -S .

  echo "== build (benchmarks + checker) =="
  local targets=()
  for src in bench/bench_*.cc; do
    local name
    name="$(basename "${src}" .cc)"
    [ "${name}" = "bench_main" ] && continue
    targets+=("${name}")
  done
  cmake --build "${build_dir}" -j "$(nproc)" --target check_bench_json check_bench_regress \
      "${targets[@]}"

  # Each bench binary writes BENCH_<name>.json into its working directory:
  # run them in a temporary directory, so the committed baselines at the repo
  # root are only ever read.
  local build_abs out_dir status_before
  build_abs="$(cd "${build_dir}" && pwd)"
  out_dir="$(mktemp -d)"
  status_before="$(git status --porcelain 2>/dev/null || true)"

  echo "== bench smoke (SQLEQ_BENCH_ITERS=1) =="
  local jsons=()
  for name in "${targets[@]}"; do
    echo "-- ${name}"
    (cd "${out_dir}" && SQLEQ_BENCH_ITERS=1 "${build_abs}/bench/${name}")
    jsons+=("${out_dir}/BENCH_${name#bench_}.json")
  done

  echo "== check_bench_json =="
  "${build_dir}/tools/check_bench_json" "${jsons[@]}"

  echo "== check_bench_regress (median cpu_time vs committed baseline) =="
  local regress_suites=(chase_scaling homomorphism workload_e2e)
  local suite
  for suite in "${regress_suites[@]}"; do
    if [ -f "BENCH_${suite}.json" ]; then
      "${build_dir}/tools/check_bench_regress" \
          "${out_dir}/BENCH_${suite}.json" "BENCH_${suite}.json" 1.5
    else
      echo "-- no committed baseline for BENCH_${suite}.json, skipping"
    fi
  done
  rm -rf "${out_dir}"

  if [ "$(git status --porcelain 2>/dev/null || true)" != "${status_before}" ]; then
    echo "bench-smoke changed the working tree:"
    git status --short
    exit 1
  fi

  echo "bench-smoke OK"
}

service_smoke() {
  local build_dir="${1:-build}"

  echo "== configure =="
  cmake -B "${build_dir}" -S .

  echo "== build (daemon + client) =="
  cmake --build "${build_dir}" -j "$(nproc)" --target sqleqd sqleq_client

  echo "== service smoke =="
  local workdir
  workdir="$(mktemp -d)"
  local port_file="${workdir}/port"
  local log="${workdir}/sqleqd.log"
  local metrics="${workdir}/metrics.prom"

  "${build_dir}/tools/sqleqd" --port 0 --port-file "${port_file}" \
      --metrics-out "${metrics}" > "${log}" 2>&1 &
  local pid=$!

  local i
  for i in $(seq 1 100); do
    [ -s "${port_file}" ] && break
    sleep 0.05
  done
  if [ ! -s "${port_file}" ]; then
    echo "sqleqd did not report a port:"
    cat "${log}"
    exit 1
  fi
  local port
  port="$(cat "${port_file}")"
  echo "-- sqleqd up on port ${port} (pid ${pid})"

  cat > "${workdir}/requests.jsonl" <<'EOF'
{"id":"1","cmd":"hello"}
{"id":"2","cmd":"relation","name":"r","arity":2}
{"id":"3","cmd":"relation","name":"s","arity":1}
{"id":"4a","cmd":"check","q1":"Q(X) :- r(X, Y), s(X).","q2":"Q(X) :- r(X, Y).","semantics":"set"}
{"id":"4","cmd":"dep","text":"r(X, Y) -> s(X).","label":"fk"}
{"id":"5","cmd":"check","q1":"Q(X) :- r(X, Y), s(X).","q2":"Q(X) :- r(X, Y).","semantics":"set"}
{"id":"6","cmd":"reformulate","query":"Q(X) :- r(X, Y), s(X).","semantics":"set"}
{"id":"7","cmd":"stats"}
EOF
  local responses="${workdir}/responses.jsonl"
  local prometheus="${workdir}/prometheus.txt"
  "${build_dir}/tools/sqleq-client" --port "${port}" \
      --file "${workdir}/requests.jsonl" --print-prometheus \
      > "${responses}" 2> "${prometheus}"

  # The same pair before and after the dep: the session's held chase
  # context must follow the catalog change.
  grep -F '"id":"4a"' "${responses}" | grep -Fq '"verdict":"not-equivalent"' \
      || { echo "check without Σ did not come back not-equivalent:"; cat "${responses}"; exit 1; }
  grep -F '"id":"5"' "${responses}" | grep -Fq '"verdict":"equivalent"' \
      || { echo "check after the dep did not flip to equivalent:"; cat "${responses}"; exit 1; }
  grep -Fq '"reformulations":["Q(X) :- r(X, Y)."]' "${responses}" \
      || { echo "reformulate missing the minimized query:"; cat "${responses}"; exit 1; }
  grep -Fq 'sqleq_service_requests' "${prometheus}" \
      || { echo "stats export missing service counters:"; cat "${prometheus}"; exit 1; }
  grep -Fq 'sqleq_pool_queue_wait_us' "${prometheus}" \
      || { echo "stats export missing the slot-wait histogram:"; cat "${prometheus}"; exit 1; }

  echo "-- connection churn (100 sequential clients)"
  echo '{"id":"churn","cmd":"hello"}' > "${workdir}/hello.jsonl"
  local vm_before vm_after
  vm_before="$(awk '/^VmSize:/ {print $2}' "/proc/${pid}/status")"
  for i in $(seq 1 100); do
    "${build_dir}/tools/sqleq-client" --port "${port}" \
        --file "${workdir}/hello.jsonl" > /dev/null
  done
  vm_after="$(awk '/^VmSize:/ {print $2}' "/proc/${pid}/status")"
  echo "-- sqleqd VmSize ${vm_before} -> ${vm_after} KiB"
  if [ "$((vm_after - vm_before))" -ge $((100 * 1024)) ]; then
    echo "sqleqd VmSize grew by 100 MiB or more across 100 closed connections"
    exit 1
  fi

  echo "-- draining (SIGTERM)"
  kill -TERM "${pid}"
  local rc=0
  wait "${pid}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "sqleqd exited with rc=${rc}:"
    cat "${log}"
    exit 1
  fi
  grep -Fq "sqleqd stopped" "${log}" \
      || { echo "no clean shutdown line:"; cat "${log}"; exit 1; }
  grep -Fq 'sqleq_service_requests' "${metrics}" \
      || { echo "--metrics-out export missing service counters:"; cat "${metrics}"; exit 1; }

  rm -rf "${workdir}"
  echo "service-smoke OK"
}

crash_smoke() {
  local build_dir="${1:-build}"

  echo "== configure =="
  cmake -B "${build_dir}" -S .

  echo "== build (daemon + client) =="
  cmake --build "${build_dir}" -j "$(nproc)" --target sqleqd sqleq_client

  echo "== crash-recovery smoke =="
  local workdir
  workdir="$(mktemp -d)"
  local memo_dir="${workdir}/memo"
  local port_file="${workdir}/port"
  local log="${workdir}/sqleqd.log"

  start_daemon() {
    : > "${port_file}"
    "${build_dir}/tools/sqleqd" --port 0 --port-file "${port_file}" \
        --memo-dir "${memo_dir}" >> "${log}" 2>&1 &
    DAEMON_PID=$!
    local i
    for i in $(seq 1 100); do
      [ -s "${port_file}" ] && break
      sleep 0.05
    done
    if [ ! -s "${port_file}" ]; then
      echo "sqleqd did not report a port:"
      cat "${log}"
      exit 1
    fi
    DAEMON_PORT="$(cat "${port_file}")"
  }

  cat > "${workdir}/warmup.jsonl" <<'EOF'
{"id":"w1","cmd":"relation","name":"r","arity":2}
{"id":"w2","cmd":"relation","name":"s","arity":1}
{"id":"w3","cmd":"dep","text":"r(X, Y) -> s(X).","label":"fk"}
{"id":"w4","cmd":"check","q1":"Q(X) :- r(X, Y), s(X).","q2":"Q(X) :- r(X, Y).","semantics":"set"}
EOF
  cat > "${workdir}/warm.jsonl" <<'EOF'
{"id":"c1","cmd":"relation","name":"r","arity":2}
{"id":"c2","cmd":"relation","name":"s","arity":1}
{"id":"c3","cmd":"dep","text":"r(X, Y) -> s(X).","label":"fk"}
{"id":"c4","cmd":"stats"}
{"id":"c5","cmd":"check","q1":"Q(X) :- r(X, Y), s(X).","q2":"Q(X) :- r(X, Y).","semantics":"set"}
EOF

  start_daemon
  echo "-- sqleqd up on port ${DAEMON_PORT} (pid ${DAEMON_PID}); warming the memo"
  "${build_dir}/tools/sqleq-client" --port "${DAEMON_PORT}" \
      --retries 2 --backoff-ms 10 \
      --file "${workdir}/warmup.jsonl" > "${workdir}/warmup_responses.jsonl"
  grep -Fq '"verdict":"equivalent"' "${workdir}/warmup_responses.jsonl" \
      || { echo "warmup check failed:"; cat "${workdir}/warmup_responses.jsonl"; exit 1; }

  echo "-- SIGKILL (no drain, no warning)"
  kill -KILL "${DAEMON_PID}"
  wait "${DAEMON_PID}" 2>/dev/null || true

  echo "-- restart on the same --memo-dir"
  start_daemon
  local responses="${workdir}/warm_responses.jsonl"
  "${build_dir}/tools/sqleq-client" --port "${DAEMON_PORT}" \
      --retries 2 --backoff-ms 10 \
      --file "${workdir}/warm.jsonl" > "${responses}"

  grep -Eq '"recovered":[1-9]' "${responses}" \
      || { echo "restart recovered nothing from the memo dir:"; cat "${responses}"; exit 1; }
  grep -Fq '"verdict":"equivalent"' "${responses}" \
      || { echo "post-restart check lost the verdict:"; cat "${responses}"; exit 1; }
  grep -Eq '"memo\.disk\.hits":[1-9]' "${responses}" \
      || { echo "post-restart check re-chased instead of hitting the disk tier:"; \
           cat "${responses}"; exit 1; }

  kill -TERM "${DAEMON_PID}"
  local rc=0
  wait "${DAEMON_PID}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "sqleqd exited with rc=${rc} after drain:"
    cat "${log}"
    exit 1
  fi

  rm -rf "${workdir}"
  echo "crash-smoke OK"
}

workload_smoke() {
  local build_dir="${1:-build}"

  echo "== configure =="
  cmake -B "${build_dir}" -S .

  echo "== build (daemon + replay driver + bench + regress checker) =="
  cmake --build "${build_dir}" -j "$(nproc)" --target sqleqd sqleq_replay \
      bench_workload_e2e check_bench_regress

  echo "== workload smoke =="
  local workdir
  workdir="$(mktemp -d)"
  local port_file="${workdir}/port"
  local log="${workdir}/sqleqd.log"

  "${build_dir}/tools/sqleqd" --port 0 --port-file "${port_file}" \
      > "${log}" 2>&1 &
  local pid=$!

  local i
  for i in $(seq 1 100); do
    [ -s "${port_file}" ] && break
    sleep 0.05
  done
  if [ ! -s "${port_file}" ]; then
    echo "sqleqd did not report a port:"
    cat "${log}"
    exit 1
  fi
  local port
  port="$(cat "${port_file}")"
  echo "-- sqleqd up on port ${port} (pid ${pid})"

  echo "-- replaying a 200-query corpus (overlap 0.5) through the daemon"
  "${build_dir}/tools/sqleq-replay" --template warehouse --queries 200 \
      --overlap 0.5 --seed 1 --port "${port}" --assert-tolerance 0.10 \
      || { echo "replay hit rate outside tolerance"; cat "${log}"; exit 1; }

  echo "-- draining (SIGTERM)"
  kill -TERM "${pid}"
  local rc=0
  wait "${pid}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "sqleqd exited with rc=${rc}:"
    cat "${log}"
    exit 1
  fi

  echo "-- bench_workload_e2e regression vs committed baseline"
  if [ -f "BENCH_workload_e2e.json" ]; then
    # Run in the temporary directory: the smoke run is not a new baseline.
    local build_abs
    build_abs="$(cd "${build_dir}" && pwd)"
    (cd "${workdir}" && SQLEQ_BENCH_ITERS=1 "${build_abs}/bench/bench_workload_e2e")
    "${build_dir}/tools/check_bench_regress" \
        "${workdir}/BENCH_workload_e2e.json" "BENCH_workload_e2e.json" 1.5
  else
    echo "-- no committed BENCH_workload_e2e.json, skipping regress gate"
  fi

  rm -rf "${workdir}"
  echo "workload-smoke OK"
}

fleet_smoke() {
  local build_dir="${1:-build}"

  echo "== configure =="
  cmake -B "${build_dir}" -S .

  echo "== build (daemon + fleet launcher + client) =="
  cmake --build "${build_dir}" -j "$(nproc)" --target sqleqd sqleq_client sqleq_fleet

  echo "== fleet smoke =="
  local workdir
  workdir="$(mktemp -d)"
  local fleet_file="${workdir}/fleet.spec"
  local pids_file="${workdir}/fleet.pids"
  local fleet_log="${workdir}/fleet.log"

  "${build_dir}/tools/sqleq-fleet" --shards 3 --restart \
      --memo-root "${workdir}/memo" \
      --fleet-file "${fleet_file}" --pids-file "${pids_file}" \
      > "${fleet_log}" 2>&1 &
  local fleet_pid=$!

  local i
  for i in $(seq 1 100); do
    grep -Fq "up with 3 shard(s)" "${fleet_log}" 2>/dev/null && break
    sleep 0.05
  done
  grep -Fq "up with 3 shard(s)" "${fleet_log}" \
      || { echo "fleet did not come up:"; cat "${fleet_log}"; exit 1; }
  local spec
  spec="$(cat "${fleet_file}")"
  echo "-- fleet up: ${spec}"

  # No bare hello lines here: a legacy hello (no max_protocol) would drop
  # the negotiated session back to v1 and disable redirects (docs/fleet.md).
  local checks="${workdir}/checks.jsonl"
  : > "${checks}"
  local v
  for v in 0 1 2 3 4 5; do
    cat >> "${checks}" <<EOF
{"id":"r${v}","cmd":"relation","name":"r${v}","arity":2}
{"id":"d${v}","cmd":"dep","text":"r${v}(X, Y) -> s(X).","label":"fk${v}"}
EOF
  done
  echo '{"id":"s","cmd":"relation","name":"s","arity":1}' >> "${checks}"
  for v in 0 1 2 3 4 5; do
    cat >> "${checks}" <<EOF
{"id":"c${v}","cmd":"check","q1":"Q(X) :- r${v}(X, Y), s(X).","q2":"Q(X) :- r${v}(X, Y).","semantics":"set"}
EOF
  done

  echo "-- single-node baseline"
  local port_file="${workdir}/solo.port"
  local solo_log="${workdir}/solo.log"
  "${build_dir}/tools/sqleqd" --port 0 --port-file "${port_file}" \
      > "${solo_log}" 2>&1 &
  local solo_pid=$!
  for i in $(seq 1 100); do
    [ -s "${port_file}" ] && break
    sleep 0.05
  done
  [ -s "${port_file}" ] || { echo "baseline sqleqd has no port:"; cat "${solo_log}"; exit 1; }
  "${build_dir}/tools/sqleq-client" --port "$(cat "${port_file}")" \
      --file "${checks}" > "${workdir}/solo.jsonl"
  kill -TERM "${solo_pid}"; wait "${solo_pid}" || true
  grep -o '"verdict":"[a-z-]*"' "${workdir}/solo.jsonl" > "${workdir}/solo.verdicts"
  [ -s "${workdir}/solo.verdicts" ] \
      || { echo "baseline produced no verdicts:"; cat "${workdir}/solo.jsonl"; exit 1; }

  echo "-- fleet traffic through the redirect path (--route first)"
  "${build_dir}/tools/sqleq-client" --shards "${spec}" --route first \
      --retries 6 --backoff-ms 50 \
      --file "${checks}" > "${workdir}/fleet.jsonl"
  grep -o '"verdict":"[a-z-]*"' "${workdir}/fleet.jsonl" > "${workdir}/fleet.verdicts"
  diff "${workdir}/solo.verdicts" "${workdir}/fleet.verdicts" \
      || { echo "fleet verdicts differ from the single node"; exit 1; }

  echo "-- legacy v1 client pinned to shard 0"
  # A v1 session is never redirected: shard 0 answers every check from its
  # own memo or a local chase, including the checks another shard owns, and
  # must match the single node.
  "${build_dir}/tools/sqleq-client" --shards "${spec}" --route first \
      --max-protocol 1 --retries 6 --backoff-ms 50 \
      --file "${checks}" > "${workdir}/v1.jsonl"
  grep -o '"verdict":"[a-z-]*"' "${workdir}/v1.jsonl" > "${workdir}/v1.verdicts"
  diff "${workdir}/solo.verdicts" "${workdir}/v1.verdicts" \
      || { echo "v1 client verdicts differ from the single node"; exit 1; }

  echo "-- SIGKILL shard1, await supervised restart"
  local shard1_pid
  shard1_pid="$(sed -n '2p' "${pids_file}")"
  kill -KILL "${shard1_pid}"
  for i in $(seq 1 100); do
    grep -Fq "restarted shard1" "${fleet_log}" 2>/dev/null && break
    sleep 0.05
  done
  grep -Fq "restarted shard1" "${fleet_log}" \
      || { echo "supervisor did not restart shard1:"; cat "${fleet_log}"; exit 1; }

  echo "-- fleet traffic again after the restart"
  "${build_dir}/tools/sqleq-client" --shards "${spec}" --route first \
      --retries 6 --backoff-ms 50 \
      --file "${checks}" > "${workdir}/after.jsonl"
  grep -o '"verdict":"[a-z-]*"' "${workdir}/after.jsonl" > "${workdir}/after.verdicts"
  diff "${workdir}/solo.verdicts" "${workdir}/after.verdicts" \
      || { echo "post-restart fleet verdicts differ from the single node"; exit 1; }

  echo "-- fleet stats rollup"
  echo '{"id":"st","cmd":"stats"}' > "${workdir}/stats.jsonl"
  "${build_dir}/tools/sqleq-client" --shards "${spec}" \
      --retries 6 --backoff-ms 50 \
      --file "${workdir}/stats.jsonl" > "${workdir}/stats.out"
  grep -Fq '"fleet":true' "${workdir}/stats.out" \
      || { echo "stats is not a fleet rollup:"; cat "${workdir}/stats.out"; exit 1; }
  # --route first forced every check to shard 0; the ones it does not own
  # show up in its server-lifetime redirect counter (per_shard detail).
  grep -Eq '"redirects":[1-9]' "${workdir}/stats.out" \
      || { echo "no not_owner redirects were served:"; cat "${workdir}/stats.out"; exit 1; }

  echo "-- draining the fleet (SIGTERM)"
  kill -TERM "${fleet_pid}"
  local rc=0
  wait "${fleet_pid}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "sqleq-fleet exited with rc=${rc}:"
    cat "${fleet_log}"
    exit 1
  fi
  grep -Fq "sqleq-fleet: stopped" "${fleet_log}" \
      || { echo "no clean fleet shutdown line:"; cat "${fleet_log}"; exit 1; }

  rm -rf "${workdir}"
  echo "fleet-smoke OK"
}

e2ebench_smoke() {
  echo "== e2ebench smoke (2 s per run) =="
  local workload trace
  for workload in check-resident check-spill reformulate; do
    for trace in 0 1; do
      echo "-- ${workload} --trace ${trace}"
      python3 e2ebench/run.py --workload "${workload}" --seed 1 --seconds 2 \
          --trace "${trace}" \
          || { echo "e2ebench ${workload} --trace ${trace} failed"; exit 1; }
    done
  done
  echo "e2ebench-smoke OK"
}

# Lints every example script, gating each on its expected sqleq-lint exit
# code (0 clean / 1 warnings-only / 2 errors). Scripts that intentionally
# carry diagnostics declare their expected code in
# examples/scripts/lint_expected.txt as "<file> <code>"; everything else
# must be clean (exit 0).
lint_smoke() {
  local build_dir="${1:-build}"
  local manifest="examples/scripts/lint_expected.txt"
  local script rc expected
  for script in examples/scripts/*.sqleq; do
    expected=0
    if [ -f "${manifest}" ]; then
      local line
      line="$(grep -E "^$(basename "${script}")[[:space:]]" "${manifest}" || true)"
      [ -n "${line}" ] && expected="$(echo "${line}" | awk '{print $2}')"
    fi
    rc=0
    "${build_dir}/tools/sqleq-lint" "${script}" > /dev/null || rc=$?
    if [ "${rc}" -ne "${expected}" ]; then
      echo "sqleq-lint ${script}: exit ${rc}, expected ${expected}"
      "${build_dir}/tools/sqleq-lint" "${script}" || true
      exit 1
    fi
    echo "-- $(basename "${script}"): exit ${rc} (expected ${expected})"
  done
}

if [ "${1:-}" = "bench-smoke" ]; then
  shift
  bench_smoke "$@"
  exit 0
fi

if [ "${1:-}" = "service-smoke" ]; then
  shift
  service_smoke "$@"
  exit 0
fi

if [ "${1:-}" = "crash-smoke" ]; then
  shift
  crash_smoke "$@"
  exit 0
fi

if [ "${1:-}" = "fleet-smoke" ]; then
  shift
  fleet_smoke "$@"
  exit 0
fi

if [ "${1:-}" = "workload-smoke" ]; then
  shift
  workload_smoke "$@"
  exit 0
fi

if [ "${1:-}" = "e2ebench-smoke" ]; then
  shift
  e2ebench_smoke
  exit 0
fi

BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "${BUILD_DIR}" -S .

echo "== build =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo "== build e2ebench (compile only) =="
cmake -B "${BUILD_DIR}-e2ebench" -S e2ebench
cmake --build "${BUILD_DIR}-e2ebench" -j "$(nproc)" --target e2ebench sqleqd

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j

echo "== fault/anytime suite =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j -L fault

echo "== clang-tidy =="
tools/lint.sh "${BUILD_DIR}"

echo "== lint smoke (examples/scripts) =="
lint_smoke "${BUILD_DIR}"

echo "CI OK"
