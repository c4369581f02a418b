#!/usr/bin/env bash
# Builds the suite under ThreadSanitizer and AddressSanitizer (separate
# build trees — the two instrumentations cannot share one) and runs the
# robustness test label in each. The governor's error paths are exactly
# the ones data races and use-after-free hide in: cross-thread
# cancellation, lane-error propagation out of the pool, rollback after a
# mid-round abort, stalled lanes woken by a cancel.
#
# The cache label rides along by default: the result cache's sharded LRU
# and the view catalog's refresh-on-serve are exactly the structures
# concurrent queries hammer.
#
# The robustness label also carries server_test — the Server/Session
# epoch-snapshot suite, including its 1-writer/4-reader concurrency
# tests. The TSan lane is the proof behind DESIGN §11's claim that
# sessions share no mutable state with the committing writer.
#
# The profile label (profile_test) rides along too: EXPLAIN ANALYZE
# counters are accumulated per (task, partition) across worker lanes and
# folded at merge time — the TSan lane checks that the instrumentation
# added no cross-lane writes.
#
# The durability label (durability_test) rounds out the set: WAL append,
# checkpoint write, and recovery shuffle raw bytes through hand-rolled
# codecs — exactly where ASan finds the off-by-ones, and the durable
# commit path interleaves with session reads under TSan.
#
# The net label (net_test) joins them: the TCP front end runs one
# handler thread per connection against the Server's writer mutex, and
# Stop() tears all of them down mid-request — connection threads vs the
# committing writer is precisely a TSan workload, and the frame codecs
# shuffling length-prefixed bytes are an ASan one.
#
# The kernels label (tc_test, rpq_test, dfa_test) covers the closure and
# RPQ kernels: ColumnarTransitiveClosure is the only multi-lane closure,
# and its 1- and 4-lane corpus runs are where a lane race would show
# under TSan; the bitset frontiers and CSR spans are index arithmetic
# ASan checks.
#
# Usage: scripts/run_sanitizer_lanes.sh [LABEL] [BUILD_ROOT]
# Defaults: LABEL = 'robustness|cache|profile|durability|net|kernels' (a
# ctest -L regex), BUILD_ROOT = build-san (creates ${BUILD_ROOT}-thread
# and ${BUILD_ROOT}-address).

set -euo pipefail

LABEL="${1:-robustness|cache|profile|durability|net|kernels}"
BUILD_ROOT="${2:-build-san}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

for san in thread address; do
  dir="${BUILD_ROOT}-${san}"
  echo "== ${san} sanitizer lane (${dir}, label '${LABEL}')"
  cmake -S "${SRC_DIR}" -B "${dir}" -DGRAPHLOG_SANITIZE="${san}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${dir}" -j"${JOBS}" >/dev/null
  (cd "${dir}" && ctest -L "${LABEL}" --output-on-failure)
  echo "== ${san} lane clean"
done
echo "both sanitizer lanes clean on label '${LABEL}'"
