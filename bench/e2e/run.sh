#!/usr/bin/env bash
# Builds the end-to-end graphlogd benchmark and runs it.
#
#   bench/e2e/run.sh [--workload lookup,closure,ingest] [--seed N]
#                    [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
#
# Every argument goes to graphlog_e2e unchanged; see bench/e2e/README.md.
# The build goes to $CARGO_TARGET_DIR (default .bench_build in the
# repository root): the top-level CMake tree, unmodified, built as a
# subproject of bench/e2e in its default RelWithDebInfo type, limited to
# graphlogd and graphlog_e2e. Work files (fact files, durable stores,
# trace spans) go to $CARGO_TARGET_DIR/e2e-work.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src/net" ]]; then
  echo "run.sh: no GraphLog source tree at $root" >&2
  exit 2
fi

out_root="$(realpath -m "${CARGO_TARGET_DIR:-$root/.bench_build}")"
build="$out_root/e2e"
log="$out_root/e2e-build.log"
mkdir -p "$out_root"
jobs="$(nproc)"
(( jobs > 4 )) && jobs=4

if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo; } \
       > "$log" 2>&1 ||
   ! cmake --build "$build" --target graphlog_e2e -j "$jobs" >> "$log" 2>&1; then
  echo "run.sh: build failed; last lines of $log:" >&2
  tail -n 30 "$log" >&2
  exit 2
fi

rev=unknown
dirty=unknown
if git -C "$root" rev-parse --git-dir > /dev/null 2>&1; then
  rev="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    dirty=1
  else
    dirty=0
  fi
fi
source_sha="$(cd "$root" &&
              find CMakeLists.txt src bench/e2e -type f \
                \( -name '*.cc' -o -name '*.h' -o -name CMakeLists.txt \) \
                -print0 | sort -z | xargs -0 sha256sum | sha256sum |
              cut -c1-64)"

exec "$build/graphlog_e2e" \
  --graphlogd "$build/graphlog/src/net/graphlogd" \
  --workdir "$out_root/e2e-work" \
  --rev "$rev" --dirty "$dirty" --source-sha256 "$source_sha" \
  "$@"
