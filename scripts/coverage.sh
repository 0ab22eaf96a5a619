#!/usr/bin/env bash
# Per-module line coverage of src/ under the test suite, read with plain gcov
# (no gcovr or lcov needed).
#
# Usage: scripts/coverage.sh [--no-build] [ctest arguments...]
#   Configures and builds the `coverage` preset (gcc --coverage -O0) into
#   build-coverage/, deletes the counters of earlier runs, runs ctest and
#   prints one row per src/ module: instrumented lines, executed lines and
#   their ratio. A line counts as executed when any translation unit ran it
#   (headers included from several objects are merged line by line).
#   --no-build    reuse build-coverage/ as it is
#   e.g. scripts/coverage.sh -R 'test_opt|test_core'
#
# This is a report, not a gate: the exit status is ctest's, whatever the
# figures are.
set -euo pipefail

cd "$(dirname "$0")/.."

build=1
if [[ "${1:-}" == "--no-build" ]]; then
  build=0
  shift
fi

jobs="$(nproc 2>/dev/null || echo 2)"

if [[ $build == 1 ]]; then
  cmake --preset coverage
  cmake --build --preset coverage -j "$jobs"
fi

find build-coverage -name '*.gcda' -delete
status=0
ctest --preset coverage -j "$jobs" --timeout 1800 "$@" || status=$?

python3 - "$PWD" <<'PY'
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

root = os.path.realpath(sys.argv[1])
src = os.path.join(root, "src") + os.sep
build = os.path.join(root, "build-coverage")

# file -> line -> executed in any translation unit
lines = defaultdict(dict)
with tempfile.TemporaryDirectory() as scratch:
    for dirpath, _, names in os.walk(build):
        gcdas = [os.path.join(dirpath, n) for n in names if n.endswith(".gcda")]
        if not gcdas:
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory", dirpath] + gcdas,
            cwd=scratch, capture_output=True, text=True, check=False).stdout
        for doc in out.splitlines():
            doc = doc.strip()
            if not doc.startswith("{"):
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", "")
            for f in data.get("files", []):
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                per_line = lines[path]
                for line in f.get("lines", []):
                    n = line["line_number"]
                    per_line[n] = per_line.get(n, False) or line["count"] > 0

modules = defaultdict(lambda: [0, 0])
for path, per_line in lines.items():
    module = os.path.relpath(path, src).split(os.sep)[0]
    modules[module][0] += len(per_line)
    modules[module][1] += sum(per_line.values())

print(f"{'module':<10} {'lines':>7} {'executed':>9} {'coverage':>9}")
total = [0, 0]
for module in sorted(modules):
    n, hit = modules[module]
    total[0] += n
    total[1] += hit
    print(f"{module:<10} {n:>7} {hit:>9} {100.0 * hit / max(n, 1):>8.1f}%")
print(f"{'total':<10} {total[0]:>7} {total[1]:>9} {100.0 * total[1] / max(total[0], 1):>8.1f}%")
PY

exit "$status"
