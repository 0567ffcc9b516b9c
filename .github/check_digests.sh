#!/usr/bin/env bash
# Byte-identity gate: the seed-7 output digest of every benchmark workload must
# equal the value recorded below.  The values were made with numpy 2.4.6 and
# scipy 1.17.1; other versions may move them.  A change that fixes a defect
# and moves the outputs updates them and says so in CHANGES.md.
#
# Reads the `digest` line of each workload's saved output, <dir>/<workload>.txt,
# as written by:  python3 perfbench/run.py --workload <workload> --seed 7 --seconds 1
# Run from the repository root:  bash .github/check_digests.sh <dir>
set -euo pipefail

dir=${1:?usage: check_digests.sh <dir holding desk.txt, ct.txt, file-exchange.txt>}

declare -A expected=(
  [desk]=f77fe3733b82c2215d66bf890f6c11f32d9b18465dfcf80e5d35bf0f2ea24224
  [ct]=ce606ec4f57009d7fe8a876c60dabc70f491fe810f84453c9de6fb45f165fcce
  [file-exchange]=e1548ed1a7a8baa695301f708d14895d978f1f1dc38ba3c9cdee8d2fc0cd90c5
)

status=0
for workload in desk ct file-exchange; do
  got=$(sed -n 's/^digest //p' "$dir/$workload.txt" 2>/dev/null || true)
  if [ "$got" = "${expected[$workload]}" ]; then
    echo "$workload digest $got ok"
  else
    echo "$workload digest '$got' differs from ${expected[$workload]}"
    status=1
  fi
done
exit "$status"
