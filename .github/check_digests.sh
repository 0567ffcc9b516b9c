#!/usr/bin/env bash
# Byte-identity gate: the seed-7 and seed-13 output digests of every benchmark
# workload must equal the values recorded below.  The values were made with
# numpy 2.4.6 (no workload imports scipy); another numpy may move them.  A change that
# fixes a defect and moves the outputs updates them and says so in CHANGES.md.
# The traced seed-7 runs of the phantom workloads must also make the recorded
# numbers of specialist predict and generalist segment calls, and the traced
# seed-7 file-exchange run the recorded number of requests and of NIfTI writes
# (each scan image is written once per exchange; later requests link to it).
#
# Reads the `digest` line, and for seed 7 the per-layer count lines named
# below, of each run's saved output,
# <dir>/<workload>.seed<seed>.txt, as written by:
#   python3 perfbench/run.py --workload <workload> --seed <seed> --seconds 1 [--trace 1]
# Run from the repository root:  bash .github/check_digests.sh <dir>
set -euo pipefail

dir=${1:?usage: check_digests.sh <dir holding <workload>.seed<7|13>.txt for desk, ct, file-exchange>}

declare -A expected=(
  [desk.seed7]=f77fe3733b82c2215d66bf890f6c11f32d9b18465dfcf80e5d35bf0f2ea24224
  [ct.seed7]=ce606ec4f57009d7fe8a876c60dabc70f491fe810f84453c9de6fb45f165fcce
  [file-exchange.seed7]=e1548ed1a7a8baa695301f708d14895d978f1f1dc38ba3c9cdee8d2fc0cd90c5
  [desk.seed13]=93cba18a9e81e48cfe118304ab3647a2757e1ca44bdcb5b46f14e2c186b86b17
  [ct.seed13]=49c2a7dfeb87b214c5bcb96f4fd2280b27e04e47106d89d656aecf1fce3efa54
  [file-exchange.seed13]=ea01fa25d23d715a6f0c41c6613144f57374e320d2166848cb2862d4cdf57cf6
)

# run, a per-layer count metric and the count it must read
counts=("desk.seed7 oracles.predict_calls 85" "desk.seed7 oracles.segment_calls 163"
        "ct.seed7 oracles.predict_calls 9" "ct.seed7 oracles.segment_calls 8"
        "file-exchange.seed7 file_oracle.requests 48"
        "file-exchange.seed7 nifti_io.write_calls 64")

status=0
for seed in 7 13; do
  for workload in desk ct file-exchange; do
    run=$workload.seed$seed
    got=$(sed -n 's/^digest //p' "$dir/$run.txt" 2>/dev/null || true)
    if [ "$got" = "${expected[$run]}" ]; then
      echo "$run digest $got ok"
    else
      echo "$run digest '$got' differs from ${expected[$run]}"
      status=1
    fi
  done
done
for entry in "${counts[@]}"; do
  read -r run metric count <<<"$entry"
  got=$(sed -n "s/^${metric//./\\.} \([0-9]*\) count\$/\1/p" "$dir/$run.txt" 2>/dev/null || true)
  if [ "$got" = "$count" ]; then
    echo "$run $metric $got ok"
  else
    echo "$run $metric '$got' differs from $count"
    status=1
  fi
done
exit "$status"
