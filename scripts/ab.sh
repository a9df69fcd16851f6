#!/usr/bin/env bash
# Same-session A/B pairs of the repository benchmark.
#
#   scripts/ab.sh <parent> <change> <workload> [pairs] [seconds] [seed]
#
# Exports both revisions with `git archive` into a temporary directory,
# builds each with its own `python3 perfbench/run.py`, then runs `pairs`
# pairs (default 10) of `seconds`-second runs (default 20) at `seed`
# (default 42). Each pair runs both sides back to back and alternates which
# side goes first. It prints, per side, the median and quartiles of every
# end-to-end metric BENCHMARK.json declares, then for each metric the number
# of pairs the change won. Exits non-zero when a run fails or reports
# `correct: false`.
#
# Revisions are anything `git archive` accepts. To compare uncommitted work,
# stage it and pass `$(git stash create)` as <change>. Nothing is written
# inside the checkout; no leg of scripts/check.sh runs this.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 6 ]]; then
  echo "usage: $0 <parent> <change> <workload> [pairs] [seconds] [seed]" >&2
  exit 2
fi
parent="$1"
change="$2"
workload="$3"
pairs="${4:-10}"
seconds="${5:-20}"
seed="${6:-42}"

root="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for side in parent change; do
  rev="${!side}"
  mkdir -p "$work/$side"
  git -C "$root" archive "$rev" | tar -x -C "$work/$side"
done

# One run of one side; its last stdout line (the result object) is appended
# to that side's results file. Each export builds into its own .bench_build.
run_side() {
  local side="$1" secs="$2" out
  out="$(cd "$work/$side" && env -u CARGO_TARGET_DIR python3 perfbench/run.py \
    --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0 \
    2>>"$work/$side.log" | tail -n 1)" || {
    echo "ab: $side run failed; see its build and run log:" >&2
    tail -n 20 "$work/$side.log" >&2
    exit 1
  }
  echo "$out" >> "$work/$side.jsonl"
}

echo "ab: building both sides (one short run each, not counted)"
for side in parent change; do
  run_side "$side" 1
  mv "$work/$side.jsonl" "$work/$side.warmup.jsonl"
done

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do run_side "$side" "$seconds"; done
  echo "ab: pair $((i + 1))/$pairs done ($order)"
done

python3 - "$work" "$root/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

work, spec_path, workload = sys.argv[1:4]
with open(spec_path) as handle:
    metrics = json.load(handle)["end_to_end"]


def load(side):
    with open(f"{work}/{side}.jsonl") as handle:
        return [json.loads(line) for line in handle if line.strip()]


runs = {side: load(side) for side in ("parent", "change")}
bad = [(side, i) for side, results in runs.items()
       for i, result in enumerate(results) if not result.get("correct")]

print(f"workload {workload}: {len(runs['parent'])} pairs")
for metric in metrics:
    name = metric["name"]
    print(f"{name} ({metric['unit']}, {metric['better']} is better)")
    values = {}
    for side, results in runs.items():
        values[side] = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values[side], n=4,
                                              method="inclusive")
        print(f"  {side:<6} median {median:.6g}  quartiles {q1:.6g} .. "
              f"{q3:.6g}")
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(1 for p, c in zip(values["parent"], values["change"])
              if sign * (c - p) > 0)
    print(f"  change won {won} of {len(values['parent'])} pairs")
for side, i in bad:
    print(f"run {i + 1} of {side} was not correct", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
