#!/usr/bin/env bash
# Alternating-pair timing of two built checkouts of the simulator.
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N
#
# Runs each checkout's already-built build/sim-perf/sim_perf (build it with
# `bash bench/perf/run.sh --quick` in that checkout) N times as
#   sim_perf --workload WORKLOAD --seconds <run_seconds> --trace 0
# from the checkout's root, in N pairs: odd pairs run the parent first,
# even pairs the change. For every pair it prints each end-to-end metric
# of BENCHMARK.json with both values and the side it favours; at the end,
# per metric, each side's median and quartiles over its N runs and how
# many pairs each side won (ties count for neither). A run whose checks
# fail is reported and makes the exit status 1.
#
# The metric list, each metric's direction and the run length come from
# CHANGE_DIR/BENCHMARK.json; the parent's file must give the same run
# length. The script only reads what sim_perf prints: the last line of
# its standard output, one JSON object holding the metrics.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N" >&2
  exit 2
}
(($# == 4)) || usage
[[ $4 =~ ^[1-9][0-9]*$ ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4

for dir in "$parent" "$change"; do
  if [[ ! -x $dir/build/sim-perf/sim_perf || ! -f $dir/BENCHMARK.json ]]; then
    echo "ab_pairs.sh: $dir has no BENCHMARK.json or no built" \
      "build/sim-perf/sim_perf" >&2
    exit 2
  fi
done
spec=$(jq -c . "$change/BENCHMARK.json")
seconds=$(jq -r .run_seconds <<<"$spec")
if [[ $(jq -r .run_seconds "$parent/BENCHMARK.json") != "$seconds" ]]; then
  echo "ab_pairs.sh: the two checkouts' run_seconds differ" >&2
  exit 2
fi

results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT
status=0

# run_side SIDE DIR: one sim_perf run; appends its result line to
# $results/SIDE.jsonl.
run_side() {
  local side=$1 dir=$2 out line
  if ! out=$(cd "$dir" && build/sim-perf/sim_perf --workload "$workload" \
      --seconds "$seconds" --trace 0); then
    echo "ab_pairs.sh: $side run failed in $dir" >&2
    status=1
  fi
  line=$(tail -n 1 <<<"$out")
  if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null \
      2>&1; then
    echo "ab_pairs.sh: $side run reports failed checks: $line" >&2
    status=1
  fi
  jq -c . <<<"$line" >>"$results/$side.jsonl"
}

# Prints stdin with every decimal fraction cut to 4 significant digits.
short_numbers() {
  awk '{
    out = ""; s = $0
    while (match(s, /[0-9]+\.[0-9]+(e[-+]?[0-9]+)?/)) {
      out = out substr(s, 1, RSTART - 1) \
            sprintf("%.4g", substr(s, RSTART, RLENGTH))
      s = substr(s, RSTART + RLENGTH)
    }
    print out s
  }'
}

echo "workload $workload, $pairs pairs of ${seconds}-s runs"
echo "parent $parent"
echo "change $change"
for ((i = 1; i <= pairs; ++i)); do
  if ((i % 2 == 1)); then
    first=parent
    run_side parent "$parent"
    run_side change "$change"
  else
    first=change
    run_side change "$change"
    run_side parent "$parent"
  fi
  jq -rn --argjson spec "$spec" --arg i "$i" --arg first "$first" \
    --argjson p "$(tail -n 1 "$results/parent.jsonl")" \
    --argjson c "$(tail -n 1 "$results/change.jsonl")" '
    $spec.end_to_end[] as $m
    | ($p.metrics[$m.name].value) as $a
    | ($c.metrics[$m.name].value) as $b
    | (if $a == $b then "tie"
       elif ($m.better == "higher") == ($b > $a) then "change"
       else "parent" end) as $won
    | "pair \($i) (\($first) first)\t\($m.name)\tparent \($a)\tchange \($b)\t\($won)"' |
    short_numbers
done

echo
echo "summary over $pairs pairs (median [q1, q3]; change/parent of the medians)"
jq -rn --argjson spec "$spec" \
  --slurpfile p "$results/parent.jsonl" \
  --slurpfile c "$results/change.jsonl" '
  # Linear-interpolation quantile of a sorted array.
  def q($f): ((length - 1) * $f) as $h | ($h | floor) as $lo
    | if $lo + 1 < length then .[$lo] + ($h - $lo) * (.[$lo + 1] - .[$lo])
      else .[$lo] end;
  def stats: sort | "\(q(0.5)) [\(q(0.25)), \(q(0.75))]";
  $spec.end_to_end[] as $m
  | [$p[] | .metrics[$m.name].value] as $a
  | [$c[] | .metrics[$m.name].value] as $b
  | [range(0; $a | length)
     | if $a[.] == $b[.] then "tie"
       elif ($m.better == "higher") == ($b[.] > $a[.]) then "change"
       else "parent" end] as $won
  | "\($m.name) (\($m.unit), \($m.better) is better)\tparent \($a | stats)\tchange \($b | stats)\tratio \(($b | sort | q(0.5)) / ($a | sort | q(0.5)))\twins parent \([$won[] | select(. == "parent")] | length) change \([$won[] | select(. == "change")] | length)"' |
  short_numbers
exit "$status"
