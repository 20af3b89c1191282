#!/usr/bin/env bash
# Builds the benchmark and runs one set of runs, or compares two sets.
#
#   benchmark/run.sh [--runs N] [--set NAME] [--trace]
#       Build --offline --locked, then run every workload N times
#       (default 3), each run with another seed. Result lines go to
#       benchmark/out/sets/NAME/<workload>.jsonl (NAME defaults to the
#       time of day) and medians and quartiles to .../NAME/summary.json.
#   benchmark/run.sh --compare A/summary.json B/summary.json
#       Exit nonzero when an end-to-end metric differs between the two
#       sets by more than its bound.
#
# To compare two commits, alternate them (see README.md): one set per
# commit proves nothing on a machine this noisy.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=3
set_name="$(date +%H%M%S)"
trace=0
compare=()
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --set) set_name="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --compare) compare=("$2" "$3"); shift 3 ;;
        *) sed -n '2,15p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --locked --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/xorbas_benchmark"

if [ ${#compare[@]} -eq 2 ]; then
    exec "$bin" --compare "${compare[0]}" "${compare[1]}"
fi

out="$here/out/sets/$set_name"
mkdir -p "$out"
workloads=(put_stream read_mix repair_drain codec_stream sim_warehouse sim_serving)
for w in "${workloads[@]}"; do : > "$out/$w.jsonl"; done
for ((i = 0; i < runs; i++)); do
    for w in "${workloads[@]}"; do
        echo "run $((i + 1))/$runs of $w" >&2
        "$bin" --workload "$w" --seed $((20130826 + i)) --trace "$trace" | tee "$out/$w.log" | tail -n 1 >> "$out/$w.jsonl"
    done
done
"$bin" --summarize "$out" > "$out/summary.json"
echo "wrote $out/summary.json" >&2
