#!/bin/sh
# Run every workload of BENCHMARK.json for one seed, from the checkout root:
#   sh perfbench/all.sh SEED [TRACE]
set -e
seed="${1:?usage: sh perfbench/all.sh SEED [TRACE]}"
python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], *(w["name"] for w in b["workloads"]))' | {
    read -r seconds workloads
    for workload in $workloads; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "${2:-0}"
    done
}
