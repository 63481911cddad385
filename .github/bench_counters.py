"""Check the newest committed BENCH_*.json's exact counters on fresh runs.

Each BENCH_<n>.json at the repository root records, besides timing
medians, counters that are exact per seed: simulator events and
datagrams, the mean virtual loop delay, the planner's objective sum and
work counters, and the serving workload's wire bytes and encodes per
frame.  This script runs every workload the newest record lists for one
second at the record's seed, and compares each counter.
All must be equal, except hub.encodes_per_frame, which may read up to
1 % above the record: the benchmark counts encodes over its window, and
the last warm-up frame's encode lands inside it.

Usage: python3 .github/bench_counters.py [TARGET_DIR]
Exit status 1 names every counter that moved.
"""

import glob
import json
import os
import re
import subprocess
import sys

# Counters allowed to read above the record by this factor.
UPWARD_TOLERANCE = {"hub.encodes_per_frame": 1.01}


def newest_record(root):
    records = glob.glob(os.path.join(root, "BENCH_*.json"))
    number = lambda path: int(re.search(r"BENCH_(\d+)\.json$", path).group(1))
    return max(records, key=number)


def fresh_metrics(root, target, workload, seed):
    command = [
        "cargo", "run", "--release", "--quiet", "--manifest-path",
        os.path.join(root, "benchmark", "Cargo.toml"), "--target-dir", target,
        "--", "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", "0",
    ]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    metrics = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "metric":
            metrics[fields[1]] = float(fields[2])
    return metrics


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, "target")
    path = newest_record(root)
    with open(path) as f:
        record = json.load(f)
    seed = record["seed"]
    moved = []
    for workload, counters in record["exact"].items():
        metrics = fresh_metrics(root, target, workload, seed)
        for name, expected in counters.items():
            got = metrics.get(name)
            upper = expected * UPWARD_TOLERANCE.get(name, 1.0)
            ok = got is not None and expected <= got <= upper
            print(f"{workload} {name}: recorded {expected!r}, fresh {got!r}"
                  f" {'ok' if ok else 'MOVED'}")
            if not ok:
                moved.append(f"{workload} {name}")
    if moved:
        print(f"{os.path.basename(path)}: counters moved: {', '.join(moved)}")
        sys.exit(1)
    print(f"{os.path.basename(path)}: every exact counter holds")


if __name__ == "__main__":
    main()
