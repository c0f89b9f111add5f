"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload checks --seeds 1-10

For each metric: the median over the runs and the distance between the
first and third quartiles as a share of the median (``statistics.quantiles``
with n=4), next to the metric's bound from BENCHMARK.json.  Runs are made
one after another, each in a fresh process, from the root of the checkout,
untraced and for BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([*bench["command"], "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: " + json.dumps(result), flush=True)
    print(f"{args.workload}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)} "
          f"of {sum(r['attempted'] for r in runs)}, all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:40s} median {med:12.6g}  iqr/median {share:7.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
