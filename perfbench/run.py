"""Benchmark of the nonholo command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {trajectory,checks,reduce} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the run stops with exit code 2.  A run
repeats whole rounds of its workload's operations for about S seconds,
verifies every output against ``oracle`` and prints, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The first round is a cold round, left out of ``wall_s``;
every run has at least one warm round after it.  With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb,
accuracy_digits); with ``--trace 1`` they are the per-layer ones, from the
first round run under the tracer; the untraced rounds after it must
reproduce its outputs byte for byte.  Details of each run go to
``perfbench/out/<workload>/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
WORKLOADS = ("trajectory", "checks", "reduce")


def load_program():
    """Import nonholo from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "nonholo" / "__init__.py").is_file():
        sys.stderr.write(f"no program to benchmark: {src / 'nonholo'} is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import nonholo
    import nonholo.cli  # noqa: F401

    if Path(nonholo.__file__).resolve().parent != (src / "nonholo").resolve():
        sys.stderr.write(f"imported nonholo from {nonholo.__file__}, not from {src}\n")
        raise SystemExit(2)


def setup(workload, seed):
    """Everything a run does before its first operation can start."""
    load_program()
    import workloads

    out_dir = HERE / "out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    return workloads.build(workload, seed, out_dir), out_dir


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter until it is ready to run
    the first operation, median of several fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(samples), samples


def attempt(op, reference, tracer=None):
    """Run, time and judge one operation.

    Returns (seconds, faults, accuracy outputs); seconds is None when the
    operation raised.  The first output of each operation becomes its
    reference: every later one must match it byte for byte.
    """
    try:
        with tracer.active() if tracer else nullcontext():
            t0 = time.perf_counter()
            out = op.run()
            seconds = time.perf_counter() - t0
    except Exception:  # an operation that raises counts as failed; the run goes on
        traceback.print_exc()
        return None, ["raised"], {}
    try:
        faults, acc = op.verify(out)
    except Exception as exc:  # an output the verdict cannot even read is wrong
        faults, acc = [f"verification raised {exc!r}"], {}
    if op.name not in reference:
        reference[op.name] = out.digest
    elif out.digest != reference[op.name]:
        faults.append("output differs from the first round's")
    return seconds, faults, acc


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_probe and args.seconds <= 0:
        p.error("--seconds must be positive")
    # the command line's default; the span stack assumes one thread
    os.environ["NONHOLO_THREADS"] = "1"

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    ops, out_dir = setup(args.workload, args.seed)
    from tracer import Tracer, metric_names

    tracer = Tracer() if args.trace else None
    if tracer is None:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    times = {op.name: [] for op in ops}          # seconds per operation in the warm rounds
    first_times = {}                             # seconds per operation in the first round
    reference = {}
    accuracy: dict[str, float] = {}
    attempted = failed = 0
    correct = True
    rounds = 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        # The first round pays the one-time costs a command-line user pays
        # (make_grid, _calibrated_sign).  wall_s leaves it out, so that it is
        # a median of warm rounds however many rounds fit; a traced run
        # traces this round only.
        first = rounds == 0
        for op in ops:
            attempted += 1
            seconds, faults, acc = attempt(op, reference, tracer if first else None)
            if faults:
                failed += 1
                correct = correct and seconds is None
                sys.stderr.write(f"{op.name}: " + "; ".join(faults) + "\n")
            if seconds is None:
                continue
            if first:
                first_times[op.name] = seconds
            else:
                times[op.name].append(seconds)
            for k, v in acc.items():
                accuracy.setdefault(k, v)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        last = time.perf_counter() - t_round
        if elapsed + last > args.seconds and rounds >= 2:
            break

    def op_medians(table):
        return {k: statistics.median(v) for k, v in table.items() if v}

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
               "op_median_s": op_medians(times), "first_round_op_s": first_times,
               "accuracy_outputs": accuracy, "src_lines": src_lines()}
    if tracer is None:
        summary["setup_samples_s"] = setup_samples
        worst = max(accuracy.values()) if accuracy else math.nan
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(op_medians(times).values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (-math.log10(max(worst, sys.float_info.min)), "digits"),
        }
    else:
        layers = tracer.metrics()
        metrics = {name: (layers[name], unit) for name, unit in metric_names().items()}
        summary["traced_wall_s"] = sum(first_times.values())
        summary["untraced_wall_s"] = sum(op_medians(times).values())
        tracer.dump(out_dir / "trace.npz")
    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(out_dir / f"summary-trace{args.trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
