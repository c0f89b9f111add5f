#!/usr/bin/env python3
"""Snapshot the pinned command-line invocations for a before/after diff.

Runs each invocation below in-process through ``nonholo.cli.main`` at
seed 3, from inside OUTDIR, and writes there, per invocation NAME:
NAME.out (stdout), NAME.err (stderr), NAME.exit (the exit code) and,
for the runs that write one, NAME.csv.  Snapshot two checkouts into two
directories and ``diff -r`` them to see exactly which outputs a change
moved.  The invocations run against whichever ``nonholo`` is imported, so
``PYTHONPATH=<checkout>/src`` snapshots an older checkout too.

The golden in tests/golden holds every .out, .err and .exit file, one
SHA-256 per CSV (csv.sha256) and the host it was written on (host.txt): the
numpy version, the OpenBLAS kernel and the numpy SIMD targets in use, on
which the bits depend besides the code.  The test suite compares a fresh
snapshot with it (``mismatch``).
``--update`` rewrites the golden from a fresh snapshot, so an output that
moves on purpose shows as a git diff.

Usage: python scripts/cli_snapshot.py OUTDIR | --update
"""

import contextlib
import ctypes
import hashlib
import io
import os
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from nonholo.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
HOST = "host.txt"
TEXTS = (".out", ".err", ".exit")

INVOCATIONS = {
    "simulate-ball": ["simulate", "--model", "ball", "--demo"],
    "simulate-veselova-gyrostat": ["simulate", "--model", "veselova", "--gyrostat", "0,0,0.1", "--demo"],
    "simulate-ball-linear": ["simulate", "--model", "ball", "--demo", "--U", "linear", "--U-vec", "0,0,1",
                             "--horizon", "5", "--samples", "51"],
    "planar-demo": ["planar-demo"],
    "check-jacobi-ball": ["check", "jacobi", "--model", "ball"],
    "check-jacobi-veselova-gyrostat": ["check", "jacobi", "--model", "veselova", "--gyrostat", "0,0,0.1"],
    "check-jacobi-negative-control": ["check", "jacobi", "--negative-control"],
    "check-conformal": ["check", "conformal"],
    "check-measure": ["check", "measure"],
    "check-gauge": ["check", "gauge"],
    "check-duality": ["check", "duality"],
    "check-duality-D2": ["check", "duality", "--D", "2"],
    # a small D: the identity is read times D, so its round-off does not grow as 1/D
    "check-duality-D1e-4": ["check", "duality", "--D", "1e-4"],
    "check-planar": ["check", "planar"],
    "reduce-ball-L32": ["reduce", "--model", "ball", "--L", "32"],
    "reduce-ball-L64": ["reduce", "--model", "ball", "--L", "64"],
    "reduce-veselova-gyrostat-L16": ["reduce", "--model", "veselova", "--gyrostat", "0,0,0.1", "--L", "16"],
    # k = 0: while reduce reduces the k = 0 bracket for a gyrostat too, this
    # report differs from the gyrostat run's only in ``source``
    "reduce-veselova-L16": ["reduce", "--model", "veselova", "--L", "16"],
    "reduce-g1-f0-L8": ["reduce", "--g", "1", "--f", "0", "--L", "8"],
    # a finite direction whose length overflows: exits 0, and the
    # renormalisation warning prints that length
    "simulate-ball-huge-gamma": ["simulate", "--model", "ball", "--gamma", "1.7e308,1.7e308,0", "--M", "0,0,1",
                                 "--horizon", "1"],
    # failing gates: each exits 4 and writes its one stderr line
    "simulate-ball-loose-rtol": ["simulate", "--model", "ball", "--demo", "--rtol", "1e-4", "--atol", "1e-6",
                                 "--horizon", "10", "--samples", "11"],
    "reduce-ball-near-boundary-L16": ["reduce", "--model", "ball", "--A", "0.4,0.5,0.99", "--D", "1",
                                      "--L", "16"],
    "planar-demo-loose-rtol": ["planar-demo", "--rtol", "1e-3", "--atol", "1e-5"],
    # a constant F whose round-off fails the absolute gates at any band limit
    "reduce-g1e-10-f0-L8": ["reduce", "--g", "1e-10", "--f", "0", "--L", "8"],
    # refused flags: each exits 2 and names its flag on one stderr line
    "reduce-ball-L0": ["reduce", "--model", "ball", "--L", "0"],
    "simulate-ball-negative-threshold": ["simulate", "--model", "ball", "--demo", "--threshold", "-1"],
    # refused values: each exits 3 and names its flag on one stderr line
    "simulate-ball-nan-rtol": ["simulate", "--model", "ball", "--demo", "--rtol", "nan"],
    "simulate-ball-nan-threshold": ["simulate", "--model", "ball", "--demo", "--threshold", "nan"],
    "reduce-g-nan-f0": ["reduce", "--g", "nan", "--f", "0"],
    # a finite flow whose scaled norm overflows, and a D whose dual inertia does
    "simulate-ball-huge-U": ["simulate", "--model", "ball", "--demo", "--U", "linear", "--U-vec", "1e150,0,0",
                             "--horizon", "1"],
    "check-duality-tiny-D": ["check", "duality", "--D", "1e-320"],
    # a finite dual inertia whose square in the dual ball's Hamiltonian overflows
    "check-duality-small-D": ["check", "duality", "--D", "1e-300"],
    # a ball D whose 1/D overflows
    "check-jacobi-ball-tiny-D": ["check", "jacobi", "--model", "ball", "--D", "1e-320"],
    # a ball D whose 1/D is finite but whose bracket's jacobiator overflows
    "check-jacobi-ball-D1e-308": ["check", "jacobi", "--model", "ball", "--D", "1e-308"],
    # an Ahat whose 1/Ahat overflows
    "check-jacobi-veselova-tiny-Ahat": ["check", "jacobi", "--model", "veselova",
                                        "--Ahat", "1e-320,1e-320,1e-320"],
    # a finite M whose flow overflows: the refusal names the flow's knobs
    "simulate-ball-huge-M": ["simulate", "--model", "ball", "--demo", "--M", "1e300,0,0", "--horizon", "1"],
    # constant pairs outside the reduction's scale rule (gauge.reduce_to_e3):
    # g too large or too small, whose reduction overflows, then |F| too large
    # or F zero
    "reduce-g1e300-f0-L8": ["reduce", "--g", "1e300", "--f", "0", "--L", "8"],
    "reduce-g1e-300-f0-L8": ["reduce", "--g", "1e-300", "--f", "0", "--L", "8"],
    "reduce-g1-f1e300-L8": ["reduce", "--g", "1", "--f", "1e300", "--L", "8"],
    "reduce-g1e-60-f1-L8": ["reduce", "--g", "1e-60", "--f", "1", "--L", "8"],
    "reduce-g1-f-1-L8": ["reduce", "--g", "1", "--f", "-1", "--L", "8"],
    # constant pairs whose F cancels to fewer than half the digits of its terms
    "reduce-g1e102-f-1e102-L8": ["reduce", "--g", "1e102", "--f", "-1e102", "--L", "8"],
    "reduce-g1e-50-f-1e-50-L8": ["reduce", "--g", "1e-50", "--f", "-1e-50", "--L", "8"],
    "reduce-g7-f-7.000000001-L8": ["reduce", "--g", "7", "--f", "-7.000000001", "--L", "8"],
    # the same rule on the model path: an F that overflows, and one whose
    # terms cancel to fewer than half their digits
    "reduce-veselova-tiny-Ahat-L8": ["reduce", "--model", "veselova", "--Ahat", "1e-300,1e-300,1e-300",
                                     "--L", "8"],
    "reduce-veselova-Ahat3-1e30-L8": ["reduce", "--model", "veselova", "--Ahat", "0.6,0.75,1e30", "--L", "8"],
    # g = 1e150, within the rule: the ball at D = 1e-300 and the constant pair reduce alike
    "reduce-ball-D1e-300-L8": ["reduce", "--model", "ball", "--D", "1e-300", "--L", "8"],
    "reduce-g1e150-f0-L8": ["reduce", "--g", "1e150", "--f", "0", "--L", "8"],
}
# the exit code of each invocation that does not exit 0: 4 at a failing
# gate, 2 at a refused flag, 3 at a refused value
EXITS = {"simulate-ball-loose-rtol": 4, "reduce-ball-near-boundary-L16": 4, "planar-demo-loose-rtol": 4,
         "reduce-g1e-10-f0-L8": 4,
         "reduce-ball-L0": 2, "simulate-ball-negative-threshold": 2, "simulate-ball-nan-rtol": 3,
         "simulate-ball-nan-threshold": 3, "reduce-g-nan-f0": 3, "simulate-ball-huge-U": 3,
         "check-duality-tiny-D": 3, "check-duality-small-D": 3, "check-jacobi-ball-tiny-D": 3,
         "check-jacobi-ball-D1e-308": 3, "check-jacobi-veselova-tiny-Ahat": 3, "simulate-ball-huge-M": 3,
         "reduce-g1e300-f0-L8": 3, "reduce-g1e-300-f0-L8": 3, "reduce-g1-f1e300-L8": 3, "reduce-g1e-60-f1-L8": 3,
         "reduce-g1-f-1-L8": 3, "reduce-g1e102-f-1e102-L8": 3, "reduce-g1e-50-f-1e-50-L8": 3,
         "reduce-g7-f-7.000000001-L8": 3, "reduce-veselova-tiny-Ahat-L8": 3, "reduce-veselova-Ahat3-1e30-L8": 3}

WRITES_CSV = ("simulate", "planar-demo")


def snapshot(outdir: Path) -> dict[str, int]:
    """Run every invocation inside ``outdir``; the exit code of each."""
    outdir.mkdir(parents=True, exist_ok=True)
    codes = {}
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name, argv in INVOCATIONS.items():
            if argv[0] in WRITES_CSV:
                argv = [*argv, "--csv", f"{name}.csv"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = main([*argv, "--seed", "3"])
            Path(f"{name}.out").write_text(out.getvalue())
            Path(f"{name}.err").write_text(err.getvalue())
            Path(f"{name}.exit").write_text(f"{codes[name]}\n")
    finally:
        os.chdir(cwd)
    return codes


def _csv_hashes(outdir: Path) -> str:
    """One ``sha256sum`` line per CSV in ``outdir``, sorted by name."""
    return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                   for path in sorted(outdir.glob("*.csv")))


def host() -> dict[str, str]:
    """This process's numpy version, the kernel that numpy's bundled
    OpenBLAS picked at load time ("unknown" without that library) and the
    numpy SIMD dispatch targets in use."""
    try:
        lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (StopIteration, OSError, AttributeError):
        core = "unknown"
    return {"numpy": np.__version__, "BLAS core": core,
            "SIMD targets": " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))}


def update(golden: Path = GOLDEN) -> dict[str, int]:
    """Rewrite the golden from a fresh snapshot: its text files as they are,
    its CSVs as their hashes."""
    for path in golden.glob("*"):
        if path.suffix in TEXTS:        # the files of a run no longer pinned go too
            path.unlink()
    codes = snapshot(golden)
    (golden / "csv.sha256").write_text(_csv_hashes(golden))
    for path in golden.glob("*.csv"):
        path.unlink()
    (golden / HOST).write_text("".join(f"{field}: {value}\n" for field, value in host().items()))
    return codes


def mismatch(outdir: Path, golden: Path = GOLDEN) -> str | None:
    """Where a snapshot in ``outdir`` first differs from the golden: a field
    of the host, a missing or extra file, the first differing line of a
    text file, or the first differing CSV hash; None when they agree byte
    for byte."""
    written = dict(line.split(": ", 1) for line in (golden / HOST).read_text().splitlines())
    for field, value in host().items():
        if written.get(field) != value:
            return f"the golden was written with {field} {written.get(field)}, this run has {field} {value}"
    names = {path.name for path in outdir.iterdir() if path.suffix in TEXTS}
    expected = {path.name for path in golden.iterdir() if path.suffix in TEXTS}
    if names != expected:
        return f"files differ: missing {sorted(expected - names)}, extra {sorted(names - expected)}"
    texts = [(name, (golden / name).read_text(), (outdir / name).read_text()) for name in sorted(names)]
    texts.append(("csv.sha256", (golden / "csv.sha256").read_text(), _csv_hashes(outdir)))
    for name, old, new in texts:
        pairs = zip_longest(old.splitlines(keepends=True), new.splitlines(keepends=True))
        for i, (old_line, new_line) in enumerate(pairs, start=1):
            if old_line != new_line:
                return f"{name} line {i}: golden {old_line!r}, now {new_line!r}"
    return None


if __name__ == "__main__":
    if len(sys.argv) != 2 or (sys.argv[1].startswith("-") and sys.argv[1] != "--update"):
        sys.stderr.write(__doc__.strip().splitlines()[-1] + "\n")
        sys.exit(2)
    codes = update() if sys.argv[1] == "--update" else snapshot(Path(sys.argv[1]))
    for name, code in codes.items():
        print(f"{name}: exit {code}")
