"""Smoke runs of the example scripts, the pinned command-line runs against
their golden, a check that every program name the benchmark reads exists,
and a run of the benchmark's oracle tests, so that an API change cannot
break them silently."""

import contextlib
import importlib
import importlib.util
import io
import json
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_conservation_demo(monkeypatch, capsys):
    out = run_script("conservation_demo.py", ["1"], monkeypatch, capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "relative integral drifts over t in [0, 1] at rtol 1e-10"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["ball", "ball+gyrostat", "veselova", "veselova+gyrostat"]
    for row in rows:
        drifts = {cell.split("=")[0]: float(cell.split("=")[1]) for cell in row if "=" in cell}
        assert {"H", "F1", "F2"} <= set(drifts) and max(drifts.values()) <= 1e-8


def test_reduction_demo(monkeypatch, capsys):
    out = run_script("reduction_demo.py", ["8"], monkeypatch, capsys)
    (line,) = out.strip().splitlines()
    rep = json.loads(line)
    # the points of the worst residual and bracket entry are always reported
    assert set(rep) == {"L", "c", "residual", "g_tilde_dev", "f_tilde_dev", "bracket_dev", "n_states", "seed",
                        "pass", "worst_gamma", "worst_bracket_gamma"}
    assert len(rep["worst_gamma"]) == len(rep["worst_bracket_gamma"]) == 3
    assert rep["L"] == 8 and rep["n_states"] == 50 and rep["g_tilde_dev"] <= 1e-8
    assert rep["pass"] is (rep["residual"] <= 1e-6 and rep["bracket_dev"] <= 1e-6)


@pytest.fixture(scope="module")
def snapshot_run(tmp_path_factory):
    """One run of cli_snapshot.py as a script, shared by the tests below:
    its stdout and the directory it wrote."""
    tmp_path = tmp_path_factory.mktemp("snapshot")
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(sys, "argv", ["cli_snapshot.py", str(tmp_path)])
        runpy.run_path(str(SCRIPTS / "cli_snapshot.py"), run_name="__main__")
    return out.getvalue(), tmp_path


def test_cli_snapshot(snapshot_run):
    out, tmp_path = snapshot_run
    snapshot = runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))
    names, exits = list(snapshot["INVOCATIONS"]), snapshot["EXITS"]
    expected = {name: exits.get(name, 0) for name in names}
    assert len(names) == 48 and sorted(exits.values()) == [2, 2, *[3] * 20, 4, 4, 4, 4]
    assert out.strip().splitlines() == [f"{name}: exit {code}" for name, code in expected.items()]
    assert {name: int((tmp_path / f"{name}.exit").read_text()) for name in names} == expected
    # a failing gate or a refused flag or value writes one stderr line, a
    # passing run none but a warning's one line, and none is Python's
    # warning form
    warns = {"simulate-ball-huge-gamma": "warning: renormalizing gamma: |gamma| = 2.4041631e+308\n"}
    errs = {name: (tmp_path / f"{name}.err").read_text() for name in names}
    assert {name: err.count("\n") for name, err in errs.items()} == \
        {name: int(name in exits or name in warns) for name in names}
    assert all(errs[name] == line for name, line in warns.items())
    assert [name for name, err in errs.items() if re.search(r"\w+Warning\b", err)] == []
    assert len(list(tmp_path.glob("*.csv"))) == 7 and len(list(tmp_path.glob("*.out"))) == 48
    # every report is strict JSON: NaN and Infinity are not JSON
    def refuse(constant):
        raise ValueError(f"{constant} in a report")

    for name in names:
        if text := (tmp_path / f"{name}.out").read_text():
            json.loads(text, parse_constant=refuse)


def test_cli_snapshot_matches_golden(snapshot_run):
    # every .out, .err and .exit byte and every CSV's hash of the pinned
    # runs; an output that moves on purpose is rewritten with
    # `python scripts/cli_snapshot.py --update` and shows in the diff
    assert runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))["mismatch"](snapshot_run[1]) is None


def test_golden_of_another_blas_kernel_names_the_kernel(tmp_path):
    # another OpenBLAS kernel moves output bits (22 .out files and every
    # CSV under Haswell against SkylakeX), so a golden written on such a
    # host is refused by its kernel before any output line it moved
    snapshot = runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))
    golden, out = tmp_path / "golden", tmp_path / "out"
    shutil.copytree(snapshot["GOLDEN"], golden)
    shutil.copytree(snapshot["GOLDEN"], out)
    conformal = (out / "check-conformal.out").read_text()
    (out / "check-conformal.out").write_text(conformal.replace("2.220446049250313e-15", "2.6645352591003757e-15", 1))
    fields = snapshot["host"]()
    here = "".join(f"{field}: {value}\n" for field, value in fields.items())
    (golden / "host.txt").write_text(here)
    assert snapshot["mismatch"](out, golden).startswith("check-conformal.out line 3: ")
    core = fields["BLAS core"]
    other = "Haswell" if core != "Haswell" else "SkylakeX"
    (golden / "host.txt").write_text(here.replace(f"BLAS core: {core}\n", f"BLAS core: {other}\n"))
    assert snapshot["mismatch"](out, golden) == \
        f"the golden was written with BLAS core {other}, this run has BLAS core {core}"


def _resolves(chain: str) -> bool:
    """Whether a dotted name ``nonholo.a.b`` names a module or attribute,
    importing submodules on the way as ``import nonholo.a`` would."""
    obj = importlib.import_module("nonholo")
    try:
        for part in chain.split(".")[1:]:
            if not hasattr(obj, part) and hasattr(obj, "__path__"):
                importlib.import_module(f"{obj.__name__}.{part}")
            obj = getattr(obj, part)
    except (AttributeError, ImportError):
        return False
    return True


def test_benchmark_names_exist():
    # the benchmark reads these names from the program; a change that
    # deletes one fails here rather than in a benchmark run (the tracer's
    # (module, attribute) targets are checked below)
    chains = set()
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        text = path.read_text()
        chains.update(re.findall(r"\bnonholo(?:\.\w+)+", text))
        for module, names in re.findall(r"^from (nonholo[\w.]*) import (\([^)]*\)|.*)$", text, re.M):
            chains.update(f"{module}.{name.split()[0]}" for name in names.strip("()").split(",") if name.strip())
    assert chains, "found no nonholo names in perfbench"
    assert [chain for chain in sorted(chains) if not _resolves(chain)] == []


# the tracer targets that name no program attribute any more, until the
# benchmark re-points them at the program as it now is
STALE_TRACER_TARGETS = {
    ("nonholo.integrate", "solve_ivp"), ("nonholo.integrate", "rhs"),
    ("nonholo.cli", "assemble_P"), ("nonholo.cli", "conformal_residual"),
    ("nonholo.cli", "measure_residual"), ("nonholo.cli", "jacobiator"),
    ("nonholo.spherical", "fd_curl"), ("nonholo.spherical", "_calibrated_sign"),
}


def test_tracer_targets_exist():
    # the per-layer view wraps each (owner, attribute) target; one that no
    # longer resolves would read 0 calls instead of failing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for owner, attribute, *_ in tracer.TARGETS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if not hasattr(getattr(obj, cls) if cls else obj, attribute):
            missing.add((owner, attribute))
    assert sorted(missing - STALE_TRACER_TARGETS) == []


def test_benchmark_oracle_tests_pass():
    # the oracle tests call the program with keywords, e.g. GFParams(g=, f=)
    # and bivector_field(g=, K=), which the name check above cannot see;
    # their conftest puts this checkout's src first on the path
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "perfbench/tests/test_oracle.py"],
                         cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
