"""A wrong, changed or missing output counts as a failed operation."""

import dataclasses
import json

import pytest

import run
import workloads


def corrupted(op, change):
    """The same operation with its output passed through ``change``."""
    def run_changed():
        return change(op.run())
    return dataclasses.replace(op, run=run_changed)


def by_name(ops, name):
    return next(op for op in ops if op.name == name)


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    return workloads.trajectory_ops(7, tmp_path_factory.mktemp("out"))


def perturb_csv(row, col, delta):
    def change(out):
        lines = out.data.decode().split("\n")
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[row] = ",".join(cells)
        return dataclasses.replace(out, data="\n".join(lines).encode())
    return change


def test_planar_demo_passes_and_a_perturbed_row_fails(trajectory):
    op = by_name(trajectory, "planar-demo")
    seconds, faults, acc = run.attempt(op, {})
    assert seconds > 0 and faults == [] and set(acc) == {"drift.planar.E"}
    for col, delta in ((5, 1e-9), (2, 1e-5)):       # energy column, then a coordinate
        _, faults, _ = run.attempt(corrupted(op, perturb_csv(500, col, delta)), {})
        assert faults, (col, delta)


def test_simulate_with_a_perturbed_H_column_fails(trajectory):
    op = by_name(trajectory, "simulate-ball")
    assert run.attempt(op, {})[1] == []
    _, faults, _ = run.attempt(corrupted(op, perturb_csv(300, 7, 1e-10)), {})
    assert any("column H" in f for f in faults)


@pytest.mark.parametrize("name,model", [("simulate-ball", ["ball"]),
                                        ("simulate-veselova-gyrostat", ["veselova", "--gyrostat", "0,0,0.1"])])
def test_simulate_with_a_looser_solver_fails(trajectory, tmp_path, name, model):
    csv = str(tmp_path / "loose.csv")
    argv = ["simulate", "--model", *model, "--demo", "--seed", "7", "--csv", csv, "--rtol", "1e-9"]
    faults = run.attempt(workloads.cli_op(name, argv, by_name(trajectory, name).verify, csv), {})[1]
    assert any("distance to the oracle's trajectory" in f for f in faults)
    assert any("drift of F1" in f for f in faults)


def test_rescaled_run_far_from_the_direct_run_fails(trajectory):
    op = by_name(trajectory, "rescaled-ball")
    run.attempt(by_name(trajectory, "simulate-ball"), {})     # writes the direct run's CSV
    assert run.attempt(op, {})[1] == []

    def shift(out):
        X = out.data.copy()
        X[-1, 0] += 1e-5
        return dataclasses.replace(out, data=X)
    assert run.attempt(corrupted(op, shift), {})[1]


def edit_report(**fields):
    def change(out):
        rep = json.loads(out.text)
        rep.update(fields)
        return dataclasses.replace(out, text=json.dumps(rep))
    return change


def test_suite_maximum_above_its_gate_fails():
    op = by_name(workloads.checks_ops(3), "duality")
    assert run.attempt(op, {})[1] == []
    assert run.attempt(corrupted(op, edit_report(hamiltonian_identity_max=2e-12)), {})[1]
    assert run.attempt(corrupted(op, edit_report(hamiltonian_identity_max=0.0, g_relation_max=0.0)),
                       {})[1] == []   # below the oracle's values only by round-off
    assert run.attempt(corrupted(op, edit_report(**{"pass": False})), {})[1]


def test_negative_control_that_stops_violating_fails():
    op = by_name(workloads.checks_ops(3), "jacobi-negative-control")
    assert run.attempt(op, {})[1] == []
    assert run.attempt(corrupted(op, edit_report(max=0.01)), {})[1]


def test_output_that_changes_between_rounds_fails():
    op = by_name(workloads.checks_ops(3), "planar")
    reference = {}
    assert run.attempt(op, reference)[1] == []
    assert run.attempt(op, reference)[1] == []
    faults = run.attempt(corrupted(op, lambda out: dataclasses.replace(out, digest=b"other")), reference)[1]
    assert faults == ["output differs from the first round's"]


def test_an_operation_that_raises_fails():
    def boom():
        raise RuntimeError("boom")
    op = workloads.Op("boom", boom, lambda out: ([], {}))
    assert run.attempt(op, {}) == (None, ["raised"], {})


def test_wrong_reduction_constant_fails():
    op = by_name(workloads.reduce_ops(5), "reduce-veselova-gyrostat-L16")
    seconds, faults, acc = run.attempt(op, {})
    assert faults == [] and max(acc.values()) < 1e-6
    rep = json.loads(op.run().text)
    assert run.attempt(corrupted(op, edit_report(c=rep["c"] + 1e-6)), {})[1]


def test_reduction_without_a_captured_transform_fails():
    op = by_name(workloads.reduce_ops(5), "reduce-veselova-gyrostat-L16")
    plain = workloads.cli_op(op.name, ["reduce", "--model", "veselova", "--gyrostat", "0,0,0.1",
                                       "--L", "16", "--seed", "5"], op.verify)
    faults = run.attempt(plain, {})[1]
    assert faults and "transform not captured" in faults[0]
