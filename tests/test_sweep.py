"""Extreme values through every numeric flag of ``reduce`` and ``check``.

Each flag is run in process at 0, -1, 1e-320, 1e-300, 1e-200, 1e-100,
1e-30, 1e30, 1e100, 1e300, nan and inf; a vector flag both isotropic and
with its last component changed.  Every run exits 0, 2, 3 or 4 with no
warning; a refusal (2 or 3) names the swept flag or its config field, and a
failing gate (4) prints finite values.  -n and --L, whose cost grows with
their value, are run only at their refusal bound.  ``simulate`` is left out:
its cost grows with the flow's speed, and no bound refuses a flow that an
extreme --Ahat makes too fast to integrate.
"""

import re
import warnings

import pytest

from nonholo.cli import main

VALUES = ["0", "-1", "1e-320", "1e-300", "1e-200", "1e-100", "1e-30", "1e30", "1e100", "1e300", "nan", "inf"]

# (command, the swept flag, the other flags); a vector flag's entry also
# holds the first two components of its second form, which changes the last
SCALARS = [
    (["reduce"], "--g", ["--f", "0"]),
    (["reduce"], "--f", ["--g", "1"]),
    (["reduce"], "--seed", ["--g", "1", "--f", "0"]),
    (["reduce"], "--D", ["--model", "ball"]),
    (["check", "jacobi"], "--D", ["--model", "ball"]),
    (["check", "duality"], "--D", []),
    (["check", "gauge"], "--seed", []),
]
VECTORS = [
    (["reduce"], "--A", ["--model", "ball"], "0.4,0.5"),
    (["reduce"], "--Ahat", ["--model", "veselova"], "0.6,0.75"),
    (["reduce"], "--gyrostat", ["--model", "veselova"], "0,0"),
    (["check", "jacobi"], "--A", ["--model", "ball"], "0.4,0.5"),
    (["check", "jacobi"], "--Ahat", ["--model", "veselova"], "0.6,0.75"),
    (["check", "jacobi"], "--gyrostat", ["--model", "ball"], "0,0"),
]
CASES = [(command, flag, [*others, flag, v]) for command, flag, others in SCALARS for v in VALUES] + [
    (command, flag, [*others, flag, vec])
    for command, flag, others, head in VECTORS for v in VALUES for vec in (f"{v},{v},{v}", f"{head},{v}")]
# the flags whose cost grows with their value, at their refusal bound
BOUNDS = [(["reduce"], "-n", ["--g", "1", "--f", "0", "-n", "0"]),
          (["reduce"], "--L", ["--g", "1", "--f", "0", "--L", "0"]),
          (["check", "jacobi"], "-n", ["--model", "ball", "-n", "0"]),
          (["check", "planar"], "-n", ["-n", "0"])]


@pytest.mark.parametrize("command, flag, argv", CASES + BOUNDS,
                         ids=[" ".join([*c, *a]) for c, _, a in CASES + BOUNDS])
def test_extreme_value_exits_cleanly(tmp_path, monkeypatch, capsys, deadline, command, flag, argv):
    monkeypatch.chdir(tmp_path)
    size = [] if flag in ("-n", "--L") else ["-n", "20", *(["--L", "8"] if command == ["reduce"] else [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, *argv, *size])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert err.count("\n") == (code != 0)
    if code in (2, 3):
        field = flag.lstrip("-")
        assert re.search(rf"(?<![\w-]){re.escape(field)}\b", err) or flag in err, err
    if code == 4:
        assert not re.search(r"\b(nan|inf)\b", err, re.IGNORECASE), err
