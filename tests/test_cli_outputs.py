"""Pinned CLI outputs: each command below reruns on a committed input and must
reproduce the committed stdout, stderr and exit code.

Numbers are compared at ``RTOL`` and ``ATOL`` (the oracle columns move in
their last digits with the BLAS thread count); keys, statuses, error messages
and exit codes are compared exactly.  The inputs are ``tests/data/cli/*.json``
and the outputs ``tests/data/cli/expected/<case>.out`` and ``.err``.

When an output changes on purpose, rewrite the expected files with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_cli_outputs.py``
and say in the change which cases moved and why.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from gausslift.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"
EXPECTED = DATA / "expected"
RTOL = 1e-12
ATOL = 1e-13

#: (case, argv, input relative to ``DATA``, exit code); the compose case reads
#: the pinned output of the two-mode lift
CASES = [
    ("sweep-time-fig2", ["sweep-time", "--nmax", "20,40,80"], "fig2_stable.json", 0),
    ("sweep-time-fig2-json", ["sweep-time", "--nmax", "20", "--format", "json"],
     "fig2_stable.json", 0),
    ("sweep-time-unstable-400", ["sweep-time", "--nmax", "40"], "fig2_unstable_tmax400.json", 3),
    ("sweep-time-unstable-2000", ["sweep-time", "--nmax", "40"],
     "fig2_unstable_tmax2000.json", 3),
    ("verify-fig2-t0.5", ["verify", "--t", "0.5"], "fig2_stable.json", 0),
    ("verify-fig2-t1", ["verify", "--t", "1"], "fig2_stable.json", 0),
    ("verify-fig2-t2.5", ["verify", "--t", "2.5"], "fig2_stable.json", 0),
    ("verify-two-mode", ["verify", "--nmax", "20"], "two_mode_pair.json", 0),
    ("lift-fig2", ["lift"], "fig2_stable.json", 0),
    ("lift-two-mode", ["lift"], "two_mode_pair.json", 0),
    ("phase-fig2", ["phase"], "fig2_stable.json", 0),
    ("phase-two-mode", ["phase"], "two_mode_pair.json", 0),
    ("phase-fermion-m-w-hamiltonians", ["phase"], "fermion_m_w_hamiltonians.json", 0),
    ("lift-fig2-unstable-400", ["lift"], "fig2_unstable_tmax400.json", 0),
    ("compose-two-mode-lift", ["compose"], "expected/lift-two-mode.out", 0),
    ("sweep-grid-default", ["sweep-grid"], "grid_single_mode.json", 0),
    ("sweep-grid-rho1-tau45deg", ["sweep-grid", "--rho", "1", "--tau", "45deg"],
     "grid_single_mode.json", 0),
    ("sweep-grid-rho0.7-tau30deg", ["sweep-grid", "--rho", "0.7", "--tau", "30deg"],
     "grid_single_mode.json", 0),
    ("fermion-m-w-hamiltonians", ["fermion"], "fermion_m_w_hamiltonians.json", 0),
    ("fermion-det-minus-one", ["fermion"], "fermion_det_minus_one.json", 0),
]


def _run(argv, source):
    """(exit code, stdout, stderr) of the CLI on ``argv`` with input ``source``."""
    argv = argv + ["--input", str(DATA / source)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _same(value, expected, where):
    """Assert ``value`` matches ``expected``: numbers, and strings that both
    parse as numbers (CSV cells, JSON sweep rows), within tolerance; all else
    (keys, lengths, other strings, booleans, null) exactly."""
    if isinstance(value, str) and isinstance(expected, str):
        value, expected = _cell(value), _cell(expected)
    if isinstance(expected, dict):
        assert isinstance(value, dict) and list(value) == list(expected), where
        for key in expected:
            _same(value[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(value, list) and len(value) == len(expected), where
        for i, (v, e) in enumerate(zip(value, expected)):
            _same(v, e, f"{where}[{i}]")
    elif isinstance(expected, float) or (
        isinstance(expected, int) and not isinstance(expected, bool)
    ):
        assert isinstance(value, (int, float)) and not isinstance(value, bool), where
        assert math.isclose(value, expected, rel_tol=RTOL, abs_tol=ATOL) or (
            math.isnan(value) and math.isnan(expected)
        ), f"{where}: {value!r} vs pinned {expected!r}"
    else:
        assert type(value) is type(expected) and value == expected, (
            f"{where}: {value!r} vs pinned {expected!r}")


def _cell(text):
    """A CSV cell as a float, or the text itself if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _same_output(value, expected, where):
    if expected.startswith("{"):
        _same(json.loads(value), json.loads(expected), where)
        return
    assert value.endswith("\n") == expected.endswith("\n"), where
    rows, pinned = value.splitlines(), expected.splitlines()
    assert len(rows) == len(pinned), where
    for i, (row, pinned_row) in enumerate(zip(rows, pinned)):
        _same(row.split(","), pinned_row.split(","), f"{where} line {i + 1}")


@pytest.mark.parametrize("case, argv, source, code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_pinned(case, argv, source, code):
    got_code, out, err = _run(argv, source)
    assert got_code == code
    _same_output(out, (EXPECTED / f"{case}.out").read_text(), f"{case} stdout")
    assert err == (EXPECTED / f"{case}.err").read_text()


@pytest.mark.parametrize(
    "value, expected, same",
    [("0.49999999999999994", "0.49999999999999989", True),
     ("0.49999999999999994", "0.4999999995", False),
     ("ok", "OK", False),
     ("nan", "nan", True),
     ("1", "1.0", True)],
    ids=["last-digit", "relative-1e-9", "text-case", "nan", "same-number"],
)
def test_numeric_strings_compare_as_numbers(value, expected, same):
    # a JSON sweep row holds its numbers as %.17g strings
    row, pinned = {"rows": [{"t": value}]}, {"rows": [{"t": expected}]}
    if same:
        _same(row, pinned, "row")
    else:
        with pytest.raises(AssertionError):
            _same(row, pinned, "row")


def _write_expected():
    EXPECTED.mkdir(exist_ok=True)
    for case, argv, source, code in CASES:
        got_code, out, err = _run(argv, source)
        if got_code != code:
            sys.exit(f"{case}: exit code {got_code}, expected {code}")
        (EXPECTED / f"{case}.out").write_text(out)
        (EXPECTED / f"{case}.err").write_text(err)
        print(f"{case}: exit {got_code}, {len(out)} bytes out, {len(err)} bytes err")


if __name__ == "__main__":
    _write_expected()
