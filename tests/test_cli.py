import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausslift import fock, wrap_angle
from gausslift.cli import main

FIG2_STABLE_DOC = {
    "species": "boson",
    "N": 1,
    "hamiltonians": [
        {"h": [[0.4, 0.2], [0.2, 0.5]], "f": [0.5, 0.5], "c": 0.0},
        {"h": [[0.8, -0.2], [-0.2, 0.5]], "f": [0.5, 0.5], "c": 0.0},
    ],
    "t": 1.0,
}
FIG2_STABLE_NO_T = {key: value for key, value in FIG2_STABLE_DOC.items() if key != "t"}
FIG2_UNSTABLE_NO_T = {
    "species": "boson",
    "N": 1,
    "hamiltonians": [
        {"h": [[0.4, -0.6], [-0.6, 0.5]], "f": [0.5, 0.5], "c": 0.0},
        {"h": [[0.5, 0.4], [0.4, -0.4]], "f": [0.5, 0.5], "c": 0.0},
    ],
}

#: the committed Fig. 2 sweep (t in [0, 10] by 0.05, n_max 20, 40, 80) and the
#: tolerances the benchmark checks it with: oracle columns move in their last
#: digits with the BLAS thread count, anything beyond is a change of output
FIG2_SWEEP_REF = Path(__file__).resolve().parents[1] / "bench" / "data" / "fig2_sweep_ref.csv"
FIG2_RTOL = 1e-9
FIG2_ATOL = 1e-12

NAN, INF = float("nan"), float("inf")
IDENTITY_ELEMENT_DOC = {"species": "boson", "N": 1, "elements": [{"M": [[1, 0], [0, 1]]}]}


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main(args)


class TestCompose:
    def test_identity_with_identity(self, tmp_path, capsys):
        doc = {
            "species": "boson",
            "N": 1,
            "elements": [
                {"M": [[1, 0], [0, 1]], "z": [0, 0], "Psi": [1, 0]},
                {"M": [[1, 0], [0, 1]], "z": [0, 0], "Psi": [1, 0]},
            ],
        }
        assert run(["compose", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["elements"][0]["M"] == [[1.0, 0.0], [0.0, 1.0]]
        assert out["elements"][0]["z"] == [0.0, 0.0]
        assert out["elements"][0]["Psi"] == [1.0, 0.0]
        assert out["zeta"] == 0.0

    def test_output_reparses_as_input(self, tmp_path, capsys):
        doc = {
            "species": "boson",
            "N": 1,
            "elements": [
                {"M": [[2.0, 0.0], [0.0, 0.5]], "z": [0.3, -0.2], "Psi": [1, 0]},
                {"M": [[1, 0], [0, 1]], "z": [1.0, 0.0], "Psi": [0, 1]},
            ],
        }
        assert run(["compose", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        again = write_doc(tmp_path, out, "roundtrip.json")
        assert run(["compose", "--input", again]) == 0


class TestLift:
    def test_zero_hamiltonian(self, tmp_path, capsys):
        doc = {
            "species": "boson",
            "N": 1,
            "hamiltonians": [{"h": [[0, 0], [0, 0]], "f": [0, 0], "c": 0.0}],
        }
        assert run(["lift", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        el = out["elements"][0]
        assert el["M"] == [[1.0, 0.0], [0.0, 1.0]]
        assert el["z"] == [0.0, 0.0]
        assert el["Psi"] == [1.0, 0.0]

    def test_lift_then_compose(self, tmp_path, capsys):
        assert run(["lift", "--input", write_doc(tmp_path, FIG2_STABLE_DOC)]) == 0
        lifted = json.loads(capsys.readouterr().out)
        assert run(["compose", "--input", write_doc(tmp_path, lifted, "lifted.json")]) == 0
        product = json.loads(capsys.readouterr().out)
        psi = complex(*product["elements"][0]["Psi"])
        assert abs(abs(psi) - 1.0) < 1e-9


class TestPhase:
    def test_tracked_and_stable_agree(self, tmp_path, capsys):
        doc = {
            "species": "boson",
            "N": 1,
            "hamiltonians": [{"h": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        assert run(["phase", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        entry = out["phases"][0]
        assert entry["phase_stable"] is not None
        assert entry["method_agreement"] < 1e-9

    def test_unstable_reports_rejection(self, tmp_path, capsys):
        doc = {
            "species": "boson",
            "N": 1,
            "hamiltonians": [{"h": [[1.0, 0.0], [0.0, -1.0]]}],
        }
        assert run(["phase", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phases"][0]["phase_stable"] is None

    @pytest.mark.parametrize("scale", [1.0, 5.0, 9.0])
    def test_fermion_matches_majorana_oracle(self, tmp_path, capsys, scale):
        import gausslift as gl
        from conftest import random_antisymmetric

        h = scale * random_antisymmetric(np.random.default_rng(5), 4)
        doc = {"species": "fermion", "N": 2, "hamiltonians": [{"h": h.tolist()}]}
        assert run(["phase", "--input", write_doc(tmp_path, doc)]) == 0
        entry = json.loads(capsys.readouterr().out)["phases"][0]
        amp = gl.fermion_vacuum_amplitude(h, gl.build_majorana(2))
        assert abs(complex(*entry["phase_tracked"]) - amp / abs(amp)) < 1e-12
        assert entry["phase_stable"] is None
        assert entry["stable_rejected"]


class TestVerify:
    def test_fig2_stable_passes(self, tmp_path, capsys):
        code = run(
            ["verify", "--input", write_doc(tmp_path, FIG2_STABLE_DOC), "--nmax", "80",
             "--tol", "1e-5"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        assert out["reliable"] is True

    def test_absurd_tolerance_fails_with_exit_one(self, tmp_path, capsys):
        code = run(
            ["verify", "--input", write_doc(tmp_path, FIG2_STABLE_DOC), "--nmax", "20",
             "--tol", "1e-30"]
        )
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "fail"


class TestErrorPaths:
    def test_missing_field_exits_two(self, tmp_path, capsys):
        code = run(["compose", "--input", write_doc(tmp_path, {"species": "boson"})])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "input"

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["compose", "--input", str(path)]) == 2

    def test_bad_species_exits_two(self, tmp_path):
        doc = dict(FIG2_STABLE_DOC, species="anyon")
        assert run(["verify", "--input", write_doc(tmp_path, doc)]) == 2

    def test_numerical_domain_exits_three(self, tmp_path, capsys):
        # half-turn plane rotation sits on the fermionic singular stratum
        doc = {
            "species": "fermion",
            "N": 2,
            "M": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        }
        code = run(["fermion", "--input", write_doc(tmp_path, doc)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "numerical-domain"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--nmax", "5"],
            ["sweep-time", "--seed", "7"],
            ["lift", "--steps", "8"],
            ["phase", "--steps", "8"],
        ],
    )
    def test_flag_of_another_command_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--input", write_doc(tmp_path, FIG2_STABLE_DOC)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["compose"], {"species": "boson", "N": "two", "elements": []}),
            (["sweep-time", "--nmax", "abc"], FIG2_STABLE_DOC),
            (["verify"], dict(FIG2_STABLE_DOC, t="x")),
            (["verify", "--nmax", "20,40"], FIG2_STABLE_DOC),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [0, 1]}}),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [0, 1, "x"]}}),
            (["sweep-grid", "--tau", "xdeg"], {"species": "boson", "N": 1}),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"nmax": 80})),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": "x"})),
            (["lift"], {"species": "boson", "N": 1, "hamiltonians": [{"h": [[1, 0], [0, "a"]]}]}),
            (["lift"], {"species": "boson", "N": 1,
                        "hamiltonians": [{"h": [[1, 0], [0, 1]], "c": "x"}]}),
            (["compose"], {"species": "boson", "N": 1,
                           "elements": [{"M": [[1, 0], [0, 1]], "Psi": ["a", 0]}]}),
            (["compose"], [1, 2]),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time=5)),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": 5}),
            (["lift"], {"species": "boson", "N": 1, "hamiltonians": [5]}),
            (["compose"], {"species": "boson", "N": 1, "elements": [5]}),
            (["verify", "--tol", "nan"], FIG2_STABLE_DOC),
            (["verify", "--tol", "-1"], FIG2_STABLE_DOC),
            (["verify", "--tol", "0"], FIG2_STABLE_DOC),
            (["verify", "--t", "nan"], FIG2_STABLE_NO_T),
            (["verify"], dict(FIG2_STABLE_DOC, t="inf")),
            (["compose"], {"species": "boson", "N": 1,
                           "elements": [{"M": [[1, 0], [0, 1]], "z": [float("nan"), 0]}]}),
            (["compose"], {"species": "boson", "N": 1,
                           "elements": [{"M": [[1, 0], [0, 1]], "Psi": [float("nan"), 0]}]}),
            (["lift"], {"species": "boson", "N": 1,
                        "hamiltonians": [{"h": [[1, 0], [0, 1]], "f": [float("nan"), 0]}]}),
            (["lift"], {"species": "boson", "N": 1,
                        "hamiltonians": [{"h": [[1, 0], [0, 1]], "c": float("inf")}]}),
            (["sweep-time"], {"species": "boson", "N": 1, "hamiltonians": [
                {"h": [[1, 0], [0, 1]], "f": [float("nan"), 0]}, {"h": [[1, 0], [0, 1]]}]}),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [NAN, 1, 3]}}),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"c": [0, INF, 3]}}),
            (["sweep-grid", "--rho", "nan"], {"species": "boson", "N": 1}),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"rho": INF}}),
            (["sweep-grid", "--tau", "inf"], {"species": "boson", "N": 1}),
            (["sweep-grid", "--tau", "nandeg"], {"species": "boson", "N": 1}),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"tau": NAN}}),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": 1, "t_step": INF})),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": INF})),
            (["compose"], {"species": "boson", "N": 1, "elements": [{"M": [[INF, 0], [0, 1]]}]}),
            (["fermion"], {"species": "fermion", "N": 1, "M": [[INF, 0], [0, 1]]}),
            (["lift"], {"species": "boson", "N": 1, "hamiltonians": [{"h": [[INF, 0], [0, 1]]}]}),
            (["phase"], {"species": "boson", "N": 1, "hamiltonians": [{"h": [[1, INF], [INF, 1]]}]}),
            (["fermion"], {"species": "fermion", "N": 1, "w": [INF, 0]}),
            (["compose"], dict(IDENTITY_ELEMENT_DOC, N=1.5)),
            (["compose"], dict(IDENTITY_ELEMENT_DOC, N=True)),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [0, 1, 2.9]}}),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"c": [0, 1, False]}}),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"nmax": [20.7]})),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"nmax": [True]})),
        ],
        ids=["N-text", "nmax-flag-text", "t-text", "verify-two-cutoffs", "grid-axis-pair",
             "grid-axis-text", "tau-flag-text", "nmax-not-list", "t-max-text", "h-text",
             "c-text", "psi-text", "document-not-object", "time-not-object",
             "grid-not-object", "hamiltonian-not-object", "element-not-object",
             "tol-flag-nan", "tol-flag-negative", "tol-flag-zero", "t-flag-nan", "t-infinite",
             "z-nan", "psi-nan", "f-nan", "c-infinite", "sweep-f-nan", "grid-a-nan",
             "grid-c-infinite", "rho-flag-nan", "rho-infinite", "tau-flag-inf",
             "tau-flag-nandeg", "tau-nan", "t-step-infinite", "t-max-infinite",
             "compose-m-infinite", "fermion-m-infinite", "lift-h-infinite",
             "phase-h-infinite", "fermion-w-infinite", "N-fraction", "N-boolean",
             "grid-count-fraction", "grid-count-boolean", "nmax-fraction", "nmax-boolean"],
    )
    def test_malformed_value_exits_two(self, tmp_path, capsys, argv, doc):
        assert run(argv + ["--input", write_doc(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
        assert json.loads(err)["error"]["code"] == "input"

    @pytest.mark.parametrize(
        "argv, doc, field",
        [
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [NAN, 1, 3]}}, "grid.a"),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"c": [0, INF, 3]}}, "grid.c"),
            (["sweep-grid", "--rho", "nan"], {"species": "boson", "N": 1}, "rho"),
            (["sweep-grid", "--tau", "inf"], {"species": "boson", "N": 1}, "tau"),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": 1, "t_step": INF}),
             "time.t_step"),
            (["compose"], dict(IDENTITY_ELEMENT_DOC, N=True), "N"),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [0, 1, 2.9]}},
             "grid.a point count"),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"nmax": [20.7]}), "n_max"),
        ],
        ids=["grid-a", "grid-c", "rho", "tau", "t-step", "N", "grid-count", "nmax"],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, argv, doc, field):
        assert run(argv + ["--input", write_doc(tmp_path, doc)]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"{field} must be")

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": 10, "t_step": 1e-320}),
             "time.t_step must give at most 100000 rows, got inf"),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": 10, "t_step": 1e-9}),
             "time.t_step must give at most 100000 rows, got 1e+10"),
            (["sweep-time"], dict(FIG2_STABLE_DOC, time={"t_max": 100000, "t_step": 1}),
             "time.t_step must give at most 100000 rows, got 100001"),
            (["sweep-time", "--nmax", "0"],
             dict(FIG2_STABLE_DOC, time={"t_max": 99999, "t_step": 1}),
             "need at least one mode and a positive cutoff"),
            (["sweep-grid"], {"species": "boson", "N": 1, "grid": {"a": [0, 1, 10 ** 12]}},
             "grid.a and grid.c must give at most 100000 points, got 1000000000000 x 9"),
            (["sweep-grid"],
             {"species": "boson", "N": 1, "grid": {"a": [0, 1, 1000], "c": [0, 1, 101]}},
             "grid.a and grid.c must give at most 100000 points, got 1000 x 101"),
            (["sweep-grid", "--rho", "nan"],
             {"species": "boson", "N": 1, "grid": {"a": [0, 1, 100000], "c": [0, 1, 1]}},
             "rho must be finite, got nan"),
            (["compose"], dict(IDENTITY_ELEMENT_DOC, N=10 ** 9),
             "N must be at most 64, got 1000000000"),
            (["compose"], dict(IDENTITY_ELEMENT_DOC, N=65), "N must be at most 64, got 65"),
            (["compose"], {"species": "boson", "N": 64, "elements": []},
             "compose needs at least one element"),
        ],
        ids=["t-step-underflow", "t-step-tiny", "rows-above-limit", "rows-at-limit",
             "grid-axis-huge", "grid-points-above-limit", "grid-points-at-limit", "N-huge",
             "N-above-limit", "N-at-limit"],
    )
    def test_input_size_is_bounded_at_parse(self, tmp_path, capsys, argv, doc, message):
        # a refusal names the field before anything of that size is built;
        # at a limit, parsing goes on to the next check
        assert run(argv + ["--input", write_doc(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "input", "message": message}

    def test_vanishing_sweep_amplitude_exits_three(self, tmp_path, capsys):
        # |<0|U1 U2|0>| = e^{-|z|^2/4} with |z| = 6 at t = 1: 2.3e-16
        ham = {"h": [[0, 0], [0, 0]], "f": [6, 0]}
        doc = {"species": "boson", "N": 1, "hamiltonians": [ham, ham],
               "time": {"t_max": 1, "t_step": 0.5}}
        code = run(["sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "350"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "numerical-domain",
                       "message": "vacuum amplitude of U1U2 vanishes; phase undefined"}

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["lift"], dict(FIG2_STABLE_DOC, species="fermion"),
             "lift covers bosonic hamiltonians"),
            (["verify"], dict(FIG2_STABLE_DOC, species="fermion"),
             "verify covers bosonic hamiltonians"),
            (["sweep-time"], dict(FIG2_STABLE_DOC, species="fermion"),
             "time sweeps cover bosonic hamiltonians"),
            (["sweep-grid"], {"species": "fermion", "N": 1},
             "grid sweeps cover bosonic hamiltonians"),
            (["sweep-grid"], {"species": "boson", "N": 2},
             "the (a, c) grid sweep is a single-mode study"),
        ],
        ids=["lift-fermion", "verify-fermion", "sweep-time-fermion", "sweep-grid-fermion",
             "sweep-grid-two-modes"],
    )
    def test_unsupported_input_exits_two(self, tmp_path, capsys, argv, doc, message):
        assert run(argv + ["--input", write_doc(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "input", "message": message}

    @pytest.mark.parametrize(
        "time, t_first",
        [({"t_max": 400, "t_step": 40}, 360.0), ({"t_max": 2000, "t_step": 50}, 400.0)],
        ids=["t-max-400", "t-max-2000"],
    )
    def test_unstable_sweep_exits_three(self, tmp_path, capsys, time, t_first):
        # the unstable pair overflows: zeta and N are nan from t = 360, and the
        # SVD of C_M stops converging at t = 710; the first such row raises
        doc = dict(FIG2_UNSTABLE_NO_T, time=time)
        assert run(["sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "40"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err == {"code": "numerical-domain",
                       "message": f"analytic zeta or N is not finite at t = {t_first}"}

    def test_unstable_sweep_stderr_is_one_json_document(self, tmp_path):
        # a fresh process that turns every RuntimeWarning into an error: the
        # overflow before the refusal must not reach stderr or stop the run
        doc = dict(FIG2_UNSTABLE_NO_T, time={"t_max": 400, "t_step": 40})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "gausslift.cli",
             "sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "40"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        err, end = json.JSONDecoder().raw_decode(proc.stderr)
        assert proc.stderr[end:].strip() == ""
        assert err["error"]["message"] == "analytic zeta or N is not finite at t = 360.0"

    def test_csv_rejected_for_single_results(self, tmp_path):
        assert run(
            ["verify", "--input", write_doc(tmp_path, FIG2_STABLE_DOC), "--format", "csv"]
        ) == 2


class TestSweepTime:
    def _doc(self):
        return {
            "species": "boson",
            "N": 1,
            "hamiltonians": FIG2_STABLE_DOC["hamiltonians"],
            "time": {"t_max": 0.3, "t_step": 0.1, "nmax": [20, 40]},
        }

    def test_columns_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep-time", "--input", write_doc(tmp_path, self._doc()),
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t", "zeta_analytic", "zeta_numeric_nmax20", "zeta_numeric_nmax40",
            "N_analytic", "N_numeric_nmax20", "N_numeric_nmax40",
            "reliable_nmax20", "reliable_nmax40",
        ]
        assert len(lines) == 5  # t = 0, 0.1, 0.2, 0.3

    def test_byte_identical_reruns(self, tmp_path):
        doc = write_doc(tmp_path, self._doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep-time", "--input", doc, "--out", str(out1)]) == 0
        assert run(["sweep-time", "--input", doc, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_hamiltonians_give_zero_columns(self, tmp_path):
        doc = {
            "species": "boson",
            "N": 1,
            "hamiltonians": [
                {"h": [[0, 0], [0, 0]], "f": [0, 0]},
                {"h": [[0, 0], [0, 0]], "f": [0, 0]},
            ],
            "time": {"t_max": 0.2, "t_step": 0.1, "nmax": [10]},
        }
        out = tmp_path / "zeros.csv"
        assert run(["sweep-time", "--input", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            values = [float(v) for v in line.split(",")[1:-1]]
            assert all(abs(v) < 1e-12 for v in values)

    def test_fig2_sweep_matches_reference(self, tmp_path):
        doc = dict(FIG2_STABLE_NO_T, time={"t_max": 10.0, "t_step": 0.05})
        out = tmp_path / "fig2.csv"
        assert run(["sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "20,40,80",
                    "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        ref = list(csv.reader(FIG2_SWEEP_REF.read_text().splitlines()))
        assert rows[0] == ref[0] and len(rows) == len(ref)
        for row, expected_row in zip(rows[1:], ref[1:]):
            for name, value, expected in zip(ref[0], row, expected_row):
                if name.startswith("reliable"):
                    ok = value == expected
                elif name.startswith("zeta"):
                    ok = abs(wrap_angle(float(value) - float(expected))) <= (
                        FIG2_ATOL + FIG2_RTOL * abs(float(expected)))
                else:
                    ok = math.isclose(float(value), float(expected),
                                      rel_tol=FIG2_RTOL, abs_tol=FIG2_ATOL)
                assert ok, f"t={row[0]} {name}: {value} vs reference {expected}"

    def test_one_evolution_per_state_and_cutoff(self, tmp_path, monkeypatch):
        # U1|0>, U2|0> and U1 U2|0> are evolved once per cutoff over the
        # whole grid, however many rows it has
        calls = []

        def counted(func):
            def wrapper(*args):
                calls.append(func.__name__)
                return func(*args)
            return wrapper

        monkeypatch.setattr(fock._Evolution, "apply", counted(fock._Evolution.apply))
        counts = []
        for t_max in (0.15, 10.0):  # 4 and 201 rows
            doc = dict(FIG2_STABLE_NO_T, time={"t_max": t_max, "t_step": 0.05})
            calls.clear()
            assert run(["sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "20,40,80",
                        "--out", str(tmp_path / "sweep.csv")]) == 0
            counts.append(len(calls))
        assert counts == [9, 9]

    def test_one_hamiltonian_per_document_entry(self, tmp_path, monkeypatch):
        # the analytic columns take the row time as an argument: a Fig. 2
        # sweep builds the two Hamiltonians it parsed and no other
        from gausslift.generator import QuadraticHamiltonian

        built = []
        post_init = QuadraticHamiltonian.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(QuadraticHamiltonian, "__post_init__", counted)
        doc = dict(FIG2_STABLE_NO_T, time={"t_max": 10.0, "t_step": 0.05})
        assert run(["sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "20,40,80",
                    "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(built) == 2

    def test_one_exponential_per_hamiltonian(self, tmp_path, monkeypatch):
        # the analytic columns are one stacked pass over the grid: one
        # mat_exp call per Hamiltonian, each over all 201 times
        from gausslift import generator

        shapes = []
        mat_exp = generator.mat_exp

        def counted(a):
            shapes.append(np.shape(a))
            return mat_exp(a)

        monkeypatch.setattr(generator, "mat_exp", counted)
        doc = dict(FIG2_STABLE_NO_T, time={"t_max": 10.0, "t_step": 0.05})
        assert run(["sweep-time", "--input", write_doc(tmp_path, doc), "--nmax", "20,40,80",
                    "--out", str(tmp_path / "sweep.csv")]) == 0
        assert shapes == [(201, 4, 4), (201, 4, 4)]

    def test_json_rows_match_csv(self, tmp_path, capsys):
        doc = write_doc(tmp_path, self._doc())
        assert run(["sweep-time", "--input", doc]) == 0
        header, *rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert run(["sweep-time", "--input", doc, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"species": "boson", "N": 1,
                       "rows": [dict(zip(header, row)) for row in rows]}

    def test_nmax_flag_overrides(self, tmp_path, capsys):
        doc = write_doc(tmp_path, self._doc())
        assert run(["sweep-time", "--input", doc, "--nmax", "12"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "zeta_numeric_nmax12" in header and "nmax20" not in header


class TestBosonicCommandsLoadNoScipy:
    """The bosonic path runs in numpy alone: no command loads a scipy module."""

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["sweep-time", "--nmax", "20,40,80"],
             dict(FIG2_STABLE_NO_T, time={"t_max": 10.0, "t_step": 0.05})),
            (["lift"], FIG2_STABLE_DOC),
            (["compose"], {"species": "boson", "N": 1, "elements": [
                {"M": [[2.0, 0.0], [0.0, 0.5]], "z": [0.3, -0.2]},
                {"M": [[1, 0], [0, 1]], "z": [1.0, 0.0], "Psi": [0, 1]}]}),
            (["phase"], FIG2_STABLE_DOC),
            (["verify", "--nmax", "80"], FIG2_STABLE_DOC),
            (["sweep-grid"], {"species": "boson", "N": 1}),
        ],
        ids=["fig2-sweep-time", "lift", "compose", "phase", "verify", "sweep-grid"],
    )
    def test_command_loads_no_scipy(self, tmp_path, argv, doc):
        # this suite imports scipy itself, so only a fresh interpreter shows
        # which modules the CLI import and the command load
        code = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import gausslift.cli\n"
            "after_import = scipy_modules()\n"
            "code = gausslift.cli.main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, after_import, scipy_modules()]))\n"
        )
        argv = argv + ["--input", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(proc.stdout) == [0, [], []]


class TestSweepGrid:
    def _doc(self, rho=0.0, tau=0.0):
        return {
            "species": "boson",
            "N": 1,
            "grid": {"a": [-1.0, 1.0, 3], "c": [-1.0, 1.0, 3], "rho": rho, "tau": tau},
        }

    def test_row_major_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["sweep-grid", "--input", write_doc(tmp_path, self._doc()),
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,c,arg,modulus,status"
        a_vals = [float(line.split(",")[0]) for line in lines[1:]]
        c_vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert a_vals == [-1, -1, -1, 0, 0, 0, 1, 1, 1]
        assert c_vals == [-1, 0, 1] * 3

    def test_zero_displacement_reduces_to_homogeneous(self, tmp_path, capsys):
        # rho = 0 must reproduce the f-free phase/modulus surface
        import gausslift as gl

        assert run(["sweep-grid", "--input", write_doc(tmp_path, self._doc()),
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        k = gl.standard_kahler(1)
        x_gen = np.array([[0.0, 1.0], [1.0, 0.0]])
        for row in rows:
            kgen = float(row["a"]) * x_gen + float(row["c"]) * np.asarray(k.j)
            ham = gl.QuadraticHamiltonian(h=k.omega_inv @ kgen)
            amp = gl.gqh_overlap_analytic(ham, k)
            assert float(row["arg"]) == pytest.approx(np.angle(amp), abs=1e-12)
            assert float(row["modulus"]) == pytest.approx(abs(amp), abs=1e-12)

    def test_rotation_axis_phase_slope(self, tmp_path, capsys):
        # cells (a, c) = (0, t): phase is linear in t with slope -1/2, modulus 1
        doc = {
            "species": "boson",
            "N": 1,
            "grid": {"a": [0.0, 0.0, 1], "c": [0.2, 1.0, 5], "rho": 0.0, "tau": 0.0},
        }
        assert run(["sweep-grid", "--input", write_doc(tmp_path, doc),
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for row in rows:
            assert float(row["arg"]) == pytest.approx(-0.5 * float(row["c"]), abs=1e-10)
            assert float(row["modulus"]) == pytest.approx(1.0, abs=1e-10)

    def test_deg_suffix_flag(self, tmp_path, capsys):
        assert run(["sweep-grid", "--input", write_doc(tmp_path, self._doc(rho=1.0)),
                    "--tau", "45deg", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau"] == pytest.approx(np.pi / 4)

    def test_radian_flag_matches_deg_suffix(self, tmp_path):
        path = write_doc(tmp_path, self._doc())
        outputs = []
        for tau in ("45deg", "0.7853981633974483"):
            out = tmp_path / "grid.csv"
            assert run(["sweep-grid", "--input", path, "--rho", "1", "--tau", tau,
                        "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestFermionCommand:
    def test_reports_reflection_and_pin_phase(self, tmp_path, capsys):
        import gausslift as gl

        rng = np.random.default_rng(11)
        kf = gl.standard_kahler(2, gl.Species.FERMION)
        m = gl.mw_reflection(gl.reference_reflection(kf), kf) @ gl.mat_exp(
            __import__("conftest").random_antisymmetric(rng, 4)
        )
        doc = {"species": "fermion", "N": 2, "M": m.tolist(),
               "hamiltonians": [{"h": (0.3 * np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                                                       [0, 0, 0, 1], [0, 0, -1, 0]])).tolist()}]}
        assert run(["fermion", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["M_w_det"] == pytest.approx(-1.0)
        assert out["M_w_involution_residual"] < 1e-12
        assert out["pin"]["oracle_agreement"] < 1e-8
        assert out["amplitudes"][0]["squared_identity_residual"] < 1e-8

    def test_reflection_vector_is_rescaled(self, tmp_path, capsys):
        w = [1.0, 2.0, -0.5, 0.3]
        doc = {"species": "fermion", "N": 2, "w": w}
        assert run(["fermion", "--input", write_doc(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["w"], np.array(w) * np.sqrt(2.0 / np.dot(w, w)),
                                   rtol=1e-15)
        assert np.dot(out["w"], out["w"]) == pytest.approx(2.0, abs=1e-14)
        mw = np.array(out["M_w"])
        np.testing.assert_allclose(mw, np.outer(out["w"], out["w"]) - np.eye(4), atol=0)
        assert out["M_w_det"] == pytest.approx(-1.0, abs=1e-12)

    def test_boson_species_rejected(self, tmp_path):
        assert run(["fermion", "--input", write_doc(tmp_path, {"species": "boson", "N": 1})]) == 2
