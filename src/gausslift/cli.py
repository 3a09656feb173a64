"""Command-line front door.

Subcommands: compose, lift, phase, verify, sweep-time, sweep-grid, fermion.
Inputs arrive as a JSON document (``--input`` file or ``-`` for stdin) plus
flags; sweeps emit CSV with floats at 17 significant digits, single results
emit JSON.  Angles in files are radians; degrees are accepted at the flag
level with an explicit ``deg`` suffix only.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 numerical-domain
error.
"""

import argparse
import json
import sys

import numpy as np

from .errors import GaussLiftError, InputError, NumericalDomainError
from .fermion import (
    build_majorana,
    fermion_vacuum_amplitude,
    mw_reflection,
    normalize_reflection,
    pin_component_phase,
    pin_vacuum_amplitude,
    reference_reflection,
)
from .fock import _number_expectation_from_parts, _PairOracle, build_fock
from .generator import (
    QuadraticHamiltonian,
    _affine_exp,
    gqh_overlap_analytic,
    lift_from_gqh,
    vacuum_phase_stable,
    vacuum_phase_tracked,
)
from .inhomogeneous import LiftedGaussian, ig_multiply, zeta_cocycle
from .matfunc import _first, _first_failure, complex_det, mat_exp, wrap_angle
from .phase_space import Species, split_cd, standard_kahler, validate_group_element

_FLOAT_FMT = "%.17g"

#: largest N (every command builds its structure from N before it reads a
#: matrix) and largest sweep row count (``sweep-time`` times, ``sweep-grid`` points)
_MAX_MODES, _MAX_ROWS = 64, 100_000


def _fmt(x):
    return _FLOAT_FMT % float(x)


def _complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _fail(code, kind, message):
    doc = {"error": {"code": kind, "message": message}}
    sys.stderr.write(json.dumps(doc) + "\n")
    return code


def _load_document(path):
    if path is None:
        return {}
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    return _object(doc, "input document")


def _object(value, name):
    if not isinstance(value, dict):
        raise InputError(f"{name} must be a JSON object")
    return value


def _require(doc, key, kind=None):
    if key not in doc:
        raise InputError(f"input document lacks required field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"field {key!r} has wrong type")
    return value


def _convert(kind, value, name):
    """``kind(value)``; a value that does not convert is an input error."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InputError(f"{name} has an invalid value {value!r}") from None


def _parse_int(value, name):
    """An integer field: a boolean or a number with a fractional part (or no
    finite value) is an input error, as is anything ``int`` does not take."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return _convert(int, value, name)


def _parse_float(value, name):
    """A real field: a value that is not a finite number is an input error."""
    x = _convert(float, value, name)
    if not np.isfinite(x):
        raise InputError(f"{name} must be finite, got {x!r}")
    return x


def _parse_modes(doc):
    n_modes = _parse_int(_require(doc, "N"), "N")
    if n_modes > _MAX_MODES:
        raise InputError(f"N must be at most {_MAX_MODES}, got {n_modes}")
    return n_modes


def _parse_species(doc):
    name = doc.get("species", "boson")
    try:
        return Species(name)
    except ValueError:
        raise InputError(f"unknown species {name!r}") from None


def _structure(args, species=None, message=None):
    """(document, structure) of a command's input; when ``species`` is given,
    a document of another species is an input error with ``message``."""
    doc = _load_document(args.input)
    found = _parse_species(doc)
    if species is not None and found is not species:
        raise InputError(message)
    return doc, standard_kahler(_parse_modes(doc), found)


def _float_array(obj):
    return np.asarray(obj, dtype=float)


def _parse_matrix(obj, n2, name):
    m = _convert(_float_array, obj, name)
    if m.shape != (n2, n2):
        raise InputError(f"{name} must be a {n2}x{n2} row-major matrix")
    return m


def _parse_vector(obj, n2, name):
    v = _convert(_float_array, obj, name)
    if v.shape != (n2,):
        raise InputError(f"{name} must be a length-{n2} vector")
    return v


def _parse_hamiltonians(doc, k, minimum=1):
    items = _require(doc, "hamiltonians", list)
    if len(items) < minimum:
        raise InputError(f"need at least {minimum} hamiltonian(s)")
    out = []
    for i, item in enumerate(items):
        item = _object(item, f"hamiltonians[{i}]")
        h = _parse_matrix(_require(item, "h"), k.dim, f"hamiltonians[{i}].h")
        f = item.get("f")
        if f is not None:
            f = _parse_vector(f, k.dim, f"hamiltonians[{i}].f")
        c = _convert(float, item.get("c", 0.0), f"hamiltonians[{i}].c")
        out.append(QuadraticHamiltonian(h=h, f=f, c=c, species=k.species))
    return out


def _parse_elements(doc, k):
    items = _require(doc, "elements", list)
    out = []
    for i, item in enumerate(items):
        item = _object(item, f"elements[{i}]")
        m = _parse_matrix(_require(item, "M"), k.dim, f"elements[{i}].M")
        z = _parse_vector(item.get("z", [0.0] * k.dim), k.dim, f"elements[{i}].z")
        psi_raw = item.get("Psi", [1.0, 0.0])
        if not isinstance(psi_raw, (list, tuple)) or len(psi_raw) != 2:
            raise InputError(f"elements[{i}].Psi must be a [re, im] pair")
        psi_re, psi_im = (_convert(float, v, f"elements[{i}].Psi") for v in psi_raw)
        out.append(LiftedGaussian(m=m, z=z, psi=complex(psi_re, psi_im), k=k))
    return out


def _element_doc(u):
    return {
        "M": u.m.tolist(),
        "z": u.z.tolist(),
        "Psi": _complex_pair(u.psi),
    }


def _parse_angle(text, name):
    """A finite angle in radians, or in degrees with a ``deg`` suffix."""
    text = text.strip()
    if text.endswith("deg"):
        return _parse_float(text[:-3], name) * np.pi / 180.0
    return _parse_float(text, name)


def _parse_nmax_list(value, default):
    items = default if value is None else str(value).split(",")
    if not isinstance(items, list):
        raise InputError("time.nmax must be a list of cutoffs")
    return [_parse_int(v, "n_max") for v in items if v != ""]


def _parse_grid_axis(spec, key):
    """The grid's (min, max, num) triple for axis ``key``."""
    triple = spec.get(key, [-2.0, 2.0, 9])
    if not isinstance(triple, list) or len(triple) != 3:
        raise InputError(f"grid.{key} must be a [min, max, num] triple")
    name = f"grid.{key}"
    num = _parse_int(triple[2], f"{name} point count")
    if num < 0:
        raise InputError(f"{name} needs a non-negative point count")
    return _parse_float(triple[0], name), _parse_float(triple[1], name), num


def _write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc, out_path):
    _write_output(json.dumps(doc, indent=2), out_path)


def _emit_rows(args, header, rows, doc):
    """A sweep's rows: CSV, or for ``--format json`` ``doc`` with one object
    per row under ``rows``."""
    if args.format == "json":
        _emit_json(dict(doc, rows=[dict(zip(header, row)) for row in rows]), args.out)
    else:
        lines = [",".join(header)] + [",".join(row) for row in rows]
        _write_output("\n".join(lines) + "\n", args.out)


def _analytic_pair(h1, h2, t, k):
    """Analytic zeta, reduced to (-pi, pi], and total number of U1(t) U2(t),
    at a time or over a 1-D array of times in one stacked pass; a non-finite
    value is a numerical-domain error, at the first time that has one.
    Overflow on the way to it is silenced, so that the error stays the only
    output on stderr."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, z1, m1 = _affine_exp(h1, k, t)
        _, z2, m2 = _affine_exp(h2, k, t)
        zeta = wrap_angle(zeta_cocycle(m1, z1, m2, z2, k))
        number = _number_expectation_from_parts(m1, m2, z1, z2, k)
    finite = np.isfinite(zeta) & np.isfinite(number)
    if not finite.all():
        t = float(np.reshape(t, -1)[_first(~finite)])
        raise NumericalDomainError(f"analytic zeta or N is not finite at t = {t}")
    return zeta, number


def _cmd_compose(args):
    doc, k = _structure(args)
    elements = _parse_elements(doc, k)
    if not elements:
        raise InputError("compose needs at least one element")
    product = elements[0]
    for el in elements[1:]:
        product = ig_multiply(product, el)
    out = {
        "species": k.species.value,
        "N": k.n_modes,
        "elements": [_element_doc(product)],
    }
    if len(elements) == 2:
        out["zeta"] = zeta_cocycle(elements[0].m, elements[0].z, elements[1].m, elements[1].z, k)
    _emit_json(out, args.out)
    return 0


def _cmd_lift(args):
    doc, k = _structure(args, Species.BOSON, "lift covers bosonic hamiltonians")
    elements = []
    diagnostics = []
    for ham in _parse_hamiltonians(doc, k):
        lifted = lift_from_gqh(ham, k)
        _, residual = validate_group_element(lifted.m, k)
        elements.append(_element_doc(lifted))
        diagnostics.append(
            {
                "group_residual": residual,
                "psi_modulus_error": abs(abs(lifted.psi) - 1.0),
                "phase_method": "tracked",
            }
        )
    _emit_json(
        {"species": k.species.value, "N": k.n_modes, "elements": elements,
         "diagnostics": diagnostics},
        args.out,
    )
    return 0


def _cmd_phase(args):
    doc, k = _structure(args)
    results = []
    for ham in _parse_hamiltonians(doc, k):
        # the fermionic generator is h itself, as in ``fermion_vacuum_amplitude``
        kgen = ham.h if k.species is Species.FERMION else k.omega @ ham.h
        tracked = vacuum_phase_tracked(kgen, k)
        entry = {"phase_tracked": _complex_pair(tracked)}
        try:
            stable = vacuum_phase_stable(kgen, k)
            entry["phase_stable"] = _complex_pair(stable)
            entry["method_agreement"] = abs(stable - tracked)
        except GaussLiftError as exc:
            entry["phase_stable"] = None
            entry["stable_rejected"] = str(exc)
        results.append(entry)
    _emit_json({"species": k.species.value, "N": k.n_modes, "phases": results}, args.out)
    return 0


def _cmd_verify(args):
    doc, k = _structure(args, Species.BOSON, "verify covers bosonic hamiltonians")
    hams = _parse_hamiltonians(doc, k, minimum=2)
    h1, h2 = hams[0], hams[1]
    t = _parse_float(doc.get("t", args.t), "t")
    tol = args.tol
    if not (np.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be finite and positive, got {tol!r}")
    nmax_list = _parse_nmax_list(args.nmax, [80])
    if len(nmax_list) != 1:
        raise InputError("verify checks a single Fock cutoff")
    nmax = nmax_list[0]
    rep = build_fock(k.n_modes, nmax)

    checks = []

    def record(name, deviation):
        checks.append({"check": name, "deviation": deviation, "pass": bool(deviation < tol)})

    zeta, number = _analytic_pair(h1, h2, t, k)
    oracle = _PairOracle(h1, h2, t, rep)
    record("zeta", abs(wrap_angle(zeta - oracle.zeta)))
    record("number_expectation", abs(number - oracle.number))
    # the oracle has evolved U1|0> and U2|0>; its ``zeta`` checked their amplitudes
    for name, ham, amp in zip(("U1", "U2"), (h1, h2), map(complex, oracle._columns[:2])):
        analytic = gqh_overlap_analytic(ham.scaled(t), k)
        record(f"{name}_phase", abs(wrap_angle(np.angle(analytic) - np.angle(amp))))
        record(f"{name}_modulus", abs(abs(analytic) - abs(amp)))
    reliable = oracle.reliable
    verdict = all(c["pass"] for c in checks)
    _emit_json(
        {
            "species": k.species.value,
            "N": k.n_modes,
            "t": t,
            "n_max": nmax,
            "tol": tol,
            "reliable": bool(reliable),
            "checks": checks,
            "verdict": "pass" if verdict else "fail",
        },
        args.out,
    )
    return 0 if verdict else 1


def _cmd_sweep_time(args):
    doc, k = _structure(args, Species.BOSON, "time sweeps cover bosonic hamiltonians")
    hams = _parse_hamiltonians(doc, k, minimum=2)
    h1, h2 = hams[0], hams[1]
    spec = _object(doc.get("time", {}), "time")
    t_max = _parse_float(spec.get("t_max", 10.0), "time.t_max")
    t_step = _parse_float(spec.get("t_step", 0.05), "time.t_step")
    if not (t_step > 0 and t_max >= 0):
        raise InputError("time grid needs t_step > 0 and a finite t_max >= 0")
    ratio = t_max / t_step  # rows - 1; inf if the quotient overflows
    if not ratio < _MAX_ROWS - 0.5:
        raise InputError(f"time.t_step must give at most {_MAX_ROWS} rows, got {ratio + 1:.6g}")
    nmax_list = _parse_nmax_list(args.nmax, spec.get("nmax", [80]))
    reps = {n: build_fock(k.n_modes, n) for n in nmax_list}
    ts = np.arange(int(round(ratio)) + 1) * t_step

    header = ["t", "zeta_analytic"]
    header += [f"zeta_numeric_nmax{n}" for n in nmax_list]
    header += ["N_analytic"]
    header += [f"N_numeric_nmax{n}" for n in nmax_list]
    header += [f"reliable_nmax{n}" for n in nmax_list]

    # Column by column: the analytic columns in one stacked pass over the
    # grid, then one batched oracle per cutoff.  Each stage stops at the
    # earliest row that failed so far, so the error raised is the one a
    # row-by-row sweep (analytic first, then the cutoffs in order) would meet
    # first; a failed stacked pass finds that row by running its rows alone.
    stop, error = len(ts), None
    try:
        zetas, numbers = _analytic_pair(h1, h2, ts, k)
    except GaussLiftError as exc:
        (stop,), error = _first_failure(_analytic_pair, (h1, h2, ts, k),
                                        (None, None, 0, None)) or ((0,), exc)
    oracles = []
    for n in nmax_list:
        oracle = _PairOracle(h1, h2, ts[:stop], reps[n])
        if stop and oracle.failure is not None:
            stop, error = oracle.failure
        oracles.append(oracle)
    if error is not None:
        raise error

    rows = []
    for i, (t, zeta, number) in enumerate(zip(ts, zetas, numbers)):
        row = [_fmt(t), _fmt(zeta)]
        row += [_fmt(o.zeta[i]) for o in oracles]
        row.append(_fmt(number))
        row += [_fmt(o.number[i]) for o in oracles]
        row += [str(int(o.reliable[i])) for o in oracles]
        rows.append(row)
    _emit_rows(args, header, rows, {"species": k.species.value, "N": k.n_modes})
    return 0


def _cmd_sweep_grid(args):
    doc, k = _structure(args, Species.BOSON, "grid sweeps cover bosonic hamiltonians")
    if k.n_modes != 1:
        raise InputError("the (a, c) grid sweep is a single-mode study")
    spec = _object(doc.get("grid", {}), "grid")
    a_axis = _parse_grid_axis(spec, "a")
    c_axis = _parse_grid_axis(spec, "c")
    if a_axis[2] * c_axis[2] > _MAX_ROWS:
        raise InputError(f"grid.a and grid.c must give at most {_MAX_ROWS} points, "
                         f"got {a_axis[2]} x {c_axis[2]}")
    a_vals, c_vals = np.linspace(*a_axis), np.linspace(*c_axis)
    rho = _parse_float(spec.get("rho", 0.0) if args.rho is None else args.rho, "rho")
    if args.tau is None:
        tau = _parse_float(spec.get("tau", 0.0), "tau")
    else:
        tau = _parse_angle(args.tau, "tau")
    x_gen = np.array([[0.0, 1.0], [1.0, 0.0]])
    z_gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = rho * np.array([np.cos(tau), np.sin(tau)])

    header = ["a", "c", "arg", "modulus", "status"]
    rows = []
    for a in a_vals:
        for c in c_vals:
            kgen = a * x_gen + c * z_gen
            ham = QuadraticHamiltonian(h=k.omega_inv @ kgen, f=f)
            try:
                amp = gqh_overlap_analytic(ham, k)
                rows.append([_fmt(a), _fmt(c), _fmt(np.angle(amp)), _fmt(abs(amp)), "ok"])
            except NumericalDomainError as exc:
                rows.append([_fmt(a), _fmt(c), "nan", "nan", type(exc).__name__])
    _emit_rows(args, header, rows, {"species": k.species.value, "N": 1, "rho": rho, "tau": tau})
    return 0


def _cmd_fermion(args):
    doc, k = _structure(args, Species.FERMION, "the fermion command expects species 'fermion'")
    n_modes = k.n_modes
    out = {"species": k.species.value, "N": n_modes}
    refl = reference_reflection(k)
    if "w" in doc:
        refl = normalize_reflection(_parse_vector(doc["w"], k.dim, "w"), k)
    out["w"] = refl.tolist()
    mw = mw_reflection(refl, k)
    out["M_w"] = mw.tolist()
    out["M_w_det"] = float(np.linalg.det(mw))
    out["M_w_involution_residual"] = float(np.max(np.abs(mw @ mw - np.eye(k.dim))))
    rep = None  # the Majorana oracle, built on first use
    if "M" in doc:
        m = _parse_matrix(doc["M"], k.dim, "M")
        phase = pin_component_phase(m, refl, k)
        det = float(np.linalg.det(m))
        entry = {"det": det, "phase": _complex_pair(phase)}
        if n_modes <= 5:
            rep = build_majorana(n_modes)
            oracle = pin_vacuum_amplitude(m if det > 0 else mw @ m, rep)
            entry["oracle_phase"] = _complex_pair(oracle / abs(oracle))
            entry["oracle_agreement"] = abs(phase - oracle / abs(oracle))
        out["pin"] = entry
    if "hamiltonians" in doc:
        entries = []
        for ham in _parse_hamiltonians(doc, k):
            rep = rep or build_majorana(n_modes)
            amp = fermion_vacuum_amplitude(ham.h, rep)
            det = complex_det(split_cd(mat_exp(ham.h), k)[0])
            entries.append({"amplitude": _complex_pair(amp),
                            "squared_identity_residual": abs(amp * amp - det)})
        out["amplitudes"] = entries
    _emit_json(out, args.out)
    return 0


_COMMANDS = {
    "compose": _cmd_compose,
    "lift": _cmd_lift,
    "phase": _cmd_phase,
    "verify": _cmd_verify,
    "sweep-time": _cmd_sweep_time,
    "sweep-grid": _cmd_sweep_grid,
    "fermion": _cmd_fermion,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gausslift",
        description="Compose, lift, and verify phase-exact Gaussian unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON input document (path or '-' for stdin)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        if name in ("verify", "sweep-time"):
            p.add_argument("--nmax", help="Fock cutoff(s), comma separated for sweeps")
        if name == "verify":
            p.add_argument("--tol", type=float, default=1e-5, help="verification tolerance")
            p.add_argument("--t", type=float, default=1.0, help="evolution time")
        if name == "sweep-grid":
            p.add_argument("--rho", help="displacement magnitude")
            p.add_argument("--tau", help="displacement angle, radians or e.g. '45deg'")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    is_sweep = args.command.startswith("sweep-")
    if args.format is None:
        args.format = "csv" if is_sweep else "json"
    if args.format == "csv" and not is_sweep:
        return _fail(2, "input", f"{args.command} emits JSON; csv is for sweeps")
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        return _fail(2, "input", str(exc))
    except GaussLiftError as exc:
        return _fail(3, "numerical-domain", str(exc))


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
