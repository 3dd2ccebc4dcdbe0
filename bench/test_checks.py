"""The output checks accept correct rows and reject each perturbed value.

    python3 -m pytest bench/test_checks.py -q

The correct rows are written from the reference formulas in checks.py; the
last test runs the program itself on one call of each command shape.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys

import pytest

import checks
from checks import check, clearance, filled_puncture_bound, phi_modulus
from workloads import ANNULUS_R, STEPS, Inputs, Op, format_point, sweep_range

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def g(x: float) -> str:
    return f"{x:.17g}"


def csv_out(header: str, rows: list[list[str]]) -> str:
    def field(v):
        return f'"{v}"' if "," in v else v
    return "\n".join([header] + [",".join(field(v) for v in r) for r in rows]) + "\n"


def mobius_witness(coords) -> str:
    return ";".join(f"mobius({g(c.real)},{g(c.imag)},0)" for c in coords)


def eval_op(domain: str, coords) -> Op:
    return Op(("eval", "--spec", "unused.json", "--point=" + format_point(coords)),
              "eval", domain, tuple(coords))


def eval_out(lower, upper, exact, witness) -> str:
    exact_s = "" if exact is None else g(exact)
    return csv_out("lower,upper,exact,methods,witness",
                   [[g(lower), g(upper), exact_s, "ClosedForm", witness]])


# ------------------------------------------------------------- eval rows

P2 = (0.5 + 0.1j, -0.3 + 0.2j)
P2_REF = min(abs(c) for c in P2)
AD = (0.6 - 0.1j, 0.2 + 0.3j)
AD_X = abs(AD[0])
AD_REF = max(AD_X, ANNULUS_R / AD_X)
M3 = (0.1 + 0.2j, 0.3 + 0j)
M3_PS = (0j, 0.5 + 0j, -0.5j)
M3_CERT = min(phi_modulus(M3[0], p) for p in M3_PS)
M3_CAP = filled_puncture_bound(M3[0], M3_PS)

EVAL_CASES = {
    "punctured2": (P2, dict(lower=P2_REF, upper=P2_REF, exact=P2_REF, witness=mobius_witness(P2))),
    "annulus_disk": (AD, dict(lower=AD_REF, upper=1.0, exact=AD_REF, witness=mobius_witness(AD))),
    "three_puncture_disk": (M3, dict(lower=M3_CERT, upper=M3_CAP, exact=None,
                                     witness=mobius_witness(M3))),
}


@pytest.mark.parametrize("domain", sorted(EVAL_CASES))
def test_correct_eval_row_passes(domain):
    coords, row = EVAL_CASES[domain]
    assert check(eval_op(domain, coords), 0, eval_out(**row)) == (1, [])


EVAL_PERTURBED = [
    ("punctured2", "exact", P2_REF + 1e-10),
    ("punctured2", "upper", P2_REF + 1e-10),
    ("punctured2", "lower", P2_REF - 2e-6),
    ("punctured2", "lower", P2_REF + 1e-8),
    ("punctured2", "witness", mobius_witness((P2[0] + 1e-9, P2[1]))),
    ("punctured2", "witness", mobius_witness(P2[:1])),
    ("annulus_disk", "exact", AD_REF - 1e-10),
    ("annulus_disk", "lower", clearance(ANNULUS_R, AD_X) - 1e-10),
    ("annulus_disk", "lower", AD_REF + 1e-8),
    ("annulus_disk", "upper", 1.0 + 1e-8),
    ("annulus_disk", "upper", AD_REF - 1e-3),
    ("three_puncture_disk", "lower", M3_CERT - 1e-8),
    ("three_puncture_disk", "lower", -1e-3),
    ("three_puncture_disk", "upper", M3_CAP + 1e-10),
    ("three_puncture_disk", "exact", M3_CAP + 1e-3),
]


@pytest.mark.parametrize("domain,field,value", EVAL_PERTURBED)
def test_perturbed_eval_row_fails(domain, field, value):
    coords, row = EVAL_CASES[domain]
    row = {**row, field: value}
    rows, fails = check(eval_op(domain, coords), 0, eval_out(**row))
    assert fails, f"{domain}: {field}={value!r} was accepted"


def test_nonzero_exit_fails():
    coords, row = EVAL_CASES["punctured2"]
    assert check(eval_op("punctured2", coords), 3, eval_out(**row))[1] == ["exit code 3"]


# ---------------------------------------------------------- profile rows

def profile_rows(domain: str, coords, axis: int):
    factors = checks.DOMAINS[domain]
    lo, hi = sweep_range(factors[axis])
    direction = coords[axis] / abs(coords[axis])
    rows = []
    for k in range(STEPS):
        param = lo + k * (hi - lo) / (STEPS - 1)
        z = list(coords)
        z[axis] = param * direction
        if domain == "annulus_disk":
            x = abs(z[0])
            v = max(x, ANNULUS_R / x)
            rows.append([g(param), g(v), "1", g(v), g(clearance(ANNULUS_R, x))])
        else:
            v = min(abs(c) for c in z)
            rows.append([g(param), g(v), g(v), g(v), ""])
    op = Op(("profile",), "profile", domain, tuple(coords), axis)
    return op, rows


PROFILE_HEADER = "param,lower,upper,exact,clearance_lower"


@pytest.mark.parametrize("domain,coords", [("punctured2", P2), ("annulus_disk", AD)])
def test_correct_profile_passes(domain, coords):
    op, rows = profile_rows(domain, coords, 0)
    assert check(op, 0, csv_out(PROFILE_HEADER, rows)) == (STEPS, [])


@pytest.mark.parametrize("domain,coords,col,delta", [
    ("punctured2", P2, 0, 1e-9),        # param off the sweep grid
    ("punctured2", P2, 2, 1e-10),       # upper
    ("punctured2", P2, 3, -1e-10),      # exact
    ("annulus_disk", AD, 4, 1e-10),     # clearance_lower
    ("annulus_disk", AD, 3, 1e-10),     # exact
])
def test_perturbed_profile_fails(domain, coords, col, delta):
    op, rows = profile_rows(domain, coords, 0)
    rows[100][col] = g(float(rows[100][col]) + delta)
    assert check(op, 0, csv_out(PROFILE_HEADER, rows))[1]


def test_profile_missing_rows_fails():
    op, rows = profile_rows("punctured2", P2, 0)
    assert check(op, 0, csv_out(PROFILE_HEADER, rows[:-1]))[1]


# ------------------------------------------------------------ limit rows

def limit_rows(side: str):
    r = ANNULUS_R
    s = math.sqrt(r)
    start, end = (1 - s, 1e-4) if side == "outer" else (s - r, 1e-4 * (1 - r))
    deltas = [start * (end / start) ** (k / (STEPS - 1)) for k in range(STEPS)]
    xs = [1 - d if side == "outer" else r + d for d in deltas]
    op = Op(("limit", "--r", repr(r), "--side", side), "limit", side=side)
    return op, [[g(x), g(clearance(r, x))] for x in xs]


@pytest.mark.parametrize("side", ["outer", "inner"])
def test_limit_rows(side):
    op, rows = limit_rows(side)
    assert check(op, 0, csv_out("param,bound", rows)) == (STEPS, [])
    bumped = [list(r) for r in rows]
    bumped[7][1] = g(float(bumped[7][1]) + 1e-10)
    assert check(op, 0, csv_out("param,bound", bumped))[1]
    short = rows[:100]   # ends before the bound reaches 1 - 2e-3
    assert any("last bound" in f for f in check(op, 0, csv_out("param,bound", short))[1])


# ----------------------------------------------------------- verify rows

def test_verify_rows():
    op = Op(("verify", "--suite", "hhr"), "verify", "hhr")
    good = csv_out("status,check,detail", [["PASS", "hhr.a", "x"], ["PASS", "hhr.b", "y"]])
    good += "# 2/2 checks passed\n"
    assert check(op, 0, good) == (2, [])
    bad = good.replace("PASS,hhr.b", "FAIL,hhr.b").replace("2/2", "1/2")
    assert check(op, 0, bad)[1]
    assert check(op, 4, good)[1]


# ------------------------------------------------- the program's real output

def test_program_output_passes(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from polysqueeze import cli
    finally:
        sys.path.pop(0)
    ops = []
    for workload in ("eval_search", "sweep_nosearch"):
        ops += Inputs(workload, 7, str(tmp_path)).warmup()
    ops.append(Op(("verify", "--suite", "hhr"), "verify", "hhr"))
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
        rows, fails = check(op, rc, buf.getvalue())
        assert rows > 0 and fails == [], (op.argv, fails)
