"""Output checks, computed from the benchmark's own formulas.

Nothing here imports the program.  The reference values are the closed forms
of the paper's catalog, written out again:

- a punctured factor with puncture p at z: |phi_z(p)| = |(z - p) / (1 - conj(p) z)|;
- an annulus r < |z| < 1 times disks, at x = |z_1|: max(x, r/x), and the
  boundary clearance max((x - r)/(1 - r x), r (1 - x)/(x - r^2));
- a factor with several punctures: the filled-puncture bound
  min over admissible p of |z - p| / rho_p, with
  rho_p = min(min_{q != p} |q - p|, 1 - |p|) and p admissible when
  |z - p| < rho_p.

``check(op, rc, out)`` returns the number of data rows and the list of failed
checks for one CLI call; an empty list means every row passed.
"""

from __future__ import annotations

import cmath
import csv
import math
import re

from workloads import DOMAINS, STEPS, sweep_range

EXACT_TOL = 1e-12     # closed forms and their programmatic re-evaluations
ORDER_TOL = 1e-9      # lower <= upper, upper <= 1, sampled overshoot
SEARCH_TOL = 1e-6     # witness search may stay this far under a closed form
LIMIT_FLOOR = 1.0 - 2e-3


# ------------------------------------------------------------ reference values

def phi_modulus(z: complex, p: complex) -> float:
    return abs((z - p) / (1.0 - p.conjugate() * z))


def clearance(r: float, x: float) -> float:
    return max((x - r) / (1.0 - r * x), r * (1.0 - x) / (x - r * r))


def filled_puncture_bound(z: complex, ps) -> float:
    best = 1.0
    for p in ps:
        others = [abs(q - p) for q in ps if q != p]
        rho = min(min(others, default=math.inf), 1.0 - abs(p))
        if abs(z - p) < rho:
            best = min(best, abs(z - p) / rho)
    return best


def certified_by_phi(factors, z) -> float:
    """What the witness phi_z certifies factorwise: 1 on a disk, min_p |phi_z(p)|."""
    vals = [1.0]
    for f, c in zip(factors, z):
        if f[0] == "punctured":
            vals.append(min(phi_modulus(c, p) for p in f[1]))
    return min(vals)


def domain_class(factors) -> str:
    kinds = [f[0] for f in factors]
    if all(k == "disk" or (k == "punctured" and len(f[1]) == 1) for k, f in zip(kinds, factors)):
        return "puncture_catalog"
    if kinds.count("annulus") == 1 and kinds.count("disk") == len(kinds) - 1:
        return "annulus"
    return "multi_puncture"


# -------------------------------------------------------------------- parsing

def _rows(out: str) -> list[list[str]]:
    return list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))


def _float(text: str, name: str, fails: list) -> float | None:
    try:
        v = float(text)
    except ValueError:
        fails.append(f"{name}={text!r} is not a number")
        return None
    if not math.isfinite(v):
        fails.append(f"{name}={text!r} is not finite")
        return None
    return v


_STEP = re.compile(r"^(mobius|reflect)\(([^)]*)\)$")


def witness_image(text: str, z: complex) -> complex:
    """Apply one witness component, 'mobius(re,im,theta)|reflect(r)|include', to z."""
    w = z
    for token in text.split("|"):
        if token == "include":
            continue
        m = _STEP.match(token)
        if m is None:
            raise ValueError(f"unknown witness step {token!r}")
        args = [float(v) for v in m.group(2).split(",")]
        if m.group(1) == "mobius":
            a = complex(args[0], args[1])
            w = cmath.exp(1j * args[2]) * (w - a) / (1.0 - a.conjugate() * w)
        else:
            w = args[0] / w
    return w


# --------------------------------------------------------------------- checks

def check_bounds(factors, z, row: dict, searched: bool) -> list[str]:
    """Checks on one (lower, upper, exact[, clearance_lower]) row at the point z."""
    fails: list[str] = []
    lower = _float(row["lower"], "lower", fails)
    upper = _float(row["upper"], "upper", fails)
    exact = _float(row["exact"], "exact", fails) if row["exact"] else None
    if lower is None or upper is None or fails:
        return fails
    if not (0.0 <= lower <= upper + ORDER_TOL):
        fails.append(f"lower={lower!r} outside [0, upper={upper!r}]")
    if upper > 1.0 + ORDER_TOL:
        fails.append(f"upper={upper!r} above 1")
    if exact is not None and not (lower - ORDER_TOL <= exact <= upper + ORDER_TOL):
        fails.append(f"exact={exact!r} outside [lower, upper]")

    cls = domain_class(factors)
    if cls == "puncture_catalog":
        ref = certified_by_phi(factors, z)
        if exact is None or abs(exact - ref) > EXACT_TOL:
            fails.append(f"exact={exact!r} reference={ref!r}")
        if abs(upper - ref) > EXACT_TOL:
            fails.append(f"upper={upper!r} reference={ref!r}")
        if not (ref - SEARCH_TOL <= lower <= ref + ORDER_TOL):
            fails.append(f"lower={lower!r} outside [ref-1e-6, ref+1e-9], ref={ref!r}")
    elif cls == "annulus":
        i = next(k for k, f in enumerate(factors) if f[0] == "annulus")
        r, x = factors[i][1], abs(z[i])
        ref = max(x, r / x)
        cl = clearance(r, x)
        if exact is None or abs(exact - ref) > EXACT_TOL:
            fails.append(f"exact={exact!r} reference={ref!r}")
        if lower < cl - EXACT_TOL:
            fails.append(f"lower={lower!r} below clearance {cl!r}")
        if lower > ref + ORDER_TOL:
            fails.append(f"lower={lower!r} above the exact value {ref!r}")
        if "clearance_lower" in row:
            got = _float(row["clearance_lower"], "clearance_lower", fails) if row["clearance_lower"] else None
            if got is None or abs(got - cl) > EXACT_TOL:
                fails.append(f"clearance_lower={row['clearance_lower']!r} reference={cl!r}")
    else:
        cap = min(filled_puncture_bound(c, f[1]) for f, c in zip(factors, z) if f[0] == "punctured")
        if upper > cap + EXACT_TOL:
            fails.append(f"upper={upper!r} above the filled-puncture bound {cap!r}")
        if searched:
            cert = certified_by_phi(factors, z)
            if lower < cert - ORDER_TOL:
                fails.append(f"lower={lower!r} below min_p |phi_z(p)| = {cert!r}")
    if cls != "annulus" and row.get("clearance_lower"):
        fails.append(f"clearance_lower={row['clearance_lower']!r} on a domain with no annulus")
    return fails


def _table(out: str, header: list[str], fails: list) -> list[dict]:
    rows = _rows(out)
    if not rows or rows[0] != header:
        fails.append(f"header {rows[0] if rows else None!r}, expected {header!r}")
        return []
    bad = [r for r in rows[1:] if len(r) != len(header)]
    if bad:
        fails.append(f"{len(bad)} rows without {len(header)} fields")
        return []
    return [dict(zip(header, r)) for r in rows[1:]]


def check_eval(op, out: str, fails: list) -> int:
    factors = DOMAINS[op.domain]
    rows = _table(out, ["lower", "upper", "exact", "methods", "witness"], fails)
    for row in rows:
        fails += check_bounds(factors, op.point, row, searched="--no-search" not in op.argv)
        parts = row["witness"].split(";") if row["witness"] else []
        if len(parts) != len(factors):
            fails.append(f"witness has {len(parts)} components for {len(factors)} factors")
            continue
        for i, (part, c) in enumerate(zip(parts, op.point)):
            try:
                img = abs(witness_image(part, c))
            except (ValueError, ZeroDivisionError) as e:
                fails.append(f"witness component {i}: {e}")
                continue
            if img > EXACT_TOL:
                fails.append(f"witness component {i} sends z_{i} to modulus {img!r}")
    if len(rows) != 1:
        fails.append(f"{len(rows)} data rows, expected 1")
    return len(rows)


def check_profile(op, out: str, fails: list) -> int:
    factors = DOMAINS[op.domain]
    rows = _table(out, ["param", "lower", "upper", "exact", "clearance_lower"], fails)
    lo, hi = sweep_range(factors[op.axis])
    c0 = op.point[op.axis]
    direction = c0 / abs(c0)
    for k, row in enumerate(rows):
        param = _float(row["param"], "param", fails)
        if param is None:
            continue
        want = lo + k * (hi - lo) / (STEPS - 1)
        if abs(param - want) > EXACT_TOL:
            fails.append(f"row {k}: param={param!r}, expected {want!r}")
        z = list(op.point)
        z[op.axis] = param * direction
        fails += [f"row {k}: {msg}" for msg in check_bounds(factors, z, row, searched=False)]
    if len(rows) != STEPS:
        fails.append(f"{len(rows)} data rows, expected {STEPS}")
    return len(rows)


def check_limit(op, out: str, fails: list) -> int:
    r = float(op.argv[op.argv.index("--r") + 1])
    rows = _table(out, ["param", "bound"], fails)
    params, bounds = [], []
    for k, row in enumerate(rows):
        x = _float(row["param"], "param", fails)
        b = _float(row["bound"], "bound", fails)
        if x is None or b is None:
            continue
        if not (r < x < 1.0):
            fails.append(f"row {k}: param={x!r} outside ({r}, 1)")
            continue
        params.append(x)
        bounds.append(b)
        if abs(b - clearance(r, x)) > EXACT_TOL:
            fails.append(f"row {k}: bound={b!r} clearance={clearance(r, x)!r}")
    steps = [b - a for a, b in zip(params, params[1:])]
    toward = 1.0 if op.side == "outer" else -1.0
    if not all(toward * s > 0 for s in steps):
        fails.append(f"params do not move monotonically toward the {op.side} circle")
    if not bounds or bounds[-1] < LIMIT_FLOOR:
        fails.append(f"last bound {bounds[-1:]} below {LIMIT_FLOOR}")
    if len(rows) != STEPS:
        fails.append(f"{len(rows)} data rows, expected {STEPS}")
    return len(rows)


def check_verify(op, out: str, fails: list) -> int:
    rows = _table(out, ["status", "check", "detail"], fails)
    suite = op.domain
    for row in rows:
        if row["status"] != "PASS":
            fails.append(f"{row['status']} {row['check']}: {row['detail']}")
        if not row["check"].startswith(suite):
            fails.append(f"check {row['check']!r} is not from suite {suite!r}")
    if not rows:
        fails.append("no checks reported")
    footer = f"# {len(rows)}/{len(rows)} checks passed"
    if footer not in out.splitlines():
        fails.append(f"missing footer {footer!r}")
    return len(rows)


CHECKERS = {
    "eval": check_eval,
    "profile": check_profile,
    "limit": check_limit,
    "verify": check_verify,
}


def check(op, rc: int, out: str) -> tuple[int, list[str]]:
    """(data rows, failures) for one call; a non-zero exit fails without a row check."""
    if rc != 0:
        return 0, [f"exit code {rc}"]
    fails: list[str] = []
    rows = CHECKERS[op.kind](op, out, fails)
    return rows, fails

