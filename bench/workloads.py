"""Seeded inputs for the three workloads.

The benchmark keeps its own model of each domain: a list of factors, each
``("disk",)``, ``("punctured", (p, ...))`` or ``("annulus", r)``.  From it come
the JSON spec file the program reads and the reference values the checks
compute.  The program sees only the spec files and the point strings.

Every workload is a list of operations; one round runs each of them once, in
order.  The same seed gives the same operations.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass

ANNULUS_R = 0.25

# Fixed domain shapes; the seed moves the points only, so a round costs the
# same on every seed.  Five distinct factors in all (UnitDisk, the puncture at
# 0, the off-centre puncture, the annulus, the three-puncture disk).
DOMAINS = {
    "punctured2": [("punctured", (0j,))] * 2,
    "punctured3": [("punctured", (0j,))] * 3,
    "disk_punctured": [("disk",), ("punctured", (0.3 - 0.2j,))],
    "annulus_disk": [("annulus", ANNULUS_R), ("disk",)],
    "three_puncture_disk": [("punctured", (0j, 0.5 + 0j, -0.5j)), ("disk",)],
}

# Margins kept by every generated coordinate.
DISK_MAX = 0.95        # |z| <= 0.95 on disk and punctured factors
PUNCTURE_GAP = 0.05    # |z - p| >= 0.05 from every puncture
CIRCLE_GAP = 0.02      # annulus moduli stay 0.02 off r, sqrt(r) and 1

EVAL_POINTS = 8        # eval calls per domain per round
PROFILE_POINTS = 2     # profile calls per domain per round
STEPS = 256

SUITES = ("pinch", "mixed", "annulus", "limit", "ball_ratios",
          "oracle", "hyperbolic", "hhr", "family_gap")
# A whole verify pass takes seconds; its warm-up runs the three suites that
# take milliseconds, which still load every module and the CSV path.
WARMUP_SUITES = ("limit", "ball_ratios", "hhr")


@dataclass(frozen=True)
class Op:
    """One CLI call and what its checks need to know."""

    argv: tuple[str, ...]     # points go as --point=..., since they may start with '-'
    kind: str                 # eval | profile | limit | verify
    domain: str = ""          # key of DOMAINS (eval, profile); suite name (verify)
    point: tuple = ()         # coordinates as parsed by the program
    axis: int = 0             # profile axis
    side: str = ""            # limit side


def spec_json(factors) -> dict:
    out = []
    for f in factors:
        if f[0] == "disk":
            out.append({"kind": "disk"})
        elif f[0] == "punctured":
            out.append({"kind": "punctured_disk",
                        "punctures": [[p.real, p.imag] for p in f[1]]})
        else:
            out.append({"kind": "annulus", "r": f[1]})
    return {"factors": out}


def format_point(coords) -> str:
    return ";".join(f"{c.real:.17g},{c.imag:.17g}" for c in coords)


def parse_point(text: str) -> tuple:
    """The doubles the program parses from a point string."""
    out = []
    for chunk in text.split(";"):
        re_s, im_s = chunk.split(",")
        out.append(complex(float(re_s), float(im_s)))
    return tuple(out)


def _segment_gap(p: complex, direction: complex, lo: float, hi: float) -> float:
    """Distance from p to the segment {t * direction : lo <= t <= hi}."""
    t = min(max((p * direction.conjugate()).real, lo), hi)
    return abs(p - t * direction)


def _planar(rng: random.Random, f, side: int = 0) -> complex:
    if f[0] == "annulus":
        r = f[1]
        s = math.sqrt(r)
        lo, hi = ((r + CIRCLE_GAP, s - CIRCLE_GAP) if side % 2 == 0
                  else (s + CIRCLE_GAP, 1.0 - CIRCLE_GAP))
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi))
    holes = f[1] if f[0] == "punctured" else ()
    while True:
        z = cmath.rect(DISK_MAX * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi))
        if all(abs(z - p) >= PUNCTURE_GAP for p in holes):
            return z


def _round_trip(coords) -> tuple:
    return parse_point(format_point(coords))


def sweep_range(f) -> tuple[float, float]:
    if f[0] == "annulus":
        return f[1] + CIRCLE_GAP, 1.0 - CIRCLE_GAP
    return PUNCTURE_GAP, DISK_MAX


def _sweep_base(rng: random.Random, factors, axis: int) -> tuple:
    """A base point whose swept ray keeps PUNCTURE_GAP from every puncture."""
    f = factors[axis]
    lo, hi = sweep_range(f)
    while True:
        coords = [_planar(rng, g, rng.randrange(2)) for g in factors]
        c = coords[axis]
        direction = c / abs(c)
        if f[0] != "punctured" or all(
            _segment_gap(p, direction, lo, hi) >= PUNCTURE_GAP * (1.0 - 1e-9) for p in f[1]
        ):
            return _round_trip(coords)


class Inputs:
    """Spec files and operations of one workload, made from the seed."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in BUILDERS:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(BUILDERS)}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.seed = seed
        self.spec_paths = {}
        os.makedirs(workdir, exist_ok=True)
        for name, factors in DOMAINS.items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(spec_json(factors), fh)
            self.spec_paths[name] = path
        self.ops: list[Op] = BUILDERS[workload](self)

    def warmup(self) -> list[Op]:
        """The first op of each (kind, domain) pair; the quick suites for verify."""
        seen, out = set(), []
        for op in self.ops:
            key = (op.kind, op.domain, op.side)
            if op.kind == "verify" and op.domain not in WARMUP_SUITES:
                continue
            if key not in seen:
                seen.add(key)
                out.append(op)
        return out


def _eval_ops(inp: Inputs) -> list[Op]:
    ops = []
    for name, factors in DOMAINS.items():
        for k in range(EVAL_POINTS):
            coords = _round_trip([_planar(inp.rng, f, k) for f in factors])
            argv = ("eval", "--spec", inp.spec_paths[name], "--point=" + format_point(coords))
            ops.append(Op(argv, "eval", name, coords))
    return ops


def _sweep_ops(inp: Inputs) -> list[Op]:
    ops = []
    for name, factors in DOMAINS.items():
        # Sweep the annulus or the puncture factor, whichever the domain has.
        axes = [i for i, f in enumerate(factors) if f[0] != "disk"]
        for k in range(PROFILE_POINTS):
            axis = axes[k % len(axes)]
            coords = _sweep_base(inp.rng, factors, axis)
            lo, hi = sweep_range(factors[axis])
            argv = ("profile", "--spec", inp.spec_paths[name], "--point=" + format_point(coords),
                    "--axis", str(axis), "--range", f"{lo:.17g}:{hi:.17g}", "--steps", str(STEPS))
            ops.append(Op(argv, "profile", name, coords, axis))
    for side in ("outer", "inner"):
        argv = ("limit", "--r", repr(ANNULUS_R), "--side", side, "--steps", str(STEPS))
        ops.append(Op(argv, "limit", side=side))
    return ops


def _verify_ops(inp: Inputs) -> list[Op]:
    return [Op(("verify", "--suite", s, "--seed", str(inp.seed)), "verify", s) for s in SUITES]


BUILDERS = {
    "eval_search": _eval_ops,
    "sweep_nosearch": _sweep_ops,
    "verify_suites": _verify_ops,
}
