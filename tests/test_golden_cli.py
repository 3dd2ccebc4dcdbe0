"""CLI output pinned byte for byte against a captured fixture.

``golden_cli.json`` holds the exit code, stdout and stderr of ``eval``
(default, ``--no-search`` and each ``--family``), ``search`` (each family),
a short ``profile`` and ``limit`` on seeded points of eleven domains: the
five benchmark shapes, a ball alone, and products outside the closed-form
catalog.  It was captured before the factor-kind table replaced the
per-bound dispatch in ``squeezing`` and ``search``, so it pins that every
reported double, method tag and witness stayed the same.

It also pins the command line's edges (``PARSE_EDGES``): help for the
program and for every command, argparse's usage errors (unknown command,
missing or extra arguments, abbreviations, ``--``, an option before the
command, negative-looking values) and the program's own flag checks.  Every
case runs with ``COLUMNS`` fixed, since argparse wraps help and usage to the
terminal width.  These were captured before ``main`` parsed a command's
arguments with that command's own parser.  Beyond the fixture, command
lines drawn by hypothesis must parse, print and exit through ``main``'s
parse as through the top-level parser, whether the option table or
argparse reads them.

Regenerate it only for a deliberate change of output, and say so where the
change is recorded:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

P0 = {"kind": "punctured_disk", "punctures": [[0.0, 0.0]]}
DISK = {"kind": "disk"}
SPECS = {
    "punctured2": [P0, P0],
    "punctured3": [P0, P0, P0],
    "disk_punctured": [DISK, {"kind": "punctured_disk", "punctures": [[0.3, -0.2]]}],
    "annulus_disk": [{"kind": "annulus", "r": 0.25}, DISK],
    "three_puncture_disk": [
        {"kind": "punctured_disk", "punctures": [[0.0, 0.0], [0.5, 0.0], [0.0, -0.5]]}, DISK],
    "polydisk": [DISK, DISK],
    "ball": [{"kind": "ball", "n": 2}],
    "ball_punctured": [{"kind": "ball", "n": 2}, P0],
    "annulus_annulus": [{"kind": "annulus", "r": 0.2}, {"kind": "annulus", "r": 0.3}],
    "annulus_punctured": [{"kind": "annulus", "r": 0.25},
                          {"kind": "punctured_disk", "punctures": [[0.0, 0.1]]}],
    "disk_annulus_ball": [DISK, {"kind": "annulus", "r": 0.5}, {"kind": "ball", "n": 1}],
}
POINTS_PER_DOMAIN = 4
PROFILE_STEPS = 9
LIMIT_RADII = (0.21, 0.25, 0.5, 0.64, 0.79)  # where the limit path rule is unchanged
LIMIT_STEPS = 24
COLUMNS = "80"

# (spec, argv): with a spec, "--spec <path>" goes in after argv[0], as in
# every case.  EDGE_POINT is a point of punctured2.
EDGE_POINT = "--point=0.5,0;0.3,-0.1"
PARSE_EDGES = [
    (None, []),
    (None, ["-h"]),
    (None, ["--help"]),
    *((None, [cmd, "--help"]) for cmd in ("eval", "profile", "verify", "limit", "search")),
    (None, ["evl"]),
    (None, ["Eval", "--spec", "x.json"]),
    (None, ["-h", "eval"]),
    (None, ["--samples", "64", "eval", EDGE_POINT]),
    (None, ["--", "eval", EDGE_POINT]),
    (None, ["eval"]),
    (None, ["eval", "--spec"]),
    ("punctured2", ["eval", EDGE_POINT, "extra"]),
    ("punctured2", ["eval", EDGE_POINT, "--bogus", "1", "-x"]),
    ("punctured2", ["eval", "--poi=0.5,0;0.3,-0.1", "--no-s"]),
    ("punctured2", ["eval", "--po", "0.5,0;0.3,-0.1", "--fam", "incl"]),
    ("punctured2", ["eval", "--he"]),
    ("punctured2", ["eval", "--", EDGE_POINT]),
    ("punctured2", ["eval", EDGE_POINT, "--"]),
    ("punctured2", ["eval", EDGE_POINT, "-"]),
    ("punctured2", ["eval", "--point", "-0.5,0;0.3,-0.1"]),
    ("punctured2", ["eval", "--point", "0.5,0;0.3,-0.1", "--no-search=yes"]),
    ("punctured2", ["eval", EDGE_POINT, "--samples", "abc"]),
    ("punctured2", ["eval", EDGE_POINT, "--samples", "4"]),
    ("punctured2", ["eval", EDGE_POINT, "--samples"]),
    ("punctured2", ["eval", EDGE_POINT, "--family", "bogus"]),
    ("punctured2", ["profile", EDGE_POINT, "--range", "0.1:0.5", "--steps", "3", "--axis", "-1"]),
    ("punctured2", ["profile", EDGE_POINT, "--range", "-0.1:0.5", "--steps", "-3"]),
    ("punctured2", ["search", EDGE_POINT, "--budget", "0"]),
    (None, ["limit", "--r", "-0.5"]),
    (None, ["limit", "--r", "0.5", "--steps", "3", "--help"]),
    (None, ["verify", "--suite", "bogus"]),
    (None, ["verify", "--suite", "pinch", "--seed", "-1"]),
]


REFUSED = "refused: a value written --opt=--"


def _load():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def _run(argv):
    from polysqueeze.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse(parse, argv):
    """(vars of the namespace or the exit code, stdout, stderr) of one parse.

    ``cli._parse_args`` refuses a value written ``--opt=--``, which argparse
    stores as ``[]``, with a UsageError; that error and a namespace holding
    ``[]`` both read as REFUSED.
    """
    from polysqueeze.cli import UsageError

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as e:
            result = e.code
        except UsageError:
            result = REFUSED
    if isinstance(result, dict) and [] in result.values():
        result = REFUSED
    return result, out.getvalue(), err.getvalue()


def _argv(case, spec_paths):
    argv = list(case["argv"])
    if case["spec"] is not None:
        argv[1:1] = ["--spec", spec_paths[case["spec"]]]
    return argv


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    data = _load()
    root = tmp_path_factory.mktemp("golden_specs")
    paths = {}
    for name, factors in data["specs"].items():
        path = root / f"{name}.json"
        path.write_text(json.dumps({"factors": factors}))
        paths[name] = str(path)
    return data["cases"], paths


def test_fixture_covers_every_command_and_domain():
    data = _load()
    assert set(data["specs"]) == set(SPECS)
    seen = {(c["spec"], tuple(a for a in c["argv"] if not a.startswith("--point="))[:3])
            for c in data["cases"]}
    for name in SPECS:
        for cmd in (("eval",), ("eval", "--no-search"), ("eval", "--family", "auto"),
                    ("eval", "--family", "inclusion"), ("eval", "--family", "reflection"),
                    ("search", "--family", "auto"), ("search", "--family", "inclusion"),
                    ("search", "--family", "reflection")):
            assert (name, cmd) in seen, (name, cmd)
    assert any(c["argv"][0] == "profile" for c in data["cases"])
    assert any(c["argv"][0] == "limit" for c in data["cases"])


def test_cli_output_matches_fixture_byte_for_byte(golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    cases, paths = golden
    mismatches = []
    for case in cases:
        got = _run(_argv(case, paths))
        err = case["stderr"].replace("{spec}", paths.get(case["spec"], ""))
        want = (case["code"], case["stdout"], err)
        if got != want:
            mismatches.append((case["argv"], want, got))
    assert not mismatches, f"{len(mismatches)} of {len(cases)} calls differ; first: {mismatches[0]}"


@pytest.mark.parametrize("columns", ["80", "120"])
def test_command_parser_dispatch_matches_top_level_parse(golden, monkeypatch, columns):
    # main reads well-formed lines from the command table and hands the rest
    # to the top-level parser; on every golden argv, parse edges included, it
    # must parse, print and exit as the top-level parser's parse_args does
    from polysqueeze import cli

    monkeypatch.setenv("COLUMNS", columns)
    cases, paths = golden
    parser = cli.build_parser()
    mismatches = []
    for argv in [_argv(case, paths) for case in cases]:
        parsed = _parse(cli._parse_args, argv)
        plain = _parse(parser.parse_args, argv)
        if parsed != plain:
            mismatches.append((argv, plain, parsed))
    assert not mismatches, f"{len(mismatches)} of {len(cases)} argv differ; first: {mismatches[0]}"
    monkeypatch.setattr("sys.argv", ["polysqueeze", "eval", "--help"])
    assert _parse(cli._parse_args, None) == _parse(parser.parse_args, None)


def test_golden_calls_outside_the_edges_build_no_parser(golden, monkeypatch):
    # every call but the parse edges is well formed, so it is read from the
    # command table; argparse is needed only for help, errors and odd forms
    from polysqueeze import cli

    def no_parser():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    cases, paths = golden
    edges = [{"spec": spec, "argv": argv} for spec, argv in PARSE_EDGES]
    plain = [case for case in cases if {"spec": case["spec"], "argv": case["argv"]} not in edges]
    assert len(plain) == len(cases) - len(PARSE_EDGES)
    for case in plain:
        err = case["stderr"].replace("{spec}", paths.get(case["spec"], ""))
        assert _run(_argv(case, paths)) == (case["code"], case["stdout"], err), case["argv"]


@st.composite
def _command_lines(draw):
    """A command, mostly a real one, then mostly its own options, with some edges mixed in."""
    from polysqueeze.cli import COMMANDS

    every = sorted({o for _, _, opts in COMMANDS.values() for o in opts} | {"--help"})
    command = draw(st.sampled_from([*COMMANDS, *COMMANDS, "ev", "-h", "--", "bogus"]))
    options = COMMANDS[command][2] if command in COMMANDS else {}
    text = st.sampled_from(["0", "7", "0.5", "1e400", "auto", "inclusion", "hhr", "outer",
                            "0.5,0;0.3,-0.1", "x y", "a=b", "", "abc", "bogus"])
    dashed = st.sampled_from(["-1", "-0.5", "-x", "--spec", "--", "-h", "-"])

    def well_formed(option):
        kw = options[option]
        if kw.get("action") == "store_true":
            return st.just([option])
        good = (st.sampled_from(kw["choices"]) if "choices" in kw
                else st.sampled_from(["0", "7", "12"]) if kw.get("type") is int
                else st.sampled_from(["0.5", "7", "1e400"]) if kw.get("type") is float
                else text)
        return good.flatmap(lambda v: st.sampled_from([[option, v], [f"{option}={v}"]]))

    def near_miss(option):
        if options[option].get("action") == "store_true":
            return text.map(lambda v: [f"{option}={v}"])
        return st.one_of(st.just([option]), dashed.map(lambda v: [option, v]),
                         text.map(lambda v: [option, v]))

    prefix = st.sampled_from(every).flatmap(lambda o: st.integers(2, len(o)).map(lambda n: o[:n]))
    own = st.sampled_from(sorted(options) or every)
    wild = st.one_of(
        st.tuples(prefix | own, text | dashed).map(list),
        st.tuples(prefix | own, text | dashed).map(lambda t: [f"{t[0]}={t[1]}"]),
        (prefix | own | text | dashed).map(lambda v: [v]),
    )
    if options and draw(st.booleans()):  # well formed, or but for one token
        required = [[o, "0.5"] for o, kw in options.items() if kw.get("required")]
        items = required + draw(st.lists(st.sampled_from(sorted(options)).flatmap(well_formed),
                                         max_size=5))
        if draw(st.booleans()):
            odd = st.sampled_from(sorted(options)).flatmap(near_miss) | wild
            items.insert(draw(st.integers(0, len(items))), draw(odd))
    else:
        items = draw(st.lists(wild, max_size=5))
    return [command, *(t for i in items for t in i)]


@settings(max_examples=400, deadline=None)
@given(argv=_command_lines())
def test_table_parse_matches_argparse(argv):
    # well-formed lines are read from the table, the rest by argparse; both
    # must give what the top-level parser gives, output and exit included
    from unittest import mock

    from polysqueeze import cli

    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}):
        assert (_parse(cli._parse_args, argv)
                == _parse(cli.build_parser().parse_args, argv)), argv


# ------------------------------------------------------------------ capture

def _inside(factor, z) -> bool:
    if factor["kind"] == "disk":
        return abs(z) < 1
    if factor["kind"] == "punctured_disk":
        return abs(z) < 1 and all(abs(z - complex(*p)) >= 0.05 for p in factor["punctures"])
    r = factor["r"]
    return r + 0.02 < abs(z) < 0.98


def _coords(rng: random.Random, factor, k: int):
    """Complex coordinates of one factor: n for a ball, else one; zero where it is inside."""
    if factor["kind"] == "ball":
        n = factor["n"]
        scale = rng.uniform(0.0, 0.9) / math.sqrt(n)
        return [cmath.rect(scale, rng.uniform(0.0, 2 * math.pi)) for _ in range(n)]
    if k == 0 and _inside(factor, 0j):
        return [0j]
    while True:
        z = cmath.rect(0.97 * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi))
        if _inside(factor, z):
            return [z]


def _point(coords) -> str:
    return ";".join(f"{c.real!r},{c.imag!r}" for c in coords)


def _cases(rng: random.Random):
    cases = []
    for name, factors in SPECS.items():
        for k in range(POINTS_PER_DOMAIN):
            point = "--point=" + _point([c for f in factors for c in _coords(rng, f, k)])
            families = ("auto", "inclusion", "reflection")
            for cmd in (["eval"], ["eval", "--no-search"],
                        *(["eval", "--family", fam] for fam in families),
                        *(["search", "--family", fam] for fam in families)):
                cases.append({"spec": name, "argv": [*cmd, point]})
        # the first punctured or annulus factor, else the first factor (a ball
        # axis is a usage error, pinned too)
        axis = next((i for i, f in enumerate(factors) if f["kind"] not in ("disk", "ball")), 0)
        if factors[axis]["kind"] == "annulus":
            lo, hi = factors[axis]["r"] + 0.02, 0.98
        else:
            lo, hi = 0.05, 0.95
        base = [c for f in factors for c in _coords(rng, f, 1)]
        cases.append({"spec": name, "argv": [
            "profile", "--point=" + _point(base), "--axis", str(axis),
            "--range", f"{lo!r}:{hi!r}", "--steps", str(PROFILE_STEPS)]})
    for r in LIMIT_RADII:
        for side in ("outer", "inner"):
            cases.append({"spec": None, "argv": [
                "limit", "--r", repr(r), "--side", side, "--steps", str(LIMIT_STEPS)]})
    cases.extend({"spec": spec, "argv": argv} for spec, argv in PARSE_EDGES)
    return cases


def capture() -> dict:
    """Run every case against the importable program and return the fixture."""
    import tempfile

    cases = _cases(random.Random("polysqueeze golden cli"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, factors in SPECS.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump({"factors": factors}, fh)
        for case in cases:
            code, out, err = _run(_argv(case, paths))
            if case["spec"] is not None:
                err = err.replace(paths[case["spec"]], "{spec}")
            case.update(code=code, stdout=out, stderr=err)
    return {"specs": SPECS, "cases": cases}


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=0)
        fh.write("\n")
