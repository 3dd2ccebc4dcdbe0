import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polysqueeze
from polysqueeze import MapExpr, MobiusAut, ProductMap, Reflection, squeeze_bounds, verify
from polysqueeze.cli import (
    COMMANDS,
    MAX_STEPS,
    _csv_row,
    _load_plan,
    format_product_map,
    main,
    parse_point,
)

PUNCT2_SPEC = {"factors": [
    {"kind": "punctured_disk", "punctures": [[0.0, 0.0]]},
    {"kind": "punctured_disk", "punctures": [[0.0, 0.0]]},
]}
ANNULUS_SPEC = {"factors": [{"kind": "annulus", "r": 0.25}, {"kind": "disk"}]}


@pytest.fixture
def punct2(tmp_path):
    path = tmp_path / "punct2.json"
    path.write_text(json.dumps(PUNCT2_SPEC))
    return str(path)


@pytest.fixture
def annulus(tmp_path):
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(ANNULUS_SPEC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return code, rows, out


# ---------------------------------------------------------------------- eval

def test_eval_punctured_product(capsys, punct2):
    code, rows, _ = run(capsys, ["eval", "--spec", punct2, "--point", "0.5,0;0.3,0"])
    assert code == 0
    assert rows[0] == ["lower", "upper", "exact", "methods", "witness"]
    row = dict(zip(rows[0], rows[1]))
    assert float(row["exact"]) == 0.3
    assert float(row["lower"]) <= 0.3 <= float(row["upper"])
    assert "ClosedForm" in row["methods"]


def test_eval_annulus_product(capsys, annulus):
    code, rows, _ = run(capsys, ["eval", "--spec", annulus, "--point", "0.4,0;0,0", "--no-search"])
    assert code == 0
    assert float(dict(zip(rows[0], rows[1]))["exact"]) == 0.625


def test_eval_multi_puncture_lower_without_search(capsys, tmp_path):
    spec = tmp_path / "three.json"
    spec.write_text(json.dumps({"factors": [
        {"kind": "punctured_disk", "punctures": [[0, 0], [0.5, 0], [0, -0.5]]},
        {"kind": "disk"},
    ]}))
    code, rows, _ = run(capsys, ["eval", "--spec", str(spec), "--point", "0.1,0.2;0.3,0",
                                 "--no-search"])
    assert code == 0
    row = dict(zip(rows[0], rows[1]))
    # |phi_z(0)| = |z| = sqrt(0.05) is the least puncture image
    assert float(row["lower"]) == pytest.approx(0.223606797749979, abs=1e-15)
    assert float(row["lower"]) <= float(row["upper"])
    assert "ProductLower" in row["methods"]


def _one_factor(factor) -> bytes:
    return json.dumps({"factors": [factor]}).encode()


@pytest.mark.parametrize("content, message", [
    (_one_factor({"kind": "annulus", "r": "abc"}), "factors[0]"),
    (_one_factor({"kind": "annulus", "r": None}), "factors[0]"),
    (_one_factor({"kind": "punctured_disk", "punctures": [["x", 0]]}), "factors[0]"),
    (_one_factor({"kind": "ball", "n": 2.7}), "factors[0]"),
    (_one_factor({"kind": "punctured_disk", "punctures": [[1.3e308, 1.3e308]]}),  # |p| overflows
     "factors[0]"),
    (_one_factor({"kind": "annulus", "r": 10 ** 400}), "factors[0]"),  # no double holds it
    # Python's json reads both, and no comparison with 0 or 1 holds for them
    (_one_factor({"kind": "annulus", "r": math.nan}), "factors[0]"),
    (_one_factor({"kind": "annulus", "r": math.inf}), "factors[0]"),
    # UTF-16 with its byte-order mark, not UTF-8
    (b"\xff\xfe" + _one_factor({"kind": "disk"}).decode().encode("utf-16-le"), "not UTF-8"),
    (b"[" * 100000, "invalid JSON"),  # nested past the recursion limit
    (b'{"factors": [{"kind": "ball", "n": ' + b"1" * 5000 + b"}]}", "invalid JSON"),  # digit limit
], ids=[*(f"factor{i}" for i in range(6)), "nan_radius", "inf_radius",
        "utf16", "deep_nesting", "int_digit_limit"])
def test_malformed_spec_values_exit_2(capsys, tmp_path, content, message):
    spec = tmp_path / "bad.json"
    spec.write_bytes(content)
    # the point fits a 2-ball, so only the spec itself can fail
    assert main(["eval", "--spec", str(spec), "--point", "0.1,0;0.2,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_COORD = st.floats(-1.5, 1.5) | st.sampled_from([0.0, 0.5, -0.5, 1.0]) | st.floats()
_VALID_FACTOR = st.one_of(
    st.just({"kind": "disk"}),
    st.lists(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2), min_size=1, max_size=3)
    .map(lambda ps: {"kind": "punctured_disk", "punctures": ps}),
    st.floats(0.01, 0.99).map(lambda r: {"kind": "annulus", "r": r}),
    st.integers(1, 2).map(lambda n: {"kind": "ball", "n": n}),
)
_FACTOR = st.fixed_dictionaries(
    {"kind": st.sampled_from(["disk", "punctured_disk", "annulus", "ball"]) | _JSON},
    optional={"r": _COORD | _JSON, "n": st.integers(-1, 3) | _JSON,
              "punctures": st.lists(st.lists(_COORD, min_size=2, max_size=2), max_size=3) | _JSON},
) | _JSON


def _dim(f) -> int:
    n = f.get("n") if isinstance(f, dict) and f.get("kind") == "ball" else None
    return n if type(n) is int and 1 <= n <= 3 else 1


@st.composite
def _cli_input(draw):
    """A spec object and a point string, sized to match the spec most of the time."""
    factors = draw(st.lists(_VALID_FACTOR | _FACTOR, min_size=1, max_size=3))
    spec = draw(st.just({"factors": factors}) | _JSON)
    size = sum(_dim(f) for f in factors)
    pairs = st.tuples(_COORD, _COORD)
    point = draw(
        st.lists(pairs, min_size=size, max_size=size).map(
            lambda ps: ";".join(f"{a!r},{b!r}" for a, b in ps))
        | st.text(alphabet="0123456789.,;-+einfa ", max_size=24)
        | st.text(max_size=12)
    )
    return spec, point


@settings(max_examples=200, deadline=None)
@example(case=({"factors": [{"kind": "disk"}]}, "--"), raw=None, command=("eval",))
@given(case=_cli_input(),
       raw=st.none() | st.binary(max_size=64),
       command=st.sampled_from([("eval",), ("eval", "--no-search"), ("search",)]))
def test_main_exit_contract_on_arbitrary_input(tmp_path_factory, case, raw, command):
    spec, point = case
    path = tmp_path_factory.getbasetemp() / "arbitrary_spec.json"
    # the spec object as JSON, or arbitrary bytes in its place
    path.write_bytes(json.dumps(spec).encode() if raw is None else raw)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main([*command, "--spec", str(path), "--point=" + point])
    assert code in (0, 2, 3)


# Every option of every command that takes a value, with the values that
# make that command's other required options valid.
_VALUE_OPTIONS = [(name, option) for name, (_, _, options) in COMMANDS.items()
                  for option, kw in options.items() if kw.get("action") != "store_true"]
_REQUIRED_VALUES = {"--point": "0.5,0;0,0", "--range": "0.3:0.6", "--r": "0.25"}


@pytest.mark.parametrize(("command", "option"), _VALUE_OPTIONS,
                         ids=[f"{name}{option}" for name, option in _VALUE_OPTIONS])
def test_an_option_written_eq_dashdash_is_a_usage_error(capsys, annulus, command, option):
    # argparse stores "--opt=--" as an empty list; each such value is refused
    # once parsed, with one error line and exit 2, never a traceback
    argv = [command]
    for other, kw in COMMANDS[command][2].items():
        if kw.get("required") and other != option:
            argv += [other, annulus if other == "--spec" else _REQUIRED_VALUES[other]]
    assert main([*argv, option + "=--"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: argument {option}: expected one argument\n")


def test_eval_exit_codes(capsys, tmp_path, punct2):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--spec", str(bad), "--point", "0,0"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"factors": [{"kind": "pretzel"}]}))
    assert main(["eval", "--spec", str(unknown), "--point", "0,0"]) == 2
    # out-of-domain point: second coordinate sits on the puncture
    assert main(["eval", "--spec", punct2, "--point", "0.5,0;0,0"]) == 3
    # a coordinate whose modulus overflows is outside the domain too
    assert main(["eval", "--spec", punct2, "--point", "0.5,0;1.3e308,1.3e308"]) == 3
    # wrong coordinate count is a usage error
    assert main(["eval", "--spec", punct2, "--point", "0.5,0"]) == 2
    # missing required flag
    assert main(["eval", "--spec", punct2]) == 2


def parse_witness(text):
    """The witness column read back into maps: ``;`` between factors, ``|`` between steps."""
    def step(token):
        name, args = token.removesuffix(")").split("(")
        nums = [float(v) for v in args.split(",")]
        return MobiusAut(complex(nums[0], nums[1]), nums[2]) if name == "mobius" else Reflection(*nums)

    return ProductMap(tuple(MapExpr(tuple(step(t) for t in part.split("|")))
                            for part in text.split(";")))


def test_eval_csv_roundtrip_bit_exact(capsys, punct2):
    code, rows, _ = run(capsys, ["eval", "--spec", punct2, "--point", "0.5,0;0.3,0"])
    assert code == 0
    row = dict(zip(rows[0], rows[1]))
    domain = _load_plan(punct2).domain
    z = parse_point("0.5,0;0.3,0", domain)
    rep = squeeze_bounds(domain, z, search=False)
    assert float(row["exact"]) == rep.exact
    pm = parse_witness(row["witness"])
    assert pm == rep.witness  # every number read back exactly
    assert format_product_map(pm) == row["witness"]


@settings(max_examples=300, deadline=None)
@example(fields=["0.5", "1", "", "ClosedForm;ProductLower", "reflect(0.25)|mobius(0.5,0,0)"])
@example(fields=['say "a,b"', "x\ny", ' "', ""])
@given(fields=st.lists(st.text(alphabet=',"\n ;|()0123456789', max_size=8), min_size=2, max_size=6))
def test_csv_row_is_the_line_csv_writer_writes(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    assert _csv_row(fields) == buf.getvalue()
    assert list(csv.reader(io.StringIO(_csv_row(fields)))) == [fields]


def test_csv_row_leaves_cr_spaces_and_empty_fields_bare():
    # csv.writer under lineterminator "\n" does too on Python 3.11; csv.reader
    # would end a line at the bare "\r", so no command prints one
    assert _csv_row(["a\rb", " lead", ""]) == "a\rb, lead,\n"


def test_spec_rewritten_in_place_is_read_anew(tmp_path):
    # same size and mtime: only the text tells the two files apart
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ANNULUS_SPEC))
    before = os.stat(spec)
    assert _load_plan(str(spec)).domain.factors[0].r == 0.25
    spec.write_text(json.dumps(ANNULUS_SPEC).replace("0.25", "0.35"))
    os.utime(spec, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(spec).st_size == before.st_size
    assert os.stat(spec).st_mtime_ns == before.st_mtime_ns
    assert _load_plan(str(spec)).domain.factors[0].r == 0.35


def test_invalid_spec_fails_alike_on_every_call(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"factors": [{"kind": "pretzel"}]}))
    also = tmp_path / "also_bad.json"
    also.write_text(bad.read_text())
    for path in (bad, also, bad):
        assert main(["eval", "--spec", str(path), "--point", "0,0"]) == 2
        assert capsys.readouterr().err == f"error: {path}: factors[0].kind: unknown kind 'pretzel'\n"


@pytest.mark.parametrize("factor, message", [
    # the punctures an annulus cannot hold used to be dropped, and the
    # annulus's exact value printed 0.01 from the intended puncture
    ({"kind": "annulus", "r": 0.25, "punctures": [[0.5, 0]]},
     "factors[0]: unknown key 'punctures' for kind 'annulus'"),
    ({"kind": "annulus", "r": 0.25, "radius": 0.5},
     "factors[0]: unknown key 'radius' for kind 'annulus'"),
    ({"kind": "disk", "r": 0.25}, "factors[0]: unknown key 'r' for kind 'disk'"),
    ({"kind": "ball", "n": 1, "dim": 1}, "factors[0]: unknown key 'dim' for kind 'ball'"),
    # the kind's own reads come first, so their errors read as they did
    ({"kind": "punctured_disk", "puncture": [[0.5, 0]]},
     "factors[0].punctures: need a nonempty list of [re, im] pairs"),
    ({"kind": "annulus", "r": 2, "radius": 0.5},
     "factors[0]: annulus inner radius must lie in (0, 1), got 2.0"),
], ids=["annulus_punctures", "annulus_radius", "disk_r", "ball_dim",
        "misspelt_punctures", "bad_r_beside_radius"])
def test_unknown_factor_keys_exit_2(capsys, tmp_path, factor, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": [factor]}))
    assert main(["eval", "--spec", str(spec), "--point", "0.5,0.01"]) == 2
    assert capsys.readouterr() == ("", f"error: {spec}: {message}\n")


def test_spec_memo_is_bounded_and_shared_across_paths(tmp_path):
    from polysqueeze import cli

    texts = [json.dumps({"factors": [{"kind": "annulus", "r": (k + 1) / 100}]})
             for k in range(cli.SPEC_MEMO_SIZE + 5)]
    for k, text in enumerate(texts):
        for copy in ("a", "b"):  # the same text at two paths
            path = tmp_path / f"{copy}{k}.json"
            path.write_text(text)
            assert _load_plan(str(path)).domain.factors[0].r == (k + 1) / 100
        assert cli._spec_plan.cache_info().currsize <= cli.SPEC_MEMO_SIZE
    assert cli._spec_plan.cache_info().maxsize == cli.SPEC_MEMO_SIZE


def _text_mode_load(path):
    """The spec reader as it read a spec through the text-file layer: the reference."""
    from polysqueeze import cli

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise cli.UsageError(f"cannot read spec file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise cli.UsageError(f"{path}: not UTF-8: {e}") from e
    except ValueError as e:
        raise cli.UsageError(f"{path}: invalid JSON: {e}") from e
    try:
        return cli._spec_plan(text)
    except cli.UsageError as e:
        raise cli.UsageError(f"{path}: {e}") from e


_DISKS = b'{"factors": [{"kind": "annulus", "r": 0.25}, {"kind": "disk"}]}'
SPEC_BYTES = {
    "crlf": _DISKS.replace(b", ", b",\r\n ") + b"\r\n",
    "cr_only": _DISKS.replace(b", ", b",\r ") + b"\r",
    "cr_then_crlf": _DISKS.replace(b", ", b",\r\r\n"),
    "crlf_in_a_string": b'{"factors": [{"kind": "di\r\nsk"}]}',
    "cr_in_a_string": b'{\r"factors": [{"kind": "disk\r"}]}',
    "error_after_crlf": b'{\r\n"factors": [\r\n{"kind": "disk"},\r\n]}',
    "error_after_cr": b'{\r"factors": [\r{"kind": "disk"},\r]}',
    "bom": "\ufeff".encode() + _DISKS,
    "non_utf8": b'{"factors": [{"kind": "d\xffisk"}]}',
    "latin1": '{"factors": [{"kind": "d\xe9sk"}]}'.encode("latin-1"),
    "truncated_multibyte": _DISKS + " \u20ac".encode()[:-1],
    "non_utf8_past_8k": _DISKS[:-1] + b" " * 10000 + b"\x80}",
    "utf8_text": '{"factors": [{"kind": "disk"}], "note": "\u00e9\u20ac"}'.encode(),
    "empty": b"",
}


@pytest.mark.parametrize("name", [*SPEC_BYTES, "directory", "nul_in_path", "missing"])
def test_spec_bytes_read_as_the_text_layer_read_them(capsys, monkeypatch, tmp_path, name):
    from polysqueeze import cli

    path = tmp_path / "spec.json"
    if name in SPEC_BYTES:
        path.write_bytes(SPEC_BYTES[name])
    elif name == "directory":
        path.mkdir()
    elif name == "nul_in_path":
        path = tmp_path / "sp\0ec.json"
    outcomes = []
    for load in (cli._load_plan, _text_mode_load):
        # every command reads a spec through _load_plan
        monkeypatch.setattr(cli, "_load_plan", load)
        try:
            outcomes.append(("domain", cli._load_plan(str(path)).domain))
        except cli.UsageError as e:
            outcomes.append(("error", str(e)))
        code = main(["eval", "--spec", str(path), "--point", "0.5,0;0.1,0", "--no-search"])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[:2] == outcomes[2:]
    parsed = ("crlf", "cr_only", "cr_then_crlf", "utf8_text")
    assert outcomes[0][0] == ("domain" if name in parsed else "error")


@pytest.fixture
def plan_builds(monkeypatch):
    """Every domain a DomainPlan is built for, in order; the spec memo starts empty."""
    from polysqueeze import cli
    from polysqueeze.squeezing import DomainPlan

    builds = []
    init = DomainPlan.__init__

    def counted(self, d):
        builds.append(d)
        init(self, d)

    monkeypatch.setattr(DomainPlan, "__init__", counted)
    cli._spec_plan.cache_clear()
    yield builds
    cli._spec_plan.cache_clear()


def test_a_spec_text_builds_one_plan(capsys, tmp_path, plan_builds):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ANNULUS_SPEC))
    point = "--point=0.4,0.1;0.2,-0.3"
    evals = [["eval", "--spec", str(spec), point, *extra]
             for extra in ([], ["--no-search"], ["--family", "reflection"])]
    assert main(evals[0]) == 0
    assert len(plan_builds) == 1
    first = capsys.readouterr().out
    # a second eval, every other eval, a 256-row profile and a search on
    # the same text read the same plan
    for argv in (*evals, ["profile", "--spec", str(spec), point, "--range", "0.3:0.9"],
                 ["search", "--spec", str(spec), point]):
        assert main(argv) == 0, argv
    assert len(plan_builds) == 1
    assert capsys.readouterr().out.startswith(first)
    # an edited file builds a new plan, for its own domain
    spec.write_text(json.dumps(ANNULUS_SPEC).replace("0.25", "0.35"))
    assert main(evals[0]) == 0
    assert len(plan_builds) == 2 and plan_builds[1].factors[0].r == 0.35
    assert capsys.readouterr().out != first
    # the first text is still in the memo
    spec.write_text(json.dumps(ANNULUS_SPEC))
    assert main(evals[0]) == 0
    assert len(plan_builds) == 2
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(("content", "message"), [
    ('{"factors": [{"kind": "annulus", "r": 1.5}]}',
     "factors[0]: annulus inner radius must lie in (0, 1), got 1.5"),
    ('{"factors": [', "invalid JSON: Expecting value: line 1 column 14 (char 13)"),
], ids=["bad_radius", "truncated_json"])
def test_a_failing_spec_builds_no_plan_and_fails_alike(capsys, tmp_path, plan_builds,
                                                       content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    for argv in (["eval"], ["eval"], ["search"], ["profile", "--range", "0.1:0.5"]):
        assert main([argv[0], "--spec", str(bad), "--point", "0.5,0", *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert plan_builds == []


SPECS = {  # the eleven domains of the golden CLI fixture
    "punctured2": [{"kind": "punctured_disk", "punctures": [[0.0, 0.0]]}] * 2,
    "punctured3": [{"kind": "punctured_disk", "punctures": [[0.0, 0.0]]}] * 3,
    "disk_punctured": [{"kind": "disk"}, {"kind": "punctured_disk", "punctures": [[0.3, -0.2]]}],
    "annulus_disk": [{"kind": "annulus", "r": 0.25}, {"kind": "disk"}],
    "three_puncture_disk": [
        {"kind": "punctured_disk", "punctures": [[0.0, 0.0], [0.5, 0.0], [0.0, -0.5]]},
        {"kind": "disk"}],
    "polydisk": [{"kind": "disk"}, {"kind": "disk"}],
    "ball": [{"kind": "ball", "n": 2}],
    "ball_punctured": [{"kind": "ball", "n": 2},
                       {"kind": "punctured_disk", "punctures": [[0.0, 0.0]]}],
    "annulus_annulus": [{"kind": "annulus", "r": 0.2}, {"kind": "annulus", "r": 0.3}],
    "annulus_punctured": [{"kind": "annulus", "r": 0.25},
                          {"kind": "punctured_disk", "punctures": [[0.0, 0.1]]}],
    "disk_annulus_ball": [{"kind": "disk"}, {"kind": "annulus", "r": 0.5},
                          {"kind": "ball", "n": 1}],
}


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, factors in SPECS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({"factors": factors}))
    return {name: str(path) for name, path in paths.items()}


@st.composite
def _spec_points(draw):
    """A golden domain and a point string of it, by modulus and angle per coordinate."""
    name = draw(st.sampled_from(sorted(SPECS)))
    coords = []
    for f in SPECS[name]:
        if f["kind"] == "ball":
            scale = draw(st.floats(0.0, 0.99)) / math.sqrt(f["n"])
            angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=f["n"], max_size=f["n"]))
            coords += [scale * complex(math.cos(t), math.sin(t)) for t in angles]
            continue
        lo = f["r"] if f["kind"] == "annulus" else 0.0
        modulus = draw(st.floats(lo, 1.0, exclude_min=lo > 0, exclude_max=True))
        angle = draw(st.floats(0.0, 2 * math.pi))
        coords.append(modulus * complex(math.cos(angle), math.sin(angle)))
    return name, ";".join(f"{c.real!r},{c.imag!r}" for c in coords)


@settings(max_examples=300, deadline=None)
@given(case=_spec_points(), family=st.sampled_from(["auto", "inclusion", "reflection"]),
       search=st.booleans())
def test_eval_reports_what_the_library_reports(spec_files, case, family, search):
    # the report behind eval's row, read through the memoized plan, is the
    # report squeeze_bounds gives on the domain of the spec file,
    # field for field and bit for bit (repr round-trips every double)
    from unittest import mock

    from polysqueeze import cli
    from polysqueeze.squeezing import DomainPlan, squeeze_bounds

    name, point = case
    path = spec_files[name]
    seen = []

    def kept(d, z, **kw):
        seen.append((d, z, squeeze_bounds(d, z, **kw)))
        return seen[-1][2]

    argv = ["eval", "--spec", path, "--point=" + point, "--family", family]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "squeeze_bounds", kept), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ([] if search else ["--no-search"]))
    domain = _load_plan(path).domain
    try:
        z = parse_point(point, domain)
    except polysqueeze.DomainError:
        assert code == 3 and not seen  # a point on a puncture or a circle
        return
    assert code == 0, err.getvalue()
    [(plan, z_cli, report)] = seen
    assert type(plan) is DomainPlan and plan.domain is domain
    assert z_cli == z and repr(z_cli) == repr(z)
    library = squeeze_bounds(domain, z, search=search, family=family)
    for field in ("lower", "upper", "exact", "methods", "witness"):
        assert repr(getattr(report, field)) == repr(getattr(library, field)), field
    assert report == library


# -------------------------------------------------------------------- profile

def test_profile_annulus_v_shape(capsys, annulus):
    code, rows, _ = run(capsys, [
        "profile", "--spec", annulus, "--point", "0.5,0;0,0",
        "--axis", "0", "--range", "0.26:0.999", "--steps", "100",
    ])
    assert code == 0
    assert rows[0] == ["param", "lower", "upper", "exact", "clearance_lower"]
    body = rows[1:]
    assert len(body) == 100
    params = [float(r[0]) for r in body]
    exacts = [float(r[3]) for r in body]
    assert params == sorted(params)
    k = exacts.index(min(exacts))
    spacing = params[1] - params[0]
    assert abs(params[k] - 0.5) <= spacing  # V minimum at sqrt(0.25)
    assert min(exacts) >= 0.5 - spacing
    clearances = [float(r[4]) for r in body]
    assert all(c <= e + 1e-12 for c, e in zip(clearances, exacts))


def test_profile_punctured_vanishes_at_puncture(capsys, punct2):
    code, rows, _ = run(capsys, [
        "profile", "--spec", punct2, "--point", "0.5,0;0.3,0",
        "--axis", "0", "--range", "0.9:0.001", "--steps", "50",
    ])
    assert code == 0
    body = rows[1:]
    assert float(body[-1][3]) == pytest.approx(0.001, abs=1e-15)
    assert body[0][4] == ""  # no annulus, no clearance column value


def test_profile_single_step(capsys, annulus):
    code, rows, _ = run(capsys, [
        "profile", "--spec", annulus, "--point", "0.5,0;0,0",
        "--axis", "0", "--range", "0.4:0.9", "--steps", "1",
    ])
    assert code == 0
    assert len(rows) == 2
    assert float(rows[1][0]) == 0.4


@pytest.mark.parametrize("c0", ["5e-324,5e-324", "1e-320,1e-320"])
def test_profile_sweeps_its_ray_from_a_subnormal_base(capsys, monkeypatch, tmp_path, c0):
    # abs of a subnormal coordinate is too coarse to normalise it by
    from polysqueeze import cli

    spec = tmp_path / "disk2.json"
    spec.write_text(json.dumps({"factors": [{"kind": "disk"}, {"kind": "disk"}]}))
    moduli = []
    squeeze_bounds = cli.squeeze_bounds

    def recording(domain, z, **options):
        moduli.append(abs(z.planar(0)))
        return squeeze_bounds(domain, z, **options)

    monkeypatch.setattr(cli, "squeeze_bounds", recording)
    code, rows, _ = run(capsys, ["profile", "--spec", str(spec), "--point", f"{c0};0.1,0",
                                 "--axis", "0", "--range", "0.1:0.9", "--steps", "3"])
    assert code == 0
    params = [float(r[0]) for r in rows[1:]]
    assert params == [0.1, 0.5, 0.9]
    assert moduli == pytest.approx(params, rel=1e-15, abs=0)


def test_profile_usage_errors(capsys, annulus):
    assert main(["profile", "--spec", annulus, "--point", "0.5,0;0,0",
                 "--axis", "9", "--range", "0.3:0.9"]) == 2
    assert main(["profile", "--spec", annulus, "--point", "0.5,0;0,0",
                 "--axis", "0", "--range", "oops"]) == 2
    # sweeping outside the annulus is a domain violation
    assert main(["profile", "--spec", annulus, "--point", "0.5,0;0,0",
                 "--axis", "0", "--range", "0.1:0.9", "--steps", "3"]) == 3


# --------------------------------------------------------------------- verify

def test_verify_passing_suite(capsys):
    code, rows, out = run(capsys, ["verify", "--suite", "hhr"])
    assert code == 0
    assert rows[0] == ["status", "check", "detail"]
    statuses = [r[0] for r in rows[1:] if r and not r[0].startswith("#")]
    assert statuses and all(s == "PASS" for s in statuses)
    assert "# 4/4 checks passed" in out


def test_verify_hyperbolic_reports_conditioning_red(capsys, monkeypatch):
    # the [0, 20] inverse-then-forward identity holds once sigma_inv carries
    # its complement, so the real suite is green
    code, _, out = run(capsys, ["verify", "--suite", "hyperbolic"])
    assert code == 0
    assert "# 3/3 checks passed" in out
    # a failing check is still printed as a FAIL row and signalled by exit 4
    monkeypatch.setitem(verify.SUITES, "red", lambda seed=0: [
        verify.Check("red.holds", True, "ok"),
        verify.Check("red.conditioning", False, "max_err=1.227e-08 tol=1e-12"),
    ])
    code, rows, out = run(capsys, ["verify", "--suite", "red"])
    assert code == 4
    failing = [r[1] for r in rows[1:] if r and r[0] == "FAIL"]
    assert failing == ["red.conditioning"]
    assert "# 1/2 checks passed" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


@pytest.mark.parametrize("suite", ["pinch", "annulus", "all"])
@pytest.mark.parametrize("seed", ["-1", "-18446744073709551617"])
def test_verify_negative_seed_exits_2(capsys, suite, seed):
    # the drawing suites used to exit 1 with numpy's traceback, annulus 0
    assert main(["verify", "--suite", suite, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --seed must be a non-negative integer, got {seed}\n"
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["18446744073709551616", str(10 ** 40)])
def test_verify_huge_seed_runs(capsys, seed):
    code, _, out = run(capsys, ["verify", "--suite", "pinch", "--seed", seed])
    assert code == 0 and "# 3/3 checks passed" in out


# Options that changed no value and are gone: a sample count on every
# command, a search budget, and a seed outside verify, the one command that
# draws.  Each is written with a value its old check accepted.
REMOVED_OPTIONS = [
    *((name, "--samples", "4096") for name in ("eval", "profile", "verify", "limit", "search")),
    *((name, "--seed", "0") for name in ("eval", "profile", "limit", "search")),
    ("search", "--budget", "124"),
]


@pytest.mark.parametrize("form", ["space", "equals"])
@pytest.mark.parametrize(("command", "option", "value"), REMOVED_OPTIONS,
                         ids=[f"{name}{option}" for name, option, _ in REMOVED_OPTIONS])
def test_a_removed_option_is_unrecognized(capsys, annulus, command, option, value, form):
    # argparse refuses it as any unknown option, with exit 2
    argv = [command]
    for other, kw in COMMANDS[command][2].items():
        if kw.get("required"):
            argv += [other, annulus if other == "--spec" else _REQUIRED_VALUES[other]]
    extra = [option, value] if form == "space" else [f"{option}={value}"]
    assert main([*argv, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: polysqueeze ")
    assert err.endswith(f"polysqueeze: error: unrecognized arguments: {' '.join(extra)}\n")
    # verify keeps its seed, and its own check of it
    assert main(["verify", "--suite", "pinch", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be a non-negative integer, got -1\n")


def test_squeeze_samples_is_not_read(capsys, monkeypatch, punct2):
    # the variable once set a sample count; a malformed one made every call,
    # help included, exit 2
    seen = []
    for env in (None, "abc", "4"):
        if env is None:
            monkeypatch.delenv("SQUEEZE_SAMPLES", raising=False)
        else:
            monkeypatch.setenv("SQUEEZE_SAMPLES", env)
        assert main(["--help"]) == 0
        for command in COMMANDS:
            assert main([command, "--help"]) == 0
        capsys.readouterr()
        calls = []
        for argv in (["eval", "--spec", punct2, "--point", "0.5,0;0.3,0"],
                     ["limit", "--r", "0.25", "--steps", "4"]):
            code = main(argv)
            calls.append((code, capsys.readouterr()))
        assert [code for code, _ in calls] == [0, 0]
        seen.append(calls)
    assert seen[1] == seen[0] and seen[2] == seen[0]


# ---------------------------------------------------------------------- limit

def test_limit_outer(capsys):
    code, rows, _ = run(capsys, ["limit", "--r", "0.25", "--side", "outer"])
    assert code == 0
    assert rows[0] == ["param", "bound"]
    body = rows[1:]
    assert len(body) == 256
    last_param, last_bound = (float(v) for v in body[-1])
    assert last_param == pytest.approx(1 - 1e-4, abs=1e-15)
    # clearance closed form at the final parameter
    x, r = 1 - 1e-4, 0.25
    assert last_bound == pytest.approx((x - r) / (1 - r * x), abs=1e-12)
    assert last_bound >= 1 - 2e-3


def test_limit_inner(capsys):
    code, rows, _ = run(capsys, ["limit", "--r", "0.25", "--side", "inner", "--steps", "64"])
    assert code == 0
    body = rows[1:]
    assert len(body) == 64
    assert float(body[-1][1]) >= 1 - 2e-3
    params = [float(r[0]) for r in body]
    assert params == sorted(params, reverse=True)


def _limit(r, side, steps):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["limit", "--r", repr(r), "--side", side, "--steps", str(steps)])
    return code, out, err


@pytest.mark.parametrize("r, side, code", [
    (0.9999, "outer", 0),       # ended on r itself: exit 3
    (0.01, "inner", 0),         # ended with bound 0.99 < 1 - 2e-3
    (1e-300, "outer", 0),       # 1 - (1 - sqrt(r)) rounds to 0
    (1 - 1e-12, "outer", 2),    # too few doubles between sqrt(r) and 1
    (1 - 1e-12, "inner", 2),
    (5e-324, "inner", 2),       # the last gap, 5e-4 r (1 - r), underflows
])
def test_limit_path_edges(r, side, code):
    got, out, _ = _limit(r, side, 256)
    assert got == code
    if code == 0:
        assert float(out.getvalue().splitlines()[-1].split(",")[1]) >= 1.0 - 2e-3


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       side=st.sampled_from(["outer", "inner"]),
       steps=st.sampled_from([1, 2, 256]))
def test_limit_never_exits_3_near_a_circle(r, side, steps):
    # near r = 1 the outer path used to end on or past the annulus (exit 3),
    # and a path too short for --steps distinct doubles also exited 3
    code, out, err = _limit(r, side, steps)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith(f"error: --steps {steps}: ")
        return
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    params = [float(p) for p, _ in rows]
    bounds = [float(b) for _, b in rows]
    assert len(params) == steps
    assert all(r < x < 1.0 for x in params)
    toward = (lambda a, b: a < b) if side == "outer" else (lambda a, b: a > b)
    assert all(map(toward, params, params[1:]))
    if steps > 1:  # the path starts at sqrt(r), to an ulp of 1 on the outer side
        assert abs(params[0] - math.sqrt(r)) <= max(4e-16 * math.sqrt(r), 2.3e-16)
    assert bounds[-1] >= 1.0 - 2e-3


def test_limit_usage_errors(capsys):
    assert main(["limit", "--r", "1.5", "--side", "outer"]) == 2
    assert main(["limit", "--r", "0.25", "--side", "sideways"]) == 2
    assert main(["limit", "--r", "0.25", "--steps", "0"]) == 2


@pytest.mark.parametrize("argv", [["--r", "nan"], ["--r", "inf"], ["--r=-inf"]])
def test_limit_rejects_non_finite_radius(capsys, argv):
    assert main(["limit", *argv]) == 2
    assert "inner radius must lie in (0, 1)" in capsys.readouterr().err


def test_steps_cap_fails_before_any_work(capsys, monkeypatch, annulus):
    from polysqueeze import cli

    def no_work(*args, **kwargs):
        raise AssertionError("ran past argument validation")

    for name in ("_load_plan", "default_limit_path", "annulus_clearance_bound"):
        monkeypatch.setattr(cli, name, no_work)
    over = str(MAX_STEPS + 1)
    assert main(["limit", "--r", "0.25", "--steps", over]) == 2
    assert main(["profile", "--spec", annulus, "--point", "0.5,0;0,0",
                 "--range", "0.3:0.9", "--steps", over]) == 2
    assert f"[1, {MAX_STEPS}]" in capsys.readouterr().err


# --------------------------------------------------------------------- search

def test_search_punctured(capsys, tmp_path):
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"factors": [{"kind": "punctured_disk", "punctures": [[0, 0]]}]}))
    code, rows, _ = run(capsys, ["search", "--spec", str(spec), "--point", "0.5,0"])
    assert code == 0
    row = dict(zip(rows[0], rows[1]))
    assert float(row["value"]) == pytest.approx(0.5, abs=1e-9)
    assert row["witness"] == "mobius(0.5,0,0)"
    assert row["converged"] == "true"


def test_search_annulus_gap(capsys, annulus):
    code, rows, _ = run(capsys, ["search", "--spec", annulus, "--point", "0.5,0;0,0"])
    assert code == 0
    row = dict(zip(rows[0], rows[1]))
    assert float(row["value"]) < 0.5
    assert float(row["exact"]) == 0.5
    assert float(row["gap"]) >= 0.05
    assert row["evaluations"] == "3"  # branches scored: two on the annulus, one on the disk
    assert row["converged"] == "true"


# ------------------------------------------------- points an ulp from a circle

FAMILY_COMMANDS = [("search",), ("search", "--family", "inclusion"),
                   ("search", "--family", "reflection"), ("eval",), ("eval", "--no-search"),
                   ("eval", "--family", "inclusion"), ("eval", "--family", "reflection")]

# annulus(r) x disk, or x the punctured disk, at valid points where the
# reflected image r/z used to round onto the unit circle, or 1 - |r/z|^2 to
# 0, or where the quotient of subnormal operands lost its low bits
EDGE_CASES = {
    "image_rounds_to_unit_modulus": (0.04, "disk", "0.03870707637815848,-0.010087727110474709;0,0"),
    "normalizer_denominator_rounds_to_0": (
        0.999999999999, "disk", "-0.8273158576780923,0.5617370128737849;0,0"),
    "subnormal_radius": (1e-320, "disk", "-1.5e-323,-2e-320;0,0"),
    "subnormal_radius_punctured": (1e-320, "punctured", "-1.5e-323,-2e-320;0.9,0"),
}


def _annulus_spec(tmp_path, r, second):
    cofactor = ({"kind": "disk"} if second == "disk"
                else {"kind": "punctured_disk", "punctures": [[0.0, 0.0]]})
    path = tmp_path / f"annulus_{r!r}_{second}.json"
    path.write_text(json.dumps({"factors": [{"kind": "annulus", "r": r}, cofactor]}))
    return str(path)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    return code, dict(zip(*rows)) if len(rows) == 2 else {}, err.getvalue()


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_points_next_to_a_circle_keep_the_exit_contract(tmp_path, case):
    r, second, point = EDGE_CASES[case]
    spec = _annulus_spec(tmp_path, r, second)
    for command in FAMILY_COMMANDS:
        code, row, err = _call([*command, "--spec", spec, "--point=" + point])
        assert code == 0, (command, err)
        if row.get("exact"):
            assert float(row["exact"]) <= 1, command
            if command[0] == "eval":
                assert float(row["lower"]) <= float(row["exact"]) <= float(row["upper"]), command
            else:
                assert float(row["gap"]) >= 0, command


def test_subnormal_radius_reports_r_over_modulus(tmp_path):
    # |z| is 4048.0011 subnormal units and r is 2024, so r/|z| is
    # 0.49999986; the bare quotient r/z had modulus 0.50000006
    want = 2024 / math.hypot(3, 4048)
    r, second, point = EDGE_CASES["subnormal_radius"]
    code, row, _ = _call(["eval", "--spec", _annulus_spec(tmp_path, r, second), "--point=" + point])
    assert code == 0
    assert float(row["exact"]) == pytest.approx(want, rel=1e-15)
    assert float(row["lower"]) == float(row["exact"])
    r, second, point = EDGE_CASES["subnormal_radius_punctured"]
    code, row, _ = _call(["eval", "--spec", _annulus_spec(tmp_path, r, second), "--point=" + point])
    assert code == 0
    assert float(row["lower"]) == pytest.approx(want, rel=1e-15)


def _ulps_from(x, toward, k):
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from([1e-320, 0.25, 1 - 1e-12]), outer=st.booleans(),
       k=st.integers(1, 8), angle=st.floats(0.0, 2 * math.pi),
       second=st.sampled_from(["disk", "punctured"]))
def test_points_a_few_ulps_from_either_circle_exit_0(tmp_path_factory, r, outer, k, angle,
                                                     second):
    # the modulus k ulps inside the circle; the point is kept when its
    # components, rounded, still pass membership
    x = _ulps_from(1.0, 0.0, k) if outer else _ulps_from(r, 1.0, k)
    z = complex(x * math.cos(angle), x * math.sin(angle))
    if not r < abs(z) < 1.0:
        return
    spec = _annulus_spec(tmp_path_factory.getbasetemp(), r, second)
    point = f"{z.real!r},{z.imag!r};{'0.9,0' if second == 'punctured' else '0,0'}"
    for command in FAMILY_COMMANDS:
        code, _, err = _call([*command, "--spec", spec, "--point=" + point])
        assert code == 0, (command, point, err)


# Values below 1 whose double expression rounds to 1 + 2^-52: |phi_p(z)|
# against a puncture 2 ulps inside the unit circle, and r/|z| on an annulus
# with a subnormal inner radius, by complex division of the lifted operands.
# The search gap is 1 on the annulus, whose reflection branch rounds onto the
# unit circle there, so that inclusion alone scores, at one subnormal unit.
ROUNDS_ABOVE_1 = {
    "edge_puncture": ({"kind": "punctured_disk", "punctures": [[0.9999999999999998, 0]]},
                      (0.9995500337489874, 0.029995500202495657), "0"),
    "subnormal_annulus": ({"kind": "annulus", "r": 2.2249780881291262e-308},
                          (1.201560166855447e-308, 1.872640023624683e-308), "1"),
}


def _value_50_digits(factor, x, y):
    with mpmath.workdps(50):
        z = mpmath.mpc(x, y)
        if factor["kind"] == "annulus":
            return mpmath.mpf(factor["r"]) / abs(z)
        p = factor["punctures"][0][0]  # real, so conj(p) = p
        return abs((z - p) / (1 - p * z))


@pytest.mark.parametrize("case", sorted(ROUNDS_ABOVE_1))
def test_values_rounding_above_1_print_1(tmp_path, case):
    # 1 - 5.2e-29 and 1 - 5.5e-17: the nearest double is 1 in both, so the
    # cap at 1 gives the correctly rounded value
    factor, (x, y), gap = ROUNDS_ABOVE_1[case]
    true = _value_50_digits(factor, x, y)
    assert true < 1 and float(true) == 1.0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": [factor]}))
    code, row, err = _call(["eval", "--spec", str(spec), f"--point={x!r},{y!r}"])
    assert code == 0, err
    assert (row["lower"], row["upper"], row["exact"]) == ("1", "1", "1")
    code, row, err = _call(["search", "--spec", str(spec), f"--point={x!r},{y!r}"])
    assert code == 0, err
    assert (row["exact"], row["gap"]) == ("1", gap)


def test_polydisk_point_an_ulp_inside_the_circle(tmp_path):
    # 1 - |z|^2 rounds to 0 here, where the normalizer used to divide 0 by 0
    z = complex(-0.6381610240979042, 0.769902920712939)
    assert abs(z) < 1 and 1 - (z.conjugate() * z).real == 0
    spec = tmp_path / "polydisk.json"
    spec.write_text(json.dumps({"factors": [{"kind": "disk"}, {"kind": "disk"}]}))
    for command in FAMILY_COMMANDS[:4]:
        code, row, err = _call([*command, "--spec", str(spec), f"--point={z.real!r},{z.imag!r};0,0"])
        assert code == 0, (command, err)
        assert float(row.get("lower", row.get("value"))) == 1.0


# ------------------------------------------------------------------- plumbing

def test_out_flag_writes_file(tmp_path, annulus):
    target = tmp_path / "row.csv"
    assert main(["eval", "--spec", annulus, "--point", "0.4,0;0,0",
                 "--no-search", "--out", str(target)]) == 0
    with target.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "lower"
    assert float(dict(zip(rows[0], rows[1]))["exact"]) == 0.625


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_out_unopenable_exits_2(capsys, tmp_path, annulus, where):
    target = tmp_path / "no" / "such" / "x.csv" if where == "missing_dir" else tmp_path
    assert main(["eval", "--spec", annulus, "--point", "0.4,0;0,0", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot open output file")


@pytest.mark.parametrize("argv, code", [
    (["eval", "--point", "x,y;0,0"], 2),                  # parse error
    (["eval", "--point", "2,0;0,0"], 3),                  # outside the domain, before any row
    (["profile", "--point", "0.5,0;0,0", "--range", "0.3:1.2", "--steps", "5"], 3),  # mid-profile
], ids=["exit2", "exit3_before_rows", "exit3_mid_profile"])
def test_out_keeps_old_bytes_on_failure(capsys, tmp_path, annulus, argv, code):
    target = tmp_path / "keep.csv"
    target.write_bytes(b"old,bytes\n")
    before = sorted(os.listdir(tmp_path))
    assert main([argv[0], "--spec", annulus, *argv[1:], "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == b"old,bytes\n"
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file left behind


def test_out_file_mode_as_open_gives(tmp_path, annulus):
    argv = ["eval", "--spec", annulus, "--point", "0.4,0;0,0", "--no-search", "--out"]
    reference = tmp_path / "reference.csv"
    with open(reference, "w"):
        pass
    fresh = tmp_path / "fresh.csv"
    assert main(argv + [str(fresh)]) == 0
    assert fresh.stat().st_mode == reference.stat().st_mode
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o600)
    assert main(argv + [str(kept)]) == 0
    assert kept.stat().st_mode & 0o777 == 0o600
    assert kept.read_text().startswith("lower,")


def _cli_env(unbuffered: bool) -> dict:
    src = os.path.dirname(os.path.dirname(polysqueeze.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _assert_one_write_error(code, err: bytes):
    # exit 2 with one line, and nothing left for the flush at interpreter exit
    text = err.decode()
    assert code == 2, text
    assert text.startswith("error: cannot write output: ") and text.count("\n") == 1, text
    assert "Traceback" not in text and "Exception ignored" not in text


_CLI = [sys.executable, "-m", "polysqueeze.cli"]
_BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
_needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@_needs_dev_full
@_BUFFERING
@pytest.mark.parametrize("target", ["stdout", "out"])
@pytest.mark.parametrize("steps", ["3", "256"])  # rows left in stdout's buffer, or past it
def test_a_full_device_exits_2(unbuffered, target, steps):
    argv = [*_CLI, "limit", "--r", "0.25", "--steps", steps]
    with open("/dev/full", "wb") as full:
        if target == "stdout":
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  env=_cli_env(unbuffered), timeout=120)
        else:
            proc = subprocess.run([*argv, "--out", "/dev/full"], capture_output=True,
                                  env=_cli_env(unbuffered), timeout=120)
            assert proc.stdout == b""
    _assert_one_write_error(proc.returncode, proc.stderr)


@_BUFFERING
def test_a_closed_pipe_exits_2(unbuffered):
    # as "polysqueeze limit ... | head -1": the reader leaves after one line
    proc = subprocess.Popen([*_CLI, "limit", "--r", "0.25", "--steps", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(unbuffered))
    try:
        assert proc.stdout.readline() == b"param,bound\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    _assert_one_write_error(code, err)


@_needs_dev_full
@_BUFFERING
def test_help_to_a_full_device_keeps_the_exit_contract(unbuffered):
    # help fails at its write when stdout is unbuffered, else at the flush; a
    # command's parser is of the program parser's class
    for argv in (["--help"], ["eval", "--help"]):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([*_CLI, *argv], stdout=full, stderr=subprocess.PIPE,
                                  env=_cli_env(unbuffered), timeout=120)
        _assert_one_write_error(proc.returncode, proc.stderr)


@_needs_dev_full
@_BUFFERING
@pytest.mark.parametrize(("argv", "code"), [
    (["limit", "--r", "2"], 2),
    (["limit", "--r", "0.25", "--side", "up"], 2),  # argparse's choice error
    (["eval", "--spec", "missing.json", "--point", "0.5"], 2),
    (["eval", "--spec", "annulus", "--point", "2,0;0"], 3),
    (["limit", "--r", "0.25", "--steps", "3"], 2),  # stdout full too: the write error
    (["evl"], 2),  # argparse's command error
], ids=["usage", "choice", "missing-spec", "domain", "write", "command"])
def test_a_failing_stderr_keeps_the_exit_contract(unbuffered, argv, code, annulus, tmp_path):
    # the error line is lost, but the code is the contract's, not the 1 of an
    # uncaught OSError or the 120 of a failed flush at exit
    argv = [annulus if a == "annulus" else a for a in argv]
    with open("/dev/full", "wb") as full:
        stdout = full if "--steps" in argv else subprocess.DEVNULL
        proc = subprocess.run([*_CLI, *argv], stdout=stdout, stderr=full, cwd=tmp_path,
                              env=_cli_env(unbuffered), timeout=120)
    assert proc.returncode == code


def test_ball_point_parsing(tmp_path, capsys):
    spec = tmp_path / "b.json"
    spec.write_text(json.dumps({"factors": [{"kind": "ball", "n": 2}, {"kind": "disk"}]}))
    code, rows, _ = run(capsys, ["eval", "--spec", str(spec), "--point", "0.1,0;0.2,0;0.5,0"])
    assert code == 0
    row = dict(zip(rows[0], rows[1]))
    assert row["exact"] == ""  # outside the closed-form catalog
    assert float(row["lower"]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_closed_form_commands_never_import_numpy(tmp_path):
    # eval, search, profile and limit run on Python floats, and so do the
    # verify suites that build no arrays; numpy loads only for a suite that does
    planar = [{"kind": "annulus", "r": 0.25},
              {"kind": "punctured_disk", "punctures": [[0, 0], [0.5, 0]]}]
    specs = []
    for name, factors in (("planar", planar), ("ball", [*planar, {"kind": "ball", "n": 2}])):
        specs.append(tmp_path / f"{name}.json")
        specs[-1].write_text(json.dumps({"factors": factors}))
    script = """
import contextlib, io, json, sys
import polysqueeze, polysqueeze.cli, polysqueeze.verify
from polysqueeze.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

planar, ball = sys.argv[1:]
codes = [run("eval", "--spec", planar, "--point", "0.6,0.1;0.2,0"),
         run("eval", "--spec", planar, "--point", "0.3,0;0.2,0"),  # a memoized spec
         run("eval", "--spec", ball, "--point", "0.6,0.1;0.2,0;0.1,0;0.2,0"),
         run("eval", "--spec", ball, "--point", "0.6,0.1;0.2,0;0.1,0;0.2,0", "--no-search"),
         run("search", "--spec", planar, "--point", "0.3,0;-0.2,0.1"),
         run("profile", "--spec", ball, "--point", "0.6,0.1;0.2,0;0.1,0;0.2,0",
             "--range", "0.3:0.9", "--steps", "16")]
numpy_loaded = ["numpy" in sys.modules]
for argv in (["limit", "--r", "0.25", "--steps", "16"], ["verify", "--suite", "limit"],
             ["verify", "--suite", "ball_ratios"], ["verify", "--suite", "hhr"],
             ["verify", "--suite", "pinch"]):
    codes.append(run(*argv))
    numpy_loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "numpy_loaded": numpy_loaded}))
"""
    src = os.path.dirname(os.path.dirname(polysqueeze.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, specs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result == {"codes": [0] * 11, "numpy_loaded": [False] * 5 + [True]}


def test_reused_parser_leaks_no_state(capsys, tmp_path, annulus):
    from polysqueeze import cli

    point = ["--spec", annulus, "--point", "0.6,0.1;0.2,0"]
    out_file = tmp_path / "row.csv"
    calls = [
        ["eval", *point, "--family", "reflection"],
        ["eval", *point],
        ["search", *point, "--family", "inclusion"],
        ["eval", *point],
        ["eval", *point, "--out", str(out_file)],
        ["eval", *point],               # no output path left behind
        ["eval", *point, "--no-search"],
        ["eval", *point],               # no flag left set
        ["eval", *point, "--family", "inclusion"],
        ["eval", *point],
        # forms only argparse reads: abbreviations, a negative-looking value,
        # a value its choices reject
        ["eval", "--spec", annulus, "--po", "0.6,0.1;0.2,0", "--fam", "reflection"],
        ["eval", *point],
        ["eval", *point, "--no-s"],
        ["eval", *point],
        ["eval", *point, "--fam", "inclusion", "--o", str(out_file)],
        ["eval", "--spec", annulus, "--point", "-0.6,0.1;0.2,0"],
        ["eval", *point, "--family", "bogus"],
        ["eval", *point],
    ]

    def outcome(argv):
        out_file.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out_file.read_text() if out_file.exists() else None

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(outcome(argv))
    cli.build_parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert reused == alone
    codes = [r[0] for r in reused]
    assert codes == [0] * 15 + [2, 2, 0]
    assert reused[0][1] != reused[1][1]  # the reflection family shows in the witness
    assert reused[6][1] != reused[1][1]  # so does the skipped search
    assert reused[10] == reused[0] and reused[12] == reused[6]
    assert reused[4][1] == "" and reused[4][3] == reused[1][1]
    assert reused[14][1] == "" and reused[14][3] == reused[8][1]
    assert "expected one argument" in reused[15][2] and "invalid choice" in reused[16][2]


@pytest.mark.parametrize("command", ["eval", "profile", "verify", "limit", "search"])
def test_help_unchanged_by_parser_reuse(capsys, monkeypatch, annulus, command):
    from polysqueeze import cli

    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    assert main([command, "--help"]) == 0
    fresh = capsys.readouterr().out
    assert main(["eval", "--spec", annulus, "--point", "0.6,0.1;0.2,0", "--family", "reflection"]) == 0
    assert main(["limit", "--r", "0.5", "--steps", "4", "--out", os.devnull]) == 0
    capsys.readouterr()
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == fresh
    assert fresh.startswith(f"usage: polysqueeze {command} ")


# ------------------------------------------------- command lines read from the table

def test_cli_import_leaves_verify_unloaded():
    # the oracle module is compiled only by verify and by its help
    script = "import sys, polysqueeze.cli; print('polysqueeze.verify' in sys.modules)"
    src = os.path.dirname(os.path.dirname(polysqueeze.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_well_formed_eval_leaves_argparse_unloaded(annulus):
    # argparse is imported by build_parser alone, which help still reaches
    script = """
import contextlib, io, sys
from polysqueeze.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

code = run("eval", "--spec", sys.argv[1], "--point", "0.6,0.1;0.2,0")
print(code, "argparse" in sys.modules)
print(run("eval", "--help"), "argparse" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(polysqueeze.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, annulus], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "0 False\n0 True\n"


def test_commands_leave_dataclasses_unloaded(annulus):
    # the value classes are slotted classes of their own, as numpy stays out
    # of the closed forms (test_closed_form_commands_never_import_numpy)
    script = """
import contextlib, io, sys
import polysqueeze.cli
from polysqueeze.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

loaded = ["dataclasses" in sys.modules]
for argv in (["eval", "--spec", sys.argv[1], "--point", "0.6,0.1;0.2,0"],
             ["verify", "--suite", "limit"]):
    print(run(*argv), end=" ")
    loaded.append("dataclasses" in sys.modules)
print(loaded)
"""
    src = os.path.dirname(os.path.dirname(polysqueeze.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, annulus], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "0 0 [False, False, False]\n"


def test_well_formed_calls_build_no_parser(capsys, monkeypatch, annulus):
    from polysqueeze import cli

    point = ["--spec", annulus, "--point=0.6,0.1;0.2,0"]
    cli.build_parser.cache_clear()
    codes = [
        main(["eval", *point, "--family", "reflection", "--no-search"]),
        main(["profile", *point, "--range", "0.3:0.9", "--steps=4", "--axis", "1"]),
        main(["search", *point, "--family=inclusion"]),
        main(["limit", "--r=0.5", "--side", "inner", "--steps", "4"]),
        main(["verify", "--suite", "hhr", "--seed", "2", "--seed", "1"]),
    ]
    assert codes == [0] * 5
    assert cli.build_parser.cache_info().misses == 0
    assert "# " in capsys.readouterr().out


def test_verify_help_lists_the_nine_suites(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["verify", "--help"]) == 0
    listed = " ".join(capsys.readouterr().out.split("suite name:")[1].split())
    assert len(verify.SUITES) == 9
    assert listed.startswith(f"{', '.join(sorted(verify.SUITES))}, or all")
