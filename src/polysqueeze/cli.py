"""Command-line surface: domain-spec ingestion, CSV emission, verification runner.

Exit codes are a stable contract: 0 success, 2 usage or parse error,
3 domain violation (a point outside its domain), 4 verification failure.
CSV output uses '.' decimals, 17 significant digits (lossless for doubles)
and always emits a header row.  The rows are formatted here, without the
``csv`` module, and each is written as soon as it is formed: fields are
joined by ',', and a field that holds ',', '"' or a newline is wrapped in
'"' with each inner '"' doubled, the line ``csv.writer`` writes with
``lineterminator="\\n"``.  A write that fails (a full device, a closed
pipe) exits 2 with ``error: cannot write output: ...`` and no traceback.
A spec factor that holds a key its kind does not read exits 2.

No option is inert: no reported value depends on boundary sampling, so no
command takes a sample count, and only ``verify`` draws, so only it takes
``--seed``.  ``--steps`` is capped at ``MAX_STEPS``.

Each command's options are declared once, in :data:`COMMANDS`.  A command
line that names a command and then spells out only that command's options,
each in full and with a value argparse would take as one, is read straight
from that table, whose option rows (dest, flag, type, choices, default,
required) are built once, at import; the argparse parser reads every other
command line whole, from the top level, so help, usage and error text come
from argparse alone.  argparse is imported and the parser built the first
time such a line needs it, and the parser is then reused by every
:func:`main` call.
Each spec file is read as bytes, without the text-file layer, and decoded
on every call, and its text is looked up in a memo of the last
``SPEC_MEMO_SIZE`` texts that parsed: keyed on the content, it never serves
a rewritten file stale, and a spec that fails is parsed, and fails, again.
A memo entry is the domain's :class:`~polysqueeze.squeezing.DomainPlan`,
the facts of it that no point changes, which ``eval``, ``profile`` and
``search`` read, so a warm call does only the work of its point.
``eval``, ``profile``, ``search`` and ``limit`` run on Python floats; only
``verify`` builds arrays, and it imports :mod:`polysqueeze.verify` only
when it runs or its help is shown.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import sys
from contextlib import contextmanager, suppress
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .domains import Annulus, BallFactor, ProductDomain, PuncturedDisk, UnitDisk
from .embeddings import MapExpr, MobiusAut, ProductMap
from .errors import DomainError, SqueezeError, UnsupportedGeometryError
from .squeezing import (
    FAMILIES,
    DomainPlan,
    annulus_clearance_bound,
    default_limit_path,
    search_lower_bound,
    squeeze_bounds,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

MAX_STEPS = 1_000_000
SPEC_MEMO_SIZE = 16


class UsageError(SqueezeError):
    """Malformed input file, point string or flag combination."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------- spec files

def _spec_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as e:
        raise UsageError(f"{where}: {e}") from e


def _load_plan(path: str) -> DomainPlan:
    """The domain of the JSON domain-spec file at ``path``, in its plan.

    Schema: {"factors": [{"kind": "disk"} | {"kind": "punctured_disk",
    "punctures": [[re, im], ...]} | {"kind": "annulus", "r": x} |
    {"kind": "ball", "n": k}, ...]}, where x, re and im are JSON numbers and
    k is a JSON integer.  A factor with any other key is refused.

    The file is read on every call, as bytes without the text-file layer,
    and decoded as UTF-8 with CR LF and a lone CR read as LF: the text that
    ``open(path, encoding="utf-8").read()`` gives, with the same errors.  That
    text is parsed once while it stays among the last ``SPEC_MEMO_SIZE``
    distinct texts that parsed; the plan returned is that memo entry.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as e:
        raise UsageError(f"cannot read spec file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8: {e}") from e
    except ValueError as e:
        # a path with a NUL byte; reported as the JSON errors below always were
        raise UsageError(f"{path}: invalid JSON: {e}") from e
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    try:
        return _spec_plan(text)
    except UsageError as e:
        raise UsageError(f"{path}: {e}") from e


@functools.lru_cache(maxsize=SPEC_MEMO_SIZE)
def _spec_plan(text: str) -> DomainPlan:
    """The domain of a spec file's text, in its plan; errors name the part, not the file.

    Keyed on the text itself, so a rewritten file is never served stale;
    a text that fails raises again on every call.  Domains and plans are
    never changed, so callers may share one.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer literal past the digit limit, or
        # nesting past the recursion limit
        raise UsageError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict) or "factors" not in data:
        raise UsageError("top level must be an object with a 'factors' list")
    raw = data["factors"]
    if not isinstance(raw, list) or not raw:
        raise UsageError("'factors' must be a nonempty list")
    factors = []
    for i, item in enumerate(raw):
        where = f"factors[{i}]"
        if not isinstance(item, dict) or "kind" not in item:
            raise UsageError(f"{where}: each factor needs a 'kind'")
        kind = item["kind"]
        try:
            if kind == "disk":
                factor, reads = UnitDisk(), ()
            elif kind == "punctured_disk":
                ps = item.get("punctures")
                if not isinstance(ps, list) or not ps:
                    raise UsageError(f"{where}.punctures: need a nonempty list of [re, im] pairs")
                pts = []
                for j, p in enumerate(ps):
                    if not (isinstance(p, list) and len(p) == 2):
                        raise UsageError(f"{where}.punctures[{j}]: expected [re, im]")
                    pts.append(complex(_spec_real(p[0], f"{where}.punctures[{j}][0]"),
                                       _spec_real(p[1], f"{where}.punctures[{j}][1]")))
                factor, reads = PuncturedDisk(tuple(pts)), ("punctures",)
            elif kind == "annulus":
                if "r" not in item:
                    raise UsageError(f"{where}.r: missing inner radius")
                factor, reads = Annulus(_spec_real(item["r"], f"{where}.r")), ("r",)
            elif kind == "ball":
                if "n" not in item:
                    raise UsageError(f"{where}.n: missing dimension")
                n = item["n"]
                if isinstance(n, bool) or not isinstance(n, int):
                    raise UsageError(f"{where}.n: expected an integer, got {n!r}")
                factor, reads = BallFactor(n), ("n",)
            else:
                raise UsageError(f"{where}.kind: unknown kind {kind!r}")
        except DomainError as e:
            raise UsageError(f"{where}: {e}") from e
        # checked after the kind's own reads, so a misspelt key reports what is missing
        for key in item:
            if key != "kind" and key not in reads:
                raise UsageError(f"{where}: unknown key {key!r} for kind {kind!r}")
        factors.append(factor)
    return DomainPlan(ProductDomain(tuple(factors)))


def parse_point(text: str, domain: ProductDomain):
    """Parse 're,im;re,im;...' into a validated point of ``domain``; balls consume n pairs."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty coordinate in point string {text!r}")
        parts = chunk.split(",")
        if len(parts) > 2:
            raise UsageError(f"coordinate {chunk!r} is not 're' or 're,im'")
        try:
            re_part = float(parts[0])
            im_part = float(parts[1]) if len(parts) == 2 else 0.0
        except ValueError as e:
            raise UsageError(f"coordinate {chunk!r}: {e}") from e
        pairs.append(complex(re_part, im_part))
    if len(pairs) != domain.dim:
        raise UsageError(
            f"point has {len(pairs)} coordinates, domain has complex dimension {domain.dim}"
        )
    coords = []
    k = 0
    for f in domain.factors:
        coords.append(tuple(pairs[k:k + f.dim]) if isinstance(f, BallFactor) else pairs[k])
        k += f.dim
    return domain.point(coords)


# ------------------------------------------------------------- witness format

def format_map_expr(e: MapExpr) -> str:
    out = []
    for step in e.steps:
        if isinstance(step, MobiusAut):
            out.append("mobius(%.17g,%.17g,%.17g)" % (step.a.real, step.a.imag, step.theta))
        else:
            out.append("reflect(%.17g)" % step.r)
    return "|".join(out)


def format_product_map(pm: ProductMap) -> str:
    return ";".join(format_map_expr(e) for e in pm.components)


# ------------------------------------------------------------------ commands

def _open_file(path: str, name: str, mode: str):
    try:
        return open(name, mode, newline="")
    except OSError as e:
        raise UsageError(f"cannot open output file {path}: {e}") from e


@contextmanager
def _open_out(path: str | None):
    """Yield the output stream: stdout, or a file that takes the place of ``path``.

    The rows go to a new file beside ``path``, which is renamed over it when
    the command returns and removed if the command raises, so a failing
    command leaves an earlier file at ``path`` as it was.  The new file gets
    the mode ``open(path, "w")`` would leave: that of the file it replaces,
    else 0o666 less the umask.  A target that exists and is not a regular
    file (a device, a pipe, a directory) holds no rows to keep and is opened
    as given.  Rows sent to stdout are flushed before the command returns.
    """
    if path is None:
        yield sys.stdout
        sys.stdout.flush()  # a failed write raises here, not at interpreter exit
        return
    target = os.path.realpath(path)
    try:
        old_mode = os.stat(target).st_mode
    except OSError:
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        with _open_file(path, path, "w") as fh:
            yield fh
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fh = _open_file(path, tmp, "x")
    try:
        with fh:
            if old_mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(old_mode))
            yield fh
        try:
            os.replace(tmp, target)
        except OSError as e:
            raise UsageError(f"cannot write output file {path}: {e}") from e
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _csv_row(fields: list[str]) -> str:
    """One CSV line of ``fields``, ended by ``\\n``.

    Fields are joined by ``,``; a field that holds ``,``, ``"`` or ``\\n``
    is wrapped in ``"`` with each inner ``"`` doubled, and every other field
    (one with ``\\r``, leading spaces or nothing in it too) stays bare.  For
    two or more fields that is the line ``csv.writer(out,
    lineterminator="\\n")`` writes on Python 3.11.
    """
    return ",".join([
        '"' + f.replace('"', '""') + '"' if "," in f or '"' in f or "\n" in f else f
        for f in fields
    ]) + "\n"


_EVAL_HEADER = "lower,upper,exact,methods,witness\n"
_PROFILE_HEADER = "param,lower,upper,exact,clearance_lower\n"
_VERIFY_HEADER = "status,check,detail\n"
_LIMIT_HEADER = "param,bound\n"
_SEARCH_HEADER = "value,evaluations,converged,exact,gap,witness\n"


def cmd_eval(args, out) -> int:
    plan = _load_plan(args.spec)
    z = parse_point(args.point, plan.domain)
    rep = squeeze_bounds(plan, z, search=not args.no_search, family=args.family)
    out.write(_EVAL_HEADER)
    out.write(_csv_row([
        _fmt(rep.lower),
        _fmt(rep.upper),
        _fmt(rep.exact) if rep.exact is not None else "",
        ";".join(rep.methods),
        format_product_map(rep.witness) if rep.witness is not None else "",
    ]))
    return EXIT_OK


def cmd_profile(args, out) -> int:
    plan = _load_plan(args.spec)
    domain = plan.domain
    base = parse_point(args.point, domain)
    if not (0 <= args.axis < domain.arity):
        raise UsageError(f"axis {args.axis} out of range for {domain.arity} factors")
    if isinstance(domain.factors[args.axis], BallFactor):
        raise UsageError("profiles sweep planar factors only")
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError as e:
        raise UsageError(f"range must be 'lo:hi', got {args.range!r}") from e
    params = [lo] if args.steps == 1 else [
        lo + k * (hi - lo) / (args.steps - 1) for k in range(args.steps)
    ]
    c0 = base.planar(args.axis)
    if abs(c0) < sys.float_info.min:
        # abs of a subnormal keeps too few bits for a unit direction; a power
        # of two lifts c0 into the normal range exactly
        c0 *= 2.0 ** 600
    direction = c0 / abs(c0) if c0 != 0 else complex(1.0)
    ann = plan.annulus
    out.write(_PROFILE_HEADER)
    for param in params:
        coords = list(base.coords)
        coords[args.axis] = param * direction
        z = domain.point(coords)
        rep = squeeze_bounds(plan, z, search=False)
        clearance = ""
        if ann is not None:
            clearance = _fmt(annulus_clearance_bound(domain.factors[ann].r, z.planar(ann)))
        out.write(_csv_row([
            _fmt(param),
            _fmt(rep.lower),
            _fmt(rep.upper),
            _fmt(rep.exact) if rep.exact is not None else "",
            clearance,
        ]))
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from .verify import SUITES, run_suite

    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        checks = run_suite(args.suite, seed=args.seed)
    except KeyError:
        raise UsageError(
            f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}, all"
        ) from None
    out.write(_VERIFY_HEADER)
    for c in checks:
        out.write(_csv_row(["PASS" if c.passed else "FAIL", c.name, c.detail]))
    passed = sum(c.passed for c in checks)
    out.write(f"# {passed}/{len(checks)} checks passed\n")
    return EXIT_OK if passed == len(checks) else EXIT_VERIFY


def cmd_limit(args, out) -> int:
    if not (0.0 < args.r < 1.0):
        raise UsageError(f"inner radius must lie in (0, 1), got {args.r}")
    if args.side not in ("outer", "inner"):
        raise UsageError(f"side must be 'outer' or 'inner', got {args.side!r}")
    try:
        path = default_limit_path(args.r, args.side, args.steps)
    except DomainError as e:
        # r and side are valid here, so the path itself is too short
        raise UsageError(f"--steps {args.steps}: {e}") from None
    out.write(_LIMIT_HEADER)
    for x in path:
        out.write(_csv_row([_fmt(x), _fmt(annulus_clearance_bound(args.r, x))]))
    return EXIT_OK


def cmd_search(args, out) -> int:
    plan = _load_plan(args.spec)
    z = parse_point(args.point, plan.domain)
    sr = search_lower_bound(plan, z, args.family)
    exact = squeeze_bounds(plan, z, search=False).exact
    out.write(_SEARCH_HEADER)
    out.write(_csv_row([
        _fmt(sr.value),
        str(sr.evaluations),
        "true",  # converged: scoring is closed-form, with nothing to iterate
        _fmt(exact) if exact is not None else "",
        _fmt(exact - sr.value) if exact is not None else "",
        format_product_map(sr.witness),
    ]))
    return EXIT_OK


# -------------------------------------------------------------------- driver

def _suite_help() -> str:
    from .verify import SUITES

    return f"suite name: {', '.join(sorted(SUITES))}, or all"


_LOCATED = {
    "--spec": dict(required=True, help="domain spec JSON file"),
    "--point": dict(required=True, help="point as 're,im;re,im;...'"),
}
_OUT = dict(default=None, help="output path (default: stdout)")
_FAMILY = dict(default="auto", choices=FAMILIES)
_STEPS = dict(type=int, default=256, help=f"rows, 1 to {MAX_STEPS}")

# name -> (help, func, {option string: add_argument keywords}), in help order.
# A callable help is called when the parser is built: the suite list lives
# in the verify module, which only verify itself and its help load.
COMMANDS = {
    "eval": ("bounds and exact value at one point", cmd_eval, {
        **_LOCATED, "--out": _OUT,
        "--family": _FAMILY,
        "--no-search": dict(action="store_true", help="skip the witness-family search"),
    }),
    "profile": ("sweep one coordinate modulus, CSV table", cmd_profile, {
        **_LOCATED, "--out": _OUT,
        "--axis": dict(type=int, default=0, help="factor index to sweep"),
        "--range": dict(required=True, help="modulus range 'lo:hi'"),
        "--steps": _STEPS,
    }),
    "verify": ("run a verification suite", cmd_verify, {
        "--out": _OUT,
        "--seed": dict(type=int, default=0, help="seed for randomized suites"),
        "--suite": dict(default="all", help=_suite_help),
    }),
    "limit": ("boundary-limit profile for an annulus product", cmd_limit, {
        "--out": _OUT,
        "--r": dict(type=float, required=True, help="annulus inner radius"),
        "--side": dict(default="outer", help="'outer' or 'inner'"),
        "--steps": _STEPS,
    }),
    "search": ("witness-family lower bound at one point", cmd_search, {
        **_LOCATED, "--out": _OUT,
        "--family": _FAMILY,
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`COMMANDS`, built on first use and kept.

    Every default is a constant, so parsing leaves the parser unchanged and
    one instance serves every :func:`main` call.  Its class, which
    ``add_subparsers`` reuses, writes help without argparse's guard, so a
    failed write reaches :func:`main`.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            (file or sys.stdout).write(self.format_help())

    p = Parser(
        prog="polysqueeze",
        description="Squeezing values of product domains relative to the polydisk.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help, func, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        for option, kw in options.items():
            if callable(kw.get("help")):
                kw = {**kw, "help": kw["help"]()}
            sp.add_argument(option, **kw)
        sp.set_defaults(func=func)
    return p


def _option_rows(func, options: dict) -> tuple:
    """What :func:`_read_table` reads of one command: its function, each option
    string's (dest, flag, type, choices), each dest with its default in table
    order, and the required option strings."""
    rows = {option: (option[2:].replace("-", "_"), kw.get("action") == "store_true",
                     kw.get("type"), kw.get("choices"))
            for option, kw in options.items()}
    defaults = {dest: options[option].get("default", False if flag else None)
                for option, (dest, flag, _, _) in rows.items()}
    required = frozenset(option for option, kw in options.items() if kw.get("required"))
    return func, rows, defaults, required


# Built once, at import: :func:`_read_table` only reads argv.
_TABLE = {name: _option_rows(func, options) for name, (_, func, options) in COMMANDS.items()}


def _read_table(argv: list[str]) -> SimpleNamespace | None:
    """A namespace with the ``vars()`` argparse gives a well-formed command line, else None.

    Well formed: ``argv[0]`` names a command, and every later token is one
    of its option strings in full, as ``--opt value`` or ``--opt=value``
    (a flag only as ``--opt``), with every required option given.  None
    where argparse would print or decide something: any other token, a flag
    written with ``=``, a value that is missing or, unless it follows ``=``,
    starts with ``-`` (which argparse may read as an option), a value ``--``
    (which argparse drops), a value its ``type`` or ``choices`` rejects.
    Each command's option rows come from :data:`COMMANDS` through ``_TABLE``,
    built at import.
    """
    table = _TABLE.get(argv[0]) if argv else None
    if table is None:
        return None
    func, rows, defaults, required = table
    values = dict(defaults)
    given = set()
    i = 1
    while i < len(argv):
        option, eq, value = argv[i].partition("=")
        i += 1
        row = rows.get(option)
        if row is None:
            return None
        dest, flag, kind, choices = row
        if flag:
            if eq:
                return None
            values[dest] = True
            given.add(option)
            continue
        if not eq:
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        elif value == "--":
            return None  # argparse drops a "--" from an option's values
        # argparse converts and checks every occurrence; the last one stays
        try:
            value = kind(value) if kind is not None else value
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(option)
    if not required <= given:
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def _parse_args(argv) -> argparse.Namespace | SimpleNamespace:
    """``build_parser().parse_args(argv)``: same ``vars()``, output and exit,
    but a value written ``--opt=--`` raises :class:`UsageError`.

    A well-formed command line (see :func:`_read_table`) is read from
    :data:`COMMANDS` without argparse; any other goes to the parser.  Only
    the parser yields a value ``[]``: it stores ``--opt=--`` so, and raises
    no error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_table(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        for dest, value in vars(args).items():
            if value == []:
                raise UsageError(f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


def _to_devnull(stream) -> None:
    """Point ``stream``'s file descriptor at ``os.devnull``, so that what is
    left in its buffer after a failed write is flushed nowhere at exit,
    without error.  A stream with no descriptor (a capture in process) is
    left as is."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _error(code: int, message: str | None = None) -> int:
    """Write the line ``error: <message>`` to stderr (none where argparse has
    written its own), flush it and return ``code``.  A failed write points
    stderr at ``os.devnull``: the line is lost, but the exit code stays
    ``code``."""
    try:
        if message is not None:
            sys.stderr.write(f"error: {message}\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    return code


def main(argv=None) -> int:
    out_path = None  # stdout, until a command names its --out
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as e:
            if e.code:
                return _error(EXIT_USAGE)  # argparse wrote the usage error
            sys.stdout.flush()  # help left in stdout's buffer; a failed flush raises here
            return EXIT_OK
        steps = getattr(args, "steps", None)
        if steps is not None and not 1 <= steps <= MAX_STEPS:
            raise UsageError(f"--steps must lie in [1, {MAX_STEPS}], got {steps}")
        out_path = args.out
        with _open_out(out_path) as out:
            return args.func(args, out)
    except UsageError as e:
        return _error(EXIT_USAGE, str(e))
    except (DomainError, UnsupportedGeometryError) as e:
        return _error(EXIT_DOMAIN, str(e))
    except OSError as e:
        # the spec read and the output open raise UsageError, so this is a write
        if out_path is None:
            _to_devnull(sys.stdout)
        return _error(EXIT_USAGE, f"cannot write output: {e}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
