"""The public names of the package and the layout of its modules.

Each export resolves and appears once, ``__all__`` is the README's "Public
API" list, the README's "Layout" lists every module, the boundary-sampling
oracle stays out of the production modules, no module reaches into
another's private names, and every name a module imports is used there.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import polysqueeze
from polysqueeze import cli, domains, embeddings, squeezing, verify

PACKAGE_DIR = pathlib.Path(polysqueeze.__file__).parent
README = PACKAGE_DIR.parent.parent / "README.md"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_all_names_resolve_once():
    names = polysqueeze.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(polysqueeze, n)]
    assert not missing, f"__all__ names with no attribute: {missing}"


def readme_public_api():
    """The backquoted names in the bulleted list of the README's "Public API" section."""
    section = README.read_text().split("\n## Public API\n", 1)[1]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", bullets)


def test_all_is_the_documented_api():
    documented = readme_public_api()
    assert len(documented) == len(set(documented)) == 25
    assert sorted(polysqueeze.__all__) == sorted(documented)
    # the package imports only what it exports (and its own submodules)
    public = {n for n in vars(polysqueeze) if not n.startswith("_")}
    submodules = {p.stem for p in MODULES if p.stem != "__init__"}
    assert public - submodules == set(documented)


def test_layout_lists_every_module():
    block = README.read_text().split("\n## Layout\n", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    assert sorted(listed) == sorted(p.name for p in MODULES if p.name != "__init__.py")


@pytest.mark.parametrize("name", ["domains", "embeddings", "squeezing", "cli"])
def test_production_modules_import_no_numpy(name):
    # nor look it up: their maps, domains, bounds and paths take scalars only,
    # and only verify builds arrays
    source = (PACKAGE_DIR / f"{name}.py").read_text()
    assert "numpy" not in source and "sys.modules" not in source, name
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "numpy" for a in node.names), name
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy", name


def test_no_module_imports_a_private_name():
    found = []
    for path in MODULES:
        for node in ast.walk(parsed(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            own = node.level > 0 or (node.module or "").split(".")[0] == "polysqueeze"
            found += [f"{path.name}: {a.name}" for a in node.names if own and a.name.startswith("_")]
    assert not found


def imported_names(tree):
    """Each name a module's imports bind, with its line; ``__future__`` features excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = parsed(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.stem == "__init__":
        used |= set(polysqueeze.__all__)  # the re-exports
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused


def test_deleted_names_are_gone():
    # the single-puncture and subdomain-disk Kobayashi helpers, and the
    # one-puncture fill they used, were replaced by filling every puncture
    for name in ("kob_filled", "kob_upper_via_subdomain", "filled"):
        assert name not in polysqueeze.__all__
        assert not hasattr(polysqueeze, name)
    assert not hasattr(embeddings, "kob_filled")
    assert not hasattr(embeddings, "kob_upper_via_subdomain")
    assert not hasattr(domains, "filled")
    # a witness family is a name, and the search lives beside the table
    for name in ("FamilySpec", "BoundsOptions"):
        assert name not in polysqueeze.__all__
        assert not hasattr(polysqueeze, name)
        assert not hasattr(squeezing, name)
    # the disk automorphism lives beside the other map primitives, and a map
    # is evaluated by mobius_eval, not called
    for module in ("polysqueeze.search", "polysqueeze.hyperbolic"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert not callable(polysqueeze.MobiusAut(0.5))
    # the whole-array boundary sampler: the oracle builds each circle from
    # _sample_radii and _unit_circle
    for module in (domains, verify):
        assert not hasattr(module, "boundary_samples")
    assert polysqueeze.SearchResult.__slots__ == ("value", "witness", "evaluations")
    # the plan-free bodies of lower and upper: squeeze_bounds(d, z, search=False)
    # gives both from the plan's value column
    for name in ("product_lower_bound", "puncture_upper_bound"):
        assert name not in polysqueeze.__all__
        assert not hasattr(polysqueeze, name)
        assert not hasattr(squeezing, name)


# Aliases and duplicates of code that stays: poincare_distance (kob_disk),
# float (HyperbolicValue), map_eval (removable_extension_at), a factor's
# punctures (domains.punctures), DomainPlan.values (single_factor_exact),
# squeezing._family (build_factor_witness), embeddings.mobius_modulus
# (squeezing._reduced_modulus, verify._pseudo_hyperbolic), map_eval (_apply),
# DomainPlan.annulus, read from the factors' boundary data
# (single_annulus_index); punctured_indices and the witness-text parser had no
# caller outside the tests; the sample count of the CLI changed no value
# (DEFAULT_SAMPLES, _default_samples).
DELETED = ["kob_disk", "HyperbolicValue", "removable_extension_at", "punctures",
           "punctured_indices", "parse_map_expr", "parse_product_map",
           "single_factor_exact", "build_factor_witness", "_reduced_modulus",
           "_pseudo_hyperbolic", "_apply", "single_annulus_index",
           "DEFAULT_SAMPLES", "_default_samples", "Inclusion"]


@pytest.mark.parametrize("name", DELETED)
def test_test_only_aliases_are_gone(name):
    for module in (polysqueeze, cli, domains, embeddings, squeezing, verify):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(polysqueeze.ProductDomain, name)


def test_cli_options_all_change_output():
    # no sample count and no search budget: no value depends on either; a
    # seed only where a suite draws
    for name, (_, _, options) in cli.COMMANDS.items():
        assert not {"--samples", "--budget"} & set(options), name
        assert ("--seed" in options) == (name == "verify"), name
    settable = sum(len(options) for _, _, options in cli.COMMANDS.values())
    assert settable == 22
    read = [path.relative_to(PACKAGE_DIR.parent.parent) for path in PACKAGE_DIR.parent.rglob("*")
            if path.is_file() and b"SQUEEZE_SAMPLES" in path.read_bytes()]
    assert not read


# A test of a factor's class, or of a spec's kind string.  The seven left:
# the spec reader's four kind strings, and the ball/planar split in
# cli.parse_point, cli.cmd_profile and domains._coordinate.  Everything else
# reads a factor's data (dim, radii, punctures).
KIND_SWITCH = re.compile(
    r'isinstance\([^)]*\b(UnitDisk|PuncturedDisk|Annulus|BallFactor)\b'
    r'|type\([^)]*\) (is|in) \(?(UnitDisk|PuncturedDisk|Annulus|BallFactor)'
    r'|kind == "')


def test_kind_switch_count():
    found = [f"{path.name}:{n}" for path in MODULES
             for n, line in enumerate(path.read_text().splitlines(), 1) if KIND_SWITCH.search(line)]
    assert len(found) == 7, found


def test_oracle_lives_in_verify():
    moved = {
        domains: ["_unit_circle", "_sample_radii"],
        embeddings: ["image_inradius_at_zero", "image_inradius_analytic", "product_inradius",
                     "_sampled_circle_min", "_squared_moduli", "_array_eval", "_mobius_parts",
                     "sigma", "sigma_inv", "poincare_distance", "_Radius"],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert hasattr(verify, name), name


KEPT_PARAMETERS = {
    "squeeze_bounds": ["d", "z", "search", "family"],
    "boundary_limit_profile": ["r", "path"],
    "default_limit_path": ["r", "side", "steps"],
}


@pytest.mark.parametrize("name", sorted(KEPT_PARAMETERS))
def test_one_value_parameters_are_gone(name):
    params = inspect.signature(getattr(squeezing, name)).parameters
    assert list(params) == KEPT_PARAMETERS[name]
    if name == "squeeze_bounds":
        assert all(params[p].kind is inspect.Parameter.KEYWORD_ONLY for p in ("search", "family"))
