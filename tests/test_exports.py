"""The public names of the package: each export resolves, and each appears once."""

import dataclasses
import importlib
import inspect

import pytest

import polysqueeze
from polysqueeze import domains, hyperbolic, squeezing


def test_all_names_resolve_once():
    names = polysqueeze.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(polysqueeze, n)]
    assert not missing, f"__all__ names with no attribute: {missing}"


def test_deleted_names_are_gone():
    # the single-puncture and subdomain-disk Kobayashi helpers, and the
    # one-puncture fill they used, were replaced by filling every puncture
    for name in ("kob_filled", "kob_upper_via_subdomain", "filled"):
        assert name not in polysqueeze.__all__
        assert not hasattr(polysqueeze, name)
    assert not hasattr(hyperbolic, "kob_filled")
    assert not hasattr(hyperbolic, "kob_upper_via_subdomain")
    assert not hasattr(domains, "filled")
    # a witness family is a name, and the search lives beside the table
    for name in ("FamilySpec", "BoundsOptions"):
        assert name not in polysqueeze.__all__
        assert not hasattr(polysqueeze, name)
        assert not hasattr(squeezing, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("polysqueeze.search")
    assert [f.name for f in dataclasses.fields(polysqueeze.SearchResult)] == [
        "value", "witness", "evaluations"]


KEPT_PARAMETERS = {
    "build_factor_witness": ["f", "z", "branch"],
    "squeeze_bounds": ["d", "z", "search", "family"],
    "boundary_limit_profile": ["r", "path"],
    "default_limit_path": ["r", "side", "steps"],
}


@pytest.mark.parametrize("name", sorted(KEPT_PARAMETERS))
def test_one_value_parameters_are_gone(name):
    params = inspect.signature(getattr(polysqueeze, name)).parameters
    assert list(params) == KEPT_PARAMETERS[name]
    if name == "squeeze_bounds":
        assert all(params[p].kind is inspect.Parameter.KEYWORD_ONLY for p in ("search", "family"))
