"""The public names of the package: each export resolves, and each appears once."""

import polysqueeze
from polysqueeze import domains, hyperbolic


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
