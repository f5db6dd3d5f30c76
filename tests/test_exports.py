"""The package's public names."""

import pvtower


def test_all_names_resolve():
    # A stale __all__ entry breaks only `from pvtower import *`.
    assert [name for name in pvtower.__all__ if not hasattr(pvtower, name)] == []
