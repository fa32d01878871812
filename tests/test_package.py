"""Public names of the package."""

import eddyopt


def test_every_exported_name_resolves():
    assert len(set(eddyopt.__all__)) == len(eddyopt.__all__)
    missing = [name for name in eddyopt.__all__ if not hasattr(eddyopt, name)]
    assert missing == []
