"""The package's public names."""

import febench


def test_every_exported_name_resolves():
    missing = [name for name in febench.__all__ if not hasattr(febench, name)]
    assert missing == []
    assert len(set(febench.__all__)) == len(febench.__all__)
