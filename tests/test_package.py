"""The package's public names."""

import febench
import febench.bench


def test_every_exported_name_resolves():
    for package in (febench, febench.bench):
        missing = [name for name in package.__all__
                   if not hasattr(package, name)]
        assert missing == [], package.__name__
        assert len(set(package.__all__)) == len(package.__all__)
