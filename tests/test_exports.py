"""The package's __all__ against the names the package binds."""

from types import ModuleType

import gccodes


def test_all_names_each_public_name_once():
    names = gccodes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gccodes, name), name
    # submodules and __version__ are not part of __all__
    public = {name for name, value in vars(gccodes).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(names) == public
