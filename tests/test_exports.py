"""The package's public names: every export resolves, none is listed twice."""

import supercharacters


def test_star_import_binds_every_export_once():
    names = supercharacters.__all__
    assert len(names) == len(set(names))
    ns: dict = {}
    # raises AttributeError when __all__ names something the package lacks
    exec("from supercharacters import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == sorted(names)
