"""The traced benchmark (perfbench/trace.py) wraps engine functions by
module and attribute name. A refactor that renames or removes one of
them must fail here, in the test suite, not later in a traced run."""

import importlib

from perfbench.trace import ENGINE, PATCHES


def test_trace_patch_targets_resolve():
    missing = []
    for mod_name, attr, *_ in PATCHES:
        owner = importlib.import_module(f"{ENGINE}.{mod_name}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"perfbench/trace.py PATCHES no longer resolve: {missing}"
