"""The usage examples in the ``repro.sim`` module docstrings run."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["repro.sim", "repro.sim.kernel", "repro.sim.rng", "repro.sim.store"],
)
def test_module_examples_pass(module):
    result = doctest.testmod(
        importlib.import_module(module), optionflags=doctest.ELLIPSIS
    )
    assert result.attempted > 0, f"{module} has no examples"
    assert result.failed == 0, f"{module}: {result.failed} failure(s)"
