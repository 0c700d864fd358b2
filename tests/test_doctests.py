"""The ``>>>`` examples in the package's docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import modeloids


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(modeloids.__path__):
        module = importlib.import_module(f"modeloids.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{result.failed} example(s) failed in {module.__name__}"
        attempted += result.attempted
    result = doctest.testmod(modeloids)
    assert result.failed == 0
    # partial_bijections and modeloid hold ten examples between them
    assert attempted + result.attempted >= 10
