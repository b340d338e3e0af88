"""Every warning raised in this suite is an error, so a new numpy RuntimeWarning fails its test.

The filter is a mark on each test collected here rather than a ``filterwarnings``
ini option, which would reach every suite run from the repository root.  One
warning is let through: on a failure hypothesis's pytest plugin imports its
patch writer, whose ``libcst`` import raises ``mypy_extensions``' deprecation of
``TypedDict``; as an error it would end the run in an INTERNALERROR in place of
the falsifying example.  Marks added later take precedence, so that one is added last.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(
                "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))
