"""Every warning raised in this suite is an error, so a new numpy RuntimeWarning fails its test.

The filter is a mark on each test collected here rather than a ``filterwarnings``
ini option, which would reach every suite run from the repository root.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
