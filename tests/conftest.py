"""Fixtures shared by every test module."""

import pytest

from quadtrace.precision import DEFAULT_DPS, set_working_dps


@pytest.fixture(autouse=True)
def _default_working_precision():
    """Restore the default working precision after each test: cli.main with
    --prec sets it for the whole process, so one test's --prec 40 would
    otherwise become the next test's precision."""
    yield
    set_working_dps(DEFAULT_DPS)
