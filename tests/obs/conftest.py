"""Observability-suite fixtures.

Every test in this package runs against pristine ``repro.obs`` state:
observability disabled, a fresh default registry, and the null tracer.
The reset also runs *after* each test so an enabled run can never leave
observability on for unrelated suites.
"""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _pristine_obs():
    obs.reset()
    yield
    obs.reset()
