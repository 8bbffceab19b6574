"""Fixtures shared by the test modules."""

import pytest

from dninverse import densemat


@pytest.fixture
def dpotrf_calls(monkeypatch):
    """The order of each matrix LAPACK dpotrf factors from now on."""
    lapack = densemat._linalg().lapack
    dpotrf = lapack.dpotrf
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape[0])
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrf", counting)
    return calls
