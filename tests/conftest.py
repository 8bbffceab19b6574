"""Fixtures shared by the test modules."""

import pytest

from dninverse import densemat


@pytest.fixture
def dpotrf_calls(monkeypatch):
    """The order of each matrix the bound LAPACK dpotrf factors from now on."""
    lib = densemat._openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS whose dpotrf could be counted")
    dpotrf = lib.scipy_dpotrf_64_
    calls = []

    def counting(uplo, n, *args):
        calls.append(n.value)
        dpotrf(uplo, n, *args)

    monkeypatch.setattr(lib, "scipy_dpotrf_64_", counting)
    return calls


@pytest.fixture
def no_openblas(monkeypatch):
    """Run the test as under a numpy that bundles no OpenBLAS: numpy.linalg kernels, no pin."""
    monkeypatch.setattr(densemat, "_openblas", lambda: None)
