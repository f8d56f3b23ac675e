import tracemalloc

import pytest

from qgfourier import cyclic_group, make_su2_quadrature, symmetric_group_s3


@pytest.fixture(scope="session")
def s3_table():
    return symmetric_group_s3()


@pytest.fixture(scope="session")
def z8_table():
    return cyclic_group(8)


@pytest.fixture(scope="session")
def su2_quad():
    return make_su2_quadrature()


def _traced_peak(fn):
    """`fn()` and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` returns `fn()` and its traced peak in bytes."""
    return _traced_peak
