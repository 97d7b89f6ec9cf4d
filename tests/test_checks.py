import numpy as np
import pytest

from codedhash._checks import all_either


@pytest.mark.parametrize("x", [
    np.array([0, 1, 1], dtype=np.uint8),
    np.array([0, 2], dtype=np.uint8),
    np.array([-1, 1], dtype=np.int8),
    np.array([2 ** 64 - 1, 1], dtype=np.uint64),
    np.array([0.0, -0.0, 1.0]),
    np.array([1.0, np.nan]),
    np.array([np.inf, 1.0]),
    np.array([0.5]),
    np.array([True, False]),
    np.array([1 + 0j, 0j]),
    np.array([1 + 1j]),
    np.array([1, 0, None], dtype=object),
    np.array(["0", "1"]),
    np.zeros(0),
    np.zeros((0, 5), dtype=np.int8),
    np.array(1),
    np.array(-1),
    np.array(np.nan),
    np.array([[0, 1], [1, -1]]),
])
@pytest.mark.parametrize("pair", [(0, 1), (-1, 1)])
def test_agrees_with_isin(x, pair):
    assert all_either(x, *pair) == bool(np.isin(x, pair).all())
    assert type(all_either(x, *pair)) is bool
