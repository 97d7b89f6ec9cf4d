import math

import numpy as np
import pytest

from codedhash._checks import PIECE, all_either, all_finite, row_blocks

CASES = [
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
]
DTYPES = list(dict.fromkeys(x.dtype for x in CASES))
PAIRS = [(0, 1), (-1, 1)]


def outcome(fn, x):
    """fn(x), or the type of the exception it raises."""
    try:
        return fn(x)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def isin_all(pair):
    return lambda x: bool(np.isin(x, pair).all())


def isfinite_all(x):
    return bool(np.isfinite(x).all())


@pytest.mark.parametrize("x", CASES)
@pytest.mark.parametrize("pair", PAIRS)
def test_agrees_with_isin(x, pair):
    assert all_either(x, *pair) == bool(np.isin(x, pair).all())
    assert type(all_either(x, *pair)) is bool


@pytest.mark.parametrize("x", CASES + [np.zeros((0, 0)), np.zeros((5, 0))])
def test_all_finite_agrees_with_isfinite(x):
    assert outcome(all_finite, x) == outcome(isfinite_all, x)
    if outcome(all_finite, x) in (True, False):
        assert type(all_finite(x)) is bool


def with_last_entry(shape, dtype, good, bad):
    """An array of `shape` and `dtype` filled with `good`, whose last entry
    in C order is `bad`."""
    x = np.full(shape, good, dtype=dtype)
    x.reshape(-1)[-1] = bad
    return x


# a pair of runs of whole rows (the last piece holds one row), rows wider
# than a piece, and a 1-D array one entry past a piece
SHAPES = [(2 * (PIECE // 7) + 1, 7), (3, PIECE + 5), (PIECE + 1,)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pair", PAIRS)
def test_all_either_bad_entry_in_last_piece(shape, dtype, pair):
    assert math.prod(shape) > PIECE
    good = np.array(pair[1]).astype(dtype)
    bad = np.array(2).astype(dtype)
    x = with_last_entry(shape, dtype, good, bad)
    assert outcome(lambda v: all_either(v, *pair), x) == outcome(isin_all(pair), x)
    if dtype.kind in "iufc":
        assert all_either(x, *pair) is False
        x.reshape(-1)[-1] = good
        assert all_either(x, *pair) is True


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_all_finite_bad_entry_in_last_piece(shape, dtype):
    assert math.prod(shape) > PIECE
    bad = np.nan if dtype.kind in "fc" else 2
    x = with_last_entry(shape, dtype, np.array(1).astype(dtype), bad)
    assert outcome(all_finite, x) == outcome(isfinite_all, x)
    if dtype.kind in "fc":
        assert all_finite(x) is False
        x.reshape(-1)[-1] = np.inf
        assert all_finite(x) is False
        x.reshape(-1)[-1] = 1
        assert all_finite(x) is True


@pytest.mark.parametrize("view", ["every other column", "transposed"])
def test_strided_inputs(view):
    """Non-contiguous views of more than a piece: a bad entry of the base
    outside the view is not seen, one in the view's last entry is."""
    rows = 2 * (PIECE // 40) + 3
    base = np.ones((rows, 80) if view == "every other column" else (40, rows))
    x = base[:, ::2] if view == "every other column" else base.T
    assert x.shape == (rows, 40) and not x.flags.c_contiguous
    if view == "every other column":
        base[-1, -1] = np.nan    # column 79 is not in the view
    assert all_finite(x) is True and all_either(x, 0, 1) is True
    x[-1, -1] = np.nan
    assert not np.isfinite(x).all()
    assert all_finite(x) is False and all_either(x, 0, 1) is False
    assert all_either(x, 0, 1) == bool(np.isin(x, (0, 1)).all())


@pytest.mark.parametrize("shape, limit", [
    ((), 4), ((0,), 4), ((0, 0), 4), ((5, 0), 4), ((0, 9), 4), ((7,), 4),
    ((10, 3), 4), ((10, 3), 3), ((3, 10), 4), ((2, 3, 10), 4), ((2, 3, 4), 12),
])
def test_row_blocks_cover_every_entry_once_in_order(shape, limit):
    order = np.arange(math.prod(shape)).reshape(shape)
    pieces = [order[idx] for idx in row_blocks(shape, limit)]
    assert all(p.size <= limit for p in pieces)
    assert all(p.size > 0 for p in pieces) or order.size == 0
    seen = np.concatenate([p.reshape(-1) for p in pieces]) if pieces else []
    assert np.array_equal(seen, order.reshape(-1))
