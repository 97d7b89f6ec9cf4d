"""Entry checks shared by the library's input validation, and the piece
walker that they, sign hashing, word packing and Adam step through."""

from __future__ import annotations

import math

import numpy as np

# entries per piece: a gallery-sized array is checked, hashed or packed in
# consecutive views of at most this many entries, so a call's temporaries
# are one piece's, not the array's.  A multiple of 8, so a piece of a row
# wider than a piece starts on a whole byte of its packed bits.  On a
# 2-core host, one Adam step of the 128 -> 512-512 -> 63 image branch took
# 2.8 ms at 32 768, 2.9-3.0 ms at 16 384 and 65 536, 3.7 ms at 8 192 and
# 3.6 ms unblocked (6.6 ms with two new full-size temporaries per
# parameter).
PIECE = 32768


def row_blocks(shape, limit: int = PIECE):
    """Index tuples that cover an array of `shape` in C order with
    consecutive views of at most `limit` entries: runs of whole rows of the
    first axis, or, where one row is larger than `limit`, the blocks of
    each row in turn."""
    if not shape:
        yield (Ellipsis,)  # a 0-d view, where () would give a scalar
        return
    row = math.prod(shape[1:])
    if row <= limit:
        step = limit // row if row else max(shape[0], 1)
        for start in range(0, shape[0], step):
            yield (slice(start, start + step),)
    else:
        for i in range(shape[0]):
            for rest in row_blocks(shape[1:], limit):
                yield (i,) + rest


def _all_pieces(test, x) -> bool:
    """Whether test(piece) holds for every piece of the array x.  An array
    of at most one piece, empty and 0-d arrays included, is tested whole,
    so a test that rejects x's dtype raises for them too; a larger one
    stops at its first failing piece."""
    x = np.asarray(x)
    if x.size <= PIECE:
        return bool(test(x))
    return all(bool(test(x[idx])) for idx in row_blocks(x.shape))


def all_either(x, a, b) -> bool:
    """Whether every entry of the array x equals a or b; true when x is
    empty.  The same answer as np.isin(x, (a, b)).all() for any dtype, NaN
    and 0-d arrays included, with two boolean masks of one piece as the
    only temporaries."""
    return _all_pieces(lambda p: ((p == a) | (p == b)).all(), x)


def all_finite(x) -> bool:
    """np.isfinite(x).all(), with one piece's boolean mask as the only
    temporary."""
    return _all_pieces(lambda p: np.isfinite(p).all(), x)
