"""Entry checks shared by the library's input validation."""

from __future__ import annotations


def all_either(x, a, b) -> bool:
    """Whether every entry of the array x equals a or b; true when x is
    empty.  The same answer as np.isin(x, (a, b)).all() for any dtype, NaN
    and 0-d arrays included, with two boolean masks of x's shape as the
    only temporaries."""
    return bool(((x == a) | (x == b)).all())
