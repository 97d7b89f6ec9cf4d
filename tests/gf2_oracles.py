"""Slow reference codecs over GF(2), for tests only.

Encoding one message, a syndrome, the exact minimum distance and
bounded-distance decoding by codeword scan or syndrome table: the oracles
the BCH tests and acceptance criterion 1 check the library's codes with.
The per-code tables (all codewords as integers, parity-check columns as
integers, the syndrome table) are built once per code object and kept
while it lives.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from codedhash._checks import all_either
from codedhash.gf2 import LinearCode, poly_to_bits

MAX_ENUM_K = 20      # exhaustive codeword enumeration is allowed up to 2**20 words
MAX_TABLE_REDUNDANCY = 20   # syndrome-table decoding bound


def _per_code(build):
    """Cache build(code) for as long as the code object lives."""
    cache = {}

    @functools.wraps(build)
    def cached(code):
        key = id(code)
        if key not in cache:
            cache[key] = build(code)
            weakref.finalize(code, cache.pop, key, None)
        return cache[key]
    return cached


def as_bits(word, length=None) -> np.ndarray:
    """Validate a 1-D bit vector, optionally checking its length."""
    v = np.asarray(word)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D bit vector, got shape {v.shape}")
    if not all_either(v, 0, 1):
        raise ValueError("bit vector entries must be 0 or 1")
    if length is not None and v.size != length:
        raise ValueError(f"expected length {length}, got {v.size}")
    return v.astype(np.uint8)


@_per_code
def codeword_ints(code: LinearCode) -> list[int]:
    """All 2**k codewords as integers (bit i of the int = codeword bit i)."""
    return list(_codewords(code))


@_per_code
def _h_column_ints(code: LinearCode) -> list[int]:
    """Column i of the parity check as an int (bit j = row j): the
    syndrome of a single error at position i."""
    return [_bits_to_int(col) for col in code.parity_check.T]


@_per_code
def _syndrome_table(code: LinearCode) -> dict:
    """Syndrome -> the first error pattern of weight 0 .. t (by weight,
    then position order) that gives it, both as ints."""
    cols = _h_column_ints(code)
    table = {0: 0}
    for wgt in range(1, code.t + 1):
        for pos in itertools.combinations(range(code.n), wgt):
            s = 0
            e = 0
            for p in pos:
                s ^= cols[p]
                e |= 1 << p
            table.setdefault(s, e)
    return table


def _bits_to_int(bits) -> int:
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    return out


def _trailing_zeros(i: int) -> int:
    return (i & -i).bit_length() - 1


def encode(message, code: LinearCode) -> np.ndarray:
    """Multiply a length-k message by the generator matrix over GF(2)."""
    u = as_bits(message, code.k)
    return (u @ code.generator % 2).astype(np.uint8)


def syndrome(word, code: LinearCode) -> np.ndarray:
    """word H^T over GF(2); all zeros iff word is a codeword."""
    w = as_bits(word, code.n)
    return (w @ code.parity_check.T % 2).astype(np.uint8)


def _codewords(code: LinearCode):
    """Yield all 2**k codewords as integers, zero first, in Gray-code order:
    each next word XORs in the generator row of the flipped message bit."""
    if code.k > MAX_ENUM_K:
        raise ValueError(f"refusing to enumerate 2**{code.k} codewords "
                         f"(limit k <= {MAX_ENUM_K})")
    rows = [_bits_to_int(r) for r in code.generator]
    cur = 0
    yield cur
    for i in range(1, 1 << code.k):
        cur ^= rows[_trailing_zeros(i)]
        yield cur


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance by enumerating all nonzero codewords (k <= 20)."""
    return min(cw.bit_count() for cw in itertools.islice(_codewords(code), 1, None))


def bounded_distance_decode(word, code: LinearCode) -> np.ndarray | None:
    """Return the unique codeword within Hamming distance t of word, or None.

    Balls of radius t around codewords are disjoint whenever d_min >= 2t + 1,
    so at most one codeword can qualify.  Requires k <= 20 (codeword scan) or
    n - k <= 20 (syndrome table).
    """
    w = as_bits(word, code.n)
    w_int = _bits_to_int(w)
    if code.k <= MAX_ENUM_K:
        for cw in codeword_ints(code):
            if (w_int ^ cw).bit_count() <= code.t:
                return poly_to_bits(cw, code.n)
        return None
    if code.n - code.k <= MAX_TABLE_REDUNDANCY:
        table = _syndrome_table(code)
        cols = _h_column_ints(code)
        s = 0
        for i in np.nonzero(w)[0]:
            s ^= cols[i]
        err = table.get(s)
        if err is None:
            return None
        return poly_to_bits(w_int ^ err, code.n)
    raise ValueError("bounded-distance decoding needs k <= 20 or n - k <= 20, "
                     f"got [n={code.n}, k={code.k}]")
