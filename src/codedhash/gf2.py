"""Binary linear codes over GF(2).

Matrices are numpy arrays with entries in {0, 1} (dtype uint8).  Polynomials
over GF(2) are Python integers whose bit i holds the coefficient of x**i,
so e.g. x**3 + x + 1 is 0b1011.  Codewords use the column convention of the
parity-check matrix: bit index 0 is the leftmost column.

BCH codes are built over GF(2**m) with a fixed primitive polynomial per m.
The roots of the generator with designed capability t are the powers
alpha**s for s in the union of the cyclotomic cosets of 1 .. 2t, so the
generator is the product of (x + alpha**s) over that root set and the
dimension is k = n - |roots|.  Generator matrices are systematic with the
identity block first, and H = [A^T | I] so that G H^T = 0.  Minimum
distances are computed on request by `min_distance`, never stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Fixed primitive polynomial for each supported extension degree m.
PRIMITIVE_POLYS = {
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10001001,   # x^7 + x^3 + 1
}

MAX_ENUM_K = 20      # exhaustive codeword enumeration is allowed up to 2**20 words
MAX_TABLE_REDUNDANCY = 20   # syndrome-table decoding bound


def as_gf2(matrix) -> np.ndarray:
    """Validate and return a 2-D uint8 matrix with entries in {0, 1}."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size and not np.isin(a, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return a.astype(np.uint8)


def as_bits(word, length=None) -> np.ndarray:
    """Validate a 1-D bit vector, optionally checking its length."""
    v = np.asarray(word)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D bit vector, got shape {v.shape}")
    if v.size and not np.isin(v, (0, 1)).all():
        raise ValueError("bit vector entries must be 0 or 1")
    if length is not None and v.size != length:
        raise ValueError(f"expected length {length}, got {v.size}")
    return v.astype(np.uint8)


# ---------------------------------------------------------------------------
# GF(2) matrix algebra
# ---------------------------------------------------------------------------

def gf2_rref(matrix):
    """Reduced row echelon form over GF(2).

    Returns (rref, pivot_columns).
    """
    a = as_gf2(matrix).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_rows = np.nonzero(a[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        p = r + pivot_rows[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        # clear every other 1 in this column
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def gf2_rank(matrix) -> int:
    return len(gf2_rref(matrix)[1])


def row_basis(matrix) -> np.ndarray:
    """The nonzero rows of the RREF: a basis of the row space."""
    rref, pivots = gf2_rref(matrix)
    return rref[: len(pivots)]


def gf2_null_space(matrix) -> np.ndarray:
    """Basis of the right null space of a GF(2) matrix, one vector per row."""
    a = as_gf2(matrix)
    rref, pivots = gf2_rref(a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, p in enumerate(pivots):
            basis[i, p] = rref[r, f]
    return basis


# ---------------------------------------------------------------------------
# GF(2)[x] polynomials as integers
# ---------------------------------------------------------------------------

def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    dm = poly_degree(m)
    while poly_degree(a) >= dm:
        a ^= m << (poly_degree(a) - dm)
    return a


def poly_to_bits(p: int, length: int) -> np.ndarray:
    return np.array([(p >> i) & 1 for i in range(length)], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------

@dataclass
class LinearCode:
    """A binary [n, k] linear code with designed correction capability t.

    generator is k x n, parity_check is (n-k) x n, and G H^T = 0 over GF(2).
    """

    n: int
    k: int
    generator: np.ndarray
    parity_check: np.ndarray
    t: int

    def __post_init__(self):
        self.generator = as_gf2(self.generator)
        self.parity_check = as_gf2(self.parity_check)
        if self.k <= 0:
            raise ValueError(f"degenerate code: k = {self.k} must be positive")
        if self.t < 0:
            raise ValueError(f"correction capability t = {self.t} must be >= 0")
        if self.generator.shape != (self.k, self.n):
            raise ValueError(f"generator must be {self.k}x{self.n}, "
                             f"got {self.generator.shape}")
        if self.parity_check.shape != (self.n - self.k, self.n):
            raise ValueError(f"parity check must be {self.n - self.k}x{self.n}, "
                             f"got {self.parity_check.shape}")
        prod = (self.generator @ self.parity_check.T) % 2
        if prod.any():
            raise ValueError("generator and parity check are inconsistent: G H^T != 0")
        if gf2_rank(self.generator) != self.k:
            raise ValueError("generator rows are linearly dependent")
        if gf2_rank(self.parity_check) != self.n - self.k:
            raise ValueError("parity check rows are linearly dependent")

    @property
    def rate(self) -> float:
        return self.k / self.n

    @cached_property
    def codeword_ints(self) -> list[int]:
        """All 2**k codewords as integers (bit i of the int = codeword bit i)."""
        return list(_codewords(self))

    @cached_property
    def _h_column_ints(self) -> list[int]:
        """Column i of the parity check as an int (bit j = row j): the
        syndrome of a single error at position i."""
        return [_bits_to_int(col) for col in self.parity_check.T]

    @cached_property
    def _syndrome_table(self) -> dict:
        """Syndrome -> the first error pattern of weight 0 .. t (by weight,
        then position order) that gives it, both as ints."""
        cols = self._h_column_ints
        table = {0: 0}
        for wgt in range(1, self.t + 1):
            for pos in itertools.combinations(range(self.n), wgt):
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
        for cw in code.codeword_ints:
            if (w_int ^ cw).bit_count() <= code.t:
                return poly_to_bits(cw, code.n)
        return None
    if code.n - code.k <= MAX_TABLE_REDUNDANCY:
        table = code._syndrome_table
        cols = code._h_column_ints
        s = 0
        for i in np.nonzero(w)[0]:
            s ^= cols[i]
        err = table.get(s)
        if err is None:
            return None
        return poly_to_bits(w_int ^ err, code.n)
    raise ValueError("bounded-distance decoding needs k <= 20 or n - k <= 20, "
                     f"got [n={code.n}, k={code.k}]")


def code_from_parity_check(h, t: int = 0) -> LinearCode:
    """Build a LinearCode from a parity-check matrix alone.

    If the right (n-k) x (n-k) block of H is the identity, the systematic
    generator [I | A] is used; otherwise a null-space basis is computed.
    """
    h = as_gf2(h)
    r = gf2_rank(h)
    if r != h.shape[0]:
        raise ValueError("parity-check rows must be linearly independent")
    n = h.shape[1]
    k = n - r
    if k <= 0:
        raise ValueError(f"degenerate code: k = {k}")
    right = h[:, k:]
    if np.array_equal(right, np.eye(n - k, dtype=np.uint8)):
        gen = np.concatenate([np.eye(k, dtype=np.uint8), h[:, :k].T], axis=1)
    else:
        gen = gf2_null_space(h)
    return LinearCode(n=n, k=k, generator=gen, parity_check=h, t=t)


# ---------------------------------------------------------------------------
# BCH construction
# ---------------------------------------------------------------------------

def _field_tables(m: int):
    """Exp/log tables for GF(2**m) with the fixed primitive polynomial."""
    prim = PRIMITIVE_POLYS[m]
    size = 1 << m
    exp = [0] * (size - 1)
    log = [-1] * size
    x = 1
    for i in range(size - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & size:
            x ^= prim
    return exp, log


def cyclotomic_coset(i: int, m: int) -> list[int]:
    """The 2-cyclotomic coset of i modulo 2**m - 1, sorted ascending."""
    order = (1 << m) - 1
    coset = set()
    x = i % order
    while x not in coset:
        coset.add(x)
        x = (2 * x) % order
    return sorted(coset)


def _bch_roots(m: int, t: int) -> list[int]:
    """Exponents s of the generator roots alpha**s of the length 2**m - 1 BCH
    code with designed capability t: the union of the cyclotomic cosets of
    1 .. 2t, sorted ascending."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"unsupported field degree m = {m}; "
                         f"supported: {sorted(PRIMITIVE_POLYS)}")
    if not 1 <= t < (1 << (m - 1)):
        raise ValueError(f"t must satisfy 1 <= t < 2**(m-1), got {t}")
    return sorted({s for i in range(1, 2 * t + 1) for s in cyclotomic_coset(i, m)})


def bch_generator_poly(m: int, t: int) -> int:
    """Product of (x + alpha**s) over the BCH root set, as a GF(2)[x] integer.

    This is the lcm of the minimal polynomials of alpha**1 .. alpha**(2t):
    each minimal polynomial is the product over one cyclotomic coset.
    """
    roots = _bch_roots(m, t)
    exp, log = _field_tables(m)
    order = len(exp)
    coeffs = [1]  # coefficients in GF(2**m), index = power of x
    for s in roots:
        nxt = [0] + coeffs  # x * coeffs, plus alpha**s * coeffs below
        for d, c in enumerate(coeffs):
            if c:
                nxt[d] ^= exp[(log[c] + s) % order]
        coeffs = nxt
    if any(c not in (0, 1) for c in coeffs):
        raise AssertionError("generator polynomial has a coefficient outside GF(2)")
    return sum(1 << d for d, c in enumerate(coeffs) if c)


def build_bch(m: int, t_design: int) -> LinearCode:
    """Construct the binary BCH code of length 2**m - 1 with designed capability t.

    The code is systematic: codeword = (message bits, parity bits) where the
    parity polynomial is x**(n-k) u(x) mod g(x).
    """
    g = bch_generator_poly(m, t_design)
    n = (1 << m) - 1
    r = poly_degree(g)
    k = n - r
    gen = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        gen[i, i] = 1
        parity = poly_mod(1 << (r + i), g)
        gen[i, k:] = poly_to_bits(parity, r)
    h = np.concatenate([gen[:, k:].T, np.eye(r, dtype=np.uint8)], axis=1)
    return LinearCode(n=n, k=k, generator=gen, parity_check=h, t=t_design)


def bch_code_table(m: int) -> list[tuple[int, int, int]]:
    """Distinct (n, k, t) BCH codes of length 2**m - 1, with k = n - |roots|.

    For each achievable dimension k the listed t is the largest design
    capability that yields it (design values whose extra roots are already
    covered collapse onto the same code).
    """
    # t = 1 always runs, so _bch_roots rejects an unsupported m before n is used
    root_counts = [(len(_bch_roots(m, t)), t) for t in range(1, 1 << max(m - 1, 1))]
    n = (1 << m) - 1
    by_k = {n - r: t for r, t in root_counts}
    return [(n, k, t) for k, t in sorted(by_k.items(), reverse=True)]


# ---------------------------------------------------------------------------
# Code descriptor files
# ---------------------------------------------------------------------------

def save_code(code: LinearCode, path) -> None:
    """Write `n k t` and the parity-check rows as 0/1 strings."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{code.n} {code.k} {code.t}\n")
        for row in code.parity_check:
            fh.write("".join("1" if b else "0" for b in row) + "\n")


def load_code(path) -> LinearCode:
    """Inverse of save_code.  The generator is reconstructed from H."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        try:
            n, k, t = (int(x) for x in header)
        except ValueError:
            raise ValueError(f"{path}: malformed header {header!r}, "
                             "expected three integers 'n k t'") from None
        if not 0 < k < n:
            raise ValueError(f"{path}: header needs 0 < k < n, got n = {n}, k = {k}")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if len(line) != n or set(line) - {"0", "1"}:
                raise ValueError(f"{path}:{line_no}: bad parity-check row")
            rows.append([int(ch) for ch in line])
    if len(rows) != n - k:
        raise ValueError(f"{path}: expected {n - k} parity rows, got {len(rows)}")
    try:
        # n - k independent rows of length n leave exactly k dimensions
        return code_from_parity_check(np.array(rows, dtype=np.uint8), t=t)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
