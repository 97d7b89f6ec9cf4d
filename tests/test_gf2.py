"""Codec tests with independent oracles.

The expected values here are produced by test-local routines that share no
code with the library: dense enumeration for null spaces and minimum
distance, list-based polynomial long division for systematic encoding, and
the lcm of per-coset minimal polynomials for BCH generators.
"""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest

from codedhash import gf2, pipeline

# 4x8 parity-check fixture used throughout (also the Tanner-graph example).
H_APPENDIX = np.array(
    [
        [0, 1, 0, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 1, 1, 1],
        [1, 0, 0, 1, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)


def enumerate_null_space(h):
    """Oracle: all length-n words with zero syndrome, by dense enumeration."""
    n = h.shape[1]
    words = np.array([[(w >> i) & 1 for i in range(n)] for w in range(1 << n)],
                     dtype=np.uint8)
    keep = (words @ h.T % 2 == 0).all(axis=1)
    return words[keep]


def poly_divide_remainder(dividend, divisor):
    """Oracle: remainder of GF(2)[x] long division on coefficient lists.

    Lists are ascending (index = power of x).
    """
    rem = list(dividend)
    d = len(divisor) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        if rem[top]:
            for j, c in enumerate(divisor):
                rem[top - d + j] ^= c
    return rem[:d]


def systematic_encode_oracle(message, g_coeffs, n):
    """Oracle: message bits then the remainder of x^(n-k) u(x) / g(x)."""
    k = n - (len(g_coeffs) - 1)
    shifted = [0] * (n - k) + list(message)
    parity = poly_divide_remainder(shifted, g_coeffs)
    return np.array(list(message) + parity, dtype=np.uint8)


# Primitive polynomials as ascending GF(2) coefficient lists (x^2 + x + 1,
# x^3 + x + 1, x^4 + x + 1, x^5 + x^2 + 1, x^6 + x + 1, x^7 + x^3 + 1).
PRIMITIVE_COEFFS = {
    2: [1, 1, 1],
    3: [1, 1, 0, 1],
    4: [1, 1, 0, 0, 1],
    5: [1, 0, 1, 0, 0, 1],
    6: [1, 1, 0, 0, 0, 0, 1],
    7: [1, 0, 0, 1, 0, 0, 0, 1],
}


def gf_mul_oracle(a, b, m):
    """Oracle: product in GF(2^m) by shift-and-reduce (no log tables)."""
    prim = sum(c << i for i, c in enumerate(PRIMITIVE_COEFFS[m]))
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= prim
    return out


def minimal_poly_oracle(rep, m):
    """Oracle: prod (x + alpha^s) over the coset of rep, as a GF(2) list."""
    order = (1 << m) - 1
    coset, s = [], rep
    while s not in coset:
        coset.append(s)
        s = 2 * s % order
    coeffs = [1]  # GF(2^m) elements, ascending powers of x
    for s in coset:
        root = 1
        for _ in range(s):
            root = gf_mul_oracle(root, 2, m)
        shifted = [0] + coeffs
        for d, c in enumerate(coeffs):
            shifted[d] ^= gf_mul_oracle(c, root, m)
        coeffs = shifted
    assert set(coeffs) <= {0, 1}
    return coeffs


def poly_mul_oracle(a, b):
    """Oracle: product of ascending GF(2) coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return out


def bch_generator_oracle(m, t):
    """Oracle: lcm of the minimal polynomials of alpha^1 .. alpha^(2t), as
    the product of one minimal polynomial per distinct coset."""
    order = (1 << m) - 1
    g, seen = [1], set()
    for i in range(1, 2 * t + 1):
        rep = min(i * 2 ** j % order for j in range(m))
        if rep not in seen:
            seen.add(rep)
            g = poly_mul_oracle(g, minimal_poly_oracle(rep, m))
    return g


class TestSyndrome:
    def test_zero_word_has_zero_syndrome(self):
        code = gf2.build_bch(3, 1)
        np.testing.assert_array_equal(
            gf2.syndrome(np.zeros(7, dtype=np.uint8), code), 0)

    def test_single_bit_error_gives_matching_column(self):
        code = gf2.build_bch(4, 2)
        base = gf2.encode(np.zeros(code.k, dtype=np.uint8), code)
        for i in range(code.n):
            word = base.copy()
            word[i] ^= 1
            np.testing.assert_array_equal(
                gf2.syndrome(word, code), code.parity_check[:, i])

    def test_appendix_null_space_members_have_zero_syndrome(self):
        null = enumerate_null_space(H_APPENDIX)
        # the four printed rows are linearly dependent (rank 3), so the
        # null space holds 2^5 words rather than 2^4
        assert len(null) == 32
        code = gf2.code_from_parity_check(gf2.row_basis(H_APPENDIX))
        assert code.k == 5
        for word in null:
            assert not gf2.syndrome(word, code).any()

    def test_length_mismatch_rejected(self):
        code = gf2.build_bch(3, 1)
        with pytest.raises(ValueError):
            gf2.syndrome(np.zeros(6, dtype=np.uint8), code)


class TestEncode:
    def test_zero_message_maps_to_zero_codeword(self):
        code = gf2.build_bch(4, 3)
        np.testing.assert_array_equal(
            gf2.encode(np.zeros(code.k, dtype=np.uint8), code), 0)

    def test_all_encodings_are_codewords(self):
        code = gf2.build_bch(4, 2)
        for u in range(1 << code.k):
            msg = np.array([(u >> i) & 1 for i in range(code.k)], dtype=np.uint8)
            assert not gf2.syndrome(gf2.encode(msg, code), code).any()

    def test_hamming_7_4_against_division_oracle(self):
        """Systematic encoding must equal polynomial long division."""
        code = gf2.build_bch(3, 1)
        g = [1, 1, 0, 1]  # x^3 + x + 1, ascending coefficients
        for u in range(16):
            msg = [(u >> i) & 1 for i in range(4)]
            expected = systematic_encode_oracle(msg, g, 7)
            np.testing.assert_array_equal(gf2.encode(msg, code), expected)

    def test_leading_unit_message(self):
        # u(x) = 1: parity = x^3 mod (x^3 + x + 1) = x + 1
        code = gf2.build_bch(3, 1)
        np.testing.assert_array_equal(
            gf2.encode([1, 0, 0, 0], code),
            np.array([1, 0, 0, 0, 1, 1, 0], dtype=np.uint8))


class TestBchConstruction:
    def test_hamming_7_4(self):
        code = gf2.build_bch(3, 1)
        assert (code.n, code.k, code.t) == (7, 4, 1)
        assert not (code.generator @ code.parity_check.T % 2).any()

    def test_bch_15_7_generator_polynomial(self):
        # g(x) = x^8 + x^7 + x^6 + x^4 + 1 for the double-error-correcting
        # length-15 code
        assert gf2.bch_generator_poly(4, 2) == 0b111010001
        code = gf2.build_bch(4, 2)
        assert (code.n, code.k, code.t) == (15, 7, 2)
        assert gf2.min_distance(code) == 5

    @pytest.mark.parametrize("m,t,n,k", [
        (5, 2, 31, 21),
        (6, 3, 63, 45),
        (7, 5, 127, 92),
    ])
    def test_published_dimensions(self, m, t, n, k):
        code = gf2.build_bch(m, t)
        assert (code.n, code.k, code.t) == (n, k, t)

    def test_length_63_ladder(self):
        """Distinct (k, t) pairs for n = 63 match the published table."""
        table = {(k, t) for _, k, t in gf2.bch_code_table(6)}
        expected = {(51, 2), (45, 3), (39, 4), (36, 5), (30, 6), (24, 7),
                    (18, 10), (16, 11), (10, 13)}
        assert expected <= table

    @pytest.mark.parametrize("m", range(2, 8))
    def test_generators_and_table_match_coset_lcm_oracle(self, m):
        n = (1 << m) - 1
        by_k = {}
        for t in range(1, 1 << (m - 1)):
            g = bch_generator_oracle(m, t)
            assert gf2.bch_generator_poly(m, t) == sum(
                c << d for d, c in enumerate(g))
            by_k[n - (len(g) - 1)] = t
        assert gf2.bch_code_table(m) == [
            (n, k, t) for k, t in sorted(by_k.items(), reverse=True)]

    def test_code_fields(self):
        """The constructor takes the code's defining data and nothing else."""
        names = [f.name for f in dataclasses.fields(gf2.LinearCode)]
        assert names == ["n", "k", "generator", "parity_check", "t"]

    def test_codeword_ints_are_the_encodings(self):
        code = gf2.build_bch(4, 2)
        expected = set()
        for u in range(1 << code.k):
            msg = [(u >> i) & 1 for i in range(code.k)]
            expected.add(sum(int(b) << i
                             for i, b in enumerate(gf2.encode(msg, code))))
        assert code.codeword_ints[0] == 0
        assert len(code.codeword_ints) == 1 << code.k
        assert set(code.codeword_ints) == expected

    def test_systematic_identity_block(self):
        code = gf2.build_bch(6, 6)
        np.testing.assert_array_equal(
            code.generator[:, :code.k], np.eye(code.k, dtype=np.uint8))
        np.testing.assert_array_equal(
            code.parity_check[:, code.k:],
            np.eye(code.n - code.k, dtype=np.uint8))

    def test_unsupported_degree_rejected(self):
        with pytest.raises(ValueError):
            gf2.build_bch(11, 2)
        with pytest.raises(ValueError):
            gf2.build_bch(4, 0)
        with pytest.raises(ValueError):
            gf2.build_bch(4, 8)
        for m in (0, 1, 8):
            with pytest.raises(ValueError, match="unsupported field degree"):
                gf2.bch_code_table(m)
        with pytest.raises(ValueError):
            gf2.bch_generator_poly(4, 0)


class TestMinDistance:
    def brute_force(self, generator):
        """Oracle: minimum weight over all nonzero messages via dense matmul."""
        k, n = generator.shape
        msgs = np.array([[(u >> i) & 1 for i in range(k)]
                         for u in range(1, 1 << k)], dtype=np.uint8)
        words = msgs @ generator % 2
        return int(words.sum(axis=1).min())

    def test_repetition_code(self):
        code = gf2.code_from_parity_check(
            np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8), t=1)
        assert gf2.min_distance(code) == 3

    def test_bch_7_4(self):
        assert gf2.min_distance(gf2.build_bch(3, 1)) == 3

    def test_appendix_code_matches_enumeration(self):
        null = enumerate_null_space(H_APPENDIX)
        weights = null.sum(axis=1)
        expected = int(weights[weights > 0].min())
        assert expected == 2
        code = gf2.code_from_parity_check(gf2.row_basis(H_APPENDIX))
        assert gf2.min_distance(code) == expected

    @pytest.mark.parametrize("m,t", [(4, 1), (4, 2), (4, 3), (5, 3)])
    def test_design_distance_bound(self, m, t):
        code = gf2.build_bch(m, t)
        d = gf2.min_distance(code)
        assert d >= 2 * t + 1
        assert d == self.brute_force(code.generator)

    def test_large_k_refused(self):
        code = gf2.build_bch(6, 3)  # k = 45
        with pytest.raises(ValueError):
            gf2.min_distance(code)


class TestBoundedDistanceDecode:
    def test_codewords_decode_to_themselves(self):
        code = gf2.build_bch(4, 2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            msg = rng.integers(0, 2, size=code.k)
            cw = gf2.encode(msg, code)
            np.testing.assert_array_equal(
                gf2.bounded_distance_decode(cw, code), cw)

    def test_single_errors_all_corrected(self):
        code = gf2.build_bch(3, 1)
        for u in range(1 << code.k):
            msg = np.array([(u >> i) & 1 for i in range(code.k)], dtype=np.uint8)
            cw = gf2.encode(msg, code)
            for i in range(code.n):
                word = cw.copy()
                word[i] ^= 1
                np.testing.assert_array_equal(
                    gf2.bounded_distance_decode(word, code), cw)

    def test_double_error_beyond_capability(self):
        """Two flips on a t=1 code never come back as the original word."""
        code = gf2.build_bch(3, 1)
        cw = gf2.encode([1, 0, 1, 1], code)
        for i in range(code.n):
            for j in range(i + 1, code.n):
                word = cw.copy()
                word[i] ^= 1
                word[j] ^= 1
                got = gf2.bounded_distance_decode(word, code)
                assert got is None or not np.array_equal(got, cw)

    def test_random_errors_within_t(self):
        code = gf2.build_bch(4, 3)  # t = 3
        rng = np.random.default_rng(11)
        for _ in range(200):
            cw = gf2.encode(rng.integers(0, 2, size=code.k), code)
            weight = rng.integers(0, code.t + 1)
            pos = rng.choice(code.n, size=weight, replace=False)
            word = cw.copy()
            word[pos] ^= 1
            np.testing.assert_array_equal(
                gf2.bounded_distance_decode(word, code), cw)

    def test_syndrome_table_path(self):
        """Codes with k > 20 but small redundancy use the syndrome table."""
        code = gf2.build_bch(6, 2)  # (63, 51), n - k = 12
        rng = np.random.default_rng(3)
        for _ in range(50):
            cw = gf2.encode(rng.integers(0, 2, size=code.k), code)
            pos = rng.choice(code.n, size=2, replace=False)
            word = cw.copy()
            word[pos] ^= 1
            np.testing.assert_array_equal(
                gf2.bounded_distance_decode(word, code), cw)

    def test_syndrome_table_path_keeps_codewords(self):
        """A word with no error has syndrome 0 and decodes to itself."""
        code = gf2.build_bch(6, 2)
        cw = gf2.encode(np.ones(code.k, dtype=np.uint8), code)
        for word in (np.zeros(code.n, dtype=np.uint8), cw):
            np.testing.assert_array_equal(
                gf2.bounded_distance_decode(word, code), word)

    def test_syndrome_table_path_matches_ball_search(self):
        """On BCH(63,51) the syndrome-table decode equals a brute-force
        search of the radius-t ball: the word is decoded to w ^ e for the
        first e (by weight, then position order) of weight <= t with a zero
        syndrome, or to None when there is none.  Words sit within t of a
        codeword or just beyond it, so both outcomes are covered."""
        code = gf2.build_bch(6, 2)
        patterns = np.zeros((1, code.n), dtype=np.uint8)
        for wgt in range(1, code.t + 1):
            for pos in itertools.combinations(range(code.n), wgt):
                e = np.zeros((1, code.n), dtype=np.uint8)
                e[0, list(pos)] = 1
                patterns = np.concatenate([patterns, e])
        rng = np.random.default_rng(63)
        outcomes = set()
        for trial in range(120):
            cw = gf2.encode(rng.integers(0, 2, size=code.k), code)
            pos = rng.choice(code.n, size=trial % (code.t + 3), replace=False)
            word = cw.copy()
            word[pos] ^= 1
            candidates = word ^ patterns
            zero = ~((candidates @ code.parity_check.T) % 2).any(axis=1)
            want = candidates[np.argmax(zero)] if zero.any() else None
            got = gf2.bounded_distance_decode(word, code)
            outcomes.add(got is None)
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
        assert outcomes == {True, False}

    def test_negative_t_rejected(self):
        code = gf2.build_bch(3, 1)
        with pytest.raises(ValueError, match="t = -3"):
            dataclasses.replace(code, t=-3)
        with pytest.raises(ValueError, match="t = -1"):
            gf2.code_from_parity_check(code.parity_check, t=-1)


class TestCodeFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        code = gf2.build_bch(6, 6)
        path = tmp_path / "code.txt"
        gf2.save_code(code, path)
        loaded = gf2.load_code(path)
        assert (loaded.n, loaded.k, loaded.t) == (code.n, code.k, code.t)
        np.testing.assert_array_equal(loaded.parity_check, code.parity_check)
        gf2.save_code(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == path.read_text()

    def test_loaded_code_encodes_consistently(self, tmp_path):
        code = gf2.build_bch(4, 2)
        path = tmp_path / "code.txt"
        gf2.save_code(code, path)
        loaded = gf2.load_code(path)
        rng = np.random.default_rng(5)
        for _ in range(10):
            msg = rng.integers(0, 2, size=code.k)
            np.testing.assert_array_equal(
                gf2.encode(msg, loaded), gf2.encode(msg, code))

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("7 4\n")
        with pytest.raises(ValueError):
            gf2.load_code(path)

    def test_non_integer_header_names_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("63 30 x\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            gf2.load_code(path)

    @pytest.mark.parametrize("header", ["3 3 0", "0 0 0", "7 9 1"])
    def test_header_without_parity_rows_names_file(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            gf2.load_code(path)

    def test_negative_t_header_names_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("7 4 -3\n1011100\n0101110\n0010111\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*t = -3"):
            gf2.load_code(path)

    def test_dependent_parity_rows_name_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("7 4 1\n1011100\n0101110\n1011100\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            gf2.load_code(path)

    @pytest.mark.parametrize("c,nkt,digest", [
        (31, (31, 6, 7),
         "215be65752c57faa2ac8c4cd09c37edf26ad81fc9ef15cde06f13fee2bc8034c"),
        (63, (63, 30, 6),
         "b71143516fde446748863fba10f3d76ef1d8f937f5acaf2b5dfb473811e34f4e"),
        (127, (127, 85, 6),
         "8f769fc73165d1060f92d9efbc284e906afce00100ca63182bc85159802fad5d"),
    ])
    def test_pipeline_code_files_are_pinned(self, tmp_path, c, nkt, digest):
        """code.txt for the margin-6 pipeline codes keeps its exact bytes."""
        code = pipeline.select_code(6.0, c)
        assert (code.n, code.k, code.t) == nkt
        path = tmp_path / "code.txt"
        gf2.save_code(code, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
