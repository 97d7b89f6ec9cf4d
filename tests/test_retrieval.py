import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest

from codedhash._checks import PIECE
from codedhash.hashing import sign_hash
from codedhash.retrieval import (
    QueryEvaluation,
    UndefinedMetricError,
    average_precision,
    build_index,
    enumerate_query_masks,
    evaluate_queries,
    graded_relevance,
    ndcg_at_k,
    rank,
    read_rankings,
    relevance,
    write_rankings,
)
from codedhash.textio import write_report
from retrieval_oracles import score_rankings


def naive_rank(codes, query):
    """Reference scan-and-sort ranking."""
    rows = []
    for i, code in enumerate(codes):
        dist = sum(1 for a, b in zip(code, query) if a != b)
        rows.append((dist, i))
    rows.sort()
    return [i for _, i in rows], [d for d, _ in rows]


def int64_dot_rank(query_code, index):
    """The int64 dot-product ranking that the packed-word scan replaced."""
    dots = index.codes.astype(np.int64) @ np.asarray(query_code, np.int64)
    distances = (index.code_length - dots) // 2
    order = np.argsort(distances, kind="stable")
    return order.astype(np.int64), distances[order]


# Reference scorer: the per-list code that the one-pass scorer replaced.
# Its results are compared with ==, without tolerance.

def reference_relevance(mask, attributes):
    queried = np.nonzero(mask)[0]
    return (attributes[:, queried] == 1).all(axis=1).astype(np.uint8)


def reference_graded_relevance(mask, attributes):
    queried = np.nonzero(mask)[0]
    return (attributes[:, queried] == 1).sum(axis=1).astype(np.int64)


def reference_ndcg(ranked_grades, k):
    grades = np.asarray(ranked_grades, dtype=np.int64)
    depth = min(k, grades.size)
    discounts = 1.0 / np.log2(np.arange(2, depth + 2))
    gains = (2.0 ** grades - 1.0)
    dcg = float(gains[:depth] @ discounts)
    ideal = float(np.sort(gains)[::-1][:depth] @ discounts)
    return dcg / ideal


def reference_score_rankings(binary_lists, grade_lists, k=None):
    aps = [average_precision(rels) for rels in binary_lists
           if np.asarray(rels).any()]
    ndcgs = [reference_ndcg(grades, len(grades) if k is None else k)
             for grades in grade_lists if np.asarray(grades).any()]
    skipped_map = sum(1 for rels in binary_lists if not np.asarray(rels).any())
    return QueryEvaluation(float(np.mean(aps)), float(np.mean(ndcgs)),
                           len(grade_lists), skipped_map,
                           len(grade_lists) - len(ndcgs))


def tiny_index(codes, attributes=None):
    codes = np.asarray(codes, dtype=np.int8)
    n = codes.shape[0]
    if attributes is None:
        attributes = np.ones((n, 2), dtype=np.uint8)
    return build_index(codes, np.arange(n), attributes)


def one_shot_words(bits):
    """Each row of a (n, c) array packed in one call, set where 1, into
    ceil(c / 64) uint64 words with zero padding bits."""
    n, c = bits.shape
    packed = np.packbits(bits == 1, axis=1, bitorder="little")
    words = np.zeros((n, -(-c // 64) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view(np.uint64)


class TestBuildIndex:
    def test_activations_are_hashed(self):
        acts = np.array([[0.3, -0.2], [0.0, -1.0]])
        index = build_index(acts, [0, 1], np.ones((2, 3), dtype=np.uint8))
        assert index.codes.tolist() == [[1, -1], [1, -1]]
        assert index.code_length == 2
        assert index.d_attr == 3

    def test_binary_codes_kept_verbatim(self):
        codes = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        index = tiny_index(codes)
        assert np.array_equal(index.codes, codes)

    def test_int8_codes_and_uint8_attributes_shared(self):
        codes = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        attributes = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        index = build_index(codes, [0, 1], attributes)
        assert np.shares_memory(index.codes, codes)
        assert np.shares_memory(index.attributes, attributes)

    @pytest.mark.parametrize("width", [63, 40, 130, PIECE + 70])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_words_match_one_shot_packing(self, width, extra):
        """Codes and attributes packed piece by piece equal one packing of
        the whole array: at one piece of rows, one piece +-1 rows, and for
        rows wider than a piece (2 +- 1 rows)."""
        rows = (PIECE // width or 2) + extra
        rng = np.random.default_rng(width + extra)
        codes = np.where(rng.random((rows, width)) < 0.5, 1, -1).astype(np.int8)
        attributes = (rng.random((rows, width)) < 0.5).astype(np.uint8)
        index = build_index(codes, np.arange(rows), attributes)
        assert index.words.tobytes() == one_shot_words(codes).tobytes()
        assert (index.attribute_words.tobytes()
                == one_shot_words(attributes).tobytes())

    def test_rejects_nan_activations(self):
        with pytest.raises(ValueError, match="NaN"):
            build_index([[np.nan, 1.0]], [0], [[1]])

    def test_empty_gallery(self):
        index = build_index(np.zeros((0, 4), dtype=np.int8) + 1,
                            np.zeros(0, dtype=np.int64),
                            np.zeros((0, 2), dtype=np.uint8))
        assert len(index) == 0
        ids, dists = rank(np.ones(4, dtype=np.int8), index)
        assert ids.size == 0 and dists.size == 0

    def test_empty_gallery_scores(self):
        index = build_index(np.ones((0, 4), dtype=np.int8),
                            np.zeros(0, dtype=np.int64),
                            np.zeros((0, 2), dtype=np.uint8))
        assert index.attribute_words.shape == (0, 1)
        assert graded_relevance([1, 0], index).shape == (0,)
        with pytest.raises(UndefinedMetricError,
                           match="no query with a relevant item"):
            evaluate_queries(lambda m: np.ones(4), index, [[1, 0]])

    @pytest.mark.parametrize("d_attr", [1, 40, 64, 65, 130])
    def test_attribute_words_match_attributes(self, d_attr):
        rng = np.random.default_rng(d_attr)
        attributes = rng.integers(0, 2, size=(50, d_attr)).astype(np.uint8)
        attributes[0] = 1
        index = build_index(np.ones((50, 3), dtype=np.int8), np.arange(50),
                            attributes)
        words = index.attribute_words
        assert words.dtype == np.uint64
        assert words.shape == (50, -(-d_attr // 64))
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert np.array_equal(bits[:, :d_attr], attributes)
        assert not bits[:, d_attr:].any()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_index(np.array([[0, 1]], dtype=np.int8), [0],
                        np.ones((1, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            build_index(np.ones((2, 3), dtype=np.int8), [0],
                        np.ones((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            build_index(np.ones((1, 3), dtype=np.int8), [0],
                        np.array([[0, 2]], dtype=np.uint8))

    @pytest.mark.parametrize("codes", [
        [[255, 1], [1, 257]],  # both wrap to +/-1 when cast to int8
        [[255, 1], [1, 1]],
        [[1, 1], [1, 257]],
        [[-255, 1], [1, -1]],
    ])
    def test_rejects_out_of_range_integer_codes(self, codes):
        with pytest.raises(ValueError, match="must have entries in"):
            build_index(np.array(codes), [0, 1], np.ones((2, 2), np.uint8))


class TestRank:
    def test_exact_match_first(self):
        codes = [[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, -1, -1]]
        index = tiny_index(codes)
        ids, dists = rank(np.array([1, -1, 1, -1]), index)
        assert ids[0] == 1 and dists[0] == 0

    def test_complement_at_full_distance(self):
        index = tiny_index([[1, -1, 1, -1]])
        _, dists = rank(np.array([-1, 1, -1, 1]), index)
        assert dists.tolist() == [4]

    def test_hand_set_distances(self):
        # query distances: item0 -> 2, item1 -> 0, item2 -> 5
        q = np.array([1, 1, 1, 1, 1, -1])
        codes = [
            [1, 1, 1, -1, -1, -1],
            [1, 1, 1, 1, 1, -1],
            [-1, -1, -1, -1, -1, -1],
        ]
        ids, dists = rank(q, tiny_index(codes))
        assert ids.tolist() == [1, 0, 2]
        assert dists.tolist() == [0, 2, 5]

    def test_ties_broken_by_id(self):
        codes = [[1, -1], [1, -1], [1, -1]]
        ids, dists = rank(np.array([-1, 1]), tiny_index(codes))
        assert ids.tolist() == [0, 1, 2]
        assert dists.tolist() == [2, 2, 2]

    def test_matches_naive_scan_on_many_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            c = int(rng.integers(1, 9))
            codes = rng.choice([-1, 1], size=(n, c)).astype(np.int8)
            query = rng.choice([-1, 1], size=c).astype(np.int8)
            ids, dists = rank(query, tiny_index(codes))
            exp_ids, exp_dists = naive_rank(codes, query)
            assert ids.tolist() == exp_ids
            assert dists.tolist() == exp_dists

    @pytest.mark.parametrize("c", [1, 15, 63, 64, 65, 127, 128, 300])
    def test_matches_naive_scan_past_one_word(self, c):
        rng = np.random.default_rng(c)
        for _ in range(10):
            query = rng.choice([-1, 1], size=c).astype(np.int8)
            # the query itself, its complement (distance c, which overflows
            # a uint8 sum at c = 300) and random codes; rows are drawn with
            # replacement from these, so duplicate codes tie
            unique = np.vstack([query, -query,
                                rng.choice([-1, 1], size=(8, c))])
            codes = unique[rng.integers(0, len(unique), size=30)]
            codes[0] = -query
            ids, dists = rank(query, tiny_index(codes))
            exp_ids, exp_dists = naive_rank(codes, query)
            assert ids.tolist() == exp_ids
            assert dists.tolist() == exp_dists
            assert dists[-1] == c
            assert ids.dtype == np.int64 and dists.dtype == np.int64

    @pytest.mark.parametrize("c", [1, 64, 65, 300])
    def test_empty_gallery_any_length(self, c):
        index = build_index(np.ones((0, c), dtype=np.int8),
                            np.zeros(0, dtype=np.int64),
                            np.zeros((0, 2), dtype=np.uint8))
        ids, dists = rank(np.ones(c, dtype=np.int8), index)
        assert ids.shape == (0,) and dists.shape == (0,)
        assert ids.dtype == np.int64 and dists.dtype == np.int64

    def test_memory_bounded_at_1e5_items(self):
        # the int64 copy of a 10^5 x 63 gallery alone is 50 MB
        rng = np.random.default_rng(17)
        n = 100_000
        codes = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, 63))
        index = build_index(codes, np.arange(n), np.zeros((n, 1), np.uint8))
        query = rng.choice(np.array([-1, 1], dtype=np.int8), size=63)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            rank(query, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * 2 ** 20

    def test_rankings_bytes_match_int64_dot_ranking(self, tmp_path):
        rng = np.random.default_rng(2000)
        n, c, d_attr = 2000, 63, 6
        unique = rng.choice(np.array([-1, 1], dtype=np.int8), size=(1500, c))
        codes = unique[rng.integers(0, len(unique), size=n)]
        attributes = rng.integers(0, 2, size=(n, d_attr)).astype(np.uint8)
        index = build_index(codes, np.arange(n), attributes)
        masks = enumerate_query_masks(d_attr, 2, max_queries=10, seed=5)
        queries = rng.choice(np.array([-1, 1], dtype=np.int8), size=(10, c))
        for name, rank_fn in (("packed", rank), ("int64", int64_dot_rank)):
            blocks = []
            for mask, query in zip(masks, queries):
                ids, dists = rank_fn(query, index)
                blocks.append((mask, ids, dists,
                               graded_relevance(mask, index)[ids]))
            write_rankings(tmp_path / f"{name}.txt", blocks)
        assert ((tmp_path / "packed.txt").read_bytes()
                == (tmp_path / "int64.txt").read_bytes())

    def test_output_is_permutation_with_sorted_distances(self):
        rng = np.random.default_rng(5)
        codes = rng.choice([-1, 1], size=(40, 16)).astype(np.int8)
        ids, dists = rank(codes[3], tiny_index(codes))
        assert sorted(ids.tolist()) == list(range(40))
        assert (np.diff(dists) >= 0).all()

    def test_rejects_bad_query(self):
        index = tiny_index([[1, -1]])
        with pytest.raises(ValueError):
            rank(np.array([1, -1, 1]), index)
        with pytest.raises(ValueError):
            rank(np.array([1, 0]), index)


class TestRelevance:
    ATTRS = np.array([
        [1, 1, 1],
        [1, 0, 0],
        [0, 1, 1],
        [0, 0, 0],
    ], dtype=np.uint8)

    def test_conjunction(self):
        assert relevance([1, 1, 0], self.ATTRS).tolist() == [1, 0, 0, 0]
        assert relevance([0, 0, 1], self.ATTRS).tolist() == [1, 0, 1, 0]

    def test_all_attributes_item_always_relevant(self):
        for mask in ([1, 0, 0], [0, 1, 1], [1, 1, 1]):
            assert relevance(mask, self.ATTRS)[0] == 1

    def test_graded_counts(self):
        index = tiny_index(np.ones((4, 2)), self.ATTRS)
        assert graded_relevance([1, 1, 1], index).tolist() == [3, 1, 2, 0]
        assert graded_relevance([0, 1, 1], index).tolist() == [2, 0, 2, 0]

    @pytest.mark.parametrize("d_attr", [1, 40, 64, 65, 130])
    def test_graded_counts_equal_reference_over_packed_words(self, d_attr):
        rng = np.random.default_rng(d_attr)
        attributes = rng.integers(0, 2, size=(300, d_attr)).astype(np.uint8)
        index = tiny_index(np.ones((300, 3)), attributes)
        for mask in rng.integers(0, 2, size=(5, d_attr)):
            mask[rng.integers(d_attr)] = 1
            got = graded_relevance(mask, index)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference_graded_relevance(mask, attributes))
        with pytest.raises(ValueError, match="does not match"):
            graded_relevance(np.ones(d_attr + 1, dtype=np.uint8), index)

    def test_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            relevance([0, 0, 0], self.ATTRS)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relevance([1, 0], self.ATTRS)


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision([1, 1, 1, 0, 0]) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision([0, 1, 0]) == 0.5

    def test_interleaved_pattern(self):
        assert average_precision([1, 0, 1]) == pytest.approx(5 / 6)

    def test_no_relevant_raises(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0, 0, 0])

    def test_order_matters(self):
        assert average_precision([1, 0]) > average_precision([0, 1])


class TestMeanAveragePrecision:
    """MAP as score_rankings reports it, with binary lists as the grades."""

    def test_mean_over_queries(self):
        lists = [[1, 0, 1], [0, 1, 0]]
        result = score_rankings(lists, lists)
        assert result.mean_average_precision == pytest.approx((5 / 6 + 0.5) / 2)
        assert result.skipped_map == 0

    def test_skips_queries_without_relevant_items(self):
        lists = [[1, 0], [0, 0], [0, 1]]
        result = score_rankings(lists, lists)
        assert result.mean_average_precision == pytest.approx((1.0 + 0.5) / 2)
        assert result.skipped_map == 1

    def test_all_invalid_raises(self):
        with pytest.raises(UndefinedMetricError):
            score_rankings([[0, 0], [0]], [[0, 0], [0]])


class TestNdcg:
    def test_perfect_ranking_is_exactly_one(self):
        assert ndcg_at_k([3, 2, 1, 0], k=4) == 1.0
        assert ndcg_at_k([1, 1, 0, 0], k=4) == 1.0

    def test_top_item_max_grade_at_k_one(self):
        assert ndcg_at_k([2, 0, 2, 1], k=1) == 1.0

    def test_binary_swap_fixture(self):
        assert ndcg_at_k([0, 1], k=2) == pytest.approx(
            0.6309297535714575, abs=1e-12)

    def test_graded_fixture(self):
        assert ndcg_at_k([1, 2, 0], k=3) == pytest.approx(
            0.7967075809905066, abs=1e-12)

    def test_truncation_ignores_tail(self):
        assert ndcg_at_k([1, 1, 0, 1], k=2) == 1.0

    def test_k_beyond_length_allowed(self):
        assert ndcg_at_k([0, 1], k=10) == pytest.approx(0.6309297535714575)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            grades = rng.integers(0, 4, size=12)
            if not grades.any():
                continue
            v = ndcg_at_k(grades, k=int(rng.integers(1, 15)))
            assert 0.0 <= v <= 1.0

    def test_errors(self):
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k([0, 0, 0], k=2)
        with pytest.raises(ValueError):
            ndcg_at_k([1, 0], k=0)
        with pytest.raises(ValueError):
            ndcg_at_k([1, -1], k=1)

    def test_grade_past_float_range_rejected(self):
        # 2.0 ** 1024 is inf, which would make the ratio nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at most 1023"):
                ndcg_at_k([1024, 0], k=2)
        assert ndcg_at_k([1023, 0], k=2) == 1.0

    def test_overflowing_ideal_rejected(self):
        # three gains of 2^1023 overflow the ideal DCG; two do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ideal DCG overflows"):
                ndcg_at_k([1023, 1023, 1023], k=3)
        assert ndcg_at_k([1023, 1023, 1023], k=2) == 1.0
        assert ndcg_at_k([1023, 1023], k=2) == reference_ndcg([1023, 1023], 2)

    def test_bits_equal_sort_reference(self):
        rng = np.random.default_rng(300)
        checked = 0
        while checked < 400:
            n = int(rng.integers(1, 60))
            style = checked % 4
            if style == 0:    # one-item lists
                grades = rng.integers(1, 6, size=1)
            elif style == 1:  # every nonzero grade the same
                grades = rng.integers(0, 2, size=n) * int(rng.integers(1, 5))
            else:
                grades = rng.integers(0, int(rng.integers(2, 12)), size=n)
            if not grades.any():
                continue
            for k in (1, max(1, n // 3), n, n + 5):
                assert ndcg_at_k(grades, k) == reference_ndcg(grades, k)
            checked += 1


class TestUnsignedGrades:
    """Grades in the popcount's unsigned dtype score to the bits of their
    int64 copies, and the discounts kept between calls to those of fresh
    vectors."""

    @staticmethod
    def _grade_lists():
        rng = np.random.default_rng(21)
        for n, top in ((1, 3), (7, 2), (60, 11), (1000, 4), (100_000, 3)):
            grades = rng.integers(0, top + 1, size=n)
            grades[rng.integers(0, n)] = top
            yield grades

    def test_uint8_and_int64_give_same_bits(self):
        grade_lists = list(self._grade_lists())
        for grades in grade_lists:
            small = grades.astype(np.uint8)
            for k in (1, max(1, grades.size // 3), grades.size, grades.size + 5):
                assert ndcg_at_k(small, k) == ndcg_at_k(grades, k)
                if grades.size <= 1000:
                    assert ndcg_at_k(small, k) == reference_ndcg(grades, k)
            top = grades.max()
            assert (average_precision((small == top).astype(np.uint8))
                    == average_precision((grades == top).astype(np.int64)))
        binary = [grades == grades.max() for grades in grade_lists]
        assert (score_rankings(binary, [g.astype(np.uint8) for g in grade_lists])
                == score_rankings(binary, grade_lists))

    def test_alternating_depths_match_fresh_discounts(self):
        grades = list(self._grade_lists())[-1].astype(np.uint8)
        results = [ndcg_at_k(grades, k) for k in (7, 100_000, 7, 100_000, 3)]
        for k, got in zip((7, 100_000, 7, 100_000, 3), results):
            assert got == reference_ndcg(grades, k)
        assert results[0] == results[2] and results[1] == results[3]

    @pytest.mark.parametrize("kind", ["list", "int64"])
    def test_range_errors_for_signed_inputs(self, kind):
        def wrap(values):
            return values if kind == "list" else np.array(values, dtype=np.int64)

        with pytest.raises(ValueError, match="nonnegative"):
            ndcg_at_k(wrap([1, -1]), k=2)
        with pytest.raises(ValueError, match="at most 1023"):
            ndcg_at_k(wrap([1024, 0]), k=2)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    def test_wide_unsigned_grades_checked(self, dtype):
        with pytest.raises(ValueError, match="at most 1023"):
            ndcg_at_k(np.array([1024, 0], dtype=dtype), k=2)
        assert ndcg_at_k(np.array([0, 3], dtype=dtype), k=2) == reference_ndcg(
            [0, 3], 2)


class TestEnumerateQueryMasks:
    def test_single_arity_is_identity_like(self):
        masks = enumerate_query_masks(5, 1)
        assert masks.shape == (5, 5)
        assert np.array_equal(masks, np.eye(5, dtype=np.uint8))

    def test_pair_count(self):
        masks = enumerate_query_masks(5, 2)
        assert masks.shape == (10, 5)
        assert (masks.sum(axis=1) == 2).all()

    def test_subsample_deterministic(self):
        a = enumerate_query_masks(8, 2, max_queries=5, seed=3)
        b = enumerate_query_masks(8, 2, max_queries=5, seed=3)
        assert np.array_equal(a, b)
        assert a.shape == (5, 8)

    @pytest.mark.parametrize("max_queries", [None, 1, 40, 9880])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_equals_per_mask_loop(self, arity, max_queries):
        # the combinations in order, subsampled by sorted draws of the
        # seeded generator, one mask set per row
        combos = list(combinations(range(40), arity))
        if max_queries is not None and len(combos) > max_queries:
            chosen = np.random.default_rng(7).choice(len(combos), size=max_queries,
                                                     replace=False)
            combos = [combos[i] for i in sorted(chosen)]
        want = np.zeros((len(combos), 40), dtype=np.uint8)
        for row, combo in enumerate(combos):
            want[row, list(combo)] = 1
        got = enumerate_query_masks(40, arity, max_queries=max_queries, seed=7)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            enumerate_query_masks(4, 0)
        with pytest.raises(ValueError):
            enumerate_query_masks(4, 5)


class TestEvaluateQueries:
    def _index(self):
        attrs = np.array([
            [1, 0, 0],
            [1, 1, 0],
            [0, 0, 1],
        ], dtype=np.uint8)
        codes = (2 * attrs.astype(np.int8) - 1)
        return build_index(codes, np.arange(3), attrs)

    @staticmethod
    def _encode(mask):
        return 2.0 * mask - 1.0

    def test_aligned_gallery_gives_perfect_map(self):
        result = evaluate_queries(self._encode, self._index(),
                                  enumerate_query_masks(3, 1))
        assert isinstance(result, QueryEvaluation)
        assert result.mean_average_precision == 1.0
        assert result.ndcg == 1.0
        assert result.queries == 3
        assert result.skipped_map == 0

    def test_impossible_query_skipped_for_map_only(self):
        masks = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
        result = evaluate_queries(self._encode, self._index(), masks)
        assert result.skipped_map == 1
        assert result.skipped_ndcg == 0
        assert result.queries == 2

    def test_no_valid_query_raises(self):
        attrs = np.zeros((2, 3), dtype=np.uint8)
        index = build_index(np.ones((2, 3), dtype=np.int8), [0, 1], attrs)
        with pytest.raises(UndefinedMetricError):
            evaluate_queries(self._encode, index, [[1, 0, 0]])

    def test_memory_bounded_at_1e5_items(self):
        # keeping two 10^5-long relevance lists per query would peak at
        # 38 MiB; each query's lists are scored and dropped instead
        rng = np.random.default_rng(41)
        n, c, d_attr = 100_000, 63, 40
        codes = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, c))
        attributes = (rng.random((n, d_attr)) < 0.3).astype(np.uint8)
        index = build_index(codes, np.arange(n), attributes)
        weights = rng.normal(size=(c, d_attr))
        masks = enumerate_query_masks(d_attr, 1)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            evaluate_queries(lambda m: weights @ m, index, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 12 * 2 ** 20

    def test_relabeling_invariance_without_ties(self):
        attrs = np.array([
            [1, 1, 0],
            [1, 0, 0],
            [0, 1, 1],
            [0, 0, 1],
        ], dtype=np.uint8)
        codes = np.array([
            [1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, -1],
            [1, 1, 1, -1, -1, -1],
            [-1, -1, -1, -1, -1, -1],
        ], dtype=np.int8)

        def encode(mask):
            return np.ones(6)

        base = build_index(codes, np.arange(4), attrs)
        perm = np.array([2, 0, 3, 1])
        shuffled = build_index(codes[perm], np.arange(4), attrs[perm])
        masks = enumerate_query_masks(3, 1)
        a = evaluate_queries(encode, base, masks)
        b = evaluate_queries(encode, shuffled, masks)
        assert a.mean_average_precision == pytest.approx(
            b.mean_average_precision, abs=1e-15)
        assert a.ndcg == pytest.approx(b.ndcg, abs=1e-15)


class TestScoringOracle:
    """evaluate_queries and score_rankings against the reference scorer on
    a gallery with duplicate codes, so rankings have ties."""

    C = 20
    N = 400
    # attributes 0 and 3 are never present and 1 and 2 never together, so
    # [0] and [0, 3] are skipped for both metrics, [1, 2] and [0, 1, 2]
    # for MAP only
    SKIPPED = {1: [[0]], 2: [[0, 3], [1, 2]], 3: [[0, 1, 2]]}

    def _case(self, d_attr):
        rng = np.random.default_rng(d_attr)
        unique = rng.choice(np.array([-1, 1], dtype=np.int8), size=(60, self.C))
        codes = unique[rng.integers(0, len(unique), size=self.N)]
        attributes = (rng.random((self.N, d_attr)) < 0.3).astype(np.uint8)
        attributes[:, [0, 3]] = 0
        attributes[attributes[:, 1] == 1, 2] = 0
        index = build_index(codes, np.arange(self.N), attributes)
        weights = rng.normal(size=(self.C, d_attr))
        masks = {}
        for arity, skipped in self.SKIPPED.items():
            special = np.zeros((len(skipped), d_attr), dtype=np.uint8)
            for row, queried in zip(special, skipped):
                row[queried] = 1
            masks[arity] = np.vstack([enumerate_query_masks(
                d_attr, arity, max_queries=8, seed=arity), special])
        return index, (lambda m: weights @ m), masks

    @staticmethod
    def _reference(encode, index, masks, k):
        binary_lists, grade_lists = [], []
        for mask in masks:
            ids, _ = rank(sign_hash(encode(mask.astype(np.float64))), index)
            binary_lists.append(reference_relevance(mask, index.attributes)[ids])
            grade_lists.append(
                reference_graded_relevance(mask, index.attributes)[ids])
        return (binary_lists, grade_lists,
                reference_score_rankings(binary_lists, grade_lists, k))

    @pytest.mark.parametrize("k", [None, 7])
    @pytest.mark.parametrize("d_attr", [40, 64, 65, 130])
    def test_bits_equal_reference(self, d_attr, k):
        index, encode, masks = self._case(d_attr)
        for arity, group in masks.items():
            binary_lists, grade_lists, expected = self._reference(
                encode, index, group, k)
            if k is None:  # both score NDCG over the whole gallery
                assert evaluate_queries(encode, index, group) == expected
                assert score_rankings(binary_lists, grade_lists) == expected
            else:  # a truncated NDCG is ndcg_at_k's, scored per query
                assert float(np.mean([ndcg_at_k(g, k) for g in grade_lists
                                      if g.any()])) == expected.ndcg
            if arity == 2:
                assert expected.skipped_map > expected.skipped_ndcg > 0


class TestScoreRankings:
    # query 0 is scored by both metrics, query 1 is skipped for MAP only,
    # query 2 for both
    BINARY = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    GRADES = [[1, 2, 0], [0, 1, 0], [0, 0, 0]]

    def test_hand_built_lists(self):
        result = score_rankings(self.BINARY, self.GRADES)
        assert result == QueryEvaluation(
            0.5, float(np.mean([ndcg_at_k([1, 2, 0], 3),
                                ndcg_at_k([0, 1, 0], 3)])), 3, 2, 1)
        assert result.ndcg == pytest.approx(
            (0.7967075809905066 + 0.6309297535714575) / 2, abs=1e-12)

    def test_map_error_is_raised_first(self):
        with pytest.raises(UndefinedMetricError,
                           match="no query with a relevant item"):
            score_rankings([[0, 0], [0, 0]], [[0, 0], [0, 0]])
        with pytest.raises(UndefinedMetricError,
                           match="no query with a nonzero relevance grade"):
            score_rankings([[1, 0]], [[0, 0]])


class TestRankingFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rankings.txt"
        blocks = [
            (np.array([1, 0, 1]), np.array([2, 0, 1]),
             np.array([0, 1, 3]), np.array([2, 1, 0])),
            (np.array([0, 1, 0]), np.array([1, 2, 0]),
             np.array([1, 1, 2]), np.array([1, 0, 1])),
        ]
        write_rankings(path, blocks)
        back = read_rankings(path)
        assert len(back) == 2
        for (mask, ids, dists, rels), (m2, i2, d2, r2) in zip(blocks, back):
            assert np.array_equal(mask, m2)
            assert np.array_equal(ids, i2)
            assert np.array_equal(dists, d2)
            assert np.array_equal(rels, r2)

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text("# query 10\n1, 5, 0, 1\n2, 3, 2, 0\n")
        [(mask, ids, dists, rels)] = read_rankings(path)
        assert mask.tolist() == [1, 0]
        assert ids.tolist() == [5, 3]
        assert dists.tolist() == [0, 2]
        assert rels.tolist() == [1, 0]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# query 10\n1, 5, 0, 1\n2, three, 2, 0\n")
        with pytest.raises(ValueError, match=":3"):
            read_rankings(path)

    def test_rank_sequence_checked(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# query 10\n2, 5, 0, 1\n")
        with pytest.raises(ValueError, match=":2"):
            read_rankings(path)


class TestMetricReport:
    def test_written_rows(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_report(path, "metric, query_arity, value",
                     [("map", 1, 0.75), ("ndcg", 2, 0.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "metric, query_arity, value"
        assert lines[1] == "map, 1, 0.75"
        assert lines[2] == "ndcg, 2, 0.5"
