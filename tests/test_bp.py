"""Tanner graph construction and sum-product decoding.

The cycle-free exactness check compares BP posteriors against a test-local
exhaustive marginalization over all codewords; the loopy-graph check
compares them against a test-local per-edge flooding loop.
"""

import numpy as np
import pytest

from codedhash import channel, gf2, pipeline
from codedhash.bp import (DEFAULT_CLAMP, TannerGraph, bp_decode, bp_decode_batch,
                          check_products_except_self, segment_sum)

H_APPENDIX = np.array(
    [
        [0, 1, 0, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 1, 1, 1],
        [1, 0, 0, 1, 1, 0, 1, 0],
    ],
    dtype=np.uint8,
)

H_REPETITION = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)


def brute_force_posteriors(llr, h):
    """Oracle: exact bitwise posterior LLRs by summing over all codewords."""
    n = h.shape[1]
    words = np.array([[(w >> i) & 1 for i in range(n)] for w in range(1 << n)],
                     dtype=np.uint8)
    words = words[(words @ h.T % 2 == 0).all(axis=1)]
    # log-likelihood of each codeword up to a shared constant
    scores = 0.5 * (1.0 - 2.0 * words.astype(np.float64)) @ llr
    post = np.empty(n)
    for v in range(n):
        zero = scores[words[:, v] == 0]
        one = scores[words[:, v] == 1]
        post[v] = (np.logaddexp.reduce(zero) - np.logaddexp.reduce(one))
    return post


def naive_flooding_posteriors(llrs, h, iterations, clamp):
    """Oracle: flooding sum-product with one Python step per edge message.

    Edges and their neighbours come from h alone.  Returns the posteriors
    after the last check update, (batch, n).
    """
    n_check, n = h.shape
    checks_of = [np.nonzero(h[:, v])[0] for v in range(n)]
    vars_of = [np.nonzero(h[c])[0] for c in range(n_check)]
    edges = [(v, c) for v in range(n) for c in checks_of[v]]
    llr = llrs.T
    m_vc = {(v, c): llr[v] for v, c in edges}
    for _ in range(iterations):
        t = {e: np.tanh(0.5 * m) for e, m in m_vc.items()}
        m_cv = {}
        for v, c in edges:
            prod = np.ones(llrs.shape[0])
            for u in vars_of[c]:
                if u != v:
                    prod = prod * t[(u, c)]
            m_cv[(v, c)] = 2.0 * np.arctanh(np.clip(prod, -1.0 + clamp, 1.0 - clamp))
        post = np.array([llr[v] + sum(m_cv[(v, c)] for c in checks_of[v])
                         for v in range(n)])
        m_vc = {(v, c): llr[v] + sum(m_cv[(v, d)] for d in checks_of[v] if d != c)
                for v, c in edges}
    return post.T


def pipeline_code():
    """The BCH(63,30) code the default training configuration selects."""
    config = pipeline.TrainConfig()
    return pipeline.select_code(config.margin, config.c)


class TestTannerGraph:
    def test_appendix_edge_count(self):
        graph = TannerGraph(H_APPENDIX)
        assert graph.num_edges == 16
        assert (graph.n_var, graph.n_check) == (8, 4)

    def test_appendix_check_zero_neighbors(self):
        graph = TannerGraph(H_APPENDIX)
        row = graph.check_pad_edge[0][graph.check_pad_mask[0]]
        np.testing.assert_array_equal(graph.edge_var[row], [1, 3, 4, 7])

    def test_adjacency_sorted_and_consistent(self):
        graph = TannerGraph(H_APPENDIX)
        for v in range(graph.n_var):
            row = graph.var_pad_edge[v][graph.var_pad_mask[v]]
            assert (np.diff(row) > 0).all()
            np.testing.assert_array_equal(graph.edge_var[row], v)
            np.testing.assert_array_equal(graph.edge_check[row],
                                          np.nonzero(graph.h[:, v])[0])
        for c in range(graph.n_check):
            row = graph.check_pad_edge[c][graph.check_pad_mask[c]]
            assert (np.diff(row) > 0).all()
            np.testing.assert_array_equal(graph.edge_check[row], c)
            np.testing.assert_array_equal(graph.edge_var[row],
                                          np.nonzero(graph.h[c])[0])

    def test_edge_index_is_a_bijection(self):
        graph = TannerGraph(H_APPENDIX)
        # (variable, check) lexicographic order, derived from h alone
        edges = sorted(zip(*np.nonzero(graph.h.T)))
        assert graph.num_edges == len(edges)
        for e, (v, c) in enumerate(edges):
            assert (graph.edge_var[e], graph.edge_check[e]) == (v, c)
        for pad, mask in ((graph.var_pad_edge, graph.var_pad_mask),
                          (graph.check_pad_edge, graph.check_pad_mask)):
            np.testing.assert_array_equal(np.sort(pad[mask]),
                                          np.arange(graph.num_edges))

    def test_identity_h_has_one_edge_per_check(self):
        graph = TannerGraph(np.eye(5, dtype=np.uint8))
        assert graph.num_edges == 5

    def test_degenerate_rows_and_columns_rejected(self):
        with pytest.raises(ValueError):
            TannerGraph(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError):
            TannerGraph(np.array([[1, 0], [1, 0]], dtype=np.uint8))


class TestKernels:
    def test_segment_sum_with_empty_segments(self):
        values = np.arange(10, dtype=np.float64).reshape(5, 2)
        offsets = np.array([0, 2, 2, 5])
        out = segment_sum(values, offsets)
        np.testing.assert_array_equal(out[0], values[0] + values[1])
        np.testing.assert_array_equal(out[1], 0.0)
        np.testing.assert_array_equal(out[2], values[2] + values[3] + values[4])
        # trailing empty segments must not truncate the last non-empty one
        out = segment_sum(np.array([[1.0], [2.0], [3.0]]), np.array([0, 3, 3]))
        np.testing.assert_array_equal(out, [[6.0], [0.0]])

    def test_check_products_match_naive_loop(self):
        graph = TannerGraph(H_APPENDIX)
        rng = np.random.default_rng(42)
        values = rng.uniform(-0.9, 0.9, size=(graph.num_edges, 3))
        got = check_products_except_self(values, graph)
        for e in range(graph.num_edges):
            c = graph.edge_check[e]
            sibs = [f for f in range(graph.num_edges)
                    if graph.edge_check[f] == c and f != e]
            expected = np.prod(values[sibs], axis=0)
            np.testing.assert_allclose(got[e], expected, rtol=1e-12)


class TestBpDecode:
    def test_zero_llr_yields_zero_codeword(self):
        graph = TannerGraph(gf2.build_bch(4, 2).parity_check)
        hard, soft, conv = bp_decode(np.zeros(15), graph, iterations=5)
        np.testing.assert_array_equal(hard, 0)
        np.testing.assert_array_equal(soft, 0.0)
        assert conv

    def test_strong_codeword_llrs_decode_exactly(self):
        code = gf2.build_bch(4, 2)
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(0)
        for _ in range(10):
            cw = gf2.encode(rng.integers(0, 2, size=code.k), code)
            llr = 8.0 * channel.bpsk_modulate(cw)
            hard, _, conv = bp_decode(llr, graph, iterations=5)
            np.testing.assert_array_equal(hard, cw)
            assert conv

    def test_converged_frames_are_codewords(self):
        """Early termination never reports a non-codeword as converged."""
        code = gf2.build_bch(4, 2)
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(1)
        llrs = rng.normal(0.0, 3.0, size=(500, 15))
        hard, _, conv = bp_decode_batch(llrs, graph, iterations=5)
        assert conv.any()
        synd = hard[conv] @ code.parity_check.T % 2
        assert not synd.any()

    def test_single_vector_matches_batch(self):
        graph = TannerGraph(gf2.build_bch(4, 2).parity_check)
        rng = np.random.default_rng(2)
        llrs = rng.normal(0.0, 2.0, size=(8, 15))
        bh, bs, bc = bp_decode_batch(llrs, graph, iterations=4, early_stop=False)
        for i in range(8):
            h, s, c = bp_decode(llrs[i], graph, iterations=4, early_stop=False)
            np.testing.assert_array_equal(h, bh[i])
            np.testing.assert_array_equal(s, bs[i])
            assert c == bc[i]

    def test_tree_posteriors_are_exact(self):
        """On a cycle-free graph BP equals exhaustive marginalization."""
        graph = TannerGraph(H_REPETITION)
        rng = np.random.default_rng(3)
        llrs = rng.normal(0.0, 2.0, size=(1000, 3))
        _, soft, _ = bp_decode_batch(llrs, graph, iterations=5, early_stop=False)
        for i in range(1000):
            expected = brute_force_posteriors(llrs[i], H_REPETITION)
            np.testing.assert_allclose(soft[i], expected, atol=1e-9)

    def test_appendix_graph_posteriors_finite(self):
        graph = TannerGraph(H_APPENDIX)
        rng = np.random.default_rng(4)
        llrs = rng.normal(0.0, 2.0, size=(64, 8))
        hard, soft, _ = bp_decode_batch(llrs, graph, iterations=5)
        assert np.isfinite(soft).all()
        assert set(np.unique(hard)) <= {0, 1}

    @pytest.mark.parametrize("code", [gf2.build_bch(4, 2), pipeline_code()],
                             ids=["bch15_7", "bch63_30"])
    def test_flooding_matches_naive_per_edge_loop(self, code):
        """Loopy systematic BCH graphs, whose last variables have degree 1."""
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(6)
        llrs = rng.normal(0.0, 2.5, size=(200, code.n))
        hard, post, _ = bp_decode_batch(llrs, graph, iterations=5,
                                        early_stop=False)
        want = naive_flooding_posteriors(llrs, code.parity_check, 5,
                                         DEFAULT_CLAMP)
        np.testing.assert_array_equal(hard, (want < 0).astype(np.uint8))
        np.testing.assert_allclose(post, want, rtol=0, atol=1e-9)
        np.testing.assert_allclose(1.0 / (1.0 + np.exp(post)),
                                   1.0 / (1.0 + np.exp(want)), rtol=0, atol=1e-9)

    def test_bad_inputs_rejected(self):
        graph = TannerGraph(H_REPETITION)
        with pytest.raises(ValueError):
            bp_decode(np.zeros(3), graph, iterations=0)
        with pytest.raises(ValueError):
            bp_decode(np.array([np.inf, 0.0, 0.0]), graph, iterations=2)
        with pytest.raises(ValueError):
            bp_decode(np.zeros(4), graph, iterations=2)

    def test_noisy_channel_beats_uncoded_decisions(self):
        code = gf2.build_bch(4, 2)
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(5)
        frames = 400
        msgs = rng.integers(0, 2, size=(frames, code.k))
        words = msgs @ code.generator % 2
        sym = channel.bpsk_modulate(words)
        recv, sigma = channel.awgn(sym, 3.0, seed=rng, rate=code.rate)
        llrs = channel.llr_from_channel(recv, sigma)
        hard, _, _ = bp_decode_batch(llrs, graph, iterations=5)
        uncoded = (llrs < 0).astype(np.uint8)
        assert (hard != words).sum() <= (uncoded != words).sum()
