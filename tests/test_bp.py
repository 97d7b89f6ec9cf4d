"""Tanner graph construction and sum-product decoding.

The cycle-free exactness check compares BP posteriors against a test-local
exhaustive marginalization over all codewords; the loopy-graph check
compares them against a test-local per-edge flooding loop.  The check-node
kernels are compared bit for bit against a test-local copy of the earlier
cumprod and boolean-mask implementation.
"""

import tracemalloc

import numpy as np
import pytest

from codedhash import channel, gf2, pipeline
from codedhash.bp import (DEFAULT_CLAMP, TannerGraph, Workspace, bp_decode_batch,
                          check_products_except_self,
                          check_products_except_self_backward, segment_sum)
from gf2_oracles import encode

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


def pipeline_code(c=None):
    """The code the default training configuration selects: BCH(63,30), or
    the length-c one."""
    config = pipeline.TrainConfig()
    return pipeline.select_code(config.margin, config.c if c is None else c)


def edge_checks(h):
    """Each edge's check in the graph built from parity-check matrix h:
    edges are in (variable, check) lexicographic order."""
    return np.nonzero(h.T)[1]


def check_rows(graph):
    """Each check's edges in degree-major table order, read back from
    check_slot: slot i * n_check + c holds the i-th edge of check c."""
    rank, check = np.divmod(graph.check_slot, graph.n_check)
    order = np.lexsort((rank, check))
    return np.split(order, np.cumsum(np.bincount(check, minlength=graph.n_check))[:-1])


class TestTannerGraph:
    def test_appendix_edge_count(self):
        graph = TannerGraph(H_APPENDIX)
        assert graph.num_edges == 16
        assert (graph.n_var, graph.n_check) == (8, 4)

    def test_appendix_check_zero_neighbors(self):
        graph = TannerGraph(H_APPENDIX)
        row = check_rows(graph)[0]
        np.testing.assert_array_equal(graph.edge_var[row], [1, 3, 4, 7])

    def test_adjacency_sorted_and_consistent(self):
        graph = TannerGraph(H_APPENDIX)
        checks = edge_checks(H_APPENDIX)
        for v in range(graph.n_var):
            row = np.arange(graph.var_offsets[v], graph.var_offsets[v + 1])
            np.testing.assert_array_equal(graph.edge_var[row], v)
            np.testing.assert_array_equal(checks[row], np.nonzero(H_APPENDIX[:, v])[0])
            # left-aligned: the edges fill mask slots 0 .. degree - 1
            np.testing.assert_array_equal(np.flatnonzero(graph.var_pad_mask[v]),
                                          np.arange(len(row)))
        for c, row in enumerate(check_rows(graph)):
            # left-aligned: the edges fill table rows 0 .. degree - 1
            np.testing.assert_array_equal(graph.check_slot[row] // graph.n_check,
                                          np.arange(len(row)))
            assert (np.diff(row) > 0).all()
            np.testing.assert_array_equal(checks[row], c)
            np.testing.assert_array_equal(graph.edge_var[row],
                                          np.nonzero(H_APPENDIX[c])[0])

    def test_edge_index_is_a_bijection(self):
        graph = TannerGraph(H_APPENDIX)
        # (variable, check) lexicographic order, derived from h alone
        edges = sorted(zip(*np.nonzero(H_APPENDIX.T)))
        assert graph.num_edges == len(edges)
        for e, (v, c) in enumerate(edges):
            assert (graph.edge_var[e], graph.check_slot[e] % graph.n_check) == (v, c)
        np.testing.assert_array_equal(graph.var_offsets,
                                      np.r_[0, np.cumsum(graph.var_pad_mask.sum(axis=1))])
        np.testing.assert_array_equal(np.sort(np.concatenate(check_rows(graph))),
                                      np.arange(graph.num_edges))
        # edge and padding slots tile the (dc_max, n_check) table exactly once
        slots = np.concatenate([graph.check_slot, graph.check_pad_slot])
        np.testing.assert_array_equal(np.sort(slots),
                                      np.arange(graph.dc_max * graph.n_check))

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
        got = check_products_except_self(values, graph, Workspace())
        checks = edge_checks(H_APPENDIX)
        for e in range(graph.num_edges):
            sibs = [f for f in range(graph.num_edges)
                    if checks[f] == checks[e] and f != e]
            expected = np.prod(values[sibs], axis=0)
            np.testing.assert_allclose(got[e], expected, rtol=1e-12)


def reference_check_table(h):
    """(edge ids, mask), both (n_check, dc_max), rebuilt from h: row c
    lists the edges of check c ascending and left-aligned."""
    checks = edge_checks(h)
    deg = np.bincount(checks, minlength=len(h))
    mask = np.arange(deg.max()) < deg[:, None]
    edge = np.zeros(mask.shape, dtype=np.int64)
    edge[mask] = np.argsort(checks, kind="stable")
    return edge, mask


def reference_prefix_suffix(values, edge, mask):
    pad = np.ones(mask.shape + values.shape[1:], dtype=values.dtype)
    pad[mask] = values[edge[mask]]
    pre = np.ones_like(pad)
    np.cumprod(pad[:, :-1], axis=1, out=pre[:, 1:])
    suf = np.ones_like(pad)
    np.cumprod(pad[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pad, pre, suf


def reference_products(values, h):
    """Oracle: the check-major cumprod kernel with boolean-mask gathers."""
    edge, mask = reference_check_table(h)
    _, pre, suf = reference_prefix_suffix(values, edge, mask)
    out = np.empty_like(values)
    out[edge[mask]] = (pre * suf)[mask]
    return out


def reference_backward(values, grads, h):
    """Oracle: the matching reverse-mode step, in the same operation order."""
    edge, mask = reference_check_table(h)
    a, pre, suf = reference_prefix_suffix(values, edge, mask)
    gathered = edge[mask]
    gpad = np.zeros_like(a)
    gpad[mask] = grads[gathered]
    dmax = a.shape[1]
    acc_lo = np.zeros_like(a)
    for i in range(dmax - 1):
        acc_lo[:, i + 1] = acc_lo[:, i] * a[:, i] + gpad[:, i] * pre[:, i]
    acc_hi = np.zeros_like(a)
    for i in range(dmax - 2, -1, -1):
        acc_hi[:, i] = acc_hi[:, i + 1] * a[:, i + 1] + gpad[:, i + 1] * suf[:, i + 1]
    out = np.empty_like(values)
    out[gathered] = (acc_lo * suf + acc_hi * pre)[mask]
    return out


def kernel_inputs(graph, batch, rng):
    """tanh-domain values with exact 0.0 and +-1.0 entries, and gradients."""
    values = rng.uniform(-1.0, 1.0, size=(graph.num_edges, batch))
    special = rng.random(values.shape)
    values[special < 0.15] = 0.0
    values[(special >= 0.15) & (special < 0.25)] = 1.0
    values[(special >= 0.25) & (special < 0.35)] = -1.0
    return values, rng.normal(size=values.shape)


PIPELINE_GRAPHS = pytest.mark.parametrize(
    "code", [gf2.build_bch(4, 2), pipeline_code(), pipeline_code(127)],
    ids=["bch15_7", "bch63_30", "bch127"])


class TestCheckKernelOracle:
    """Bit-exact agreement with the earlier kernel on the pipeline's graphs."""

    @PIPELINE_GRAPHS
    @pytest.mark.parametrize("batch", [1, 128, 512])
    def test_fresh_workspace_is_bit_exact(self, code, batch):
        graph = TannerGraph(code.parity_check)
        values, grads = kernel_inputs(graph, batch, np.random.default_rng(batch))
        assert np.array_equal(check_products_except_self(values, graph, Workspace()),
                              reference_products(values, code.parity_check))
        assert np.array_equal(
            check_products_except_self_backward(values, grads, graph, Workspace()),
            reference_backward(values, grads, code.parity_check))

    @PIPELINE_GRAPHS
    def test_shared_workspace_across_shrinking_batches(self, code):
        """512 -> 128 -> 500 through one workspace, as an early-stopping
        decode reuses it; earlier results must not alias the workspace."""
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(7)
        ws = Workspace()
        kept = []
        for batch in (512, 128, 500):
            values, grads = kernel_inputs(graph, batch, rng)
            fwd = check_products_except_self(values, graph, ws)
            bwd = check_products_except_self_backward(values, grads, graph, ws)
            want_fwd = reference_products(values, code.parity_check)
            want_bwd = reference_backward(values, grads, code.parity_check)
            assert np.array_equal(fwd, want_fwd)
            assert np.array_equal(bwd, want_bwd)
            kept.append((fwd, bwd, want_fwd, want_bwd))
        for fwd, bwd, want_fwd, want_bwd in kept:
            assert np.array_equal(fwd, want_fwd)
            assert np.array_equal(bwd, want_bwd)

    def test_empty_batch(self):
        graph = TannerGraph(pipeline_code().parity_check)
        empty = np.zeros((graph.num_edges, 0))
        assert check_products_except_self(empty, graph,
                                          Workspace()).shape == empty.shape
        assert check_products_except_self_backward(empty, empty, graph,
                                                   Workspace()).shape == empty.shape


class TestSyndrome:
    @PIPELINE_GRAPHS
    def test_equals_parity_check_product(self, code):
        """The XOR over check-ordered edges gives the booleans of the h
        product, for random bits (uint8 and bool), codewords, and
        codewords with one flipped bit."""
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(code.n)
        msgs = rng.integers(0, 2, size=(64, code.k))
        words = (msgs @ code.generator % 2).astype(np.uint8)
        flipped = words.copy()
        flipped[np.arange(64), rng.integers(0, code.n, size=64)] ^= 1
        noise = rng.integers(0, 2, size=(256, code.n)).astype(np.uint8)
        h = code.parity_check.astype(np.int64)
        for bits in (noise.T, noise.T.astype(bool), words.T, flipped.T):
            want = ~((h @ bits) % 2).any(axis=0)
            assert np.array_equal(graph.syndrome_ok(bits), want)
        assert graph.syndrome_ok(words.T).all()
        assert not graph.syndrome_ok(flipped.T).any()


class TestKernelMemory:
    """Peak traced allocations on BCH(63,30) at batch 512."""

    def test_forward_kernel_allocates_only_its_output_and_a_slab(self):
        graph = TannerGraph(pipeline_code().parity_check)
        values, _ = kernel_inputs(graph, 512, np.random.default_rng(8))
        ws = Workspace()
        check_products_except_self(values, graph, ws)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = check_products_except_self(values, graph, ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        slab = graph.n_check * 512 * values.itemsize
        assert peak <= out.nbytes + slab, (peak, out.nbytes, slab)

    def test_classic_decode_peak(self):
        code = pipeline_code()
        graph = TannerGraph(code.parity_check)
        recv, sigma = channel.awgn(channel.bpsk_modulate(np.zeros((512, code.n))),
                                   2.0, seed=np.random.default_rng(9), rate=code.rate)
        llrs = channel.llr_from_channel(recv, sigma)
        tracemalloc.start()
        try:
            bp_decode_batch(llrs, graph, iterations=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20, peak / 2**20


class TestBpDecode:
    def test_zero_llr_yields_zero_codeword(self):
        graph = TannerGraph(gf2.build_bch(4, 2).parity_check)
        hard, soft, conv = bp_decode_batch(np.zeros((1, 15)), graph, iterations=5)
        np.testing.assert_array_equal(hard, 0)
        np.testing.assert_array_equal(soft, 0.0)
        assert conv.all()

    def test_strong_codeword_llrs_decode_exactly(self):
        code = gf2.build_bch(4, 2)
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(0)
        for _ in range(10):
            cw = encode(rng.integers(0, 2, size=code.k), code)
            llr = 8.0 * channel.bpsk_modulate(cw)
            hard, _, conv = bp_decode_batch(llr[None, :], graph, iterations=5)
            np.testing.assert_array_equal(hard[0], cw)
            assert conv[0]

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

    def test_float32_llrs_decode_in_float64(self):
        """In float32 the 1e-12 clamp rounds to 1 and atanh(1) is inf, so
        float32 LLRs are decoded as their float64 values.  One frame in
        two at 8x the scale drives check products to the clamp."""
        graph = TannerGraph(pipeline_code().parity_check)
        rng = np.random.default_rng(7)
        llrs = (rng.normal(0.0, 2.5, size=(200, graph.n_var))
                * rng.choice([1.0, 8.0], size=(200, 1))).astype(np.float32)
        got = bp_decode_batch(llrs, graph, iterations=20)
        want = bp_decode_batch(llrs.astype(np.float64), graph, iterations=20)
        assert got[1].dtype == np.float64
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_empty_batch(self, early_stop):
        graph = TannerGraph(pipeline_code().parity_check)
        hard, soft, conv = bp_decode_batch(np.zeros((0, graph.n_var)), graph,
                                           iterations=5, early_stop=early_stop)
        assert (hard.shape, hard.dtype) == ((0, graph.n_var), np.uint8)
        assert (soft.shape, soft.dtype) == ((0, graph.n_var), np.float64)
        assert (conv.shape, conv.dtype) == ((0,), np.bool_)

    def test_bad_inputs_rejected(self):
        graph = TannerGraph(H_REPETITION)
        with pytest.raises(ValueError):
            bp_decode_batch(np.zeros((1, 3)), graph, iterations=0)
        with pytest.raises(ValueError):
            bp_decode_batch(np.array([[np.inf, 0.0, 0.0]]), graph, iterations=2)
        with pytest.raises(ValueError):
            bp_decode_batch(np.zeros((1, 4)), graph, iterations=2)

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
