"""Unrolled weighted decoder: structure, equivalence to plain sum-product
decoding at unit weights, agreement with a per-edge weighted loop, exact
gradients, training behavior, and the weight-file round trip."""

import hashlib
import re
import struct
import sys
import threading

import numpy as np
import pytest

from codedhash import channel, gf2, pipeline
from codedhash.bp import (BpDecoder, TannerGraph, Workspace, bp_decode_batch,
                          check_products_except_self,
                          check_products_except_self_backward, segment_sum)
from codedhash.neural_bp import (DecoderTrainConfig, NeuralBpDecoder,
                                 TrainingFailureError, _sigmoid,
                                 evaluate_error_rates, load_decoder,
                                 save_decoder, train_decoder)
from codedhash.optim import Adam
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


def appendix_net(iterations=2):
    return NeuralBpDecoder(TannerGraph(H_APPENDIX), iterations)


def pipeline_code():
    """The BCH(63,30) code the default training configuration selects."""
    config = pipeline.TrainConfig()
    return pipeline.select_code(config.margin, config.c)


def naive_weighted_bp(llrs, h, vec, iterations, clamp):
    """Oracle: the weighted unrolled decoder with one Python step per edge
    message, edges from h alone and weights read from `vec` in the
    documented serialization order (decoder.bin v2), which has no sibling
    weights for layer 0.  Returns the pre-sigmoid output (posterior) per
    bit, (batch, n).
    """
    n_check, n = h.shape
    checks_of = [np.nonzero(h[:, v])[0] for v in range(n)]
    vars_of = [np.nonzero(h[c])[0] for c in range(n_check)]
    edges = [(v, c) for v in range(n) for c in checks_of[v]]
    weights = iter(vec)
    w_chan = [{e: next(weights) for e in edges} for _ in range(iterations)]
    sib_keys = [(v, c, d) for v, c in edges for d in checks_of[v] if d != c]
    # layer 0's incoming messages are zero, so any weight there (1.0 here)
    # multiplies zero
    w_sib = [dict.fromkeys(sib_keys, 1.0)] + [
        {key: next(weights) for key in sib_keys} for _ in range(1, iterations)]
    w_out_chan = {v: next(weights) for v in range(n)}
    w_out_edge = {e: next(weights) for e in edges}
    assert next(weights, None) is None

    llr = llrs.T
    x = {e: np.zeros(llrs.shape[0]) for e in edges}
    for j in range(iterations):
        odd = {(v, c): np.tanh(0.5 * (w_chan[j][(v, c)] * llr[v] + sum(
                   w_sib[j][(v, c, d)] * x[(v, d)] for d in checks_of[v] if d != c)))
               for v, c in edges}
        x = {}
        for v, c in edges:
            prod = np.ones(llrs.shape[0])
            for u in vars_of[c]:
                if u != v:
                    prod = prod * odd[(u, c)]
            x[(v, c)] = 2.0 * np.arctanh(np.clip(prod, -1.0 + clamp, 1.0 - clamp))
    post = np.array([w_out_chan[v] * llr[v] + sum(w_out_edge[(v, c)] * x[(v, c)]
                                                  for c in checks_of[v])
                     for v in range(n)])
    return post.T


def padded_all_variable_pass(net, llrs, targets):
    """Reference for the decoder's kernels: one unblocked pass through
    sibling tables padded to all n_var variables, with each layer's clip
    mask cached and a new array for every intermediate.  Returns the soft
    outputs (batch, n) and the gradients of loss_and_grads."""
    g = net.graph
    vmask = g.var_pad_mask
    sib_mask = vmask[:, :, None] & vmask[:, None, :] & \
        ~np.eye(vmask.shape[1], dtype=bool)
    slot = np.flatnonzero(vmask)
    blocks = np.zeros((net.iterations - 1,) + sib_mask.shape)
    blocks[:, sib_mask] = net.w_in
    lo = 1.0 - net.atanh_clamp
    llr_t = llrs.T.copy()
    batch = llr_t.shape[1]

    def scatter(values):
        table = np.zeros(vmask.shape + (batch,))
        table.reshape(vmask.size, batch)[slot] = values
        return table

    def gather(table):
        return table.reshape(vmask.size, batch)[slot]

    l_edge = llr_t[g.edge_var]
    x = None
    layers = []
    for j in range(net.iterations):
        pre = net.w_chan[j][:, None] * l_edge
        if j > 0:
            pre += gather(np.matmul(blocks[j - 1], scatter(x)))
        x_odd = np.tanh(pre * 0.5)
        prod = check_products_except_self(x_odd, g, Workspace())
        p_clip = np.clip(prod, -lo, lo)
        layers.append((x, x_odd, p_clip, np.abs(prod) < lo))
        x = np.arctanh(p_clip) * 2.0
    s = net.w_out_chan[:, None] * llr_t + \
        segment_sum(net.w_out_edge[:, None] * x, g.var_offsets)
    z = np.clip(-s, -36.0, 36.0)
    o = _sigmoid(z)

    y_t = np.asarray(targets, dtype=np.float64).T
    ds = -((o - y_t) / y_t.size) * (np.abs(s) < 36.0)
    d_out_chan = (ds * llr_t).sum(axis=1)
    ds_edge = ds[g.edge_var]
    d_out_edge = (ds_edge * x).sum(axis=1)
    dx = net.w_out_edge[:, None] * ds_edge
    d_chan = np.zeros_like(net.w_chan)
    d_in = np.zeros_like(net.w_in)
    for j in reversed(range(net.iterations)):
        x_prev, x_odd, p_clip, clip_mask = layers[j]
        dp = dx * (2.0 / (1.0 - p_clip * p_clip)) * clip_mask
        dx_odd = check_products_except_self_backward(x_odd, dp, g, Workspace())
        dpre = dx_odd * 0.5 * (1.0 - x_odd * x_odd)
        d_chan[j] = (dpre * l_edge).sum(axis=1)
        if j > 0:
            dpre_pad = scatter(dpre)
            d_in[j - 1] = np.matmul(dpre_pad, scatter(x_prev).transpose(0, 2, 1))[sib_mask]
            dx = gather(np.matmul(blocks[j - 1].transpose(0, 2, 1), dpre_pad))
    return o.T, [d_chan, d_in, d_out_chan, d_out_edge]


def inline_training(code, iterations, cfg, llr_dtype):
    """Reference for train_decoder: a fresh decoder trained by a loop that
    writes its draws and AWGN math out, with each epoch's LLRs cast to
    `llr_dtype`."""
    net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations)
    adam = Adam(net.parameters(), lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    sigmas = np.array([channel.noise_sigma(s, code.rate) for s in cfg.snr_db_list])
    targets = np.zeros((cfg.frames_per_epoch, code.n))
    for _ in range(cfg.epochs):
        pick = rng.integers(0, len(sigmas), size=cfg.frames_per_epoch)
        sig = sigmas[pick][:, None]
        received = 1.0 + sig * rng.standard_normal(targets.shape)
        llrs = (2.0 * received / (sig * sig)).astype(llr_dtype)
        _, grads = net.loss_and_grads(llrs, targets)
        adam.step(net.parameters(), grads)
    return net


# the codes whose graphs the decoder oracles run on: BCH(15,7), the
# pipeline's BCH(63,30), and length 127
PIPELINE_CODES = {"bch15_7": lambda: gf2.build_bch(4, 2),
                  "bch63_30": pipeline_code,
                  "bch127_64": lambda: gf2.build_bch(7, 10)}


class TestStructure:
    def test_hidden_width_is_edge_count(self):
        net = appendix_net()
        assert net.w_chan.shape == (2, 16)

    @pytest.mark.parametrize("iterations, count", [(1, 40), (2, 72)])
    def test_weight_count(self, iterations, count):
        # per layer: one channel weight per edge (16), and from the second
        # layer on deg(v)-1 sibling weights per edge; every variable here
        # has degree 2, so 16 more.  The first layer has none: its incoming
        # messages are zero.  output layer: 8 channel weights + 16 edge
        # weights.
        net = appendix_net(iterations)
        assert net.num_weights == 16 * iterations + 16 * (iterations - 1) + 24 == count
        assert net.weight_vector().shape == (count,)
        assert (net.weight_vector() == 1.0).all()

    def test_weight_vector_round_trip(self):
        net = appendix_net()
        rng = np.random.default_rng(0)
        vec = rng.normal(1.0, 0.1, size=net.num_weights)
        net.set_weight_vector(vec)
        np.testing.assert_array_equal(net.weight_vector(), vec)

    @pytest.mark.parametrize("code", list(PIPELINE_CODES))
    def test_parameters_are_exactly_the_weights(self, code):
        net = NeuralBpDecoder(TannerGraph(PIPELINE_CODES[code]().parity_check), 5)
        assert sum(p.size for p in net.parameters()) == net.num_weights \
            == net.weight_vector().size

    @pytest.mark.parametrize("code", list(PIPELINE_CODES))
    def test_set_weight_vector_writes_in_place(self, code):
        """Each parameter array stays the same object, so an optimizer
        holding them sees the new weights; the round trip is bit-exact."""
        net = NeuralBpDecoder(TannerGraph(PIPELINE_CODES[code]().parity_check), 5)
        params = net.parameters()
        vec = np.random.default_rng(1).normal(1.0, 0.1, size=net.num_weights)
        net.set_weight_vector(vec)
        assert all(a is b for a, b in zip(net.parameters(), params, strict=True))
        assert net.weight_vector().tobytes() == vec.tobytes()

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            NeuralBpDecoder(TannerGraph(H_APPENDIX), 0)

    @pytest.mark.parametrize("code, n_sib, dv_max", [("bch15_7", 7, 5),
                                                     ("bch63_30", 30, 21),
                                                     ("bch127_64", 64, 38)])
    def test_sibling_tables_cover_only_variables_with_siblings(self, code, n_sib,
                                                               dv_max):
        graph = TannerGraph(PIPELINE_CODES[code]().parity_check)
        net = NeuralBpDecoder(graph, 5)
        deg = np.diff(graph.var_offsets)
        assert np.count_nonzero(deg >= 2) == n_sib
        assert net._sib_mask.shape == (n_sib, dv_max, dv_max)
        assert net._call_weights(np.float64)[1].shape == (4, n_sib, dv_max, dv_max)
        # edges of variables of degree 1 share the extra last row
        rows = net._var_slot
        assert rows.shape == (graph.num_edges,)
        lone = deg[graph.edge_var] == 1
        assert (rows[lone] == n_sib * dv_max).all()
        assert np.unique(rows[~lone]).size == np.count_nonzero(~lone)
        assert (rows[~lone] < n_sib * dv_max).all()


class TestUnitWeightEquivalence:
    def test_hard_decisions_match_bp_exactly(self):
        code = gf2.build_bch(4, 2)
        graph = TannerGraph(code.parity_check)
        net = NeuralBpDecoder(graph, iterations=5)
        rng = np.random.default_rng(10)
        llrs = rng.normal(0.0, 2.0, size=(1000, 15))
        outputs, hard = net.forward(llrs)
        bp_hard, bp_soft, _ = bp_decode_batch(
            llrs, graph, iterations=5, early_stop=False, clamp=net.atanh_clamp)
        np.testing.assert_array_equal(hard, bp_hard)
        # soft outputs are the sigmoid of the negated posterior
        expected = 1.0 / (1.0 + np.exp(np.clip(bp_soft, -36.0, 36.0)))
        np.testing.assert_allclose(outputs, expected, atol=1e-12)

    def test_zero_llr_gives_exactly_half(self):
        net = appendix_net()
        outputs, hard = net.forward(np.zeros((1, 8)))
        np.testing.assert_array_equal(outputs, 0.5)
        np.testing.assert_array_equal(hard, 0)  # ties resolve to bit 0

    def test_strong_codeword_recovered(self):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations=5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            cw = encode(rng.integers(0, 2, size=code.k), code)
            _, hard = net.forward(6.0 * channel.bpsk_modulate(cw)[None, :])
            np.testing.assert_array_equal(hard[0], cw)

    def test_outputs_strictly_inside_unit_interval(self):
        net = appendix_net(iterations=3)
        rng = np.random.default_rng(12)
        llrs = rng.normal(0.0, 40.0, size=(64, 8))
        outputs, _ = net.forward(llrs)
        assert (outputs > 0.0).all() and (outputs < 1.0).all()


class TestWeightedForward:
    """Non-unit weights against a per-edge loop that reads them in the
    decoder.bin v2 order, with no sibling weights in layer 0."""

    @pytest.mark.parametrize("code", [gf2.build_bch(4, 2), pipeline_code()],
                             ids=["bch15_7", "bch63_30"])
    def test_weighted_forward_matches_naive_per_edge_loop(self, code):
        net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations=5)
        rng = np.random.default_rng(13)
        net.set_weight_vector(rng.normal(1.0, 0.2, size=net.num_weights))
        llrs = rng.normal(0.0, 2.5, size=(200, code.n))
        outputs, hard = net.forward(llrs)
        post = naive_weighted_bp(llrs, code.parity_check, net.weight_vector(),
                                 5, net.atanh_clamp)
        want = 1.0 / (1.0 + np.exp(np.clip(post, -36.0, 36.0)))
        np.testing.assert_array_equal(hard, (want > 0.5).astype(np.uint8))
        np.testing.assert_allclose(outputs, want, rtol=0, atol=1e-9)
        # the posterior read back from the output, where its logit is
        # well conditioned
        ok = np.minimum(outputs, 1.0 - outputs) > 1e-6
        assert ok.mean() > 0.5
        logit = np.log1p(-outputs[ok]) - np.log(outputs[ok])
        np.testing.assert_allclose(logit, post[ok], rtol=0, atol=1e-9)


BLOCK_CODES = {**PIPELINE_CODES, "bch31_21": lambda: gf2.build_bch(5, 2)}


class TestBlockedForward:
    """forward decodes in 64-frame blocks, the last taking the remainder;
    its outputs are bitwise those of one unblocked pass."""

    @pytest.fixture(scope="class")
    def nets(self):
        nets = {}
        for name, build in BLOCK_CODES.items():
            net = NeuralBpDecoder(TannerGraph(build().parity_check), iterations=5)
            net.set_weight_vector(np.random.default_rng(14).normal(
                1.0, 0.2, size=net.num_weights))
            nets[name] = net
        return nets

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129, 193, 257, 1000])
    @pytest.mark.parametrize("code", list(BLOCK_CODES))
    def test_bits_equal_one_unblocked_pass(self, nets, code, n):
        net = nets[code]
        llrs = np.random.default_rng(n).normal(0.0, 2.5, size=(n, net.graph.n_var))
        want = net._forward_t(llrs.T.copy(), net._call_weights(np.float64),
                              keep_cache=False, ws=Workspace())[0].T
        outputs, hard = net.forward(llrs)
        assert outputs.shape == hard.shape == (n, net.graph.n_var)
        assert hard.dtype == np.uint8
        assert np.array_equal(outputs, want)
        assert np.array_equal(hard, (want > 0.5).astype(np.uint8))
        assert np.array_equal(net.decode_batch(llrs), hard)

    @pytest.mark.parametrize("n, sizes", [(1, [1]), (64, [64]), (127, [127]),
                                          (128, [64, 64]), (129, [64, 65]),
                                          (191, [64, 127]), (193, [64, 64, 65]),
                                          (1000, [64] * 14 + [104])])
    def test_blocks_are_consecutive(self, nets, n, sizes, monkeypatch):
        net = nets["bch15_7"]
        llrs = np.random.default_rng(n).normal(0.0, 2.5, size=(n, net.graph.n_var))
        seen, scattered = [], []

        def spy(llr_t, weights, keep_cache, ws):
            seen.append(llr_t)
            scattered.append(weights)
            return NeuralBpDecoder._forward_t(net, llr_t, weights, keep_cache, ws)

        monkeypatch.setattr(net, "_forward_t", spy)
        net.forward(llrs)
        assert [t.shape[1] for t in seen] == sizes
        assert np.array_equal(np.concatenate(seen, axis=1), llrs.T)
        # the weights are cast and scattered once per call, not once per block
        assert all(w is scattered[0] for w in scattered)


class TestSiblingTables:
    """Sibling tables over the variables of degree >= 2 only, and the
    backward pass through workspace tables, give the bits of the padded
    all-variable reference."""

    @pytest.mark.parametrize("code", list(PIPELINE_CODES))
    def test_bits_equal_padded_all_variable_reference(self, code):
        net = NeuralBpDecoder(TannerGraph(PIPELINE_CODES[code]().parity_check), 5)
        rng = np.random.default_rng(30)
        net.set_weight_vector(rng.normal(1.0, 0.2, size=net.num_weights))
        # one frame in two at 8x the LLR scale, so the atanh clip is hit
        # on every code
        llrs = rng.normal(0.0, 2.5, size=(96, net.graph.n_var)) * \
            rng.choice([1.0, 8.0], size=(96, 1))
        targets = rng.integers(0, 2, size=llrs.shape)
        want_outputs, want_grads = padded_all_variable_pass(net, llrs, targets)
        outputs, _ = net.forward(llrs)
        _, grads = net.loss_and_grads(llrs, targets)
        assert outputs.tobytes() == want_outputs.tobytes()
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_graph_without_siblings_decodes_and_trains(self):
        """Every variable has degree 1: no sibling weight, an empty sibling
        table, and every edge gathering the zero row."""
        h = np.array([[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]], dtype=np.uint8)
        code = gf2.code_from_parity_check(h)
        net = NeuralBpDecoder(TannerGraph(h), iterations=3)
        assert net._sib_mask.shape == (0, 1, 1)
        assert net.w_in.shape == (2, 0)
        rng = np.random.default_rng(31)
        net.set_weight_vector(rng.normal(1.0, 0.2, size=net.num_weights))
        llrs = rng.normal(0.0, 2.5, size=(70, 5))
        outputs, hard = net.forward(llrs)
        post = naive_weighted_bp(llrs, h, net.weight_vector(), 3, net.atanh_clamp)
        want = 1.0 / (1.0 + np.exp(np.clip(post, -36.0, 36.0)))
        np.testing.assert_allclose(outputs, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(hard, (want > 0.5).astype(np.uint8))
        targets = rng.integers(0, 2, size=llrs.shape)
        want_outputs, want_grads = padded_all_variable_pass(net, llrs, targets)
        assert outputs.tobytes() == want_outputs.tobytes()
        _, grads = net.loss_and_grads(llrs, targets)
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()
        before = net.weight_vector()
        train_decoder(net, code, DecoderTrainConfig(frames_per_epoch=16,
                                                    epochs=3, seed=3))
        assert net.w_in.shape == (2, 0)
        assert (net.weight_vector() != before).any()


class TestGradients:
    def finite_difference(self, net, llrs, targets, param_idx, flat_idx,
                          h=1e-3):
        """Five-point central difference: its O(h^4) truncation error and
        its rounding (about 1e-13) stay far below the tolerance for
        gradients near 1e-6, where a two-point difference at h = 1e-6 is
        off by about 1e-5 relative."""
        p = net.parameters()[param_idx]
        orig = p.flat[flat_idx]
        loss = {}
        for step in (-2, -1, 1, 2):
            p.flat[flat_idx] = orig + step * h
            loss[step], _ = net.loss_and_grads(llrs, targets)
        p.flat[flat_idx] = orig
        return (8.0 * (loss[1] - loss[-1]) - (loss[2] - loss[-2])) / (12.0 * h)

    def test_gradients_match_finite_differences(self):
        """Six sampled entries per array on the appendix graph; every entry
        of every array on BCH(15,7), whose last variables have degree 1."""
        rng = np.random.default_rng(20)
        cases = ((appendix_net(iterations=2), 6),
                 (NeuralBpDecoder(TannerGraph(gf2.build_bch(4, 2).parity_check),
                                  iterations=2), None))
        for net, sample in cases:
            n = net.graph.n_var
            net.set_weight_vector(rng.normal(1.0, 0.1, size=net.num_weights))
            llrs = rng.normal(0.0, 2.0, size=(8, n))
            targets = rng.integers(0, 2, size=(8, n))
            _, grads = net.loss_and_grads(llrs, targets)
            for param_idx, p in enumerate(net.parameters()):
                entries = range(p.size) if sample is None else \
                    rng.choice(p.size, size=min(sample, p.size), replace=False)
                for flat_idx in entries:
                    want = self.finite_difference(net, llrs, targets,
                                                  param_idx, int(flat_idx))
                    got = grads[param_idx].flat[flat_idx]
                    err = abs(got - want) / max(abs(got), abs(want), 1e-8)
                    assert err < 1e-5, (n, param_idx, flat_idx, got, want)

    def test_zero_target_loss_decreases_along_gradient(self):
        net = appendix_net(iterations=2)
        rng = np.random.default_rng(21)
        llrs = 1.0 + rng.normal(0.0, 1.0, size=(32, 8))
        targets = np.zeros((32, 8))
        loss0, grads = net.loss_and_grads(llrs, targets)
        for p, g in zip(net.parameters(), grads):
            p -= 0.05 * g
        loss1, _ = net.loss_and_grads(llrs, targets)
        assert loss1 < loss0


class TestComputeDtype:
    """forward and loss_and_grads compute in the LLRs' dtype: float32 stays
    float32 and every other dtype takes the float64 path.  The weights stay
    float64 master copies and the gradients are float64."""

    @pytest.fixture(scope="class")
    def nets(self):
        nets = {}
        for name in ("bch15_7", "bch63_30"):
            net = NeuralBpDecoder(TannerGraph(PIPELINE_CODES[name]().parity_check), 5)
            net.set_weight_vector(np.random.default_rng(60).normal(
                1.0, 0.2, size=net.num_weights))
            nets[name] = net
        return nets

    @staticmethod
    def batch(net, seed=61):
        """LLRs at scale 1, where no check product nears the atanh clip:
        near it float32 keeps few digits of 1 - p, and the gradient's
        factor 2 / (1 - p^2) magnifies their error."""
        rng = np.random.default_rng(seed)
        llrs = rng.normal(0.0, 1.0, size=(96, net.graph.n_var))
        return llrs, rng.integers(0, 2, size=llrs.shape)

    @pytest.mark.parametrize("code", ["bch15_7", "bch63_30"])
    def test_float32_agrees_with_float64(self, nets, code):
        """Tolerances of about 100 float32 epsilons: soft outputs to 1e-6,
        the loss to 1e-6 relative, each gradient array to 1e-5 of its
        largest entry."""
        net = nets[code]
        llrs, targets = self.batch(net)
        narrow = llrs.astype(np.float32)
        out64, hard64 = net.forward(llrs)
        out32, hard32 = net.forward(narrow)
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=0, atol=1e-6)
        assert np.mean(hard32 == hard64) > 0.999
        loss64, grads64 = net.loss_and_grads(llrs, targets)
        loss32, grads32 = net.loss_and_grads(narrow, targets)
        assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
        for got, want in zip(grads32, grads64, strict=True):
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int8, np.float16])
    def test_other_dtypes_take_the_float64_path(self, nets, dtype):
        net = nets["bch15_7"]
        llrs, targets = self.batch(net)
        given = (4.0 * llrs).astype(dtype)
        wide = given.astype(np.float64)
        outputs, hard = net.forward(given)
        want_outputs, want_hard = net.forward(wide)
        assert outputs.dtype == np.float64
        assert outputs.tobytes() == want_outputs.tobytes()
        assert np.array_equal(hard, want_hard)
        loss, grads = net.loss_and_grads(given, targets)
        want_loss, want_grads = net.loss_and_grads(wide, targets)
        assert loss == want_loss
        for got, want in zip(grads, want_grads, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_float32_call_leaves_the_weights(self, nets):
        net = nets["bch63_30"]
        params = net.parameters()
        before = [p.copy() for p in params]
        llrs, targets = self.batch(net)
        net.forward(llrs.astype(np.float32))
        net.loss_and_grads(llrs.astype(np.float32), targets)
        for p, now, old in zip(params, net.parameters(), before, strict=True):
            assert now is p and now.dtype == np.float64
            assert now.tobytes() == old.tobytes()

    def test_concurrent_float32_and_float64_calls_match_serial(self, nets):
        """evaluate_error_rates decodes from worker threads: two threads
        decoding one decoder at once, one in each dtype, get the serial
        results on every round."""
        net = nets["bch63_30"]
        llrs, _ = self.batch(net)
        inputs = {"f32": llrs.astype(np.float32), "f64": llrs}
        want = {key: net.forward(x) for key, x in inputs.items()}
        rounds = 20
        got = {key: [] for key in inputs}
        start = threading.Barrier(len(inputs))

        def worker(key):
            for _ in range(rounds):
                start.wait(timeout=60)
                got[key].append(net.forward(inputs[key]))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(key,)) for key in inputs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        for key in inputs:
            assert len(got[key]) == rounds
            for outputs, hard in got[key]:
                assert outputs.tobytes() == want[key][0].tobytes()
                assert np.array_equal(hard, want[key][1])


class TestInputChecks:
    """forward and loss_and_grads reject the same malformed LLR batches;
    loss_and_grads also needs frames and bit targets."""

    BAD_LLRS = pytest.mark.parametrize("llrs, match", [
        (np.full((2, 8), np.inf), "finite"), (np.full((2, 8), np.nan), "finite"),
        (np.zeros((2, 9)), "expected shape")], ids=["inf", "nan", "width_n_plus_1"])

    @BAD_LLRS
    def test_loss_and_grads_rejects_bad_llrs(self, llrs, match):
        with pytest.raises(ValueError, match=match):
            appendix_net().loss_and_grads(llrs, np.zeros(llrs.shape))

    @BAD_LLRS
    def test_forward_rejects_bad_llrs(self, llrs, match):
        with pytest.raises(ValueError, match=match):
            appendix_net().forward(llrs)
        with pytest.raises(ValueError, match="expected shape"):
            appendix_net().forward(llrs[0])

    def test_one_frame_vector_rejected_as_by_bp_decoder(self):
        """A length-n vector is not a (batch, n) batch: forward and
        decode_batch raise BpDecoder.decode_batch's shape error."""
        llr = np.zeros(8)
        with pytest.raises(ValueError) as want:
            BpDecoder(TannerGraph(H_APPENDIX), iterations=5).decode_batch(llr)
        net = appendix_net()
        for call in (net.forward, net.decode_batch):
            with pytest.raises(ValueError) as got:
                call(llr)
            assert str(got.value) == str(want.value) == \
                "expected shape (batch, 8), got (8,)"

    def test_loss_and_grads_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one frame"):
            appendix_net().loss_and_grads(np.zeros((0, 8)), np.zeros((0, 8)))

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan])
    def test_loss_and_grads_rejects_non_bit_targets(self, bad):
        targets = np.zeros((2, 8))
        targets[1, 3] = bad
        with pytest.raises(ValueError, match="bits"):
            appendix_net().loss_and_grads(np.ones((2, 8)), targets)

    def test_loss_and_grads_rejects_mismatched_targets(self):
        with pytest.raises(ValueError):
            appendix_net().loss_and_grads(np.zeros((2, 8)), np.zeros((3, 8)))

    def test_empty_batch_decodes_to_empty(self):
        net = NeuralBpDecoder(TannerGraph(pipeline_code().parity_check), 5)
        outputs, hard = net.forward(np.zeros((0, 63)))
        assert outputs.shape == hard.shape == (0, 63)
        assert net.decode_batch(np.zeros((0, 63))).shape == (0, 63)


class TestTraining:
    def test_zero_epochs_leaves_unit_weights(self):
        code = gf2.build_bch(3, 1)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations=3)
        train_decoder(net, code, DecoderTrainConfig(epochs=0, seed=1))
        assert (net.weight_vector() == 1.0).all()

    def test_training_reduces_validation_loss(self):
        code = gf2.build_bch(3, 1)
        graph = TannerGraph(code.parity_check)
        rng = np.random.default_rng(30)
        sigma = channel.noise_sigma(3.0, code.rate)
        val = 1.0 + sigma * rng.standard_normal((512, code.n))
        val_llrs = 2.0 * val / sigma ** 2
        val_targets = np.zeros_like(val_llrs)

        net = NeuralBpDecoder(graph, iterations=3)
        before, _ = net.loss_and_grads(val_llrs, val_targets)
        train_decoder(net, code, DecoderTrainConfig(
            snr_db_list=(1.0, 2.0, 3.0, 4.0), frames_per_epoch=128,
            epochs=60, seed=31))
        after, _ = net.loss_and_grads(val_llrs, val_targets)
        assert after < before

    def test_training_is_deterministic(self):
        code = gf2.build_bch(3, 1)
        cfg = DecoderTrainConfig(epochs=15, frames_per_epoch=64, seed=7)
        a = train_decoder(
            NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, cfg)
        b = train_decoder(
            NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, cfg)
        np.testing.assert_array_equal(a.weight_vector(), b.weight_vector())

    def test_matches_inline_channel_reference_loop(self):
        """Same draws, frames and float32 LLRs as a loop writing the AWGN
        math out."""
        code = gf2.build_bch(4, 2)
        cfg = DecoderTrainConfig(snr_db_list=(1.0, 3.0, 5.0),
                                 frames_per_epoch=32, epochs=4, seed=11)
        net = train_decoder(
            NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, cfg)
        ref = inline_training(code, 2, cfg, np.float32)
        np.testing.assert_array_equal(net.weight_vector(), ref.weight_vector())

    def test_every_weight_group_trains(self):
        """Each parameter array, w_in included, moves off its unit start in
        place."""
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 3)
        params = net.parameters()
        train_decoder(net, code, DecoderTrainConfig(frames_per_epoch=32,
                                                    epochs=3, seed=2))
        for before, after in zip(params, net.parameters()):
            assert after is before
        assert net.w_in.size and (net.w_in != 1.0).all()
        for p in (net.w_chan, net.w_out_chan, net.w_out_edge):
            assert (p != 1.0).any()

    def test_trained_weights_bit_identical_to_v1_decoder(self):
        """Dropping the first-iteration sibling weights changes no other
        weight's training.  The hash was made with the v1 decoder, whose
        w_in was (L, n_var, dv_max, dv_max), trained in float64: after a
        seeded train_decoder call with these settings, sha256 of the
        little-endian float64 bytes of w_chan.ravel(),
        w_in[1:][:, _sib_mask].ravel(), w_out_chan and w_out_edge,
        concatenated in that (v2) order.  train_decoder now trains in
        float32, so the same draws go through the float64 inline loop."""
        code = pipeline_code()
        cfg = DecoderTrainConfig(frames_per_epoch=64, epochs=3, seed=5)
        net = inline_training(code, 5, cfg, np.float64)
        digest = hashlib.sha256(net.weight_vector().astype("<f8").tobytes())
        assert digest.hexdigest() == \
            "d36db10f53844dafbb603044d7c91a6a5dd159df63ca0da4cb683075044e72ee"

    def test_float32_training_is_deterministic_on_pipeline_code(self):
        """train_decoder on BCH(63,30) gives the same float64 weights on
        every run, and the weights stay near those of float64 training on
        the same draws."""
        code = pipeline_code()
        cfg = DecoderTrainConfig(frames_per_epoch=64, epochs=3, seed=5)
        a, b = (train_decoder(NeuralBpDecoder(TannerGraph(code.parity_check), 5),
                              code, cfg) for _ in range(2))
        assert all(p.dtype == np.float64 for p in a.parameters())
        assert a.weight_vector().tobytes() == b.weight_vector().tobytes()
        wide = inline_training(code, 5, cfg, np.float64)
        # Adam steps a weight by about lr whatever its gradient's size, so
        # a weight whose gradient is near zero may step apart in float32;
        # all but 1% stay within a tenth of one step of float64 training
        gap = np.abs(a.weight_vector() - wide.weight_vector())
        assert np.mean(gap <= 0.1 * cfg.learning_rate) >= 0.99

    def test_mismatched_code_rejected(self):
        code = gf2.build_bch(3, 1)
        net = appendix_net()
        with pytest.raises(ValueError):
            train_decoder(net, code, DecoderTrainConfig(epochs=1))

    def test_non_finite_loss_raises(self, monkeypatch):
        code = gf2.build_bch(3, 1)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 2)
        monkeypatch.setattr(net, "loss_and_grads",
                            lambda llrs, targets: (float("nan"), None))
        with pytest.raises(TrainingFailureError,
                           match="decoder training loss at epoch 0"):
            train_decoder(net, code, DecoderTrainConfig(frames_per_epoch=8,
                                                        epochs=2))


class TestErrorRates:
    def test_high_snr_is_error_free(self):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        ber, fer = evaluate_error_rates(net, code, snr_db=12.0, frames=500,
                                        seed=40)
        assert ber == 0.0 and fer == 0.0

    def test_deterministic_for_fixed_seed(self):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        a = evaluate_error_rates(net, code, 2.0, frames=2000, seed=41)
        b = evaluate_error_rates(net, code, 2.0, frames=2000, seed=41)
        assert a == b
        assert 0.0 < a[0] < 0.5

    def test_ber_bounded_by_fer(self):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        ber, fer = evaluate_error_rates(net, code, 2.0, frames=2000, seed=42)
        assert ber <= fer <= 1.0


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        rng = np.random.default_rng(50)
        net.set_weight_vector(rng.normal(1.0, 0.2, size=net.num_weights))
        path = tmp_path / "decoder.bin"
        save_decoder(net, code, path)
        loaded = load_decoder(path, code)
        assert loaded.iterations == net.iterations
        np.testing.assert_array_equal(loaded.weight_vector(), net.weight_vector())
        save_decoder(loaded, code, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_pipeline_decoder_size(self, tmp_path):
        """BCH(63,30) at L = 5: four sibling layers and a 29-byte header."""
        code = pipeline_code()
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        assert net.w_in.shape == (4, 7978)
        assert net.num_weights == 35167
        path = tmp_path / "decoder.bin"
        save_decoder(net, code, path)
        assert path.stat().st_size == 281365

    def test_version_1_file_rejected(self, tmp_path):
        """A well-formed v1 file, with first-iteration sibling weights, is
        not converted."""
        code = gf2.build_bch(4, 2)
        graph = TannerGraph(code.parity_check)
        deg = np.diff(graph.var_offsets)
        iterations = 2
        count = iterations * (graph.num_edges + int((deg * (deg - 1)).sum())) \
            + graph.n_var + graph.num_edges
        path = tmp_path / "decoder.bin"
        path.write_bytes(b"NBPW" + struct.pack("<BIIIIQ", 1, code.n, code.k, code.t,
                                               iterations, count)
                         + np.ones(count).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*version 1"):
            load_decoder(path, code)

    def test_wrong_code_rejected(self, tmp_path):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        path = tmp_path / "decoder.bin"
        save_decoder(net, code, path)
        with pytest.raises(ValueError):
            load_decoder(path, gf2.build_bch(3, 1))

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a decoder")
        with pytest.raises(ValueError):
            load_decoder(path, gf2.build_bch(3, 1))

    def test_truncated_header_rejected(self, tmp_path):
        code = gf2.build_bch(3, 1)
        path = tmp_path / "decoder.bin"
        save_decoder(NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_decoder(path, code)

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_iteration_count_must_match_weights(self, tmp_path, iterations):
        code = gf2.build_bch(3, 1)
        path = tmp_path / "decoder.bin"
        save_decoder(NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, path)
        raw = bytearray(path.read_bytes())
        raw[17:21] = iterations.to_bytes(4, "little")  # after magic, version, n, k, t
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_decoder(path, code)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        """A NaN weight would make every soft output NaN, which the hard
        decision reads as bit 0; the loader refuses it with the file's
        name."""
        code = gf2.build_bch(4, 2)
        path = tmp_path / "decoder.bin"
        save_decoder(NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<d", value)  # the last w_out_edge weight
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: decoder weights must be finite")):
            load_decoder(path, code)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_save_refuses_non_finite_weights(self, tmp_path, value):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 2)
        net.w_in[0, 3] = value
        path = tmp_path / "decoder.bin"
        with pytest.raises(ValueError, match="decoder weights must be finite"):
            save_decoder(net, code, path)
        assert not path.exists()

    @pytest.mark.parametrize("cut", [-8, 8])
    def test_weight_bytes_must_match_header(self, tmp_path, cut):
        """Missing (cut < 0) or trailing (cut > 0) weight bytes."""
        code = gf2.build_bch(3, 1)
        path = tmp_path / "decoder.bin"
        save_decoder(NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_decoder(path, code)
