"""Unrolled weighted decoder: structure, equivalence to plain sum-product
decoding at unit weights, agreement with a per-edge weighted loop, exact
gradients, training behavior, and the weight-file round trip."""

import re

import numpy as np
import pytest

from codedhash import channel, gf2, pipeline
from codedhash.bp import TannerGraph, bp_decode_batch
from codedhash.neural_bp import (DecoderTrainConfig, NeuralBpDecoder,
                                 evaluate_error_rates, load_decoder,
                                 save_decoder, train_decoder)
from codedhash.optim import Adam

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
    documented serialization order.  Returns the pre-sigmoid output
    (posterior) per bit, (batch, n).
    """
    n_check, n = h.shape
    checks_of = [np.nonzero(h[:, v])[0] for v in range(n)]
    vars_of = [np.nonzero(h[c])[0] for c in range(n_check)]
    edges = [(v, c) for v in range(n) for c in checks_of[v]]
    weights = iter(vec)
    w_chan = [{} for _ in range(iterations)]
    w_sib = [{} for _ in range(iterations)]
    for j in range(iterations):
        for v, c in edges:
            w_chan[j][(v, c)] = next(weights)
            for d in checks_of[v]:
                if d != c:
                    w_sib[j][(v, c, d)] = next(weights)
    w_out_chan, w_out_edge = {}, {}
    for v in range(n):
        w_out_chan[v] = next(weights)
        for c in checks_of[v]:
            w_out_edge[(v, c)] = next(weights)
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


class TestStructure:
    def test_hidden_width_is_edge_count(self):
        net = appendix_net()
        assert net.num_edges == 16

    def test_weight_count_for_one_iteration(self):
        # per layer: one channel weight per edge plus deg(v)-1 sibling
        # weights; every variable here has degree 2, so 16 + 16 = 32.
        # output layer: 8 channel weights + 16 edge weights.
        net = appendix_net(iterations=1)
        assert net.num_weights == 32 + 24
        assert net.weight_vector().shape == (56,)
        assert (net.weight_vector() == 1.0).all()

    def test_weight_vector_round_trip(self):
        net = appendix_net()
        rng = np.random.default_rng(0)
        vec = rng.normal(1.0, 0.1, size=net.num_weights)
        net.set_weight_vector(vec)
        np.testing.assert_array_equal(net.weight_vector(), vec)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            NeuralBpDecoder(TannerGraph(H_APPENDIX), 0)


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
        outputs, hard = net.forward(np.zeros(8))
        np.testing.assert_array_equal(outputs, 0.5)
        np.testing.assert_array_equal(hard, 0)  # ties resolve to bit 0

    def test_strong_codeword_recovered(self):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations=5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            cw = gf2.encode(rng.integers(0, 2, size=code.k), code)
            _, hard = net.forward(6.0 * channel.bpsk_modulate(cw))
            np.testing.assert_array_equal(hard, cw)

    def test_outputs_strictly_inside_unit_interval(self):
        net = appendix_net(iterations=3)
        rng = np.random.default_rng(12)
        llrs = rng.normal(0.0, 40.0, size=(64, 8))
        outputs, _ = net.forward(llrs)
        assert (outputs > 0.0).all() and (outputs < 1.0).all()


class TestWeightedForward:
    """Non-unit weights against a per-edge loop that reads them in the
    decoder.bin v1 order."""

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


class TestGradients:
    def finite_difference(self, net, llrs, targets, param_idx, flat_idx,
                          h=1e-6):
        p = net.parameters()[param_idx]
        orig = p.flat[flat_idx]
        p.flat[flat_idx] = orig + h
        hi, _ = net.loss_and_grads(llrs, targets)
        p.flat[flat_idx] = orig - h
        lo, _ = net.loss_and_grads(llrs, targets)
        p.flat[flat_idx] = orig
        return (hi - lo) / (2.0 * h)

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
        with pytest.raises(ValueError, match=match):
            appendix_net().forward(llrs[0])

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
        """Same draws, frames and LLRs as a loop writing the AWGN math out."""
        code = gf2.build_bch(4, 2)
        cfg = DecoderTrainConfig(snr_db_list=(1.0, 3.0, 5.0),
                                 frames_per_epoch=32, epochs=4, seed=11)
        net = train_decoder(
            NeuralBpDecoder(TannerGraph(code.parity_check), 2), code, cfg)

        ref = NeuralBpDecoder(TannerGraph(code.parity_check), 2)
        adam = Adam(ref.parameters(), lr=cfg.learning_rate)
        rng = np.random.default_rng(cfg.seed)
        sigmas = np.array([channel.noise_sigma(s, code.rate)
                           for s in cfg.snr_db_list])
        targets = np.zeros((cfg.frames_per_epoch, code.n))
        for _ in range(cfg.epochs):
            pick = rng.integers(0, len(sigmas), size=cfg.frames_per_epoch)
            sig = sigmas[pick][:, None]
            received = 1.0 + sig * rng.standard_normal(targets.shape)
            _, grads = ref.loss_and_grads(2.0 * received / (sig * sig), targets)
            adam.step(ref.parameters(), grads)
        np.testing.assert_array_equal(net.weight_vector(), ref.weight_vector())

    def test_mismatched_code_rejected(self):
        code = gf2.build_bch(3, 1)
        net = appendix_net()
        with pytest.raises(ValueError):
            train_decoder(net, code, DecoderTrainConfig(epochs=1))


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

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_nonpositive_batch_size(self, batch_size):
        code = gf2.build_bch(4, 2)
        net = NeuralBpDecoder(TannerGraph(code.parity_check), 5)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            evaluate_error_rates(net, code, 2.0, frames=10, seed=43,
                                 batch_size=batch_size)


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
