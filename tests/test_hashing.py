import math
import re
import struct

import numpy as np
import pytest

from codedhash._checks import PIECE
from codedhash.hashing import (
    FORWARD_ROWS,
    Encoders,
    Mlp,
    _pair_distances,
    dll_loss,
    gradients,
    load_encoders,
    match_probability,
    objective,
    objective_grads,
    save_encoders,
    sign_hash,
)


def objective_oracle(p, q, s, margin, theta, lam):
    """Scalar-loop reference for the training objective."""
    n_p, c = p.shape
    n_q = q.shape[0]
    total = 0.0
    for i in range(n_p):
        for j in range(n_q):
            d = sum((p[i, b] - q[j, b]) ** 2 for b in range(c))
            r = (1 + math.exp(-margin)) / (1 + math.exp(d - margin))
            r = min(max(r, 1e-12), 1 - 1e-12)
            if s[i, j]:
                total += -math.log(r)
            else:
                total += -math.log(1 - r)
    norms = sum(v * v for v in p.ravel()) + sum(v * v for v in q.ravel())
    total -= theta / c * norms
    for b in range(c):
        total += lam * (p[:, b].sum() ** 2 + q[:, b].sum() ** 2)
    return total


def finite_difference(fun, arr, h=1e-6):
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fun()
        flat[i] = keep - h
        lo = fun()
        flat[i] = keep
        g[i] = (hi - lo) / (2 * h)
    return grad


def relative_error(a, b):
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / scale


def float64_copy(enc):
    """The same encoders with float64 copies of their (float32) weights,
    for checks that need float64's digits."""
    return Encoders(*(Mlp([w.astype(np.float64) for w in net.weights],
                          [b.astype(np.float64) for b in net.biases])
                      for net in (enc.image, enc.attribute)))


class TestSignHash:
    def test_zero_maps_to_plus_one(self):
        assert sign_hash(np.zeros(4)).tolist() == [1, 1, 1, 1]

    def test_signs_and_dtype(self):
        out = sign_hash(np.array([-0.3, 0.2, -7.0, 0.0]))
        assert out.dtype == np.int8
        assert out.tolist() == [-1, 1, -1, 1]

    @pytest.mark.parametrize("values", [
        np.array([[-0.0, np.inf, -np.inf, 1e-300, -1e-300]]),
        np.zeros((0, 63)),
        np.array(-2.5),
        np.array([3, -3, 0], dtype=np.int64),
    ])
    def test_matches_int64_sign_cast(self, values):
        want = np.where(values >= 0, 1, -1).astype(np.int8)
        out = sign_hash(values)
        assert out.dtype == np.int8 and out.shape == want.shape
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("values", [
        [[np.nan, 1.0]],
        np.array([np.inf, -np.inf, np.nan]),
        np.array(np.nan),
    ])
    def test_rejects_nan(self, values):
        with pytest.raises(ValueError, match="NaN"):
            sign_hash(values)

    @pytest.mark.parametrize("shape", [
        (PIECE // 63 - 1, 63), (PIECE // 63, 63), (PIECE // 63 + 1, 63),
        (2, PIECE + 1), (PIECE + 1,),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pieces_match_one_shot(self, shape, dtype):
        """At one piece of rows, one piece +-1 rows and rows wider than a
        piece, the codes equal one whole-array selection, and a NaN in the
        last entry is rejected."""
        values = np.random.default_rng(3).normal(size=shape).astype(dtype)
        values.reshape(-1)[::97] = 0.0
        want = np.where(values >= 0, np.int8(1), np.int8(-1))
        out = sign_hash(values)
        assert out.dtype == np.int8 and out.shape == shape
        assert out.tobytes() == want.tobytes()
        values.reshape(-1)[-1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            sign_hash(values)


class TestMatchProbability:
    def test_zero_distance_is_exactly_one(self):
        assert match_probability(0.0, 6.0) == 1.0
        assert match_probability(np.zeros(3), 2.5).tolist() == [1.0, 1.0, 1.0]

    def test_value_at_margin(self):
        assert match_probability(6.0, 6.0) == pytest.approx(
            0.5012393760883331, abs=1e-15)

    def test_frozen_values(self):
        assert match_probability(12.0, 6.0) == pytest.approx(
            0.002478752176666358, abs=1e-15)
        assert match_probability(3.0, 6.0) == pytest.approx(
            0.9549353220127303, abs=1e-15)
        assert match_probability(2.0, 2.0) == pytest.approx(
            0.5676676416183064, abs=1e-15)

    def test_strictly_decreasing_grid(self):
        d = np.linspace(0.0, 24.0, 100)
        r = match_probability(d, 6.0)
        assert (np.diff(r) < 0).all()
        assert (r > 0).all() and (r <= 1).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            match_probability(1.0, 0.0)
        with pytest.raises(ValueError):
            match_probability(-0.5, 2.0)


class TestDllLoss:
    def test_perfect_match(self):
        assert dll_loss(1.0, 1) == pytest.approx(0.0, abs=1e-11)
        assert dll_loss(0.0, 0) == pytest.approx(0.0, abs=1e-11)

    def test_extremes_are_finite(self):
        vals = dll_loss(np.array([0.0, 1.0]), np.array([1, 0]))
        assert np.isfinite(vals).all()
        assert (vals > 20).all()

    def test_matches_log_forms(self):
        r = np.array([0.3, 0.8])
        assert dll_loss(r, np.ones(2)) == pytest.approx(-np.log(r))
        assert dll_loss(r, np.zeros(2)) == pytest.approx(-np.log(1 - r))


class TestSquaredDistance:
    def test_matches_norm(self):
        """The objective's pairwise squared distances, every pair."""
        rng = np.random.default_rng(3)
        p = rng.normal(size=(5, 7))
        q = rng.normal(size=(5, 7))
        expected = np.linalg.norm(p[:, None] - q[None, :], axis=2) ** 2
        assert np.allclose(_pair_distances(p, q)[0], expected)


class TestObjective:
    def test_zero_activations_matched(self):
        p = np.zeros((1, 8))
        j, (dll, quant, balance) = objective(p, p, np.ones((1, 1)), 6.0, 1.0, 1.0)
        assert j == pytest.approx(0.0, abs=1e-11)
        assert dll == pytest.approx(0.0, abs=1e-11)
        assert quant == 0.0
        assert balance == 0.0

    def test_all_ones_parts(self):
        n, c = 3, 8
        p = np.ones((n, c))
        theta, lam = 0.7, 0.2
        j, (dll, quant, balance) = objective(p, p, np.ones((n, n)), 6.0,
                                             theta, lam)
        assert quant == pytest.approx(-2 * n * theta)
        assert balance == pytest.approx(lam * 2 * c * n * n)
        assert dll == pytest.approx(0.0, abs=1e-10)
        assert j == pytest.approx(quant + balance, abs=1e-10)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.normal(size=(4, 6))
            q = rng.normal(size=(3, 6))
            s = rng.integers(0, 2, size=(4, 3))
            j, parts = objective(p, q, s, 4.0, 0.7, 0.3)
            assert j == pytest.approx(objective_oracle(p, q, s, 4.0, 0.7, 0.3),
                                      rel=1e-12)
            assert j == pytest.approx(sum(parts), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        p = rng.normal(size=(5, 4))
        q = rng.normal(size=(5, 4))
        s = rng.integers(0, 2, size=(5, 5))
        perm = rng.permutation(5)
        j, _ = objective(p, q, s, 4.0, 0.5, 0.5)
        j_perm, _ = objective(p[perm], q[perm], s[np.ix_(perm, perm)],
                              4.0, 0.5, 0.5)
        assert j_perm == pytest.approx(j, rel=1e-12)

    def test_balanced_columns_zero_balance(self):
        p = np.array([[1.0, -2.0], [-1.0, 2.0]])
        _, (_, _, balance) = objective(p, p, np.ones((2, 2)), 4.0, 1.0, 3.0)
        assert balance == 0.0

    def test_rejects_bad_similarity(self):
        p = np.zeros((2, 3))
        with pytest.raises(ValueError):
            objective(p, p, np.zeros((3, 2)), 4.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            objective(p, p, np.full((2, 2), 0.5), 4.0, 1.0, 1.0)


class TestObjectiveGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p = rng.normal(size=(3, 5))
        q = rng.normal(size=(4, 5))
        s = rng.integers(0, 2, size=(3, 4))
        args = (4.0, 0.7, 0.3)
        dp, dq, j, _ = objective_grads(p, q, s, *args)
        assert j == objective(p, q, s, *args)[0]
        fd_p = finite_difference(lambda: objective(p, q, s, *args)[0], p)
        fd_q = finite_difference(lambda: objective(p, q, s, *args)[0], q)
        assert relative_error(dp, fd_p) < 1e-7
        assert relative_error(dq, fd_q) < 1e-7

    def test_clamped_pairs_contribute_nothing(self):
        # distance so large the probability hits its floor: only the
        # norm and balance terms should remain in the gradient
        p = np.full((1, 4), 50.0)
        q = np.full((1, 4), -50.0)
        s = np.ones((1, 1))
        theta, lam = 0.4, 0.6
        dp, dq, _, _ = objective_grads(p, q, s, 6.0, theta, lam)
        expected_p = -(theta / 4) * 2 * p + lam * 2 * p.sum(axis=0)
        expected_q = -(theta / 4) * 2 * q + lam * 2 * q.sum(axis=0)
        assert np.allclose(dp, expected_p)
        assert np.allclose(dq, expected_q)

    def test_identical_points_zero_distance_gradient(self):
        # both clamps (distance floor at 0, probability ceiling) active
        p = np.ones((1, 3)) * 0.5
        dp, dq, _, _ = objective_grads(p, p.copy(), np.ones((1, 1)),
                                       4.0, 0.0, 0.0)
        assert np.allclose(dp, 0.0)
        assert np.allclose(dq, 0.0)

    @pytest.mark.parametrize("which", ["p", "q", "s"])
    def test_memory_layout_does_not_change_the_bits(self, which):
        """An F-ordered copy of one input gives the bits of the C-ordered
        call, in J, its parts and both gradients, at the shapes of a round
        record on 400 distinct attribute vectors."""
        rng = np.random.default_rng(2)
        batch = {"p": np.tanh(rng.normal(size=(400, 63))),
                 "q": np.tanh(rng.normal(size=(400, 63))),
                 "s": rng.integers(0, 2, size=(400, 400)).astype(np.uint8)}
        counts = rng.integers(1, 12, size=400)
        args = (24.0, 1.0, 1.0)
        want = objective_grads(*batch.values(), *args, counts=counts)
        batch[which] = np.asfortranarray(batch[which])
        assert not batch[which].flags.c_contiguous
        got = objective_grads(*batch.values(), *args, counts=counts)
        for x, y in zip(got[:2], want[:2]):
            assert x.tobytes() == y.tobytes()
        assert repr(got[2:]) == repr(want[2:])
        assert repr(objective(*batch.values(), *args, counts=counts)) == repr(
            want[2:])


def expanded(q, s, counts, order):
    """q and the columns of s with row j repeated counts[j] times, the
    copies placed in `order`, and each expanded row's source row."""
    source = np.repeat(np.arange(len(counts)), counts)[order]
    return q[source], s[:, source], source


class TestObjectiveCounts:
    """counts=w stands row j of q for w[j] identical rows."""

    def _batch(self, seed, n_p=9, counts=(1, 3, 2, 1, 4), c=12):
        rng = np.random.default_rng(seed)
        # tanh-range activations keep most pairs off the probability clamps
        p = np.tanh(rng.normal(size=(n_p, c)))
        q = np.tanh(rng.normal(size=(len(counts), c)))
        s = rng.integers(0, 2, size=(n_p, len(counts)))
        return p, q, s, np.array(counts)

    def test_counts_of_ones_are_bit_identical_to_none(self):
        p, q, s, _ = self._batch(31, counts=(1,) * 6)
        args = (4.0, 0.7, 0.3)
        ones = np.ones(len(q), dtype=np.int64)
        assert repr(objective(p, q, s, *args, counts=ones)) == repr(
            objective(p, q, s, *args))
        got = objective_grads(p, q, s, *args, counts=ones)
        want = objective_grads(p, q, s, *args)
        for x, y in zip(got[:2], want[:2]):
            assert x.tobytes() == y.tobytes()
        assert repr(got[2:]) == repr(want[2:])

    @pytest.mark.parametrize("seed", [32, 33, 34])
    def test_repeats_match_the_expanded_call(self, seed):
        """J, its parts and dP equal those of the expanded q within 1e-12
        relative, and dQ[j] the sum of its copies' rows of the expanded
        dQ, with the copies scattered through the expanded batch."""
        p, q, s, counts = self._batch(seed)
        args = (4.0, 0.7, 0.3)
        order = np.random.default_rng(seed).permutation(counts.sum())
        q_full, s_full, source = expanded(q, s, counts, order)
        dp, dq, j, parts = objective_grads(p, q, s, *args, counts=counts)
        dp_full, dq_full, j_full, parts_full = objective_grads(
            p, q_full, s_full, *args)
        assert j == pytest.approx(j_full, rel=1e-12)
        assert parts == pytest.approx(parts_full, rel=1e-12)
        assert objective(p, q, s, *args, counts=counts) == (j, parts)
        assert relative_error(dp, dp_full) < 1e-12
        group_sum = np.zeros_like(dq)
        np.add.at(group_sum, source, dq_full)
        assert relative_error(dq, group_sum) < 1e-12

    @pytest.mark.parametrize("counts", [
        np.ones((5, 1), dtype=np.int64),    # not 1-D
        np.ones(4, dtype=np.int64),         # one short
        np.ones(6, dtype=np.int64),         # one over
        np.array([1, 2, 0, 1, 1]),          # zero
        np.array([1, 2, -1, 1, 1]),         # negative
        np.ones(5),                         # float
        np.ones(5, dtype=bool),             # bool
        np.int64(1),                        # 0-d
    ], ids=["2d", "short", "long", "zero", "negative", "float", "bool",
            "scalar"])
    def test_bad_counts_rejected(self, counts):
        p, q, s, _ = self._batch(35)
        for fun in (objective, objective_grads):
            with pytest.raises(ValueError, match="counts must be a 1-D array "
                                                 "of 5 positive integers"):
                fun(p, q, s, 4.0, 0.7, 0.3, counts=counts)


class TestFullChainGradients:
    def _setup(self, seed=5):
        """float64 networks of Encoders.build's draws: a central difference
        with h = 1e-6 needs float64's digits."""
        rng = np.random.default_rng(seed)
        enc = float64_copy(Encoders.build(d_img=5, d_attr=4, code_length=8,
                                          hidden=(6,), init_std=0.5, seed=rng))
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(3, 4))
        s = rng.integers(0, 2, size=(4, 3))
        return enc, x, y, s

    def test_every_parameter_matches_finite_differences(self):
        enc, x, y, s = self._setup()
        args = (4.0, 0.7, 0.3)
        img_grads, attr_grads, _, _ = gradients(enc, x, y, s, *args)

        def value():
            p = enc.encode_images(x)
            q = enc.encode_attributes(y)
            return objective(p, q, s, *args)[0]

        for analytic, param in zip(
                img_grads + attr_grads,
                enc.image.parameters() + enc.attribute.parameters()):
            fd = finite_difference(value, param)
            assert relative_error(analytic, fd) < 1e-5

    def test_gradient_step_decreases_objective(self):
        enc, x, y, s = self._setup(seed=9)
        args = (4.0, 0.7, 0.3)
        img_grads, attr_grads, j0, _ = gradients(enc, x, y, s, *args)
        params = enc.image.parameters() + enc.attribute.parameters()
        grads = img_grads + attr_grads
        step = 0.1
        for _ in range(20):
            for p, g in zip(params, grads):
                p -= step * g
            j1, _ = objective(enc.encode_images(x), enc.encode_attributes(y),
                              s, *args)
            if j1 < j0:
                break
            for p, g in zip(params, grads):
                p += step * g
            step /= 2
        assert j1 < j0


class TestEncoders:
    def test_build_shapes_and_init(self):
        enc = Encoders.build(d_img=20, d_attr=12, code_length=16,
                             hidden=(64, 64), seed=7)
        assert [w.shape for w in enc.image.weights] == [
            (20, 64), (64, 64), (64, 16)]
        assert [w.shape for w in enc.attribute.weights] == [
            (12, 64), (64, 64), (64, 16)]
        assert all((b == 0).all() for b in enc.image.biases)
        assert all((b == 0).all() for b in enc.attribute.biases)
        big = np.concatenate([w.ravel() for w in enc.image.weights])
        assert abs(big.std() - 0.01) < 0.002
        assert abs(big.mean()) < 0.002

    def test_same_seed_same_weights(self):
        a = Encoders.build(6, 5, 8, hidden=(10,), seed=3)
        b = Encoders.build(6, 5, 8, hidden=(10,), seed=3)
        for wa, wb in zip(a.image.parameters(), b.image.parameters()):
            assert np.array_equal(wa, wb)

    def test_single_and_batch_forward_agree(self):
        enc = Encoders.build(6, 5, 8, hidden=(10,), init_std=0.3, seed=4)
        x = np.random.default_rng(0).normal(size=(3, 6))
        batch = enc.encode_images(x)
        assert batch.shape == (3, 8)
        single = enc.encode_images(x[1])
        assert single.shape == (8,)
        assert np.allclose(single, batch[1], rtol=1e-12, atol=1e-15)
        assert (np.abs(batch) < 1).all()

    def test_output_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Encoders(Mlp([np.zeros((4, 6))], [np.zeros(6)]),
                     Mlp([np.zeros((4, 7))], [np.zeros(7)]))

    def test_input_width_checked(self):
        enc = Encoders.build(6, 5, 8, seed=0)
        with pytest.raises(ValueError):
            enc.encode_images(np.zeros((2, 7)))

    @pytest.mark.parametrize("branch", ["image", "attribute"])
    @pytest.mark.parametrize("lead", [None, (2, 3), (FORWARD_ROWS + 1, 1)])
    def test_rejects_inputs_not_1d_or_2d(self, branch, lead):
        enc = Encoders.build(6, 5, 8, seed=0)
        net = getattr(enc, branch)
        x = np.zeros(() if lead is None else (*lead, net.d_in))
        encode = (enc.encode_images if branch == "image"
                  else enc.encode_attributes)
        for fn in (encode, net.forward_cache):
            with pytest.raises(ValueError, match=re.escape(f"shape {x.shape}")):
                fn(x)


def reference_layer(net, i, a):
    """Layer i of the out-of-place loop: `a @ w + b`, then a fresh
    activation."""
    z = a @ net.weights[i] + net.biases[i]
    return np.tanh(z) if i == len(net.weights) - 1 else np.maximum(z, 0.0)


def reference_forward(net, x):
    """The out-of-place layer loop that Mlp.forward_cache ran before it
    worked in place, in the weights' dtype: (output, acts)."""
    a = np.asarray(x, dtype=net.weights[0].dtype)
    single = a.ndim == 1
    acts = [a[None, :] if single else a]
    for i in range(len(net.weights)):
        acts.append(reference_layer(net, i, acts[-1]))
    return (acts[-1][0] if single else acts[-1]), acts


def reference_output(net, x):
    """The out-of-place loop's output for a 2-D batch, holding one
    activation at a time: each layer's bias and activation are applied in
    place, which gives the bits of the out-of-place ufuncs.  It runs in the
    weights' dtype."""
    a = np.asarray(x, dtype=net.weights[0].dtype)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w
        a += b
        if i == len(net.weights) - 1:
            np.tanh(a, out=a)
        else:
            np.maximum(a, 0.0, out=a)
    return a


class TestInPlaceForward:
    """The in-place forward gives the out-of-place loop's bits, at the
    pipeline's sizes (512-512 hidden, c = 63) with nonzero biases, on the
    float32 networks Encoders.build makes and on a float64-built one."""

    @pytest.fixture(scope="class")
    def encoders(self):
        enc = Encoders.build(d_img=128, d_attr=40, code_length=63, seed=5)
        rng = np.random.default_rng(6)
        for net in (enc.image, enc.attribute):
            for w in net.weights:
                w *= 10.0
            for b in net.biases:
                b += rng.normal(0.0, 0.1, size=b.shape)
        return enc

    @pytest.mark.parametrize("branch", ["image", "attribute"])
    @pytest.mark.parametrize("rows", [None, 0, 128, 10_000, FORWARD_ROWS + 1,
                                      2 * FORWARD_ROWS + 1])
    def test_bits_match_out_of_place_loop(self, encoders, branch, rows):
        net = getattr(encoders, branch)
        assert net.dtype == np.float32
        self.check_bits_match(net, branch, rows)

    @pytest.mark.parametrize("branch", ["image", "attribute"])
    def test_float64_built_bits_match_out_of_place_loop(self, encoders,
                                                        branch):
        net = getattr(float64_copy(encoders), branch)
        assert net.dtype == np.float64
        self.check_bits_match(net, branch, 2 * FORWARD_ROWS + 1)

    @staticmethod
    def check_bits_match(net, branch, rows):
        shape = (net.d_in,) if rows is None else (rows, net.d_in)
        rng = np.random.default_rng(rows or 1)
        x = (rng.normal(size=shape) if branch == "image"
             else rng.integers(0, 2, size=shape).astype(np.uint8))
        # one full-size cache at a time: the reference's is dropped once its
        # gradients are taken, and each cached layer is compared with the
        # reference layer applied to the previous cached activation, which
        # by induction from the input is the reference's own layer
        want, want_acts = reference_forward(net, x)
        want_grads = net.backward(want_acts, want)
        want_layers = len(want_acts)
        del want_acts
        out, acts = net.forward_cache(x)
        assert out.shape == want.shape
        assert np.array_equal(out, want)
        assert len(acts) == want_layers
        assert np.array_equal(acts[0], np.atleast_2d(np.asarray(
            x, dtype=net.weights[0].dtype)))
        for i in range(1, len(acts)):
            assert np.array_equal(acts[i], reference_layer(net, i - 1, acts[i - 1]))
        for g, h in zip(net.backward(acts, out), want_grads):
            assert np.array_equal(g, h)
        del acts
        assert np.array_equal(net.forward(x), want)

    @pytest.mark.parametrize("branch", ["image", "attribute"])
    def test_forward_bits_match_out_of_place_loop_at_1e5_rows(self, encoders,
                                                              branch):
        """At 10^5 rows the forward-only path is checked against the whole
        batch's out-of-place output; caches are compared up to 10^4 rows
        above, as two 10^5-row caches take about 1.9 GB."""
        net = getattr(encoders, branch)
        rng = np.random.default_rng(100_000)
        shape = (100_000, net.d_in)
        x = (rng.normal(size=shape) if branch == "image"
             else rng.integers(0, 2, size=shape).astype(np.uint8))
        assert np.array_equal(net.forward(x), reference_output(net, x))

    @pytest.mark.parametrize("rows", [FORWARD_ROWS, FORWARD_ROWS + 1,
                                      2 * FORWARD_ROWS, 2 * FORWARD_ROWS + 1,
                                      4 * FORWARD_ROWS + 1, 10_000])
    def test_forward_runs_consecutive_pieces(self, encoders, rows,
                                             monkeypatch):
        net = encoders.attribute
        x = np.random.default_rng(rows).integers(0, 2, size=(rows, net.d_in))
        pieces = []

        def spy(piece):
            pieces.append(piece)
            return Mlp.forward_cache(net, piece)

        monkeypatch.setattr(net, "forward_cache", spy)
        out = net.forward(x)
        assert len(pieces) == -(-rows // FORWARD_ROWS)
        assert np.array_equal(np.concatenate(pieces), x)
        sizes = [len(p) for p in pieces]
        assert all(FORWARD_ROWS // 2 <= n <= FORWARD_ROWS for n in sizes)
        assert np.array_equal(out, reference_forward(net, x)[0])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        enc = Encoders.build(d_img=9, d_attr=6, code_length=8,
                             hidden=(11, 7), init_std=0.2, seed=13)
        path = tmp_path / "enc.bin"
        save_encoders(enc, path)
        back = load_encoders(path)
        assert back.code_length == 8
        assert back.image.layer_sizes == (9, 11, 7, 8)
        assert back.attribute.layer_sizes == (6, 11, 7, 8)
        for a, b in zip(
                enc.image.parameters() + enc.attribute.parameters(),
                back.image.parameters() + back.attribute.parameters()):
            assert np.array_equal(a, b)

    def test_loaded_branch_is_views_of_one_writable_array(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoders(Encoders.build(7, 3, 5, hidden=(4,), seed=1), path)
        back = load_encoders(path)
        for net in (back.image, back.attribute):
            params = net.parameters()
            base = params[0].base
            assert base is not None and base.size == sum(p.size for p in params)
            for p in params:
                assert p.base is base
                assert (p.flags.writeable and p.flags.aligned
                        and p.flags.c_contiguous)
        assert back.image.weights[0].base is not back.attribute.weights[0].base

    def test_no_hidden_layers_round_trip(self, tmp_path):
        enc = Encoders.build(5, 4, 6, hidden=(), init_std=0.3, seed=2)
        path = tmp_path / "flat.bin"
        save_encoders(enc, path)
        back = load_encoders(path)
        x = np.random.default_rng(1).normal(size=(2, 5))
        assert np.array_equal(enc.encode_images(x), back.encode_images(x))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an encoder file at all")
        with pytest.raises(ValueError):
            load_encoders(path)

    @pytest.mark.parametrize("size", [10, 20])
    def test_truncated_header_rejected(self, tmp_path, size):
        """Cut inside the fixed header (10) or the hidden-size list (20)."""
        path = tmp_path / "enc.bin"
        save_encoders(Encoders.build(5, 4, 8, hidden=(6,)), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_encoders(path)

    @pytest.mark.parametrize("cut", [-8, -4, 8])
    def test_weight_bytes_must_match_layer_sizes(self, tmp_path, cut):
        """Missing (cut < 0; -4 is one float32 short) or trailing (cut > 0)
        weight bytes."""
        path = tmp_path / "enc.bin"
        save_encoders(Encoders.build(5, 4, 8, hidden=(6,)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_encoders(path)

    def test_version_2_layout(self, tmp_path):
        """Magic, version 2, the dims and hidden sizes, then every weight
        as little-endian float32, read back as float32 bit for bit."""
        enc = Encoders.build(5, 4, 8, hidden=(6, 3), init_std=0.3, seed=4)
        path = tmp_path / "enc.bin"
        save_encoders(enc, path)
        params = enc.image.parameters() + enc.attribute.parameters()
        header = (b"ENCW" + struct.pack("<BIII", 2, 5, 4, 8)
                  + 2 * struct.pack("<BII", 2, 6, 3))
        payload = b"".join(p.astype("<f4").tobytes() for p in params)
        assert path.read_bytes() == header + payload
        back = load_encoders(path)
        for a, b in zip(params,
                        back.image.parameters() + back.attribute.parameters()):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    def test_version_1_file_rejected(self, tmp_path):
        """A version-1 file (float64 weights) is refused by its version,
        not read as float32."""
        enc = Encoders.build(5, 4, 8, hidden=(6,), seed=1)
        path = tmp_path / "v1.bin"
        params = enc.image.parameters() + enc.attribute.parameters()
        path.write_bytes(b"ENCW" + struct.pack("<BIII", 1, 5, 4, 8)
                         + 2 * struct.pack("<BI", 1, 6)
                         + b"".join(p.astype("<f8").tobytes() for p in params))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unsupported version 1, expected 2")):
            load_encoders(path)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("branch", ["image", "attribute"])
    def test_non_finite_weight_rejected(self, tmp_path, branch, value):
        """A weight that is not finite, in either branch's array, is
        refused with the file's name when the file is read, not later in
        sign_hash."""
        path = tmp_path / "enc.bin"
        save_encoders(Encoders.build(5, 4, 8, hidden=(6,), seed=1), path)
        raw = bytearray(path.read_bytes())
        # after the 27-byte header: the image branch's first weight, or the
        # attribute branch's last bias
        at = 27 if branch == "image" else len(raw) - 4
        raw[at:at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: encoder weights must be finite")):
            load_encoders(path)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("branch", ["image", "attribute"])
    def test_save_refuses_non_finite_weights(self, tmp_path, branch, value):
        """A non-finite weight, which load_encoders would refuse, is
        refused before the file is opened."""
        enc = Encoders.build(5, 4, 8, hidden=(6,), seed=1)
        getattr(enc, branch).weights[-1][0, 0] = value
        path = tmp_path / "enc.bin"
        with pytest.raises(ValueError, match=f"encoder weights must be "
                                             f"finite; the {branch} branch"):
            save_encoders(enc, path)
        assert not path.exists()

    @pytest.mark.parametrize("branch", ["image", "attribute"])
    def test_save_refuses_float64_weights(self, tmp_path, branch):
        enc = Encoders.build(5, 4, 8, hidden=(6,), seed=1)
        wide = float64_copy(enc)
        mixed = Encoders(*(getattr(wide if name == branch else enc, name)
                           for name in ("image", "attribute")))
        path = tmp_path / "enc.bin"
        with pytest.raises(ValueError, match=f"float32 weights; the {branch} "
                                             "branch has float64"):
            save_encoders(mixed, path)
        assert not path.exists()
