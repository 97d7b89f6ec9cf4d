import tracemalloc

import numpy as np
import pytest

from codedhash._checks import PIECE
from codedhash.hashing import Encoders
from codedhash.optim import Adam


def reference_step(params, grads, m, v, t, lr=1e-3, b1=0.9, b2=0.999,
                   eps=1e-8):
    """Adam written as one expression per moment and one per update."""
    b1c = 1.0 - b1 ** t
    b2c = 1.0 - b2 ** t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * g * g
        p -= lr * (mi / b1c) / (np.sqrt(vi / b2c) + eps)


class TestOracle:
    def test_bit_equal_to_one_line_update_over_mixed_shapes(self):
        rng = np.random.default_rng(0)
        shapes = [(512, 512), (512,), (40, 512), (512, 63), (63,), (), (3, 4, 5)]
        params = [rng.normal(0.0, 0.1, size=s) for s in shapes]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(params, lr=3e-3)
        for t in range(1, 6):
            # gradient scales spanning many orders, so eps and the
            # bias corrections all matter to the last bit
            grads = [rng.normal(0.0, 10.0 ** rng.integers(-9, 3), size=s)
                     for s in shapes]
            opt.step(params, grads)
            reference_step(ref, grads, m, v, t, lr=3e-3)
        for got, want in zip(params, ref):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(opt.m + opt.v, m + v):
            assert got.tobytes() == want.tobytes()


    def test_float32_bit_equal_to_one_line_update(self):
        """The encoders' dtype: moments and scratch in float32, and the
        update in float32 arithmetic, as the one-line form computes it."""
        rng = np.random.default_rng(10)
        shapes = [(128, 512), (512,), (512, 63), (), (3, 4, 5)]
        params = [rng.normal(0.0, 0.1, size=s).astype(np.float32)
                  for s in shapes]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(params, lr=3e-3)
        assert opt._a.dtype == opt._b.dtype == np.float32
        for t in range(1, 6):
            grads = [rng.normal(0.0, 10.0 ** rng.integers(-6, 3), size=s)
                     .astype(np.float32) for s in shapes]
            opt.step(params, grads)
            reference_step(ref, grads, m, v, t, lr=3e-3)
        for got, want in zip(params + opt.m + opt.v, ref + m + v):
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_generator_of_parameters_steps_like_a_list(self):
        rng = np.random.default_rng(9)
        shapes = [(40, 512), (512,), (), (3, 4, 5)]
        listed = [rng.normal(0.0, 0.1, size=s) for s in shapes]
        start = [p.copy() for p in listed]
        streamed = [p.copy() for p in listed]
        by_list = Adam(listed, lr=3e-3)
        by_generator = Adam((p for p in streamed), lr=3e-3)
        for _ in range(3):
            grads = [rng.normal(size=s) for s in shapes]
            by_list.step(listed, grads)
            by_generator.step(streamed, grads)
        for got, want in zip(streamed + by_generator.m + by_generator.v,
                             listed + by_list.m + by_list.v):
            assert got.tobytes() == want.tobytes()
        # and the steps moved every parameter
        assert all((got != was).all() for got, was in zip(streamed, start))

    def test_non_contiguous_parameter_updated_in_place(self):
        rng = np.random.default_rng(3)
        base = np.ones((6, 8))
        param = base[:, ::2].T  # a strided view of base
        assert not param.flags.c_contiguous and not param.flags.f_contiguous
        ref = [param.copy()]
        m, v = [np.zeros_like(ref[0])], [np.zeros_like(ref[0])]
        opt = Adam([param])
        for t in range(1, 4):
            grad = rng.standard_normal(param.shape)
            opt.step([param], [grad])
            reference_step(ref, [grad], m, v, t)
        assert base[:, ::2].T.tobytes() == ref[0].tobytes()
        assert (base[:, 1::2] == 1.0).all()

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_bit_equal_across_blocks(self, layout):
        """Parameters of several blocks: runs of rows, rows longer than a
        block, and a 1-D parameter, each updated in place."""
        rng = np.random.default_rng(4)
        block = PIECE
        shapes = [(3 * block // 100 + 7, 100), (3, 2 * block + 5),
                  (2 * block + 9,)]
        if layout == "contiguous":
            bases = [np.zeros(s) for s in shapes]
            params = [b[...] for b in bases]
        else:
            # every other entry of a base's last axis, transposed to `s`
            bases = [np.zeros(s[::-1][:-1] + (2 * s[0],)) for s in shapes]
            params = [b[..., ::2].T for b in bases]
        for p, s in zip(params, shapes):
            assert p.shape == s
            assert p.flags.c_contiguous == (layout == "contiguous")
            p[...] = rng.normal(0.0, 0.1, size=s)
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(params, lr=3e-3)
        assert opt._a.size == opt._b.size == block
        for t in range(1, 4):
            grads = [rng.normal(0.0, 10.0 ** rng.integers(-9, 3), size=p.shape)
                     for p in params]
            opt.step(params, grads)
            reference_step(ref, grads, m, v, t, lr=3e-3)
        for got, want in zip(params, ref):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(opt.m + opt.v, m + v):
            assert got.tobytes() == want.tobytes()
        if layout == "strided":
            for base, p in zip(bases, params):
                assert np.shares_memory(base, p)
                assert (base[..., 1::2] == 0.0).all()

    def test_parameters_smaller_than_one_block(self):
        """The scratch vectors hold the largest parameter, not a block."""
        rng = np.random.default_rng(5)
        shapes = [(7, 3), (), (40,), (0, 5)]
        params = [rng.normal(0.0, 0.1, size=s) for s in shapes]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(params)
        assert opt._a.size == opt._b.size == 40
        for t in range(1, 4):
            grads = [rng.standard_normal(s) for s in shapes]
            opt.step(params, grads)
            reference_step(ref, grads, m, v, t)
        for got, want in zip(params, ref):
            assert got.tobytes() == want.tobytes()

    def test_zero_size_parameters(self):
        """Parameters with no entries, a first axis of 0 included, step
        without error and leave the others' update unchanged."""
        rng = np.random.default_rng(6)
        shapes = [(0, 0), (0,), (3, 0), (4, 2)]
        params = [rng.normal(0.0, 0.1, size=s) for s in shapes]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(params)
        for t in range(1, 3):
            grads = [rng.standard_normal(s) for s in shapes]
            opt.step(params, grads)
            reference_step(ref, grads, m, v, t)
        for got, want in zip(params, ref):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestMemory:
    def test_one_step_allocates_no_scratch(self):
        """A step reuses the optimizer's two scratch vectors, so it
        allocates at most 64 KiB whatever the parameter size: the float32
        image branch (largest array 1 MiB), and one 2^20-entry vector in
        float64 (8 MiB) and in float32.  Gradients have the parameters'
        dtype."""
        enc = Encoders.build(128, 40, 63, hidden=(512, 512), seed=0)
        rng = np.random.default_rng(1)
        vector = rng.standard_normal(2 ** 20)
        for params in (enc.image.parameters(), [vector],
                       [vector.astype(np.float32)]):
            grads = [rng.standard_normal(p.shape).astype(p.dtype)
                     for p in params]
            opt = Adam(params)
            opt.step(params, grads)  # first step outside the trace
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                opt.step(params, grads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before <= 64 * 2 ** 10


class TestValidation:
    def _params(self):
        return [np.ones((3, 4)), np.ones(4)]

    def test_short_gradient_list_rejected(self):
        p = self._params()
        opt = Adam(p)
        with pytest.raises(ValueError, match="2 parameters and gradients"):
            opt.step(p, [np.ones(4)])
        assert all((x == 1.0).all() for x in p)
        assert opt.t == 0

    def test_long_gradient_list_rejected(self):
        p = self._params()
        with pytest.raises(ValueError, match="got 2 and 3"):
            Adam(p).step(p, [np.ones((3, 4)), np.ones(4), np.ones(4)])

    def test_parameter_list_must_match_moments(self):
        p = self._params()
        with pytest.raises(ValueError, match="got 1 and 1"):
            Adam(p).step(p[:1], [np.ones((3, 4))])

    def test_gradient_shape_mismatch_rejected(self):
        p = self._params()
        opt = Adam(p)
        # (4,) broadcasts into (3, 4), so only a shape check catches it
        with pytest.raises(ValueError, match=r"entry 0: expected shape \(3, 4\)"):
            opt.step(p, [np.ones(4), np.ones(4)])
        assert all((x == 1.0).all() for x in p)

    def test_parameter_shape_mismatch_rejected(self):
        p = self._params()
        with pytest.raises(ValueError, match="entry 1"):
            Adam(p).step([p[0], np.ones(5)], [np.ones((3, 4)), np.ones(5)])

    def test_mixed_parameter_dtypes_rejected(self):
        with pytest.raises(ValueError, match="share one dtype, got "
                                             "float32, float64"):
            Adam([np.ones((3, 4), dtype=np.float32), np.ones(4)])

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float64),
                                        (np.float64, np.float32)])
    def test_gradient_dtype_mismatch_rejected(self, dtypes):
        """A gradient of another dtype would be cast through hidden
        buffers on every step, so it is refused before any update."""
        param_dtype, grad_dtype = dtypes
        p = [np.ones((3, 4), dtype=param_dtype), np.ones(4, dtype=param_dtype)]
        opt = Adam(p)
        grads = [np.ones((3, 4), dtype=param_dtype),
                 np.ones(4, dtype=grad_dtype)]
        with pytest.raises(ValueError, match=(
                f"entry 1: expected dtype {np.dtype(param_dtype)}, got "
                f"parameter {np.dtype(param_dtype)} and gradient "
                f"{np.dtype(grad_dtype)}")):
            opt.step(p, grads)
        assert all((x == 1.0).all() for x in p)
        assert opt.t == 0

    @pytest.mark.parametrize("lr", [0.0, -1e-3])
    def test_nonpositive_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            Adam(self._params(), lr=lr)
