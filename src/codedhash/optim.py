"""A minimal Adam optimizer for lists of numpy parameter arrays."""

from __future__ import annotations

import numpy as np

from ._checks import PIECE, row_blocks

BETA1 = 0.9     # first-moment decay
BETA2 = 0.999   # second-moment decay
EPS = 1e-8      # stability constant


class Adam:
    """Adam with bias correction; parameters are updated in place.

    The step size defaults to 1e-3; the decays and the stability constant
    are the module constants BETA1, BETA2 and EPS.  The parameters share
    one dtype, which the moments, the scratch vectors and every gradient
    have too.
    """

    def __init__(self, params, lr: float = 1e-3):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        # v is built from m, so params is iterated once and may be a generator
        self.v = [np.zeros_like(m) for m in self.m]
        dtypes = sorted({m.dtype.name for m in self.m})
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got "
                             f"{', '.join(dtypes)}")
        size = min(PIECE, max((m.size for m in self.m), default=0))
        dtype = self.m[0].dtype if self.m else None  # no parameters: any
        self._a, self._b = np.empty(size, dtype), np.empty(size, dtype)

    def step(self, params, grads) -> None:
        """One update of every parameter from its gradient.

        Evaluates ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)`` one
        operation at a time in that order, so the result is bit-identical
        to the one-line form.  Each parameter is updated in consecutive
        views of at most _checks.PIECE entries, the pieces of the shared
        walker, through the optimizer's two scratch vectors, so a step
        allocates no array.  A parameter or gradient whose dtype is not
        the moments' is rejected, as numpy would cast it through hidden
        buffers.
        """
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError(f"expected {len(self.m)} parameters and "
                             f"gradients, got {len(params)} and {len(grads)}")
        grads = [np.asarray(g) for g in grads]
        for i, (p, g, m) in enumerate(zip(params, grads, self.m)):
            if np.shape(p) != m.shape or g.shape != m.shape:
                raise ValueError(f"entry {i}: expected shape {m.shape}, got "
                                 f"parameter {np.shape(p)} and gradient "
                                 f"{g.shape}")
            if np.result_type(p) != m.dtype or g.dtype != m.dtype:
                raise ValueError(f"entry {i}: expected dtype {m.dtype}, got "
                                 f"parameter {np.result_type(p)} and "
                                 f"gradient {g.dtype}")
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for p_all, g_all, m_all, v_all in zip(params, grads, self.m, self.v):
            for idx in row_blocks(m_all.shape, PIECE):
                p, g, m, v = p_all[idx], g_all[idx], m_all[idx], v_all[idx]
                a = self._a[:m.size].reshape(m.shape)
                b = self._b[:m.size].reshape(m.shape)
                m *= BETA1
                m += np.multiply(1.0 - BETA1, g, out=a)
                v *= BETA2
                np.multiply(1.0 - BETA2, g, out=b)
                b *= g
                v += b
                np.divide(m, b1c, out=a)
                a *= self.lr
                np.divide(v, b2c, out=b)
                np.sqrt(b, out=b)
                b += EPS
                a /= b
                p -= a
