"""A minimal Adam optimizer for lists of numpy parameter arrays."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9     # first-moment decay
BETA2 = 0.999   # second-moment decay
EPS = 1e-8      # stability constant


class Adam:
    """Adam with bias correction; parameters are updated in place.

    The step size defaults to 1e-3; the decays and the stability constant
    are the module constants BETA1, BETA2 and EPS.
    """

    def __init__(self, params, lr: float = 1e-3):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        """One update of every parameter from its gradient.

        Evaluates ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)`` one
        operation at a time in that order, through two scratch arrays per
        parameter, so the result is bit-identical to the one-line form.
        """
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError(f"expected {len(self.m)} parameters and "
                             f"gradients, got {len(params)} and {len(grads)}")
        for i, (p, g, m) in enumerate(zip(params, grads, self.m)):
            if np.shape(p) != m.shape or np.shape(g) != m.shape:
                raise ValueError(f"entry {i}: expected shape {m.shape}, got "
                                 f"parameter {np.shape(p)} and gradient "
                                 f"{np.shape(g)}")
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            a, b = np.empty_like(m), np.empty_like(v)
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
