"""A minimal Adam optimizer for lists of numpy parameter arrays."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias correction; parameters are updated in place.

    Defaults: step size 1e-3, first-moment decay 0.9, second-moment decay
    0.999, stability constant 1e-8.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        b1, b2 = self.beta1, self.beta2
        b1c = 1.0 - b1 ** self.t
        b2c = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            a, b = np.empty_like(m), np.empty_like(v)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            np.multiply(1.0 - b2, g, out=b)
            b *= g
            v += b
            np.divide(m, b1c, out=a)
            a *= self.lr
            np.divide(v, b2c, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
