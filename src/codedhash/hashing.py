"""Coupled image/attribute hash encoders and their training objective.

Both branches are small MLPs (ReLU hidden layers, tanh output) mapping
their modality into a common c-dimensional real space; binary codes are the
elementwise sign of the activations, with sign(0) = +1.  A network computes
in its weights' dtype: float32 as Encoders.build and load_encoders make
them, while the objective and its gradients are always float64.

Pairs are scored by a margin-based logistic probability of matching given
their squared Euclidean distance,

    r(D) = (1 + exp(-margin)) / (1 + exp(D - margin)),

which is 1 exactly at D = 0 and decays toward 0 past the margin.  The
training objective sums the resulting cross-entropy over all image/attribute
pairs of a batch, rewards activations of large norm (pushing them toward
+-1), and penalizes bitwise imbalance across the batch:

    J = sum_ij w_j loss(r(D_ij), S_ij)
        - (theta / c) * (sum_i |P_i|^2 + sum_j w_j |Q_j|^2)
        + lambda * sum_b [(sum_i P_ib)^2 + (sum_j w_j Q_jb)^2]

where w_j, the count of attribute row j, is the number of identical rows
that Q_j stands for (1 when no counts are given).  So J and dJ/dP equal
those of the batch with every Q_j repeated w_j times, and dJ/dQ_j is the
sum of its copies' gradients.

Since squared Euclidean distance between +-1 codes is 4x their Hamming
distance, a margin expressed in Hamming units must be scaled by
HAMMING_MARGIN_SCALE before entering r(D).

All gradients here are exact reverse-mode derivatives of the expressions
above (clamps included).  Central finite differences check them on
networks built in float64 from Encoders.build's draws, as float32 has too
few digits for a difference quotient.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ._checks import all_either, all_finite, row_blocks

PROB_CLAMP = 1e-12
HAMMING_MARGIN_SCALE = 4.0

_MAGIC = b"ENCW"
_VERSION = 2
_WEIGHT = np.dtype("<f4")  # the weight dtype on disk

# Mlp.forward runs inputs of more rows than this in near-equal pieces of
# FORWARD_ROWS / 2 to FORWARD_ROWS rows.  A piece of 512 rows or more gives
# the unblocked product's bits on the 2-core OpenBLAS 0.3.31 host it was
# measured on, in float64 and in float32, at 1 to 10^5 rows on both
# branches (128 or 256 float64 rows did not).  It equals textio.CHUNK_ROWS,
# so each run of lines `codedhash encode` reads is encoded as one piece.
FORWARD_ROWS = 1024


# ---------------------------------------------------------------------------
# MLP branches
# ---------------------------------------------------------------------------

class Mlp:
    """Dense ReLU network with a tanh output layer and manual backprop.

    Built from its (d_in, d_out) weight matrices and d_out bias vectors in
    layer order; it keeps the arrays it is given and trains them in place.
    """

    def __init__(self, weights, biases):
        if not weights or len(weights) != len(biases):
            raise ValueError("need at least one layer and one bias per "
                             "weight matrix")
        self.layer_sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
        self.weights = list(weights)
        self.biases = list(biases)

    @property
    def d_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def d_out(self) -> int:
        return self.layer_sizes[-1]

    @property
    def dtype(self) -> np.dtype:
        """The dtype the network computes in: its weights'."""
        return self.weights[0].dtype

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x) -> np.ndarray:
        """Output activations without a cache.

        A 2-D input of more than FORWARD_ROWS rows runs in
        ceil(n / FORWARD_ROWS) consecutive near-equal pieces, each written
        into one preallocated (n, d_out) output, so encoding n rows holds
        one piece's activations plus the output, not every row's.  The
        output has the network's dtype.
        """
        a = np.asarray(x)
        if a.ndim != 2 or a.shape[0] <= FORWARD_ROWS:
            return self.forward_cache(a)[0]
        out = np.empty((a.shape[0], self.d_out), dtype=self.dtype)
        pieces = -(-a.shape[0] // FORWARD_ROWS)
        for dst, src in zip(np.array_split(out, pieces),
                            np.array_split(a, pieces)):
            dst[...] = self.forward_cache(src)[0]
        return out

    def forward_cache(self, x):
        """(output, activations of every layer, the input first), all in
        the network's dtype."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim not in (1, 2):
            raise ValueError(f"expected a 1-D or 2-D input, got shape {a.shape}")
        single = a.ndim == 1
        if single:
            a = a[None, :]
        if a.shape[1] != self.d_in:
            raise ValueError(f"expected inputs of width {self.d_in}, "
                             f"got {a.shape[1]}")
        acts = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # bias and activation in place, so each layer allocates one
            # (n, d_out) array: the activation the cache keeps
            z = acts[-1] @ w
            z += b
            if i == last:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        out = acts[-1][0] if single else acts[-1]
        return out, acts

    def backward(self, acts, dout):
        """Parameter gradients, parallel to parameters(), for a cached
        forward.  The input gradient is not formed: inputs are data.  The
        output gradient is cast once to the network's dtype."""
        grads = [None] * (2 * len(self.weights))
        da = np.atleast_2d(np.asarray(dout, dtype=self.dtype))
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a = acts[i + 1]
            if i == last:
                dz = da * (1.0 - a * a)
            else:
                # da is this call's own dz @ W.T product, so it is masked in
                # place rather than beside a new array
                da *= a > 0.0
                dz = da
            grads[2 * i] = acts[i].T @ dz
            grads[2 * i + 1] = dz.sum(axis=0)
            if i > 0:
                da = dz @ self.weights[i].T
        return grads


class Encoders:
    """The coupled pair of modality branches sharing a code length."""

    def __init__(self, image: Mlp, attribute: Mlp):
        if image.d_out != attribute.d_out:
            raise ValueError("branches must share the output code length")
        self.image = image
        self.attribute = attribute

    @classmethod
    def build(cls, d_img: int, d_attr: int, code_length: int,
              hidden=(512, 512), init_std: float = 0.01, seed=0) -> "Encoders":
        rng = np.random.default_rng(seed)  # a Generator is used as is
        branches = []
        for d_in in (d_img, d_attr):  # weights drawn layer by layer, image first
            dims = (d_in, *hidden, code_length)
            # float64 draws, kept in float32
            branches.append(Mlp([rng.normal(0.0, init_std, size=(a, b))
                                 .astype(np.float32)
                                 for a, b in zip(dims, dims[1:])],
                                [np.zeros(b, dtype=np.float32)
                                 for b in dims[1:]]))
        return cls(*branches)

    @property
    def code_length(self) -> int:
        return self.image.d_out

    def encode_images(self, x) -> np.ndarray:
        return self.image.forward(x)

    def encode_attributes(self, y) -> np.ndarray:
        return self.attribute.forward(y)


def sign_hash(activations) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, as int8 codes; NaN has no sign
    and is rejected, while +-inf keep theirs.  Each piece is checked, then
    its comparison with 0 is written into the preallocated output and
    mapped to +-1 there, so the only temporary is one piece's NaN mask."""
    a = np.asarray(activations)
    codes = np.empty(a.shape, dtype=np.int8)
    for idx in row_blocks(a.shape):
        piece, out = a[idx], codes[idx]
        if np.isnan(piece).any():
            raise ValueError("cannot sign-hash NaN activations")
        np.greater_equal(piece, 0, out=out.view(np.bool_))
        out *= 2
        out -= 1
    return codes


# ---------------------------------------------------------------------------
# Pairwise objective
# ---------------------------------------------------------------------------

def match_probability(d_sq, margin: float):
    """Probability that a pair at squared distance d_sq is a match."""
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    d = np.asarray(d_sq, dtype=np.float64)
    if (d < 0).any():
        raise ValueError("squared distances cannot be negative")
    # cap the exponent: beyond it the probability underflows the clamp
    # floor anyway, and uncapped values would overflow float64
    z = np.minimum(d - margin, 700.0)
    return (1.0 + np.exp(-margin)) / (1.0 + np.exp(z))


def dll_loss(prob, similar):
    """Cross-entropy of the match probability against the 0/1 label."""
    r = np.clip(np.asarray(prob, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    s = np.asarray(similar, dtype=np.float64)
    return -s * np.log(r) - (1.0 - s) * np.log(1.0 - r)


def _pair_distances(p, q):
    p2 = np.sum(p * p, axis=1)
    q2 = np.sum(q * q, axis=1)
    d = p2[:, None] + q2[None, :] - 2.0 * (p @ q.T)
    return np.maximum(d, 0.0), d > 0.0


def _check_batch(p, q, s, counts):
    # C order fixes the order in which the reductions add, so the value
    # does not depend on the inputs' memory layout
    p = np.asarray(p, dtype=np.float64, order="C")
    q = np.asarray(q, dtype=np.float64, order="C")
    s = np.asarray(s, dtype=np.float64, order="C")
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ValueError("activation matrices must be (n, c) with equal c")
    if s.shape != (p.shape[0], q.shape[0]):
        raise ValueError(f"similarity must be {(p.shape[0], q.shape[0])}, "
                         f"got {s.shape}")
    if not all_either(s, 0, 1):
        raise ValueError("similarity entries must be 0 or 1")
    if counts is None:
        return p, q, s, np.ones(q.shape[0])
    w = np.asarray(counts)
    if w.shape != (q.shape[0],) or w.dtype.kind not in "iu" or (w < 1).any():
        raise ValueError(f"counts must be a 1-D array of {q.shape[0]} "
                         f"positive integers, one per row of q")
    return p, q, s, w.astype(np.float64)


def _evaluate(p, q, s, margin, theta, lam, counts):
    """Checked inputs with the float64 counts, distance mask, match
    probabilities and the value of J with its parts, shared by the
    objective and its gradient.  Each count multiplies its row's terms
    ahead of the reductions, so counts of ones give the bits of none."""
    p, q, s, w = _check_batch(p, q, s, counts)
    c = p.shape[1]
    d, d_mask = _pair_distances(p, q)
    r = match_probability(d, margin)
    dll = float(np.sum(dll_loss(r, s) * w))
    quant = -(theta / c) * float(np.sum(p * p) + np.sum(q * q * w[:, None]))
    balance = lam * float(np.sum(p.sum(axis=0) ** 2)
                          + np.sum((q * w[:, None]).sum(axis=0) ** 2))
    return p, q, s, w, d_mask, r, dll + quant + balance, (dll, quant, balance)


def objective(p, q, s, margin: float, theta: float, lam: float, *,
              counts=None):
    """Value of J and its three parts (pair loss, norm reward, balance).

    `counts`, when given, holds for each row of q the number of identical
    rows it stands for; the value is that of the expanded q.  The
    norm-reward part carries its negative sign, so the parts always sum to
    J.
    """
    return _evaluate(p, q, s, margin, theta, lam, counts)[-2:]


def objective_grads(p, q, s, margin: float, theta: float, lam: float, *,
                    counts=None):
    """Exact gradients of J with respect to both activation matrices.

    Returns (dP, dQ, J, parts).  With `counts` (see objective), dP and J
    are those of the expanded q, and dQ[j] is the sum of the gradients of
    row j's copies.  The pair-loss term is differentiated through the same
    clamps the value uses, so clamped pairs contribute zero gradient.
    """
    p, q, s, w, d_mask, r, j, parts = _evaluate(p, q, s, margin, theta, lam,
                                                counts)
    c = p.shape[1]
    a_const = 1.0 + np.exp(-margin)

    interior = (r > PROB_CLAMP) & (r < 1.0 - PROB_CLAMP)
    ratio = r / np.maximum(1.0 - r, PROB_CLAMP)
    g = (1.0 - r / a_const) * (s - (1.0 - s) * ratio)
    g = g * interior * d_mask * w
    # g is d loss / dD, column j summed over its copies; dD_ij/dP_i =
    # 2 (P_i - Q_j)
    row = g.sum(axis=1)
    col = g.sum(axis=0)
    dp = 2.0 * (row[:, None] * p - g @ q)
    dq = 2.0 * (col[:, None] * q - g.T @ p)

    wq = w[:, None]
    dp += -(theta / c) * 2.0 * p
    dq += -(theta / c) * 2.0 * q * wq
    dp += lam * 2.0 * p.sum(axis=0)[None, :]
    dq += lam * 2.0 * (q * wq).sum(axis=0)[None, :] * wq
    return dp, dq, j, parts


def gradients(encoders: Encoders, x, y, s, margin: float, theta: float,
              lam: float):
    """Full-chain gradients of J for every weight of both branches.

    x and y are the raw modality inputs of one batch; s is their pairwise
    0/1 match matrix.  Returns (image_grads, attribute_grads, J, parts)
    where the grad lists parallel Mlp.parameters().
    """
    p, img_cache = encoders.image.forward_cache(x)
    q, attr_cache = encoders.attribute.forward_cache(y)
    dp, dq, j, parts = objective_grads(p, q, s, margin, theta, lam)
    img_grads = encoders.image.backward(img_cache, dp)
    attr_grads = encoders.attribute.backward(attr_cache, dq)
    return img_grads, attr_grads, j, parts


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def save_encoders(encoders: Encoders, path) -> None:
    """Versioned binary: dims and hidden sizes, then row-major float32
    weight matrices and bias vectors in layer order, image branch first.
    Weights of another dtype are refused, not narrowed, and non-finite
    weights are refused, both before the file is opened."""
    img, attr = encoders.image, encoders.attribute
    for modality, net in (("image", img), ("attribute", attr)):
        dtypes = {p.dtype.name for p in net.parameters()} - {"float32"}
        if dtypes:
            raise ValueError(f"encoder files store float32 weights; the "
                             f"{modality} branch has {', '.join(sorted(dtypes))}")
        if not all(all_finite(p) for p in net.parameters()):
            raise ValueError(f"encoder weights must be finite; the "
                             f"{modality} branch has a non-finite weight")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BIII", _VERSION, img.d_in, attr.d_in,
                             encoders.code_length))
        for net in (img, attr):
            hidden = net.layer_sizes[1:-1]
            fh.write(struct.pack("<B", len(hidden)))
            for h in hidden:
                fh.write(struct.pack("<I", h))
        for net in (img, attr):
            for w, b in zip(net.weights, net.biases):
                fh.write(w.astype(_WEIGHT, copy=False).tobytes())
                fh.write(b.astype(_WEIGHT, copy=False).tobytes())


def load_encoders(path) -> Encoders:
    """Inverse of save_encoders: each branch's weights are read once, into
    one float32 array its network keeps views of."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not an encoder weight file")
        size = os.fstat(fh.fileno()).st_size

        def unpack(fmt):
            raw = fh.read(struct.calcsize(fmt))
            if len(raw) != struct.calcsize(fmt):
                raise ValueError(f"{path}: truncated header ({size} bytes)")
            return struct.unpack(fmt, raw)

        version, d_img, d_attr, c = unpack("<BIII")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}, "
                             f"expected {_VERSION}")
        layers = []
        for d_in in (d_img, d_attr):
            (n_hidden,) = unpack("<B")
            layers.append((d_in, *unpack(f"<{n_hidden}I"), c))
        # checked before any array is sized by the header
        counts = [sum(a * b + b for a, b in zip(dims, dims[1:])) for dims in layers]
        need = _WEIGHT.itemsize * sum(counts)
        if (payload := size - fh.tell()) != need:
            raise ValueError(f"{path}: layer sizes need {sum(counts)} weights "
                             f"({need} bytes) but {payload} bytes follow")
        branches = []
        for dims, count in zip(layers, counts):
            # aligned and writable, as training updates the views in place;
            # one array per branch, so a caller keeping one branch frees the
            # other
            flat = np.empty(count, dtype=_WEIGHT)
            if fh.readinto(flat) != flat.nbytes:
                raise ValueError(f"{path}: truncated while reading")
            if not all_finite(flat):
                raise ValueError(f"{path}: encoder weights must be finite")
            weights, biases = [], []
            start = 0
            for a, b in zip(dims, dims[1:]):
                weights.append(flat[start:start + a * b].reshape(a, b))
                biases.append(flat[start + a * b:start + a * b + b])
                start += a * b + b
            branches.append(Mlp(weights, biases))
    return Encoders(*branches)
