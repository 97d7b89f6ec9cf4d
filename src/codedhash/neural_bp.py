"""An unrolled, weighted sum-product decoder with trainable edge weights.

The network mirrors L flooding iterations as 2L hidden layers of width E
(one unit per Tanner-graph edge).  Odd layers compute weighted
variable-to-check messages squashed through tanh(. / 2); even layers are
the unweighted check-side product update followed by 2 atanh.  The output
layer combines the channel LLR and the final check messages per variable
and applies a sigmoid, yielding the probability that the bit is 1 under
the positive-LLR-means-0 convention.  With every weight at 1.0 the hard
decisions coincide exactly with plain sum-product decoding.

Sibling weights form per-variable blocks: w_in[j, v, a, b] weighs edge
slot b of v (a var_pad_edge slot) into slot a, so a layer's sibling sum is
one batched matmul of the (L, n_var, dv_max, dv_max) blocks with padded
(n_var, dv_max, batch) messages.  The diagonal and padding entries are not
weights: they stay 0, the forward pass masks them out, their gradient is 0.

Weights, in the order used by the serialized format and weight_vector():
for each layer, per edge, one channel weight then one weight per incoming
sibling edge (ascending); then per variable one output channel weight and
one weight per incident edge.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bp import (TannerGraph, _validate_llr_batch, _Workspace,
                 check_products_except_self, check_products_except_self_backward,
                 segment_sum)
from .channel import awgn, bpsk_modulate, llr_from_channel, noise_sigma
from .gf2 import LinearCode
from .optim import Adam

DEFAULT_ATANH_CLAMP = 1e-7
_PRESIGMOID_LIMIT = 36.0

_MAGIC = b"NBPW"
_VERSION = 1
_HEADER = "<BIIIIQ"


class TrainingDivergedError(RuntimeError):
    pass


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class NeuralBpDecoder:
    """Trainable unrolled decoder over a fixed Tanner graph.

    iterations is the number of unrolled flooding iterations L; the network
    has 2L hidden layers of width num_edges.  All weights start at 1.0.
    """

    def __init__(self, graph: TannerGraph, iterations: int,
                 atanh_clamp: float = DEFAULT_ATANH_CLAMP):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.graph = graph
        self.iterations = iterations
        self.atanh_clamp = atanh_clamp
        vmask, vedge = graph.var_pad_mask, graph.var_pad_edge
        # (n_var, dv_max, dv_max): True where slot b of v feeds slot a
        self._sib_mask = vmask[:, :, None] & vmask[:, None, :] & \
            ~np.eye(vmask.shape[1], dtype=bool)
        # flat slot of each edge in an (n_var * dv_max, batch) view
        self._var_slot = np.flatnonzero(vmask)
        self.w_chan = np.ones((iterations, graph.num_edges))
        self.w_in = np.broadcast_to(self._sib_mask, (iterations,) + self._sib_mask.shape
                                    ).astype(np.float64)
        self.w_out_chan = np.ones(graph.n_var)
        self.w_out_edge = np.ones(graph.num_edges)
        # positions in the raveled parameters(), in serialization order; -1
        # marks a padding or diagonal slot
        base = np.cumsum([0] + [p.size for p in self.parameters()])
        chan = np.where(vmask, graph.num_edges * np.arange(iterations)[:, None, None]
                        + vedge, -1)
        sib = np.where(self._sib_mask, base[1] + np.arange(self.w_in.size).reshape(
            self.w_in.shape), -1)
        out = np.where(np.c_[np.ones(graph.n_var, dtype=bool), vmask],
                       np.c_[base[2] + np.arange(graph.n_var), base[3] + vedge], -1)
        order = np.concatenate([np.concatenate([chan[..., None], sib], axis=-1).ravel(),
                                out.ravel()])
        self._order = order[order >= 0]

    # -- parameter plumbing -------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def parameters(self):
        return [self.w_chan, self.w_in, self.w_out_chan, self.w_out_edge]

    @property
    def num_weights(self) -> int:
        """Length of weight_vector(): the diagonal and padding of w_in are
        not weights."""
        return self._order.size

    def weight_vector(self) -> np.ndarray:
        """All weights in serialization order (see module docstring)."""
        return np.concatenate([p.ravel() for p in self.parameters()])[self._order]

    def set_weight_vector(self, vec) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_weights,):
            raise ValueError(f"expected {self.num_weights} weights, got {vec.shape}")
        params = self.parameters()
        flat = np.zeros(sum(p.size for p in params))
        flat[self._order] = vec
        ends = np.cumsum([p.size for p in params])[:-1]
        for p, part in zip(params, np.split(flat, ends)):
            p[...] = part.reshape(p.shape)

    def copy(self) -> "NeuralBpDecoder":
        dup = NeuralBpDecoder(self.graph, self.iterations, self.atanh_clamp)
        dup.w_chan = self.w_chan.copy()
        dup.w_in = self.w_in.copy()
        dup.w_out_chan = self.w_out_chan.copy()
        dup.w_out_edge = self.w_out_edge.copy()
        return dup

    # -- forward ------------------------------------------------------------

    def _var_table(self, ws: _Workspace, name: str, batch: int):
        """A zeroed (n_var, dv_max, batch) workspace table and its flat
        (n_var * dv_max, batch) view, indexed by _var_slot."""
        shape = self.graph.var_pad_mask.shape + (batch,)
        table = ws.table(name, shape)
        table[...] = 0
        return table, table.reshape(shape[0] * shape[1], batch)

    def _forward_t(self, llr_t, keep_cache: bool, ws: _Workspace | None = None):
        """Core forward pass on an (n_var, batch) LLR array, in the calling
        pass's workspace `ws` (a fresh one if None)."""
        g = self.graph
        ws = _Workspace() if ws is None else ws
        batch = llr_t.shape[1]
        lo = 1.0 - self.atanh_clamp
        l_edge = llr_t[g.edge_var]
        w_in = self.w_in * self._sib_mask
        x = np.zeros((g.num_edges, batch))
        x_pad, x_flat = self._var_table(ws, "x_pad", batch)
        sib, sib_flat = self._var_table(ws, "sib", batch)
        layers = []
        for j in range(self.iterations):
            x_prev = x
            x_flat[self._var_slot] = x_prev
            np.matmul(w_in[j], x_pad, out=sib)
            pre = self.w_chan[j][:, None] * l_edge
            pre += np.take(sib_flat, self._var_slot, axis=0)
            pre *= 0.5
            x_odd = np.tanh(pre, out=pre)
            prod = check_products_except_self(x_odd, g, _workspace=ws)
            if keep_cache:  # a forward-only pass skips the mask and its temporaries
                clip_mask = np.abs(prod) < lo
            p_clip = np.clip(prod, -lo, lo, out=prod)
            x = np.arctanh(p_clip)
            x *= 2.0
            if keep_cache:
                layers.append((x_prev, x_odd, p_clip, clip_mask))
        s = self.w_out_chan[:, None] * llr_t + \
            segment_sum(self.w_out_edge[:, None] * x, g.var_offsets)
        z = np.clip(-s, -_PRESIGMOID_LIMIT, _PRESIGMOID_LIMIT)
        z_mask = np.abs(s) < _PRESIGMOID_LIMIT
        o = _sigmoid(z)
        cache = (llr_t, l_edge, w_in, layers, x, z, z_mask) if keep_cache else None
        return o, cache

    def forward(self, llr):
        """Soft outputs (bit-1 probabilities) and hard bits.

        Accepts a single length-n LLR vector or a (batch, n) array and
        returns arrays of matching shape.  Hard decision: output > 0.5 is
        bit 1, ties resolve to bit 0.
        """
        a = np.asarray(llr, dtype=np.float64)
        single = a.ndim == 1
        if single:
            a = a[None, :]
        a = _validate_llr_batch(a, self.graph.n_var)
        o, _ = self._forward_t(a.T.copy(), keep_cache=False)
        outputs = o.T
        hard = (outputs > 0.5).astype(np.uint8)
        if single:
            return outputs[0], hard[0]
        return outputs, hard

    def decode_batch(self, llrs) -> np.ndarray:
        _, hard = self.forward(np.atleast_2d(np.asarray(llrs, dtype=np.float64)))
        return hard

    # -- training -----------------------------------------------------------

    def loss_and_grads(self, llrs, targets):
        """Mean bitwise cross-entropy against target bits, with exact
        gradients for every weight.

        llrs is (batch, n) with batch >= 1; targets is (batch, n) bits.
        Returns (loss, [grad arrays matching parameters()]).
        """
        g = self.graph
        llrs = _validate_llr_batch(llrs, g.n_var)
        y = np.asarray(targets, dtype=np.float64)
        if llrs.shape != y.shape:
            raise ValueError("llrs and targets must share a (batch, n) shape")
        if llrs.shape[0] == 0:
            raise ValueError("loss_and_grads needs at least one frame")
        if not ((y == 0.0) | (y == 1.0)).all():
            raise ValueError("targets must be bits (0 or 1)")
        ws = _Workspace()
        o, cache = self._forward_t(llrs.T.copy(), keep_cache=True, ws=ws)
        llr_t, l_edge, w_in, layers, x_final, z, z_mask = cache
        y_t = y.T
        count = y_t.size
        loss = float(np.mean(np.logaddexp(0.0, z) - y_t * z))

        dz = (o - y_t) / count
        ds = -dz * z_mask
        d_out_chan = (ds * llr_t).sum(axis=1)
        ds_edge = ds[g.edge_var]
        d_out_edge = (ds_edge * x_final).sum(axis=1)
        dx = self.w_out_edge[:, None] * ds_edge

        d_chan = np.zeros_like(self.w_chan)
        d_in = np.zeros_like(self.w_in)
        batch = llr_t.shape[1]
        x_pad, x_flat = self._var_table(ws, "x_pad", batch)
        dpre_pad, dpre_flat = self._var_table(ws, "dpre_pad", batch)
        sib, sib_flat = self._var_table(ws, "sib", batch)
        for j in reversed(range(self.iterations)):
            x_prev, x_odd, p_clip, clip_mask = layers[j]
            dp = dx * (2.0 / (1.0 - p_clip * p_clip)) * clip_mask
            dx_odd = check_products_except_self_backward(x_odd, dp, g, _workspace=ws)
            dpre = dx_odd * 0.5 * (1.0 - x_odd * x_odd)
            d_chan[j] = (dpre * l_edge).sum(axis=1)
            dpre_flat[self._var_slot] = dpre
            x_flat[self._var_slot] = x_prev
            d_in[j] = np.matmul(dpre_pad, x_pad.transpose(0, 2, 1)) * self._sib_mask
            if j > 0:
                np.matmul(w_in[j].transpose(0, 2, 1), dpre_pad, out=sib)
                dx = np.take(sib_flat, self._var_slot, axis=0)
        return loss, [d_chan, d_in, d_out_chan, d_out_edge]


@dataclass
class DecoderTrainConfig:
    """Settings for training on noisy transmissions of the zero codeword."""

    snr_db_list: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    frames_per_epoch: int = 256
    epochs: int = 150
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.snr_db_list:
            raise ValueError("snr_db_list must not be empty")
        if self.frames_per_epoch < 1 or self.epochs < 0:
            raise ValueError("frames_per_epoch must be >= 1 and epochs >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def train_decoder(net: NeuralBpDecoder, code: LinearCode,
                  config: DecoderTrainConfig) -> NeuralBpDecoder:
    """Train the decoder weights on noisy zero-codeword frames.

    Each epoch draws fresh AWGN at SNRs sampled from config.snr_db_list
    (rate-adjusted), computes the bitwise cross-entropy toward the all-zero
    target, and takes one Adam step.  The graph topology and weight count
    never change; with epochs = 0 the weights stay at initialization.
    """
    if code.n != net.graph.n_var:
        raise ValueError(f"code length {code.n} does not match graph "
                         f"width {net.graph.n_var}")
    rng = np.random.default_rng(config.seed)
    adam = Adam(net.parameters(), lr=config.learning_rate)
    sigmas = np.array([noise_sigma(s, code.rate) for s in config.snr_db_list])
    targets = np.zeros((config.frames_per_epoch, code.n))
    symbols = bpsk_modulate(targets)
    for epoch in range(config.epochs):
        pick = rng.integers(0, len(sigmas), size=config.frames_per_epoch)
        sig = sigmas[pick][:, None]
        received = symbols + sig * rng.standard_normal(targets.shape)
        llrs = llr_from_channel(received, sig)
        loss, grads = net.loss_and_grads(llrs, targets)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        adam.step(net.parameters(), grads)
    return net


def evaluate_error_rates(decoder, code: LinearCode, snr_db: float, frames: int,
                         seed, zero_codeword: bool = False,
                         batch_size: int = 2048):
    """Monte-Carlo bit and frame error rates over an AWGN channel.

    `decoder` is anything with decode_batch (a NeuralBpDecoder or a plain
    BpDecoder).  Transmits random codewords unless zero_codeword is set.
    Deterministic for a fixed seed.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    rng = np.random.default_rng(seed)  # a Generator is used as is
    bit_errors = 0
    frame_errors = 0
    done = 0
    gen = code.generator.astype(np.int64)
    while done < frames:
        b = min(batch_size, frames - done)
        if zero_codeword:
            words = np.zeros((b, code.n), dtype=np.uint8)
        else:
            msgs = rng.integers(0, 2, size=(b, code.k))
            words = (msgs @ gen % 2).astype(np.uint8)
        received, sigma = awgn(bpsk_modulate(words), snr_db, rng, rate=code.rate)
        llrs = llr_from_channel(received, sigma)
        hard = decoder.decode_batch(llrs)
        errs = hard != words
        bit_errors += int(errs.sum())
        frame_errors += int(errs.any(axis=1).sum())
        done += b
    return bit_errors / (frames * code.n), frame_errors / frames


# -- serialization ----------------------------------------------------------

def save_decoder(net: NeuralBpDecoder, code: LinearCode, path) -> None:
    """Binary format: magic, version, (n, k, t, L), then the packed weight
    vector as little-endian float64."""
    if code.n != net.graph.n_var:
        raise ValueError("code length does not match decoder graph")
    vec = net.weight_vector()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(_HEADER, _VERSION, code.n, code.k, code.t,
                             net.iterations, vec.size))
        fh.write(vec.astype("<f8").tobytes())


def load_decoder(path, code: LinearCode) -> NeuralBpDecoder:
    """Rebuild a decoder over the graph of `code` from a saved weight file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a decoder weight file")
    body = len(_MAGIC) + struct.calcsize(_HEADER)
    if len(data) < body:
        raise ValueError(f"{path}: truncated header ({len(data)} of {body} bytes)")
    version, n, k, t, iterations, count = struct.unpack_from(_HEADER, data, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if (n, k, t) != (code.n, code.k, code.t):
        raise ValueError(f"{path}: weights are for an ({n}, {k}) t={t} code, "
                         f"not ({code.n}, {code.k}) t={code.t}")
    if len(data) - body != 8 * count:
        raise ValueError(f"{path}: header announces {count} weights "
                         f"({8 * count} bytes) but {len(data) - body} bytes follow")
    # checked before any array is sized by the header's iteration count
    graph = TannerGraph(code.parity_check)
    deg = np.diff(graph.var_offsets)
    per_layer = graph.num_edges + int((deg * (deg - 1)).sum())
    if iterations < 1 or count != iterations * per_layer + graph.n_var + graph.num_edges:
        raise ValueError(f"{path}: {count} weights do not fit an L={iterations} "
                         f"decoder of this code")
    net = NeuralBpDecoder(graph, iterations)
    net.set_weight_vector(np.frombuffer(data, dtype="<f8", offset=body))
    return net
