"""An unrolled, weighted sum-product decoder with trainable edge weights.

The network mirrors L flooding iterations as 2L hidden layers of width E
(one unit per Tanner-graph edge).  Odd layers compute weighted
variable-to-check messages squashed through tanh(. / 2); even layers are
the unweighted check-side product update followed by 2 atanh.  The output
layer combines the channel LLR and the final check messages per variable
and applies a sigmoid, yielding the probability that the bit is 1 under
the positive-LLR-means-0 convention.  With every weight at 1.0 the hard
decisions coincide exactly with plain sum-product decoding.

Sibling weights: w_in[j - 1] holds layer j's deg(v) (deg(v) - 1) weights
per variable v; the one at (v, a, b) weighs edge slot b of v (a
var_pad_mask slot) into slot a.  Only the n_sib variables of degree >= 2
have siblings (30 of 63 on BCH(63,30)), and the sibling tables span only
them.  Each forward or training call scatters w_in once into zeroed
(n_sib, dv_max, dv_max) blocks, so a layer's sibling sum is one batched
matmul with padded (n_sib, dv_max, batch) messages.  A table's flat view
has one extra row: edges of degree-1 variables scatter into it and gather
from it, and in a matmul's output it stays zero, so the edge scatter and
gather stay dense.  Layer 0 has no sibling weights: the messages start at
zero, so a first-iteration sibling weight would only ever multiply zero.

loss_and_grads caches three (num_edges, batch) arrays per layer and drops
each layer's once the backward step has used it; the backward writes its
intermediates into workspace tables, and rebuilds each layer's clip mask
from the clipped product (a value is unclipped exactly when its magnitude
is below 1 - atanh_clamp).

Precision: forward and loss_and_grads compute in the dtype of the LLR
batch they are given, float32 for a float32 batch and float64 for any
other.  The weights are float64 master copies; each call casts them once
into its own locals of the compute dtype, and loss_and_grads returns
float64 gradients for the float64 optimizer.  train_decoder and stage 2
of the pipeline pass float32 LLRs; error-rate evaluation and the CLI pass
float64.  In float32 the atanh clamp 1 - 1e-7 rounds to 1 - 2^-23, so a
clipped message is 2 atanh(1 - 2^-23), about 16.6.

Weights, in the order of parameters(), weight_vector() and the serialized
format (decoder.bin version 2): w_chan layer-major in edge order; w_in in
(layer, variable, slot, sibling slot) order; w_out_chan per variable; then
w_out_edge in edge order.
"""

from __future__ import annotations

import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ._checks import all_either, all_finite
from .bp import (TannerGraph, Workspace, check_products_except_self,
                 check_products_except_self_backward, segment_sum,
                 validate_llr_batch)
from .channel import awgn, bpsk_modulate, llr_from_channel, noise_sigma
from .gf2 import LinearCode
from .optim import Adam

_PRESIGMOID_LIMIT = 36.0

# a batch is split only into pieces of at least this many frames: on
# BCH(63,30) on a 2-core host, a 64-frame batch took 1.3x as long on two
# threads as on one, a 192-frame batch 0.75x as long
_MIN_PIECE_FRAMES = 64

# forward decodes a larger batch in blocks of exactly this many frames, the
# last block taking the remainder (64-127 frames).  That rule gave one
# unblocked pass's soft-output bits on BCH(15,7) to (127,64) for every
# batch size tried; near-equal blocks (33 + 32, ...) and a trailing block
# of one frame did not.
_DECODE_BLOCK = 64

# evaluate_error_rates draws and decodes this many frames at a time
_RATE_BATCH = 2048

_MAGIC = b"NBPW"
_VERSION = 2
_HEADER = "<BIIIIQ"


class TrainingFailureError(RuntimeError):
    """Training produced a non-finite loss; the message names the stage."""


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _weight_count(graph: TannerGraph, iterations: int) -> int:
    """Weights of an L-iteration decoder over `graph`: a channel weight per
    edge and layer, deg(v) (deg(v) - 1) sibling weights per variable in
    each layer after the first, and the output layer's weights."""
    deg = np.diff(graph.var_offsets)
    return (iterations * graph.num_edges + (iterations - 1) * int((deg * (deg - 1)).sum())
            + graph.n_var + graph.num_edges)


class NeuralBpDecoder:
    """Trainable unrolled decoder over a fixed Tanner graph.

    iterations is the number of unrolled flooding iterations L; the network
    has 2L hidden layers of width graph.num_edges.  All weights start at 1.0.
    """

    # check-node products fed to atanh are clipped to +-(1 - atanh_clamp)
    atanh_clamp = 1e-7

    def __init__(self, graph: TannerGraph, iterations: int):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.graph = graph
        self.iterations = iterations
        vmask = graph.var_pad_mask
        n_slots = vmask.shape[1]
        has_sib = vmask.sum(axis=1) >= 2
        sib_vmask = vmask[has_sib]
        # (n_sib, dv_max, dv_max) over the variables of degree >= 2: True
        # where slot b of the variable feeds slot a
        self._sib_mask = sib_vmask[:, :, None] & sib_vmask[:, None, :] & \
            ~np.eye(n_slots, dtype=bool)
        # each edge's row in a sibling table's flat (n_sib * dv_max + 1,
        # batch) view: its slot, or the extra last row for an edge of a
        # variable of degree 1
        rows = np.full(vmask.shape, sib_vmask.size)
        rows[has_sib] = np.arange(sib_vmask.size).reshape(sib_vmask.shape)
        self._var_slot = rows[vmask]
        self.w_chan = np.ones((iterations, graph.num_edges))
        self.w_in = np.ones((iterations - 1, np.count_nonzero(self._sib_mask)))
        self.w_out_chan = np.ones(graph.n_var)
        self.w_out_edge = np.ones(graph.num_edges)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        return [self.w_chan, self.w_in, self.w_out_chan, self.w_out_edge]

    @property
    def num_weights(self) -> int:
        return _weight_count(self.graph, self.iterations)

    def weight_vector(self) -> np.ndarray:
        """All weights in serialization order (see module docstring)."""
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_weight_vector(self, vec) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_weights,):
            raise ValueError(f"expected {self.num_weights} weights, got {vec.shape}")
        start = 0
        for p in self.parameters():
            p[...] = vec[start:start + p.size].reshape(p.shape)
            start += p.size

    def _call_weights(self, dtype):
        """One call's weights in its compute dtype: (w_chan, sibling blocks,
        w_out_chan, w_out_edge), the sibling blocks being w_in scattered
        into zeroed (L-1, n_sib, dv_max, dv_max) blocks.  A float32 call
        gets its own copies; the float64 master arrays are never cast or
        replaced, so calls of either dtype may run at once."""
        blocks = np.zeros((len(self.w_in),) + self._sib_mask.shape, dtype)
        blocks[:, self._sib_mask] = self.w_in
        return (self.w_chan.astype(dtype, copy=False), blocks,
                self.w_out_chan.astype(dtype, copy=False),
                self.w_out_edge.astype(dtype, copy=False))

    # -- forward ------------------------------------------------------------

    def _var_table(self, ws: Workspace, name: str, batch: int, dtype):
        """A zeroed sibling table: its (n_sib, dv_max, batch) blocks and
        their flat (n_sib * dv_max + 1, batch) view, indexed by _var_slot.
        The extra last row takes the scatter of degree-1 edges and stays
        zero in a matmul's output, so their gather reads 0."""
        n_sib, n_slots = self._sib_mask.shape[:2]
        flat = ws.table(name, (n_sib * n_slots + 1, batch), dtype)
        flat[...] = 0
        return flat[:-1].reshape(n_sib, n_slots, batch), flat

    def _forward_t(self, llr_t, weights, keep_cache: bool, ws: Workspace):
        """Core forward pass on an (n_var, batch) LLR array, in its dtype,
        with the calling pass's _call_weights `weights` and workspace
        `ws`."""
        g = self.graph
        w_chan, w_blocks, w_out_chan, w_out_edge = weights
        batch = llr_t.shape[1]
        lo = llr_t.dtype.type(1.0 - self.atanh_clamp)
        l_edge = llr_t[g.edge_var]
        x = None
        x_pad, x_flat = self._var_table(ws, "x_pad", batch, llr_t.dtype)
        sib, sib_flat = self._var_table(ws, "sib", batch, llr_t.dtype)
        layers = []
        for j in range(self.iterations):
            x_prev = x
            pre = w_chan[j][:, None] * l_edge
            if j > 0:
                x_flat[self._var_slot] = x_prev
                np.matmul(w_blocks[j - 1], x_pad, out=sib)
                pre += np.take(sib_flat, self._var_slot, axis=0)
            pre *= 0.5
            x_odd = np.tanh(pre, out=pre)
            prod = check_products_except_self(x_odd, g, _workspace=ws)
            p_clip = np.clip(prod, -lo, lo, out=prod)
            x = np.arctanh(p_clip)
            x *= 2.0
            if keep_cache:
                layers.append((x_prev, x_odd, p_clip))
        s = w_out_chan[:, None] * llr_t + \
            segment_sum(w_out_edge[:, None] * x, g.var_offsets)
        z = np.clip(-s, -_PRESIGMOID_LIMIT, _PRESIGMOID_LIMIT)
        z_mask = np.abs(s) < _PRESIGMOID_LIMIT
        o = _sigmoid(z)
        cache = (llr_t, l_edge, layers, x, z, z_mask) if keep_cache else None
        return o, cache

    def forward(self, llr):
        """Soft outputs (bit-1 probabilities) and hard bits of a (batch, n)
        LLR array, as two (batch, n) arrays; any other shape is rejected
        by validate_llr_batch.  Hard decision: output > 0.5 is bit 1, ties
        resolve to bit 0.  Computes in the LLRs' dtype as validate_llr_batch
        returns it (float32 stays float32, any other dtype becomes
        float64), and the soft outputs have that dtype.  Stage 2 of the
        pipeline feeds it the float32 product kappa * a for a batch of
        encoder activations a.

        A batch of more than _DECODE_BLOCK frames runs as consecutive blocks
        of _DECODE_BLOCK frames, the last one taking the remainder, through
        one workspace into preallocated outputs, so a decode holds one
        block's messages however many frames it is given.
        """
        a = validate_llr_batch(llr, self.graph.n_var)
        n = a.shape[0]
        outputs = np.empty((n, self.graph.n_var), a.dtype)
        hard = np.empty((n, self.graph.n_var), dtype=np.uint8)
        ws = Workspace()
        weights = self._call_weights(a.dtype)
        blocks = max(1, n // _DECODE_BLOCK)
        for i in range(blocks):
            start = i * _DECODE_BLOCK
            stop = n if i == blocks - 1 else start + _DECODE_BLOCK
            o, _ = self._forward_t(a[start:stop].T.copy(), weights, keep_cache=False,
                                   ws=ws)
            outputs[start:stop] = o.T
            np.greater(o.T, 0.5, out=hard[start:stop])
        return outputs, hard

    def decode_batch(self, llrs) -> np.ndarray:
        return self.forward(llrs)[1]

    # -- training -----------------------------------------------------------

    def loss_and_grads(self, llrs, targets):
        """Mean bitwise cross-entropy against target bits, with exact
        gradients for every weight.

        llrs is (batch, n) with batch >= 1; targets is (batch, n) bits.
        Computes in the LLRs' dtype, as forward does.  Returns (loss,
        [grad arrays matching parameters()]); the gradients are float64,
        as the weights are.
        """
        g = self.graph
        llrs = validate_llr_batch(llrs, g.n_var)
        dtype = llrs.dtype
        y = np.asarray(targets, dtype=np.float64)
        if llrs.shape != y.shape:
            raise ValueError("llrs and targets must share a (batch, n) shape")
        if llrs.shape[0] == 0:
            raise ValueError("loss_and_grads needs at least one frame")
        if not all_either(y, 0, 1):
            raise ValueError("targets must be bits (0 or 1)")
        ws = Workspace()
        weights = self._call_weights(dtype)
        _, w_blocks, _, w_out_edge = weights
        o, (llr_t, l_edge, layers, x_final, z, z_mask) = self._forward_t(
            llrs.T.copy(), weights, keep_cache=True, ws=ws)
        y_t = y.T.astype(dtype, copy=False)
        count = y_t.size
        loss = float(np.mean(np.logaddexp(0.0, z) - y_t * z))

        dz = (o - y_t) / count
        ds = -dz * z_mask
        d_out_chan = (ds * llr_t).sum(axis=1)
        shape = x_final.shape
        tmp = ws.table("tmp_edge", shape, dtype)
        clip_mask = ws.table("clip_mask", shape, bool)
        # dx = w_out_edge * ds_edge, formed in place after d_out_edge
        dx = np.take(ds, g.edge_var, axis=0, out=ws.table("dx", shape, dtype),
                     mode="clip")
        d_out_edge = np.multiply(dx, x_final, out=tmp).sum(axis=1)
        del x_final
        dx *= w_out_edge[:, None]

        d_chan = np.zeros(self.w_chan.shape, dtype)
        d_in = np.zeros(self.w_in.shape, dtype)
        lo = dtype.type(1.0 - self.atanh_clamp)
        x_pad, x_flat = self._var_table(ws, "x_pad", shape[1], dtype)
        dpre_pad, dpre_flat = self._var_table(ws, "dpre_pad", shape[1], dtype)
        sib, sib_flat = self._var_table(ws, "sib", shape[1], dtype)
        d_block = ws.table("d_block", self._sib_mask.shape, dtype)
        # each layer's cache is dropped once its step is done
        for j in reversed(range(self.iterations)):
            x_prev, x_odd, p_clip = layers.pop()
            # dp = dx * (2 / (1 - p_clip^2)) * [unclipped]
            dp = np.multiply(p_clip, p_clip, out=tmp)
            np.subtract(1.0, dp, out=dp)
            np.divide(2.0, dp, out=dp)
            np.multiply(dx, dp, out=dp)
            # unclipped exactly where |p_clip| < lo; p_clip is not read again
            np.less(np.abs(p_clip, out=p_clip), lo, out=clip_mask)
            dp *= clip_mask
            dpre = check_products_except_self_backward(x_odd, dp, g, _workspace=ws)
            # dpre = dx_odd * 0.5 * (1 - x_odd^2)
            dpre *= 0.5
            np.multiply(x_odd, x_odd, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            dpre *= tmp
            np.multiply(dpre, l_edge, out=tmp)
            tmp.sum(axis=1, out=d_chan[j])
            if j > 0:
                dpre_flat[self._var_slot] = dpre
                x_flat[self._var_slot] = x_prev
                np.matmul(dpre_pad, x_pad.transpose(0, 2, 1), out=d_block)
                d_in[j - 1] = d_block[self._sib_mask]
                np.matmul(w_blocks[j - 1].transpose(0, 2, 1), dpre_pad, out=sib)
                # mode="clip" keeps take from buffering `out`; every slot is valid
                np.take(sib_flat, self._var_slot, axis=0, out=dx, mode="clip")
        return loss, [grad.astype(np.float64, copy=False)
                      for grad in (d_chan, d_in, d_out_chan, d_out_edge)]


@dataclass
class DecoderTrainConfig:
    """Settings for training on noisy transmissions of the zero codeword."""

    snr_db_list: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    frames_per_epoch: int = 128
    epochs: int = 150
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.snr_db_list:
            raise ValueError("snr_db_list must not be empty")
        if self.frames_per_epoch < 1:
            raise ValueError(f"frames_per_epoch must be >= 1, "
                             f"got {self.frames_per_epoch}")
        if self.epochs < 0:
            raise ValueError(f"decoder epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def train_decoder(net: NeuralBpDecoder, code: LinearCode,
                  config: DecoderTrainConfig) -> NeuralBpDecoder:
    """Train the decoder weights on noisy zero-codeword frames.

    Each epoch draws fresh AWGN at SNRs sampled from config.snr_db_list
    (rate-adjusted), computes the bitwise cross-entropy toward the all-zero
    target, and takes one Adam step.  The noise and LLRs are drawn in
    float64 and the LLRs cast to float32, so the forward and backward
    passes run in float32; the weights and Adam stay float64.  The graph
    topology and weight count never change; with epochs = 0 the weights
    stay at initialization.
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
        llrs = llr_from_channel(received, sig).astype(np.float32)
        loss, grads = net.loss_and_grads(llrs, targets)
        if not np.isfinite(loss):
            raise TrainingFailureError(
                f"non-finite decoder training loss at epoch {epoch}")
        adam.step(net.parameters(), grads)
    return net


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _piece_count(workers: int, frames: int) -> int:
    """Pieces to split a batch of `frames` into: one per worker, each of at
    least _MIN_PIECE_FRAMES frames, and never fewer than one."""
    return max(1, min(workers, frames // _MIN_PIECE_FRAMES))


def _decode_split(decoder, llrs, pool, pieces: int) -> np.ndarray:
    """Hard decisions for a batch decoded as `pieces` frame-order slices:
    the calling thread decodes the first, `pool` the rest."""
    parts = np.array_split(llrs, pieces)
    futures = [pool.submit(decoder.decode_batch, part) for part in parts[1:]]
    first = decoder.decode_batch(parts[0])
    return np.concatenate([first] + [f.result() for f in futures])


def evaluate_error_rates(decoder, code: LinearCode, snr_db: float, frames: int,
                         seed):
    """Monte-Carlo bit and frame error rates over an AWGN channel.

    `decoder` is anything with decode_batch (a NeuralBpDecoder or a plain
    BpDecoder).  Transmits random codewords, _RATE_BATCH frames at a time.
    Deterministic for a fixed seed.

    Each batch is split in frame order across the cores the process may
    run on, in pieces of at least 64 frames, and the pieces are decoded at
    the same time: one on the calling thread, the rest on a thread pool
    that lives for this call.  All random draws stay on the calling thread
    and every frame is decoded on its own, so the rates do not depend on
    the core count; `decoder` must be safe to call from several threads at
    once.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    rng = np.random.default_rng(seed)  # a Generator is used as is
    bit_errors = 0
    frame_errors = 0
    done = 0
    gen = code.generator.astype(np.int64)
    workers = _piece_count(_worker_count(), min(_RATE_BATCH, frames))
    if workers > 1:
        # imported on first use: it imports logging, about 9 ms that every
        # import of the package would pay otherwise
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        while done < frames:
            b = min(_RATE_BATCH, frames - done)
            msgs = rng.integers(0, 2, size=(b, code.k))
            words = (msgs @ gen % 2).astype(np.uint8)
            received, sigma = awgn(bpsk_modulate(words), snr_db, rng, rate=code.rate)
            llrs = llr_from_channel(received, sigma)
            hard = _decode_split(decoder, llrs, pool, _piece_count(workers, b))
            errs = hard != words
            bit_errors += int(errs.sum())
            frame_errors += int(errs.any(axis=1).sum())
            done += b
    return bit_errors / (frames * code.n), frame_errors / frames


# -- serialization ----------------------------------------------------------

def save_decoder(net: NeuralBpDecoder, code: LinearCode, path) -> None:
    """Binary format: magic, version, (n, k, t, L), the weight count, then
    weight_vector() as little-endian float64.  Non-finite weights are
    refused before the file is opened."""
    if code.n != net.graph.n_var:
        raise ValueError("code length does not match decoder graph")
    vec = net.weight_vector()
    if not all_finite(vec):
        raise ValueError("decoder weights must be finite")
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
        raise ValueError(f"{path}: unsupported version {version}, expected {_VERSION}")
    if (n, k, t) != (code.n, code.k, code.t):
        raise ValueError(f"{path}: weights are for an ({n}, {k}) t={t} code, "
                         f"not ({code.n}, {code.k}) t={code.t}")
    if len(data) - body != 8 * count:
        raise ValueError(f"{path}: header announces {count} weights "
                         f"({8 * count} bytes) but {len(data) - body} bytes follow")
    # checked before any array is sized by the header's iteration count
    graph = TannerGraph(code.parity_check)
    if iterations < 1 or count != _weight_count(graph, iterations):
        raise ValueError(f"{path}: {count} weights do not fit an L={iterations} "
                         f"decoder of this code")
    weights = np.frombuffer(data, dtype="<f8", offset=body)
    if not all_finite(weights):
        raise ValueError(f"{path}: decoder weights must be finite")
    net = NeuralBpDecoder(graph, iterations)
    net.set_weight_vector(weights)
    return net
