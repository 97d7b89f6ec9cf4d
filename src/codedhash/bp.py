"""Tanner graphs and flooding sum-product decoding.

Edges are indexed in (variable, check) lexicographic order, so the edges of
one variable node occupy a contiguous index range.  Messages are
(num_edges, batch) arrays in edge order.  The mask var_pad_mask (n_var,
dv_max) marks the first deg(v) slots of each variable's row; as edges are
variable-major, the flat slots np.flatnonzero(var_pad_mask) hold
per-variable blocks in edge order, ascending and left-aligned.

The check-node kernels work on one degree-major table of shape
(dc_max, n_check, batch): slot (i, c) holds the i-th edge of check c, in
ascending edge order, and the rest is padding.  check_slot gives each
edge's flat slot in the (dc_max * n_check, batch) view and check_pad_slot
the padding's, so `flat[check_slot] = values` scatters messages into the
table and `np.take(flat, check_slot, axis=0)` gathers them back.  Each
decode or training call makes one private workspace, whose scratch tables
are allocated on first use and reused across all its iterations and across
its forward and backward passes; results never alias it.

All message updates are vectorized over a batch:

  check -> variable:  m_cv = 2 atanh( prod tanh(m_vc / 2) ),
                      excluding the target edge
  posterior:          llr(v) + sum of all incoming check messages
  variable -> check:  m_vc = posterior(v) - m_cv of the same edge

A positive LLR (and posterior) means bit 0; hard decisions use
posterior >= 0 -> 0.  Products fed to atanh are clamped away from +-1 by
`clamp` (default 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import all_finite
from .gf2 import as_gf2

DEFAULT_CLAMP = 1e-12


class TannerGraph:
    """Bipartite factor graph of a parity-check matrix.

    Attributes:
        n_var, n_check, num_edges: sizes.
        edge_var: each edge's variable.
        var_offsets: v owns edges var_offsets[v] to var_offsets[v + 1] - 1.
        var_pad_mask: the real slots of the padded per-variable edge table.
        dc_max, check_slot, check_pad_slot: the degree-major check table's
            depth, each edge's flat slot and the padding's flat slots (see
            the module docstring).
    """

    def __init__(self, parity_check):
        h = as_gf2(parity_check)
        if h.size == 0:
            raise ValueError("empty parity-check matrix")
        if (h.sum(axis=1) == 0).any():
            raise ValueError("degenerate graph: all-zero parity-check row")
        if (h.sum(axis=0) == 0).any():
            raise ValueError("degenerate graph: all-zero parity-check column")
        self.n_check, self.n_var = h.shape

        vs, cs = np.nonzero(h.T)  # (v, c) lexicographic order
        self.edge_var = vs.astype(np.int64)
        self.num_edges = len(vs)

        var_deg = h.sum(axis=0).astype(np.int64)
        self.var_offsets = np.concatenate([[0], np.cumsum(var_deg)])
        self.var_pad_mask = np.arange(var_deg.max()) < var_deg[:, None]

        check_deg = np.bincount(cs, minlength=self.n_check)
        self.dc_max = int(check_deg.max())
        # rank of each edge among its check's edges, ascending
        by_check = np.argsort(cs, kind="stable")
        check_start = np.cumsum(check_deg) - check_deg
        rank = np.empty(self.num_edges, dtype=np.int64)
        rank[by_check] = np.arange(self.num_edges) - np.repeat(check_start, check_deg)
        self.check_slot = rank * self.n_check + cs
        self.check_pad_slot = np.flatnonzero(
            np.arange(self.dc_max)[:, None] >= check_deg)
        # the edges' variables in check order, and where each check's run
        # starts: every check has an edge, so no run is empty
        self._check_vars = vs[by_check]
        self._check_start = check_start

    def syndrome_ok(self, hard_bits) -> np.ndarray:
        """True per column of an (n_var, batch) array of integer or bool
        bits iff all checks pass: each check's parity is the XOR of its
        variables' bits."""
        parity = np.bitwise_xor.reduceat(np.asarray(hard_bits)[self._check_vars],
                                         self._check_start, axis=0)
        return ~parity.any(axis=0)


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum contiguous row segments of `values`; empty segments give zero."""
    starts = offsets[:-1]
    nonempty = np.diff(offsets) > 0
    out = np.zeros((len(starts),) + values.shape[1:], dtype=values.dtype)
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


class Workspace:
    """Scratch arrays for one decode or training call.

    table(name, shape) returns a contiguous view carved from a flat buffer
    kept under `name`.  The buffer is allocated when the name is first used
    and regrown only when a larger shape asks for it, so the shrinking
    batches of an early-stopping decode reuse it.  Contents are left over
    from the last use: callers write every entry they read.
    """

    def __init__(self):
        self._buffers = {}

    def table(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _check_pad_prefix(values: np.ndarray, graph: TannerGraph, ws: Workspace):
    """Edge values in the degree-major check table (padding 1) and their
    exclusive prefix products: (pad, pre, flat), where pre[i, c] is the
    product of pad[:i, c] in cumprod's order and `flat` is the shape of
    the tables' flat-slot view."""
    rows = (graph.dc_max, graph.n_check)
    flat = (graph.dc_max * graph.n_check,) + values.shape[1:]
    pad = ws.table("pad", rows + values.shape[1:], values.dtype)
    pad_flat = pad.reshape(flat)
    pad_flat[graph.check_pad_slot] = 1
    pad_flat[graph.check_slot] = values
    pre = ws.table("pre", pad.shape, values.dtype)
    pre[0] = 1
    for i in range(1, graph.dc_max):
        np.multiply(pre[i - 1], pad[i - 1], out=pre[i])
    return pad, pre, flat


def check_products_except_self(values: np.ndarray, graph: TannerGraph, *,
                               _workspace: Workspace | None = None) -> np.ndarray:
    """For each edge, the product of same-check values excluding that edge.

    `values` is (num_edges, batch) in edge order; so is the result.
    """
    ws = Workspace() if _workspace is None else _workspace
    pad, pre, flat = _check_pad_prefix(values, graph, ws)
    # pre[i] *= the product of pad[i + 1:], kept as one running slab
    suf = ws.table("suf", pad.shape[1:], values.dtype)
    suf[...] = 1
    for i in range(graph.dc_max - 1, -1, -1):
        pre[i] *= suf
        if i:
            suf *= pad[i]
    return np.take(pre.reshape(flat), graph.check_slot, axis=0)


def check_products_except_self_backward(values: np.ndarray, grads: np.ndarray,
                                        graph: TannerGraph, *,
                                        _workspace: Workspace | None = None
                                        ) -> np.ndarray:
    """Reverse-mode step for check_products_except_self.

    Given d(loss)/d(output) per edge, returns d(loss)/d(values) per edge
    without dividing by any factor (stable at zeros).
    """
    ws = Workspace() if _workspace is None else _workspace
    a, pre, flat = _check_pad_prefix(values, graph, ws)
    gpad = ws.table("gpad", a.shape, values.dtype)
    g_flat = gpad.reshape(flat)
    g_flat[graph.check_pad_slot] = 0
    g_flat[graph.check_slot] = grads
    tmp = ws.table("tmp", a.shape[1:], values.dtype)
    # acc[i] = sum over k < i of gpad[k] * pre[k] * prod(a[k + 1:i])
    acc = ws.table("acc", a.shape, values.dtype)
    acc[0] = 0
    for i in range(graph.dc_max - 1):
        np.multiply(acc[i], a[i], out=acc[i + 1])
        np.multiply(gpad[i], pre[i], out=tmp)
        acc[i + 1] += tmp
    # downward: the mirrored accumulator `hi` and the suffix product `suf`
    # as running slabs; slot i's result acc*suf + hi*pre overwrites acc[i]
    hi = ws.table("hi", a.shape[1:], values.dtype)
    hi[...] = 0
    suf = ws.table("suf", a.shape[1:], values.dtype)
    suf[...] = 1
    for i in range(graph.dc_max - 1, -1, -1):
        acc[i] *= suf
        np.multiply(hi, pre[i], out=tmp)
        acc[i] += tmp
        if i:
            hi *= a[i]
            np.multiply(gpad[i], suf, out=tmp)
            hi += tmp
            suf *= a[i]
    return np.take(acc.reshape(flat), graph.check_slot, axis=0)


def check_messages(m_vc: np.ndarray, graph: TannerGraph,
                   clamp: float = DEFAULT_CLAMP, *,
                   _workspace: Workspace | None = None) -> np.ndarray:
    """Check-to-variable messages from variable-to-check messages (LLR domain)."""
    t = 0.5 * m_vc
    np.tanh(t, out=t)
    prod = check_products_except_self(t, graph, _workspace=_workspace)
    np.clip(prod, -1.0 + clamp, 1.0 - clamp, out=prod)
    np.arctanh(prod, out=prod)
    prod *= 2.0
    return prod


def validate_llr_batch(llrs, n_var):
    """`llrs` as a (batch, n_var) array of its compute dtype: float32
    stays float32 and any other dtype becomes float64.  ValueError for
    another shape or a non-finite entry."""
    a = np.asarray(llrs)
    a = a.astype(np.float32 if a.dtype == np.float32 else np.float64, copy=False)
    if a.ndim != 2 or a.shape[1] != n_var:
        raise ValueError(f"expected shape (batch, {n_var}), got {a.shape}")
    if not all_finite(a):
        raise ValueError("LLR inputs must be finite")
    return a


def bp_decode_batch(llrs, graph: TannerGraph, iterations: int,
                    early_stop: bool = True, clamp: float = DEFAULT_CLAMP):
    """Flooding sum-product decoding of a batch of LLR vectors.

    Returns (hard_bits (batch, n) uint8, posteriors (batch, n), converged
    (batch,) bool).  With early_stop, a frame freezes at the first iteration
    whose hard decision satisfies every check, so a converged frame always
    carries a codeword.  Computes in float64 whatever the LLRs' dtype: in
    float32 the default clamp would round to 1, where atanh is infinite.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    llrs = validate_llr_batch(llrs, graph.n_var).astype(np.float64, copy=False)
    batch = llrs.shape[0]
    out_hard = np.zeros((graph.n_var, batch), dtype=np.uint8)
    out_soft = np.zeros((graph.n_var, batch))
    out_conv = np.zeros(batch, dtype=bool)
    if batch == 0:
        return out_hard.T, out_soft.T, out_conv

    llr_t = llrs.T.copy()
    m_vc = llr_t[graph.edge_var]
    cols = np.arange(batch)
    ws = Workspace()

    for it in range(iterations):
        m_cv = check_messages(m_vc, graph, clamp, _workspace=ws)
        post = llr_t + segment_sum(m_cv, graph.var_offsets)
        hard = (post < 0).astype(np.uint8)
        ok = graph.syndrome_ok(hard)
        last = it == iterations - 1
        if last:
            freeze = np.ones_like(ok)
        elif early_stop:
            freeze = ok
        else:
            freeze = np.zeros_like(ok)
        if freeze.any():
            sel = cols[freeze]
            out_hard[:, sel] = hard[:, freeze]
            out_soft[:, sel] = post[:, freeze]
            out_conv[sel] = ok[freeze]
        if last or freeze.all():
            break
        if freeze.any():
            keep = ~freeze
            cols = cols[keep]
            llr_t = llr_t[:, keep]
            post = post[:, keep]
            m_cv = m_cv[:, keep]
        m_vc = post[graph.edge_var] - m_cv

    return out_hard.T, out_soft.T, out_conv


@dataclass
class BpDecoder:
    """A fixed-iteration sum-product decoder usable wherever a trained
    network is (both expose decode_batch)."""

    graph: TannerGraph
    iterations: int
    early_stop: bool = True

    def decode_batch(self, llrs) -> np.ndarray:
        hard, _, _ = bp_decode_batch(llrs, self.graph, self.iterations,
                                     early_stop=self.early_stop)
        return hard
