"""Tanner graphs and flooding sum-product decoding.

Edges are indexed in (variable, check) lexicographic order, so the edges of
one variable node occupy a contiguous index range.  Messages are
(num_edges, batch) arrays in edge order.  The padded tables var_pad_edge /
var_pad_mask (n_var, dv_max) and check_pad_edge / check_pad_mask
(n_check, dc_max) list each node's edges, ascending and left-aligned; as
edges are variable-major, `pad[var_pad_mask] = values` fills per-variable
blocks in edge order.  All message updates are vectorized over a batch:

  check -> variable:  m_cv = 2 atanh( prod tanh(m_vc / 2) ),
                      excluding the target edge
  posterior:          llr(v) + sum of all incoming check messages
  variable -> check:  m_vc = posterior(v) - m_cv of the same edge

A positive LLR (and posterior) means bit 0; hard decisions use
posterior >= 0 -> 0.  Products fed to atanh are clamped away from +-1 by
`clamp` (default 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import as_gf2

DEFAULT_CLAMP = 1e-12


def _padded_table(node_of_edge: np.ndarray, n_nodes: int):
    """(edge ids, mask), both (n_nodes, max degree): row i lists the edges
    of node i ascending and left-aligned; padding holds edge 0."""
    deg = np.bincount(node_of_edge, minlength=n_nodes)
    mask = np.arange(deg.max()) < deg[:, None]
    edge = np.zeros(mask.shape, dtype=np.int64)
    edge[mask] = np.argsort(node_of_edge, kind="stable")
    return edge, mask


class TannerGraph:
    """Bipartite factor graph of a parity-check matrix.

    Attributes:
        h: the (n_check, n_var) parity-check matrix.
        n_var, n_check, num_edges: sizes.
        edge_var, edge_check: endpoint arrays, one entry per edge.
        var_offsets: v owns edges var_offsets[v] to var_offsets[v + 1] - 1.
        var_pad_edge, var_pad_mask, check_pad_edge, check_pad_mask: the
            padded per-node edge tables (see the module docstring).
    """

    def __init__(self, parity_check):
        h = as_gf2(parity_check)
        if h.size == 0:
            raise ValueError("empty parity-check matrix")
        if (h.sum(axis=1) == 0).any():
            raise ValueError("degenerate graph: all-zero parity-check row")
        if (h.sum(axis=0) == 0).any():
            raise ValueError("degenerate graph: all-zero parity-check column")
        self.h = h
        self.n_check, self.n_var = h.shape

        vs, cs = np.nonzero(h.T)  # (v, c) lexicographic order
        self.edge_var = vs.astype(np.int64)
        self.edge_check = cs.astype(np.int64)
        self.num_edges = len(vs)

        var_deg = h.sum(axis=0).astype(np.int64)
        self.var_offsets = np.concatenate([[0], np.cumsum(var_deg)])
        self.var_pad_edge, self.var_pad_mask = _padded_table(vs, self.n_var)
        self.check_pad_edge, self.check_pad_mask = _padded_table(cs, self.n_check)

    def syndrome_ok(self, hard_bits) -> np.ndarray:
        """True per column of an (n_var, batch) bit array iff all checks pass."""
        return ~((self.h.astype(np.int64) @ hard_bits) % 2).any(axis=0)


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum contiguous row segments of `values`; empty segments give zero."""
    starts = offsets[:-1]
    nonempty = np.diff(offsets) > 0
    out = np.zeros((len(starts),) + values.shape[1:], dtype=values.dtype)
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


def _check_prefix_suffix(values: np.ndarray, graph: TannerGraph):
    """Edge values in the padded per-check table (padding 1) with their
    exclusive prefix and suffix products: (pad, pre, suf), where pre[c, i]
    is the product of pad[c, :i] and suf[c, i] that of pad[c, i + 1:]."""
    mask = graph.check_pad_mask
    pad = np.ones(mask.shape + values.shape[1:], dtype=values.dtype)
    pad[mask] = values[graph.check_pad_edge[mask]]
    pre = np.ones_like(pad)
    np.cumprod(pad[:, :-1], axis=1, out=pre[:, 1:])
    suf = np.ones_like(pad)
    np.cumprod(pad[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pad, pre, suf


def check_products_except_self(values: np.ndarray, graph: TannerGraph) -> np.ndarray:
    """For each edge, the product of same-check values excluding that edge.

    `values` is (num_edges, batch) in edge order; so is the result.
    """
    _, pre, suf = _check_prefix_suffix(values, graph)
    mask = graph.check_pad_mask
    out = np.empty_like(values)
    out[graph.check_pad_edge[mask]] = (pre * suf)[mask]
    return out


def check_products_except_self_backward(values: np.ndarray, grads: np.ndarray,
                                        graph: TannerGraph) -> np.ndarray:
    """Reverse-mode step for check_products_except_self.

    Given d(loss)/d(output) per edge, returns d(loss)/d(values) per edge
    without dividing by any factor (stable at zeros).
    """
    a, pre, suf = _check_prefix_suffix(values, graph)
    mask = graph.check_pad_mask
    gathered = graph.check_pad_edge[mask]
    gpad = np.zeros_like(a)
    gpad[mask] = grads[gathered]
    dmax = a.shape[1]
    acc_lo = np.zeros_like(a)
    for i in range(dmax - 1):
        acc_lo[:, i + 1] = acc_lo[:, i] * a[:, i] + gpad[:, i] * pre[:, i]
    acc_hi = np.zeros_like(a)
    for i in range(dmax - 2, -1, -1):
        acc_hi[:, i] = acc_hi[:, i + 1] * a[:, i + 1] + gpad[:, i + 1] * suf[:, i + 1]
    out = np.empty_like(values)
    out[gathered] = (acc_lo * suf + acc_hi * pre)[mask]
    return out


def check_messages(m_vc: np.ndarray, graph: TannerGraph,
                   clamp: float = DEFAULT_CLAMP) -> np.ndarray:
    """Check-to-variable messages from variable-to-check messages (LLR domain)."""
    t = np.tanh(0.5 * m_vc)
    prod = check_products_except_self(t, graph)
    np.clip(prod, -1.0 + clamp, 1.0 - clamp, out=prod)
    return 2.0 * np.arctanh(prod)


def _validate_llr_batch(llrs, n_var):
    a = np.asarray(llrs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != n_var:
        raise ValueError(f"expected shape (batch, {n_var}), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("LLR inputs must be finite")
    return a


def bp_decode_batch(llrs, graph: TannerGraph, iterations: int,
                    early_stop: bool = True, clamp: float = DEFAULT_CLAMP):
    """Flooding sum-product decoding of a batch of LLR vectors.

    Returns (hard_bits (batch, n) uint8, posteriors (batch, n), converged
    (batch,) bool).  With early_stop, a frame freezes at the first iteration
    whose hard decision satisfies every check, so a converged frame always
    carries a codeword.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    llrs = _validate_llr_batch(llrs, graph.n_var)
    batch = llrs.shape[0]
    out_hard = np.zeros((graph.n_var, batch), dtype=np.uint8)
    out_soft = np.zeros((graph.n_var, batch))
    out_conv = np.zeros(batch, dtype=bool)
    if batch == 0:
        return out_hard.T, out_soft.T, out_conv

    llr_t = llrs.T.copy()
    m_vc = llr_t[graph.edge_var]
    cols = np.arange(batch)

    for it in range(iterations):
        m_cv = check_messages(m_vc, graph, clamp)
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


def bp_decode(llr, graph: TannerGraph, iterations: int,
              early_stop: bool = True, clamp: float = DEFAULT_CLAMP):
    """Single-vector wrapper around bp_decode_batch."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 1:
        raise ValueError(f"expected a 1-D LLR vector, got shape {llr.shape}")
    hard, soft, conv = bp_decode_batch(llr[None, :], graph, iterations,
                                       early_stop=early_stop, clamp=clamp)
    return hard[0], soft[0], bool(conv[0])


@dataclass
class BpDecoder:
    """A fixed-iteration sum-product decoder usable wherever a trained
    network is (both expose decode_batch)."""

    graph: TannerGraph
    iterations: int
    early_stop: bool = True
    clamp: float = DEFAULT_CLAMP

    def decode_batch(self, llrs) -> np.ndarray:
        hard, _, _ = bp_decode_batch(llrs, self.graph, self.iterations,
                                     early_stop=self.early_stop, clamp=self.clamp)
        return hard
