"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Tensors hold flat row-major float buffers (float32 by default; float64 is
used by the finite-difference oracle). Every differentiable operation records
its inputs and a backward rule; ``backward`` replays the recorded graph in
reverse topological order and accumulates gradients into the leaves.

Broadcasting is deliberately limited to what the transformer needs: scaling
by a Python scalar. Anything else raises.

Model components are fused nodes, one backward rule each and bit-identical to
the composed ops: ``linear`` (x @ w + b), ``ffn`` (activation(u @ w_up + b_up)
@ w_down + b_down, the activation a single op such as ``gelu``, whose backward
the node replays), the MoE router ``affinities``, ``expert_ffn`` (the MoE layer
after its router, over stacked [N, ...] expert weights: one gating and combine,
the experts in one per-block loop or, graph-free on one row, two batched
products), the loss head ``nll`` and the merge's convex ``mix``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

ATTENTION_MASK_VALUE = -1e9  # additive mask; exp underflows to exactly 0 in float32
ATTENTION_TILE = 64  # query rows per causal-attention tile
LAYER_NORM_EPS = 1e-5
FINITE_DIFF_STEP = 1e-3
# The finite-difference error denominator is at least this many times the float64
# rounding noise of the extrapolated difference, 3 eps max|f| / h, so an element
# whose true gradient is 0 does not read that noise as an error of order 1.
FINITE_DIFF_NOISE_MULTIPLE = 4096


def grad_enabled() -> bool:
    """Whether operations record a graph (False inside ``no_grad``)."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float array with an optional gradient slot.

    ``grad`` is populated on leaves (tensors created with
    ``requires_grad=True`` and not produced by an operation) by ``backward``,
    additively: running backward twice without clearing doubles it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # Arithmetic operators delegate to the module-level ops below.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tsum(self)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the tracked subgraph (each node once)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every tracked leaf's ``grad``.

    Non-leaf gradients are transient (scoped to this call), so repeated
    backward passes over the same graph add independent contributions.
    """
    if root.size != 1:
        raise ValueError(f"backward root must be a scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            parent_grads = node._backward_fn(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
        else:
            node.grad = g.copy() if node.grad is None else node.grad + g


def _sum_to_last_axis(g: np.ndarray) -> np.ndarray:
    """Reduce a gradient to a 1-d bias shape by summing leading axes."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for a tensor b of a's shape."""
    if not isinstance(b, Tensor):
        raise TypeError(f"cannot add Tensor and {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    """a * b for a Python scalar b or a tensor b of a's shape."""
    if isinstance(b, (int, float, np.floating, np.integer)):
        c = float(b)
        return _make(a.data * c, (a,), lambda g: (g * c,))
    if not isinstance(b, Tensor):
        raise TypeError(f"cannot multiply Tensor and {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError("matmul requires two Tensors")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")

    def bw(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _make(a.data @ b.data, (a, b), bw)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place to the fresh product."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(f"affine shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    y = x @ w
    y += b
    return y


def _affine_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, need_x, need_w, need_b):
    """Gradients of x @ w + b for x, w and b; None for an operand that needs none."""
    gx = g @ w.T if need_x else None
    gw = x.T @ g if need_w else None
    gb = _sum_to_last_axis(g) if need_b else None
    return gx, gw, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: a matrix [N, n], weights [n, m], a bias [m]."""
    return _make(_affine(x.data, w.data, b.data), (x, w, b), lambda g: _affine_grads(
        g, x.data, w.data, x.requires_grad, w.requires_grad, b.requires_grad))


def ffn(u: Tensor, w_up: Tensor, b_up: Tensor, w_down: Tensor, b_down: Tensor,
        activation: Callable[[Tensor], Tensor]) -> Tensor:
    """activation(u @ w_up + b_up) @ w_down + b_down as one node; ``activation``
    is a single tensor op of its input, such as ``gelu``, whose recorded backward the
    node's rule replays. It is recorded even under ``no_grad``, so the check runs there."""
    global _GRAD_ENABLED
    pre = Tensor(_affine(u.data, w_up.data, b_up.data), requires_grad=True)
    recording, _GRAD_ENABLED = _GRAD_ENABLED, True
    try:
        act = activation(pre)
    finally:
        _GRAD_ENABLED = recording
    if len(act._parents) != 1 or act._parents[0] is not pre:
        raise ValueError("ffn activation must be a single tensor op of its input")
    need = [p.requires_grad for p in (u, w_up, b_up, w_down, b_down)]

    def bw(g):
        ga, *down = _affine_grads(g, act.data, w_down.data, any(need[:3]), *need[3:])
        if ga is None:
            return None, None, None, *down
        return (*_affine_grads(act._backward_fn(ga)[0], u.data, w_up.data, *need[:3]), *down)

    return _make(_affine(act.data, w_down.data, b_down.data), (u, w_up, b_up, w_down, b_down), bw)


def expert_ffn(u: Tensor, scores: Tensor, sel, w_up: Tensor, b_up: Tensor, w_down: Tensor,
               b_down: Tensor, normalized: bool) -> tuple[Tensor, np.ndarray]:
    """An MoE layer after its router, as one node: (h, gates).

    ``scores`` [T, N-1] are the normal experts' affinities and ``sel`` [T, r]
    the distinct normal experts each token uses (expert - 1), the top affinity first;
    ``w_up`` [N, d, f], ``b_up`` [N, f], ``w_down`` [N, f, d] and ``b_down``
    [N, d] stack all N experts' weights, the shared expert first. With s_max =
    scores[t, sel[t, 0]], the gates are softmax(picked) * s_max over the picked
    scores (the raw scores when not ``normalized``), the shared expert's is
    1 - s_max, and

        h = u + (1 - s_max) FFN_0(u) + sum over j of gates[t, j] FFN_{1 + sel[t, j]}(u).

    Each FFN is ``ffn`` with ``gelu`` (``_gelu_tanh`` and ``_gelu_grad``, looked up
    when called). Every call sorts the (token, slot) pairs stably by expert, gates
    the routed rows and sums each token's slots back; ``gates`` [T, 1 + r] lists the
    shared gate first. The node builds no Tensor but its output. A graph-free
    one-row call runs all N experts as two batched products, then picks its rows;
    any other call runs each expert once on its contiguous block of rows, and a
    recording one keeps each block's pre-activation, activation and tanh term."""
    sel = np.asarray(sel, dtype=np.intp)
    weights = (w_up, b_up, w_down, b_down)
    n = w_up.shape[0] - 1
    if (u.ndim != 2 or sel.ndim != 2 or scores.shape != (u.shape[0], n)
            or sel.shape[0] != u.shape[0] or not 1 <= sel.shape[1] <= n
            or any(w.shape[0] != n + 1 for w in weights)):
        raise ValueError(f"expert_ffn shape mismatch: u {u.shape}, scores {scores.shape}, "
                         f"sel {sel.shape}, experts {[w.shape for w in weights]}")
    if sel.min() < 0 or sel.max() >= n:
        raise ValueError(f"expert_ffn index outside the {n} normal experts")
    t, r = sel.shape
    token = np.arange(t)[:, None]
    picked = scores.data[token, sel]
    s_max = picked[:, :1]
    shared_gate = 1.0 - s_max
    if normalized:  # softmax(picked) * s_max
        soft = _softmax(picked)
        normal_gates = s_max * soft
    else:
        normal_gates = picked
    gates = np.concatenate((shared_gate, normal_gates), axis=1)
    parents = (u, scores, *weights) if _GRAD_ENABLED else ()
    recording = any(p.requires_grad for p in parents)
    order = np.argsort(sel, axis=None, kind="stable")  # (token, slot) pairs by expert
    gate_rows = normal_gates.reshape(-1, 1)[order]
    if t == 1 and not recording:  # a decode step: all N experts in two batched products
        act = np.matmul(u.data, w_up.data)[:, 0]
        act += b_up.data
        out = np.matmul(_gelu_tanh(act)[0][:, None], w_down.data)[:, 0]
        out += b_down.data
        y0, outs = out[:1], out[1 + sel.reshape(-1)[order]]
    else:
        ends = np.cumsum(np.bincount(sel.reshape(-1), minlength=n)).tolist()
        blocks = [(e + 1, lo, hi) for e, (lo, hi) in enumerate(zip([0] + ends, ends)) if hi > lo]
        rows = u.data[order // r]
        runs = [(0, u.data)] + [(e, rows[lo:hi]) for e, lo, hi in blocks]  # (expert, its rows)
        outs, kept = [], []  # kept: (pre, act, tanh) per block, if recording
        for e, x in runs:
            pre = _affine(x, w_up.data[e], b_up.data[e])
            act, tanh = _gelu_tanh(pre)
            outs.append(_affine(act, w_down.data[e], b_down.data[e]))
            if recording:
                kept.append((pre, act, tanh))
            del pre, act, tanh  # held into the next block, they raised large calls' page faults
        y0, outs = outs[0], np.concatenate(outs[1:])
    routed = gate_rows * outs
    h = u.data + shared_gate * y0
    h += _slot_sum(routed, order, r)
    if not recording:
        return Tensor(h), gates
    need = [p.requires_grad for p in (u, *weights)]

    def bw(g):
        gs = g[order // r]
        gg = (_slot_sum((gs * outs).sum(axis=1, keepdims=True), order, 1).reshape(sel.shape)
              if scores.requires_grad else None)
        gs *= gate_rows
        grads = [np.zeros_like(w.data) if need_w else None for w, need_w in zip(weights, need[1:])]
        gxs = []
        for (e, x), (pre, act, tanh), ge in zip(runs, kept, [g * shared_gate] + [
                gs[lo:hi] for _, lo, hi in blocks]):
            ga, *down = _affine_grads(ge, act, w_down.data[e], True, *need[3:])
            gx, *up = _affine_grads(_gelu_grad(pre, tanh, ga), x, w_up.data[e], *need[:3])
            del ga  # held into the next block, it raised the call's peak memory
            gxs.append(gx)
            for buf, gw in zip(grads, up + down):
                if buf is not None:
                    buf[e] = gw  # an expert without rows keeps a zero slice
        gu = (g + gxs[0]) + _slot_sum(np.concatenate(gxs[1:]), order, r) if need[0] else None
        g_scores = None
        if scores.requires_grad:  # the gate product, 1 - s_max and softmax rules, both scatters
            g_smax = -(g * y0).sum(axis=1, keepdims=True)
            if normalized:
                g_soft = gg * s_max
                g_smax += (gg * soft).sum(axis=1, keepdims=True)
                gg = _softmax_grad(g_soft, soft)
            g_scores = np.zeros_like(scores.data)  # sel's rows are distinct: += adds each once
            g_scores[token, sel] += gg
            g_scores[token, sel[:, :1]] += g_smax
        return (gu, g_scores, *grads)

    return _make(h, parents, bw), gates


def mix(stacked: Tensor, coefs: Tensor) -> Tensor:
    """sum over e of coefs[e] * stacked[e] as one node, for stacked [N, ...] and
    coefs [N] of its dtype; the terms add in order from +0, so -0.0 mixes to +0.0."""
    if coefs.shape != stacked.shape[:1]:
        raise ValueError(f"mix shape mismatch: {stacked.shape} with coefficients {coefs.shape}")
    # expert by expert, one slice product at a time: np.add.reduce over the first
    # axis pairs some shapes' terms, and an [N, ...] product raised serve's peak RSS
    out = sum(map(np.multiply, stacked.data, coefs.data), 0.0)
    c = coefs.data.reshape(-1, *(1,) * (stacked.ndim - 1))
    return _make(out, (stacked, coefs), lambda g: (
        g * c if stacked.requires_grad else None,
        (stacked.data * g).reshape(len(c), -1).sum(axis=1) if coefs.requires_grad else None))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """The tensors joined along their first axis."""
    ends = np.cumsum([p.shape[0] for p in parts[:-1]])
    return _make(np.concatenate([p.data for p in parts]), tuple(parts), lambda g: np.split(g, ends))


def tsum(a: Tensor) -> Tensor:
    def bw(g):
        return (np.broadcast_to(g, a.shape),)

    return _make(a.data.sum(), (a,), bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """out[i] = a[indices[i]] along the first axis. Backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows expects 1-d indices, got shape {idx.shape}")

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(a.data[idx], (a,), bw)


def _slot_sum(slots: np.ndarray, order: np.ndarray, group: int) -> np.ndarray:
    """Undo the permutation ``order`` of slot rows, then sum each row's
    ``group`` consecutive slots: [R * group, d] -> [R, d]."""
    unsorted = np.empty_like(slots)
    unsorted[order] = slots
    return unsorted.reshape(-1, group, slots.shape[1]).sum(axis=1)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; positive, each row sums to 1."""
    y = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient into a softmax's input from g at its output y."""
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def softmax(a: Tensor) -> Tensor:
    """Max-subtracted softmax along the last axis; output is positive and sums to 1."""
    if not np.isfinite(a.data).all():
        raise ValueError("softmax input contains non-finite values")
    y = _softmax(a.data)
    return _make(y, (a,), lambda g: (_softmax_grad(g, y),))


def affinities(u: Tensor, centroids: Tensor) -> Tensor:
    """The MoE router: softmax(u @ centroids[1:].T), the normal experts' [T, N-1]
    affinities; centroid row 0, the shared expert's, takes no part and gets a zero
    gradient."""
    if u.ndim != 2 or centroids.ndim != 2 or u.shape[1] != centroids.shape[1]:
        raise ValueError(f"affinities shape mismatch: u {u.shape}, centroids {centroids.shape}")
    ct = np.ascontiguousarray(centroids.data[1:].T)
    scores = u.data @ ct
    if not np.isfinite(scores).all():
        raise ValueError("softmax input contains non-finite values")
    y = _softmax(scores)

    def bw(g):
        gs = _softmax_grad(g, y)
        gc = None
        if centroids.requires_grad:
            gc = np.zeros_like(centroids.data)
            gc[1:] += (u.data.T @ gs).T
        return gs @ ct.T if u.requires_grad else None, gc

    return _make(y, (u, centroids), bw)


def causal_mask(t: int, dtype=np.float32) -> np.ndarray:
    """[t, t] additive mask: 0 where query i may attend to key j (j <= i),
    large negative above the diagonal."""
    return np.triu(np.full((t, t), ATTENTION_MASK_VALUE, dtype=dtype), k=1)


_TILE_MASK = causal_mask(ATTENTION_TILE)  # a tile of r rows adds its [:r, :r] corner


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[t, H * dh] -> [H, t, dh], a view when ``a`` is contiguous."""
    return a.reshape(a.shape[0], n_heads, a.shape[1] // n_heads).transpose(1, 0, 2)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, bounds, n_heads: int,
                     query_bounds=None) -> Tensor:
    """Multi-head causal softmax attention over packed segments.

    k and v are [N, d] with the heads side by side along the columns;
    ``bounds`` holds their segment offsets 0 = b_0 < b_1 < ... < b_S = N. q
    packs a query suffix per segment at ``query_bounds`` 0 = c_0 <= ... <= c_S
    (``bounds`` when None, the square case): segment s's c_{s+1} - c_s queries,
    none up to all of its rows, are its last positions. A query attends to the
    keys of its segment at or before its position, never to another segment:
    per head, softmax(q k^T / sqrt(d_head) + causal_mask) v. The masked
    weights are exactly 0, so outputs are bit-identical under any change to
    later positions or other segments. The result has q's shape, heads side by
    side. A segment's queries run in tiles of ``ATTENTION_TILE`` rows: a tile
    scores only the keys at or before its last row and masks only its diagonal
    block, so cost is per tile and the masked part of a segment's scores is
    never computed. A key/value cache step is one segment whose queries are
    its newest positions.
    """
    bounds = np.asarray(bounds, dtype=np.intp).tolist()
    qb = bounds if query_bounds is None else np.asarray(query_bounds, dtype=np.intp).tolist()
    if (q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or k.shape[1] != q.shape[1]
            or q.shape[1] % n_heads):
        raise ValueError(f"causal_attention shape mismatch: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, {n_heads} heads")
    if (len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != k.shape[0]
            or any(hi <= lo for lo, hi in zip(bounds, bounds[1:]))):
        raise ValueError(f"segment bounds must rise from 0 to {k.shape[0]}, got {bounds}")
    segments = list(zip(bounds, bounds[1:], qb, qb[1:]))
    if len(qb) != len(bounds) or qb[0] != 0 or qb[-1] != q.shape[0] or any(
            not 0 <= q1 - q0 <= hi - lo for lo, hi, q0, q1 in segments):
        raise ValueError(f"query bounds must rise from 0 to {q.shape[0]}, by at most "
                         f"each segment's length, got {qb} for segments {bounds}")
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    recording = _GRAD_ENABLED and (q.requires_grad or k.requires_grad or v.requires_grad)
    tiles = []  # if recording: (lo, hi, query rows, keys, weights) per tile, in order
    out = np.empty(q.shape, q.dtype)  # C order: its head view below takes the writes
    qh, kh, vh, oh = (_split_heads(x, n_heads) for x in (q.data, k.data, v.data, out))
    for lo, hi, q0, q1 in segments:
        past = hi - lo - (q1 - q0)  # the segment's positions before its first query
        for r0 in range(0, q1 - q0, ATTENTION_TILE):
            r1 = min(r0 + ATTENTION_TILE, q1 - q0)
            keys, rows = lo + past + r1, slice(q0 + r0, q0 + r1)
            w = qh[:, rows] @ kh[:, lo:keys].transpose(0, 2, 1)
            w *= scale
            w[:, :, past + r0:] += _TILE_MASK[:r1 - r0, :r1 - r0]
            if not np.isfinite(w).all():
                raise ValueError("softmax input contains non-finite values")
            w -= np.maximum.reduce(w, axis=-1, keepdims=True)
            np.exp(w, out=w)
            w /= np.add.reduce(w, axis=-1, keepdims=True)
            oh[:, rows] = w @ vh[:, lo:keys]
            if recording:
                tiles.append((lo, hi, rows, keys, w))
    if not recording:
        return Tensor(out)

    def bw(g):
        gq, gk, gv = (np.zeros(x.shape, x.dtype) for x in (q, k, v))  # C order, as ``out``
        gh, gqh, gkh, gvh = (_split_heads(x, n_heads) for x in (g, gq, gk, gv))
        # a segment's last tile sees all of its keys: it starts their sums, and a
        # segment without queries keeps zero key and value gradients
        for lo, hi, rows, keys, w in reversed(tiles):
            gw = gh[:, rows] @ vh[:, lo:keys].transpose(0, 2, 1)
            gs = (gw - (gw * w).sum(axis=-1, keepdims=True)) * w * scale
            gqh[:, rows] = gs @ kh[:, lo:keys]
            dk = gs.transpose(0, 2, 1) @ qh[:, rows]
            dv = w.transpose(0, 2, 1) @ gh[:, rows]
            if keys == hi:
                gkh[:, lo:hi], gvh[:, lo:hi] = dk, dv
            else:
                gkh[:, lo:keys] += dk
                gvh[:, lo:keys] += dv
        return gq, gk, gv

    return _make(out, (q, k, v), bw)


def nll(logits: Tensor, targets) -> Tensor:
    """-log softmax(logits)[i, targets[i]] for each row i of a matrix, as [R, 1]."""
    idx = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2 or idx.shape != logits.shape[:1]:
        raise ValueError(f"nll shape mismatch: {logits.shape} with targets {idx.shape}")
    if not np.isfinite(logits.data).all():
        raise ValueError("log_softmax input contains non-finite values")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(idx.size)

    def bw(g):
        gl = np.zeros_like(logp)
        gl[rows, idx] -= g[:, 0]
        return (gl - np.exp(logp) * gl.sum(axis=-1, keepdims=True),)

    return _make(-logp[rows, idx, None], (logits,), bw)


def _gelu_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of x and its tanh term, as ``gelu`` computes them."""
    # Products, not powers: numpy's float32 power path is ~100x slower. The
    # in-place steps round exactly as the expression, term by term.
    t = x * _GELU_A
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x * 0.5
    return y, t


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times GELU's derivative at x, from ``_gelu_tanh``'s tanh term t."""
    # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2), rounded term by term as above
    term = x * (3.0 * _GELU_A)
    term *= x
    term += 1.0
    term *= _GELU_C
    dy = t * t
    np.subtract(1.0, dy, out=dy)
    dy *= x * 0.5
    dy *= term
    np.add(t, 1.0, out=term)
    term *= 0.5
    dy += term
    dy *= g
    return dy


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + a x^3)))."""
    x = a.data
    y, t = _gelu_tanh(x)
    return _make(y, (a,), lambda g: (_gelu_grad(x, t, g),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row layer normalization with learned gain and bias."""
    if x.shape[-1] != gain.shape[0] or gain.shape != bias.shape:
        raise ValueError(f"layer_norm shape mismatch: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    n = x.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)  # .mean, without its overhead
    mu /= n
    centered = x.data - mu
    var = np.add.reduce(centered**2, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    y = xhat * gain.data + bias.data

    def bw(g):
        gb = _sum_to_last_axis(g) if bias.requires_grad else None
        gg = _sum_to_last_axis(g * xhat) if gain.requires_grad else None
        if x.requires_grad:
            dxhat = g * gain.data
            gx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        else:
            gx = None
        return gx, gg, gb

    return _make(y, (x, gain, bias), bw)


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    n_probes: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``f`` must be a deterministic scalar function of the current parameter
    values. The reference is the Richardson extrapolation (4 D(h/2) - D(h)) / 3
    of central differences D, which cancels their h^2 truncation term. The
    error per probed element is |analytic - reference| divided by
    |analytic| + |reference| + 1e-12, or by ``FINITE_DIFF_NOISE_MULTIPLE`` times
    the reference's float64 rounding noise when that is larger. With
    ``n_probes`` set, a seeded random subset of parameter elements is probed;
    otherwise every element is. Run this on float64 parameters: float32
    evaluation noise divided by 2h dominates the quantity being measured.
    """
    h = FINITE_DIFF_STEP
    params = list(params)
    for p in params:
        p.grad = None
    backward(f())
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]

    probes: list[tuple[int, int]] = [
        (pi, j) for pi, p in enumerate(params) for j in range(p.size)
    ]
    if n_probes is not None and n_probes < len(probes):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(probes), size=n_probes, replace=False)
        probes = [probes[int(c)] for c in chosen]

    max_err = 0.0
    with no_grad():
        for pi, j in probes:
            flat = params[pi].data.reshape(-1)
            orig, central, f_max = flat[j], [], 0.0
            for step in (h, h / 2):
                flat[j] = orig + step
                fp = float(f().data)
                flat[j] = orig - step
                fm = float(f().data)
                central.append((fp - fm) / (2.0 * step))
                f_max = max(f_max, abs(fp), abs(fm))
            flat[j] = orig
            reference = (4.0 * central[1] - central[0]) / 3.0
            a = float(analytic[pi].reshape(-1)[j])
            # D(h/2) carries twice D(h)'s rounding noise, the extrapolation (4 * 2 + 1) / 3 times
            noise = 3.0 * np.finfo(np.float64).eps * f_max / h
            err = abs(a - reference) / max(abs(a) + abs(reference) + 1e-12,
                                           FINITE_DIFF_NOISE_MULTIPLE * noise)
            max_err = max(max_err, err)
    return max_err
