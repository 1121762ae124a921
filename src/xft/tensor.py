"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Tensors hold flat row-major float buffers (float32 by default; float64 is
used by the finite-difference oracle). Every differentiable operation records
its inputs and a backward rule; ``backward`` replays the recorded graph in
reverse topological order and accumulates gradients into the leaves.

Broadcasting is deliberately limited to the cases the transformer needs:
scalar and size-1 scaling, and per-row column scaling. Anything else raises.

Dense layers are fused nodes: ``linear`` is x @ w + b and ``ffn`` is
activation(u @ w_up + b_up) @ w_down + b_down, each one node with one backward
rule, bit-identical to the composed ops. ``ffn``'s activation must be a single
op of its input, such as ``gelu``: the node replays that op's backward.
``expert_ffn`` is an MoE layer's routed experts, gating and combine as one node.
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

    def is_leaf(self) -> bool:
        return not self._parents

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # Arithmetic operators delegate to the module-level ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return rsub(other, self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tsum(self)

    def transpose(self):
        return transpose(self)


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


def _is_scalar_number(x) -> bool:
    return isinstance(x, (int, float, np.floating, np.integer))


def _sum_to_last_axis(g: np.ndarray) -> np.ndarray:
    """Reduce a gradient to a 1-d bias shape by summing leading axes."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def add(a: Tensor, b) -> Tensor:
    """a + b for a Python scalar b or a tensor b of a's shape."""
    if _is_scalar_number(b):
        c = float(b)
        return _make(a.data + c, (a,), lambda g: (g,))
    if not isinstance(b, Tensor):
        raise TypeError(f"cannot add Tensor and {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def rsub(c, a: Tensor) -> Tensor:
    """c - a for a Python scalar c (used for complement gates like 1 - s)."""
    if not _is_scalar_number(c):
        raise TypeError(f"cannot subtract Tensor from {type(c).__name__}")
    return _make(float(c) - a.data, (a,), lambda g: (-g,))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    if _is_scalar_number(b):
        c = float(b)
        return _make(a.data * c, (a,), lambda g: (g * c,))
    if not isinstance(b, Tensor):
        raise TypeError(f"cannot multiply Tensor and {type(b).__name__}")
    if a.shape == b.shape:
        return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
    # size-1 tensor scaling an arbitrary tensor
    if a.size == 1 or b.size == 1:
        s, m = (a, b) if a.size == 1 else (b, a)
        s_scalar = s.data.reshape(())

        def bw_scalar(g, s=s, m=m, s_scalar=s_scalar):
            gs = (g * m.data).sum().reshape(s.shape).astype(g.dtype) if s.requires_grad else None
            gm = g * s_scalar if m.requires_grad else None
            return (gs, gm) if s is a else (gm, gs)

        return _make(m.data * s_scalar, (a, b), bw_scalar)
    # per-row column scaling: [T, 1] against [T, n]
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == b.shape[0] and 1 in (a.shape[1], b.shape[1]):
        col, m = (a, b) if a.shape[1] == 1 else (b, a)

        def bw_col(g, col=col, m=m):
            gc = (g * m.data).sum(axis=1, keepdims=True) if col.requires_grad else None
            gm = g * col.data if m.requires_grad else None
            return (gc, gm) if col is a else (gm, gc)

        return _make(col.data * m.data, (a, b), bw_col)
    raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")


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


def _affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w + b, the bias added in place to the fresh product."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(f"affine shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    y = x @ w.data
    y += b.data
    return y


def _affine_grads(g: np.ndarray, x: np.ndarray, need_x: bool, w: Tensor, b: Tensor):
    """Gradients of x @ w + b for x, w and b; None for an operand that needs none."""
    gx = g @ w.data.T if need_x else None
    gw = x.T @ g if w.requires_grad else None
    gb = _sum_to_last_axis(g) if b.requires_grad else None
    return gx, gw, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: a matrix [N, n], weights [n, m], a bias [m]."""
    return _make(_affine(x.data, w, b), (x, w, b),
                 lambda g: _affine_grads(g, x.data, x.requires_grad, w, b))


def _ffn(x: np.ndarray, need_x: bool, w_up: Tensor, b_up: Tensor, w_down: Tensor,
         b_down: Tensor, activation: Callable[[Tensor], Tensor]):
    """activation(x @ w_up + b_up) @ w_down + b_down for an array x, and its
    backward rule g -> (gx, gw_up, gb_up, gw_down, gb_down), None for an operand
    that needs no gradient (x when ``need_x`` is False). The rule replays the
    activation's recorded backward, so the activation must be a single tensor
    op of its input; it is recorded even under ``no_grad``, so that holds there."""
    global _GRAD_ENABLED
    pre = Tensor(_affine(x, w_up, b_up), requires_grad=True)
    recording, _GRAD_ENABLED = _GRAD_ENABLED, True
    try:
        act = activation(pre)
    finally:
        _GRAD_ENABLED = recording
    if len(act._parents) != 1 or act._parents[0] is not pre:
        raise ValueError("ffn activation must be a single tensor op of its input")
    need_up = need_x or w_up.requires_grad or b_up.requires_grad

    def bw(g):
        ga, gw_down, gb_down = _affine_grads(g, act.data, need_up, w_down, b_down)
        if ga is None:
            return None, None, None, gw_down, gb_down
        return (*_affine_grads(act._backward_fn(ga)[0], x, need_x, w_up, b_up), gw_down, gb_down)

    return _affine(act.data, w_down, b_down), bw


def ffn(u: Tensor, w_up: Tensor, b_up: Tensor, w_down: Tensor, b_down: Tensor,
        activation: Callable[[Tensor], Tensor]) -> Tensor:
    """activation(u @ w_up + b_up) @ w_down + b_down as one node; ``activation``
    is a single tensor op of its input, such as ``gelu``."""
    out, bw = _ffn(u.data, u.requires_grad, w_up, b_up, w_down, b_down, activation)
    return _make(out, (u, w_up, b_up, w_down, b_down), bw)


def expert_ffn(u: Tensor, gates: Tensor, sel, experts: Sequence[Sequence[Tensor]]) -> Tensor:
    """out[t] = sum over j of gates[t, j] * FFN_{sel[t, j]}(u[t]) as one node.

    ``experts`` holds each expert's (w_up, b_up, w_down, b_down); the FFN is
    ``ffn`` with ``gelu``, looked up when called. The [T, k] (token, slot) pairs
    are stably sorted by expert, each expert runs once on its contiguous block
    of rows, and each token's gated outputs are summed back in place. An expert
    that receives no rows gets no gradient."""
    sel = np.asarray(sel, dtype=np.intp)
    if u.ndim != 2 or sel.ndim != 2 or gates.shape != sel.shape or sel.shape[0] != u.shape[0]:
        raise ValueError(f"expert_ffn shape mismatch: u {u.shape}, gates {gates.shape}, sel {sel.shape}")
    if sel.size and (sel.min() < 0 or sel.max() >= len(experts)):
        raise ValueError(f"expert_ffn index outside the {len(experts)} experts")
    k = sel.shape[1]
    order = np.argsort(sel, axis=None, kind="stable")
    counts = np.bincount(sel.reshape(-1), minlength=len(experts))
    ends = np.cumsum(counts)
    parents = (u, gates, *(w for expert in experts for w in expert))
    recording = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    rows = u.data[order // k]
    blocks, outs = [], []  # (expert, lo, hi, backward rule) per non-empty block, if recording
    for e, (lo, hi) in enumerate(zip(ends - counts, ends)):
        if hi > lo:
            y, block_bw = _ffn(rows[lo:hi], u.requires_grad, *experts[e], gelu)
            outs.append(y)
            if recording:
                blocks.append((e, lo, hi, block_bw))
    outs = np.concatenate(outs, axis=0)
    gate_rows = gates.data.reshape(-1, 1)[order]
    if not recording:  # nothing reads the unscaled outputs: scale in place
        outs *= gate_rows
        return Tensor(_slot_sum(outs, order, k))

    def bw(g):
        gs = g[order // k]
        gg = (_slot_sum((gs * outs).sum(axis=1, keepdims=True), order, 1).reshape(sel.shape)
              if gates.requires_grad else None)
        gs *= gate_rows
        grows, expert_grads = np.empty_like(rows), [(None,) * 4] * len(experts)
        for e, lo, hi, block_bw in blocks:
            gx, *expert_grads[e] = block_bw(gs[lo:hi])
            if u.requires_grad:
                grows[lo:hi] = gx
        gu = _slot_sum(grows, order, k) if u.requires_grad else None
        return (gu, gg, *(gw for grads in expert_grads for gw in grads))

    return _make(_slot_sum(gate_rows * outs, order, k), parents, bw)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


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


def take_along_rows(a: Tensor, indices) -> Tensor:
    """out[i, j] = a[i, indices[i, j]] for a matrix a and [T, k] indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ValueError(f"take_along_rows shape mismatch: {a.shape} with indices {idx.shape}")
    rows = np.arange(a.shape[0])[:, None]

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (np.broadcast_to(rows, idx.shape), idx), g)
        return (ga,)

    return _make(np.take_along_axis(a.data, idx, axis=1), (a,), bw)


def _slot_sum(slots: np.ndarray, order: np.ndarray, group: int) -> np.ndarray:
    """Undo the permutation ``order`` of slot rows, then sum each row's
    ``group`` consecutive slots: [R * group, d] -> [R, d]."""
    unsorted = np.empty_like(slots)
    unsorted[order] = slots
    return unsorted.reshape(-1, group, slots.shape[1]).sum(axis=1)


def softmax(a: Tensor) -> Tensor:
    """Max-subtracted softmax along the last axis; output is positive and sums to 1."""
    if not np.isfinite(a.data).all():
        raise ValueError("softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return _make(y, (a,), bw)


def causal_mask(t: int, dtype=np.float32) -> np.ndarray:
    """[t, t] additive mask: 0 where query i may attend to key j (j <= i),
    large negative above the diagonal."""
    return np.triu(np.full((t, t), ATTENTION_MASK_VALUE, dtype=dtype), k=1)


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[t, H * dh] -> [H, t, dh]."""
    return a.reshape(a.shape[0], n_heads, -1).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """[H, t, dh] -> [t, H * dh]."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, bounds, n_heads: int) -> Tensor:
    """Multi-head causal softmax attention over packed segments.

    q, k and v are [N, d] with the heads side by side along the columns;
    ``bounds`` holds the segment offsets 0 = b_0 < b_1 < ... < b_S = N. Row i
    of segment s attends to the rows of s at or before i, never to another
    segment: per head, softmax(q k^T / sqrt(d_head) + causal_mask) v. The
    masked weights are exactly 0, so outputs are bit-identical under any
    change to later positions or other segments. The result is [N, d], heads
    side by side. Each segment runs in tiles of ``ATTENTION_TILE`` query rows:
    a tile scores only the keys at or before its last row and masks only its
    diagonal block, so cost is per tile and the masked half of a segment's
    score square is never computed.

    With a single segment, k and v may hold ``past`` more rows than q: they
    are then the keys and values of positions 0 ... past + N - 1, q holds the
    queries of the last N positions, and query row i attends to key rows
    0 ... past + i. ``past`` = 0 is the square case above.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    past = k.shape[0] - q.shape[0]
    if (q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or k.shape[1] != q.shape[1]
            or q.shape[1] % n_heads or past < 0 or (past and bounds.size != 2)):
        raise ValueError(f"causal_attention shape mismatch: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, {n_heads} heads, {bounds.size - 1} segments")
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    segments = []  # (lo, hi, q, k, v, [(r0, r1, weights) per tile]) per segment, heads batched
    out = np.empty_like(q.data)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        qh = _split_heads(q.data[lo:hi], n_heads)
        kh, vh = (_split_heads(x.data[lo:hi + past], n_heads) for x in (k, v))
        tiles = []
        for r0 in range(0, hi - lo, ATTENTION_TILE):
            r1 = min(r0 + ATTENTION_TILE, hi - lo)
            w = qh[:, r0:r1] @ kh[:, :past + r1].transpose(0, 2, 1)
            w *= scale
            w[:, :, past + r0:] += causal_mask(r1 - r0, q.data.dtype)
            if not np.isfinite(w).all():
                raise ValueError("softmax input contains non-finite values")
            w -= w.max(axis=-1, keepdims=True)
            np.exp(w, out=w)
            w /= w.sum(axis=-1, keepdims=True)
            out[lo + r0:lo + r1] = _merge_heads(w @ vh[:, :past + r1])
            tiles.append((r0, r1, w))
        segments.append((lo, hi, qh, kh, vh, tiles))

    def bw(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for lo, hi, qh, kh, vh, tiles in segments:
            gh = _split_heads(g[lo:hi], n_heads)
            for r0, r1, w in reversed(tiles):  # the last tile sees every key: it starts the sums
                keys = past + r1
                gw = gh[:, r0:r1] @ vh[:, :keys].transpose(0, 2, 1)
                gs = (gw - (gw * w).sum(axis=-1, keepdims=True)) * w * scale
                gq[lo + r0:lo + r1] = _merge_heads(gs @ kh[:, :keys])
                dk = gs.transpose(0, 2, 1) @ qh[:, r0:r1]
                dv = w.transpose(0, 2, 1) @ gh[:, r0:r1]
                if r1 == hi - lo:
                    gkh, gvh = dk, dv
                else:
                    gkh[:, :keys] += dk
                    gvh[:, :keys] += dv
            gk[lo:hi + past] = _merge_heads(gkh)
            gv[lo:hi + past] = _merge_heads(gvh)
        return gq, gk, gv

    return _make(out, (q, k, v), bw)


def log_softmax(a: Tensor) -> Tensor:
    if not np.isfinite(a.data).all():
        raise ValueError("log_softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return _make(y, (a,), bw)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + a x^3)))."""
    # Products, not powers: numpy's float32 power path is ~100x slower. The
    # in-place steps round exactly as the expression above, term by term.
    x = a.data
    t = x * _GELU_A
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x * 0.5

    def bw(g):
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
        return (dy,)

    return _make(y, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row layer normalization with learned gain and bias."""
    if x.shape[-1] != gain.shape[0] or gain.shape != bias.shape:
        raise ValueError(f"layer_norm shape mismatch: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    y = xhat * gain.data + bias.data

    def bw(g):
        n = x.shape[-1]
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
