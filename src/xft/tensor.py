"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Tensors hold flat row-major float buffers (float32 by default; float64 is
used by the finite-difference oracle). Every differentiable operation records
its inputs and a backward rule; ``backward`` replays the recorded graph in
reverse topological order and accumulates gradients into the leaves.

Broadcasting is deliberately limited to what the transformer needs: scaling
by a Python scalar. Anything else raises.

Dense layers are fused nodes: ``linear`` is x @ w + b and ``ffn`` is
activation(u @ w_up + b_up) @ w_down + b_down, each one node with one backward
rule, bit-identical to the composed ops. ``ffn``'s activation must be a single
op of its input, such as ``gelu``: the node replays that op's backward.
``expert_ffn`` is an MoE layer after its router as one node, over stacked
[N, ...] expert weights; ``mix`` is the merge's convex mix of a stacked tensor.
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

    def __radd__(self, other):
        return add(self, other)

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


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    """a * b for a Python scalar b or a tensor b of a's shape."""
    if _is_scalar_number(b):
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


def _affine_grads(g: np.ndarray, x: np.ndarray, need_x: bool, w: Tensor, b: Tensor):
    """Gradients of x @ w + b for x, w and b; None for an operand that needs none."""
    gx = g @ w.data.T if need_x else None
    gw = x.T @ g if w.requires_grad else None
    gb = _sum_to_last_axis(g) if b.requires_grad else None
    return gx, gw, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: a matrix [N, n], weights [n, m], a bias [m]."""
    return _make(_affine(x.data, w.data, b.data), (x, w, b),
                 lambda g: _affine_grads(g, x.data, x.requires_grad, w, b))


def _ffn(x: np.ndarray, need_x: bool, w_up: Tensor, b_up: Tensor, w_down: Tensor,
         b_down: Tensor, activation: Callable[[Tensor], Tensor]):
    """activation(x @ w_up + b_up) @ w_down + b_down for an array x, and its
    backward rule g -> (gx, gw_up, gb_up, gw_down, gb_down), None for an operand
    that needs no gradient (x when ``need_x`` is False). The rule replays the
    activation's recorded backward, so the activation must be a single tensor
    op of its input; it is recorded even under ``no_grad``, so that holds there."""
    global _GRAD_ENABLED
    pre = Tensor(_affine(x, w_up.data, b_up.data), requires_grad=True)
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

    return _affine(act.data, w_down.data, b_down.data), bw


def ffn(u: Tensor, w_up: Tensor, b_up: Tensor, w_down: Tensor, b_down: Tensor,
        activation: Callable[[Tensor], Tensor]) -> Tensor:
    """activation(u @ w_up + b_up) @ w_down + b_down as one node; ``activation``
    is a single tensor op of its input, such as ``gelu``."""
    out, bw = _ffn(u.data, u.requires_grad, w_up, b_up, w_down, b_down, activation)
    return _make(out, (u, w_up, b_up, w_down, b_down), bw)


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

    Each FFN is ``ffn`` with ``gelu``, looked up when called. The (token, slot)
    pairs are stably sorted by expert, each expert runs once on its contiguous
    block of rows, and each token's gated outputs are summed back. ``gates``
    [T, 1 + r] lists the shared gate first. An expert without rows gets a zero
    gradient slice. Without a graph to record, the node builds no Tensor but
    its output: each block runs ``_ffn``'s arithmetic with ``gelu``'s forward
    ``_gelu_tanh``, and a one-row call runs each expert as gemv calls around
    one GELU over all of them."""
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
        soft = picked - np.maximum.reduce(picked, axis=1, keepdims=True)
        np.exp(soft, out=soft)
        soft /= np.add.reduce(soft, axis=1, keepdims=True)
        normal_gates = s_max * soft
    else:
        normal_gates = picked
    gates = np.concatenate((shared_gate, normal_gates), axis=1)
    parents = (u, scores, *weights) if _GRAD_ENABLED else ()
    recording = any(p.requires_grad for p in parents)
    if t == 1 and not recording:  # gemvs, one GELU: a one-row layer took 189 us, 316 in blocks
        used = [0, *(sel[0] + 1).tolist()]
        pre = np.concatenate([u.data @ w_up.data[e] for e in used])
        pre += b_up.data[used]
        act = _gelu_tanh(pre)[0]
        out = np.concatenate([act[i:i + 1] @ w_down.data[e] for i, e in enumerate(used)])
        out += b_down.data[used]
        out[1:] *= normal_gates.T
        h = u.data + shared_gate * out[:1]
        h += out[1:].reshape(1, r, -1).sum(axis=1)  # the slots' sum, as ``_slot_sum`` adds them
        return Tensor(h), gates
    order = np.argsort(sel, axis=None, kind="stable")  # (token, slot) pairs by expert
    ends = np.cumsum(np.bincount(sel.reshape(-1), minlength=n)).tolist()
    blocks = [(e + 1, lo, hi) for e, (lo, hi) in enumerate(zip([0] + ends, ends)) if hi > lo]
    rows = u.data[order // r]
    gate_rows = normal_gates.reshape(-1, 1)[order]
    runs = [(0, u.data)] + [(e, rows[lo:hi]) for e, lo, hi in blocks]  # (expert, its rows)
    if recording:  # each expert through _ffn on views of its weights, with a backward rule
        outs, rules = zip(*(_ffn(x, u.requires_grad, *(Tensor(w.data[e], w.requires_grad)
                                                      for w in weights), gelu) for e, x in runs))
        y0, outs = outs[0], np.concatenate(outs[1:], axis=0)
        routed = gate_rows * outs
    else:  # no recorded GELU: serve's eval chunk took 3.2 ms, 3.9 ms through _ffn
        y0, *routed = (_affine(_gelu_tanh(_affine(x, w_up.data[e], b_up.data[e]))[0],
                               w_down.data[e], b_down.data[e]) for e, x in runs)
        routed = np.concatenate(routed)
        routed *= gate_rows
    h = u.data + shared_gate * y0
    h += _slot_sum(routed, order, r)
    if not recording:
        return Tensor(h), gates

    def bw(g):
        gs = g[order // r]
        gg = (_slot_sum((gs * outs).sum(axis=1, keepdims=True), order, 1).reshape(sel.shape)
              if scores.requires_grad else None)
        gs *= gate_rows
        grads = [np.zeros_like(w.data) if w.requires_grad else None for w in weights]
        gxs = []
        for (e, _), rule, g_run in zip(runs, rules, [g * shared_gate] + [
                gs[lo:hi] for _, lo, hi in blocks]):
            gx, *expert_grads = rule(g_run)
            gxs.append(gx)
            for buf, gw in zip(grads, expert_grads):
                if buf is not None:
                    buf[e] = gw  # an expert without rows keeps a zero slice
        gu = ((g + gxs[0]) + _slot_sum(np.concatenate(gxs[1:]), order, r)
              if u.requires_grad else None)
        g_scores = None
        if scores.requires_grad:  # the gate product, 1 - s_max and softmax rules, both scatters
            g_smax = -(g * y0).sum(axis=1, keepdims=True)
            if normalized:
                g_soft = gg * s_max
                g_smax += (gg * soft).sum(axis=1, keepdims=True)
                gg = (g_soft - (g_soft * soft).sum(axis=-1, keepdims=True)) * soft
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
    e = a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True)
    np.exp(e, out=e)
    y = e / np.add.reduce(e, axis=-1, keepdims=True)

    def bw(g):
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return _make(y, (a,), bw)


def causal_mask(t: int, dtype=np.float32) -> np.ndarray:
    """[t, t] additive mask: 0 where query i may attend to key j (j <= i),
    large negative above the diagonal."""
    return np.triu(np.full((t, t), ATTENTION_MASK_VALUE, dtype=dtype), k=1)


_TILE_MASK = causal_mask(ATTENTION_TILE)  # a tile of r rows adds its [:r, :r] corner


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
    bounds = np.asarray(bounds, dtype=np.intp).tolist()
    past = k.shape[0] - q.shape[0]
    if (q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or k.shape[1] != q.shape[1]
            or q.shape[1] % n_heads or past < 0 or (past and len(bounds) != 2)):
        raise ValueError(f"causal_attention shape mismatch: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, {n_heads} heads, {len(bounds) - 1} segments")
    if (len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != q.shape[0]
            or any(hi <= lo for lo, hi in zip(bounds, bounds[1:]))):
        raise ValueError(f"segment bounds must rise from 0 to {q.shape[0]}, got {bounds}")
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    recording = _GRAD_ENABLED and (q.requires_grad or k.requires_grad or v.requires_grad)
    segments = []  # if recording: (lo, hi, q, k, v, [(r0, r1, weights) per tile]) per segment
    out = np.empty_like(q.data)
    for lo, hi in zip(bounds, bounds[1:]):
        qh = _split_heads(q.data[lo:hi], n_heads)
        kh, vh = (_split_heads(x.data[lo:hi + past], n_heads) for x in (k, v))
        if recording:
            segments.append((lo, hi, qh, kh, vh, []))
        for r0 in range(0, hi - lo, ATTENTION_TILE):
            r1 = min(r0 + ATTENTION_TILE, hi - lo)
            w = qh[:, r0:r1] @ kh[:, :past + r1].transpose(0, 2, 1)
            w *= scale
            w[:, :, past + r0:] += _TILE_MASK[:r1 - r0, :r1 - r0]
            if not np.isfinite(w).all():
                raise ValueError("softmax input contains non-finite values")
            w -= np.maximum.reduce(w, axis=-1, keepdims=True)
            np.exp(w, out=w)
            w /= np.add.reduce(w, axis=-1, keepdims=True)
            out[lo + r0:lo + r1] = _merge_heads(w @ vh[:, :past + r1])
            if recording:
                segments[-1][5].append((r0, r1, w))
    if not recording:
        return Tensor(out)

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


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + a x^3)))."""
    x = a.data
    y, t = _gelu_tanh(x)

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
