"""Reference paths the fast ones are checked against: per-token routers for
``MoELayer.forward``, which routes whole batches as arrays, uncached greedy
decoding for ``generate_greedy``, which runs each new token against a
key/value cache, the all-rows loss for ``model_forward_loss``, which runs the
last slot and the output head on the scored rows only, the composed
expressions that ``tn.linear``, ``tn.ffn``, ``tn.affinities``,
``tn.expert_ffn``, ``tn.nll`` and ``tn.mix`` compute as one node each
(``affinities`` as the router's gather, transpose, product and softmax;
``expert_ffn`` as the MoE layer's graph ops after its router, with the routed
experts' composed dispatch; ``nll`` as log-softmax, target pick and negation;
``mix`` as the learned merge's per-expert products and sums), with the bias
add, scalar add, negation, transpose, log-softmax, broadcast products,
complement, row and slice ops they are built from, the ``reshape`` and
``identity`` ops the tests use, layer
normalization with ``.mean``, GELU as whole-array expressions, which
``tn.gelu`` evaluates in place, and the checkpoint's per-expert parameter
names. The system itself never calls these."""

import math
from dataclasses import dataclass

import numpy as np

from xft import tensor as tn
from xft.model import FFNWeights, _segment_bounds
from xft.moe import SHARED_EXPERT, MoELayer
from xft.tensor import Tensor


@dataclass
class RouterDecision:
    """One token's routing outcome, as returned by the reference routers.

    ``scores`` holds the normal experts' affinities (softmax outputs), indexed
    by expert - 1. ``selected`` lists expert indices, shared expert first,
    normal experts in descending affinity; ``gates`` aligns with it.
    """

    scores: np.ndarray | None
    s_max: float
    selected: list[int]
    gates: np.ndarray


def _ranked_indices(scores_row: np.ndarray) -> np.ndarray:
    """Descending-score order; ties resolve toward the lower index."""
    return np.argsort(-scores_row, kind="stable")


def affinity_scores(u, layer: MoELayer) -> np.ndarray:
    """Per-expert affinities with a -inf sentinel in the shared slot.

    The sentinel keeps the shared expert out of top-k and max; normal experts
    get the softmax of their centroid dot products. Accepts [d] or [T, d].
    """
    arr = u.data if isinstance(u, Tensor) else np.asarray(u, dtype=np.float32)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    with tn.no_grad():
        normal = layer.normal_affinities(Tensor(arr)).data
    out = np.full((arr.shape[0], layer.cfg.n_experts), -np.inf, dtype=normal.dtype)
    out[:, 1:] = normal
    return out[0] if single else out


def route_standard(s: np.ndarray, k: int) -> RouterDecision:
    """Top-k routing with raw softmax gates (no shared expert).

    ``s`` is the plain softmax over all experts; the selected gates are the
    raw scores, so their sum is generally below 1.
    """
    s = np.asarray(s)
    if k > s.shape[0]:
        raise ValueError(f"top_k {k} exceeds expert count {s.shape[0]}")
    ranked = _ranked_indices(s)[:k]
    return RouterDecision(
        scores=s.copy(),
        s_max=float(s[ranked[0]]),
        selected=[int(i) for i in ranked],
        gates=s[ranked].copy(),
    )


def route_shared_normalized(s: np.ndarray, k: int, normalized: bool = True) -> RouterDecision:
    """Shared-expert routing over an affinity vector from ``affinity_scores``.

    The shared expert (slot 0, -inf sentinel) is always selected with gate
    1 - s_max. The top k-1 normal experts get softmax-normalized gates scaled
    by s_max, so all selected gates sum to 1; with ``normalized`` off, the
    raw affinities are used instead and the sum constraint is dropped.
    """
    s = np.asarray(s)
    n = s.shape[0]
    if k < 2:
        raise ValueError("top_k must be at least 2 (shared plus one normal expert)")
    if k - 1 > n - 1:
        raise ValueError(f"top_k-1 = {k - 1} exceeds normal expert count {n - 1}")
    normal = s[1:]
    ranked = _ranked_indices(normal)
    sel = ranked[: k - 1]
    s_max = float(normal[ranked[0]])
    picked = normal[sel].astype(np.float64)
    if normalized:
        e = np.exp(picked - picked.max())
        normal_gates = (e / e.sum()) * s_max
    else:
        normal_gates = picked
    return RouterDecision(
        scores=normal.copy(),
        s_max=s_max,
        selected=[SHARED_EXPERT] + [int(i) + 1 for i in sel],
        gates=np.concatenate(([1.0 - s_max], normal_gates)),
    )


def generate_uncached(model, prompt, max_new: int) -> list[int]:
    """Greedy decoding that reruns ``model.logits`` on the whole prefix for
    every new token; ties break toward the lower token id."""
    seq = [int(t) for t in prompt]
    with tn.no_grad():
        for _ in range(max_new):
            if len(seq) >= model.cfg.max_seq_len:
                break
            seq.append(int(np.argmax(model.logits(seq).data[-1])))
    return seq


def forward_loss_all_rows(model, tokens, loss_mask, bounds=None, per_token: bool = False):
    """``model_forward_loss`` with the logits, log-softmax and target pick
    over every input row; unscored rows enter the sum with weight 0."""
    tokens = np.asarray(tokens, dtype=np.intp)
    mask = np.asarray(loss_mask, dtype=np.float64)
    bounds = _segment_bounds(bounds, tokens.size)
    is_input = np.ones(tokens.size, dtype=bool)
    is_input[bounds[1:] - 1] = False
    is_target = np.ones(tokens.size, dtype=bool)
    is_target[bounds[:-1]] = False
    target_mask = mask[is_target]
    in_bounds = bounds - np.arange(bounds.size)
    n_targets = np.add.reduceat(target_mask, in_bounds[:-1])
    if per_token:
        weights = target_mask / target_mask.sum()
    else:
        weights = target_mask / np.repeat(n_targets * n_targets.size, np.diff(in_bounds))
    logits = model.logits(tokens[is_input], in_bounds)
    picked = take_along_rows(log_softmax(logits), tokens[is_target][:, None])
    loss = neg((picked * Tensor(weights[:, None].astype(logits.data.dtype))).sum())
    return logits, loss


def add_bias(a, b):
    """a + b for a matrix a and a bias b along its last axis."""
    if b.ndim != 1 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {a.shape} + {b.shape}")
    return tn._make(a.data + b.data, (a, b),
                    lambda g: (g, tn._sum_to_last_axis(g) if b.requires_grad else None))


def rsub(c: float, a):
    """c - a for a Python scalar c, such as the shared gate 1 - s_max."""
    return tn._make(float(c) - a.data, (a,), lambda g: (-g,))


def radd(c: float, a):
    """c + a for a Python scalar c, such as the 0 a sum of terms starts from."""
    return tn._make(float(c) + a.data, (a,), lambda g: (g,))


def neg(a):
    """-a, such as the loss's sign."""
    return tn._make(-a.data, (a,), lambda g: (-g,))


def transpose(a):
    """The transpose of a matrix."""
    if a.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {a.shape}")
    return tn._make(a.data.T.copy(), (a,), lambda g: (g.T,))


def take_along_rows(a, indices):
    """out[i, j] = a[i, indices[i, j]] for a matrix a and [T, k] indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ValueError(f"take_along_rows shape mismatch: {a.shape} with indices {idx.shape}")
    rows = np.arange(a.shape[0])[:, None]

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (np.broadcast_to(rows, idx.shape), idx), g)
        return (ga,)

    return tn._make(np.take_along_axis(a.data, idx, axis=1), (a,), bw)


def log_softmax(a):
    """Max-subtracted log-softmax along the last axis."""
    if not np.isfinite(a.data).all():
        raise ValueError("log_softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return tn._make(y, (a,), lambda g: (g - np.exp(y) * g.sum(axis=-1, keepdims=True),))


def affinities_composed(u, centroids):
    """``tn.affinities`` as the four nodes it replaces: the normal experts'
    centroid rows gathered, transposed, the product and the softmax."""
    normal = tn.gather_rows(centroids, np.arange(1, centroids.shape[0]))
    return tn.softmax(u @ transpose(normal))


def nll_composed(logits, targets):
    """``tn.nll`` as the three nodes it replaces: log-softmax, the target pick
    and the negation."""
    return neg(take_along_rows(log_softmax(logits), np.asarray(targets)[:, None]))


def bmul(a, b):
    """a * b with the broadcasts only the composed forms use: a size-1 tensor
    scaling any tensor, and a [T, 1] column scaling the rows of a [T, n]
    matrix. Python scalars and equal shapes are ``tn.mul``."""
    if not isinstance(b, tn.Tensor) or a.shape == b.shape:
        return tn.mul(a, b)
    if a.size == 1 or b.size == 1:
        s, m = (a, b) if a.size == 1 else (b, a)
        s_scalar = s.data.reshape(())

        def bw_scalar(g):
            gs = (g * m.data).sum().reshape(s.shape).astype(g.dtype) if s.requires_grad else None
            gm = g * s_scalar if m.requires_grad else None
            return (gs, gm) if s is a else (gm, gs)

        return tn._make(m.data * s_scalar, (a, b), bw_scalar)
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == b.shape[0] and 1 in (a.shape[1], b.shape[1]):
        col, m = (a, b) if a.shape[1] == 1 else (b, a)

        def bw_col(g):
            gc = (g * m.data).sum(axis=1, keepdims=True) if col.requires_grad else None
            gm = g * col.data if m.requires_grad else None
            return (gc, gm) if col is a else (gm, gc)

        return tn._make(col.data * m.data, (a, b), bw_col)
    raise ValueError(f"bmul shape mismatch: {a.shape} * {b.shape}")


def reshape(a, shape):
    """``a`` with its elements in row-major order laid out as ``shape``."""
    return tn._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def identity(a):
    """Identity activation, a stand-in for GELU as ``tn.ffn``'s activation."""
    return tn._make(a.data.copy(), (a,), lambda g: (g,))


def linear_composed(x, w, b):
    """``tn.linear`` as two nodes: matmul, then bias add."""
    return add_bias(x @ w, b)


def ffn_composed(u, w_up, b_up, w_down, b_down, activation):
    """``tn.ffn`` as five nodes: matmul, bias add, activation, matmul, bias add."""
    return add_bias(activation(add_bias(u @ w_up, b_up)) @ w_down, b_down)


def slice_rows(a, start: int, stop: int):
    """Rows ``start:stop`` of a matrix."""
    if a.ndim != 2:
        raise ValueError(f"slice_rows expects a matrix, got shape {a.shape}")

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return tn._make(a.data[start:stop], (a,), bw)


def concat_rows(parts):
    parts = tuple(parts)
    if not parts or any(p.ndim != 2 for p in parts):
        raise ValueError("concat_rows expects a nonempty sequence of matrices")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def bw(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return tn._make(np.concatenate([p.data for p in parts], axis=0), parts, bw)


def _check_slots(a, order: np.ndarray, n_slots: int, op: str) -> None:
    if a.ndim != 2 or order.shape != (n_slots,):
        raise ValueError(f"{op} shape mismatch: {a.shape} with order {order.shape}")


def dispatch_rows(a, order, group: int):
    """out[i] = a[order[i] // group] for a permutation ``order`` of the
    a.shape[0] * group slots, slot j of row r being r * group + j. The
    backward pass is ``combine_rows``."""
    order = np.asarray(order, dtype=np.intp)
    _check_slots(a, order, a.shape[0] * group, "dispatch_rows")
    return tn._make(a.data[order // group], (a,), lambda g: (tn._slot_sum(g, order, group),))


def combine_rows(a, order, group: int):
    """Adjoint of ``dispatch_rows``: out[r] = sum over j of the slot row that
    ``order`` moved r * group + j to. [R * group, d] -> [R, d]."""
    order = np.asarray(order, dtype=np.intp)
    _check_slots(a, order, a.shape[0], "combine_rows")
    return tn._make(tn._slot_sum(a.data, order, group), (a,), lambda g: (g[order // group],))


def expert_ffn_composed(u, gates, sel, experts):
    """The routed experts of ``moe_layer_composed``, out[t] = sum over j of
    gates[t, j] * FFN_{sel[t, j]}(u[t]), as composed nodes: the rows and the
    gates dispatched in expert order, one slice and one ``tn.ffn`` per
    non-empty expert, their concatenation, the gate product and the combine."""
    t, k = sel.shape
    slots = sel.reshape(-1)
    order = np.argsort(slots, kind="stable")
    counts = np.bincount(slots, minlength=len(experts))
    ends = np.cumsum(counts)
    rows = dispatch_rows(u, order, k)
    gate_rows = dispatch_rows(reshape(gates, (t * k, 1)), order, 1)
    outputs = [tn.ffn(slice_rows(rows, lo, hi), *experts[e], tn.gelu)
               for e, (lo, hi) in enumerate(zip(ends - counts, ends)) if hi > lo]
    return combine_rows(bmul(concat_rows(outputs), gate_rows), order, k)


def layer_norm_mean(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``tn.layer_norm``'s forward with ``.mean`` for the mean and variance."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    return centered * (1.0 / np.sqrt(var + tn.LAYER_NORM_EPS)) * gain + bias


def gelu_expressions(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU and its derivative at x, one expression each."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    y = 0.5 * x * (1.0 + t)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3.0 * a * x * x))
    return y, dy


def take(a, e: int):
    """Entry ``e`` along the first axis of a stacked [N, ...] tensor, as a node."""
    def bw(g):
        ga = np.zeros_like(a.data)
        ga[e] = g
        return (ga,)

    return tn._make(a.data[e], (a,), bw)


def expert_weights(weights, e: int) -> FFNWeights:
    """Expert ``e`` of a layer's stacked ``FFNWeights``, as ``take`` nodes, so
    gradients reach the stacked tensors."""
    return FFNWeights(*(take(t, e) for t in weights.tensors().values()))


def per_expert_parameters(model):
    """(name, tensor) of every parameter in the checkpoint's file order: an MoE
    layer's experts one by one, named ``layers.i.moe.experts.e.key``, each
    tensor a view into the layer's stacked arrays."""
    yield from (("tok_emb", model.tok_emb), ("pos_emb", model.pos_emb))
    for i, block in enumerate(model.blocks):
        prefix = f"layers.{i}"
        yield from ((f"{prefix}.ln1.{k}", t) for k, t in vars(block.ln1).items())
        yield from ((f"{prefix}.attn.{k}", t) for k, t in vars(block.attn).items())
        if isinstance(block.slot, FFNWeights):
            yield from ((f"{prefix}.ffn.{k}", t) for k, t in block.slot.tensors().items())
            continue
        yield f"{prefix}.moe.centroids", block.slot.centroids
        for e, expert in enumerate(block.slot.experts):
            yield from ((f"{prefix}.moe.experts.{e}.{k}", t) for k, t in expert.tensors().items())
    yield from (("ln_f.gain", model.ln_f.gain), ("ln_f.bias", model.ln_f.bias),
                ("unembed", model.unembed))


def moe_layer_composed(u, scores, sel, w_up, b_up, w_down, b_down, normalized):
    """``tn.expert_ffn`` as the graph ops it replaces: the top affinity and the
    selected ones gathered from ``scores``, each expert's weights taken from the
    stacked ones, the gates, the shared expert's ``tn.ffn`` scaled by 1 - s_max,
    ``expert_ffn_composed`` over the normal experts and the residual. Returns
    (h, gates) as the node does."""
    stacked = FFNWeights(w_up, b_up, w_down, b_down)
    experts = [list(expert_weights(stacked, e).tensors().values())
               for e in range(w_up.shape[0])]
    s_max = take_along_rows(scores, sel[:, :1])
    shared_gate = rsub(1.0, s_max)
    picked = take_along_rows(scores, sel)
    normal_gates = bmul(tn.softmax(picked), s_max) if normalized else picked
    h = u + bmul(tn.ffn(u, *experts[SHARED_EXPERT], tn.gelu), shared_gate)
    h = h + expert_ffn_composed(u, normal_gates, sel, experts[1:])
    return h, np.concatenate((shared_gate.data, normal_gates.data), axis=1)


def graph_alphas_composed(coeffs, layer: int) -> list:
    """``MixingCoefficients.graph_alphas`` as one entry per expert: a size-1
    gradient-tracked gather of the softmax each, times 1 - lam in constrained
    mode, where the shared expert's entry is the plain float lam."""
    sm = tn.softmax(coeffs.logits[layer])
    if coeffs.lam is None:
        return [tn.gather_rows(sm, [i]) for i in range(coeffs.n_experts)]
    return [coeffs.lam] + [tn.gather_rows(sm, [i]) * (1.0 - coeffs.lam)
                           for i in range(coeffs.n_experts - 1)]


def mix_composed(stacked, coefs):
    """``tn.mix`` as one product and one sum per expert: sum of coefs[e] *
    stacked[e] for float or size-1 Tensor coefficients. The sum starts from 0,
    so a -0.0 term mixes to +0.0."""
    first, *rest = (bmul(take(stacked, e), c) for e, c in enumerate(coefs))
    return sum(rest, radd(0.0, first))
