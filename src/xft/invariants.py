"""The identities XFT rests on, as measurements.

Each function builds or receives a small instance and returns the worst
deviation it saw; the caller holds the bound. ``xft verify`` and the
acceptance suite run these same functions, each at its own sizes and seeds.
"""

from __future__ import annotations

import functools

import numpy as np

from xft import tensor as tn
from xft.merge import EWA_DEFAULT_BETA, _MergedTrainable, ewa_step, init_mixing_coefficients
from xft.model import (FFNWeights, ModelConfig, Transformer, attention_forward,
                       build_dense_model, ffn_forward, model_forward_loss)
from xft.moe import MoEConfig, MoELayer, upcycle_dense_to_moe
from xft.tensor import Tensor


def init_equivalence_check(dense: Transformer, combos, inputs, seed: int) -> float:
    """Max logit deviation between ``dense`` and its upcycled MoE, router seed
    ``seed + N + K``, for every (N, K) in ``combos`` over the token lists ``inputs``."""
    worst = 0.0
    with tn.no_grad():
        refs = [dense.logits(tokens).data for tokens in inputs]
        for n, k in combos:
            moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=n, top_k=k), seed=seed + n + k)
            for tokens, ref in zip(inputs, refs):
                worst = max(worst, float(np.abs(moe.logits(tokens).data - ref).max()))
    return worst


def gate_sum_check(model: Transformer, seed: int, batches: int = 5, tokens: int = 100) -> float:
    """Max |sum of a token's K gates - 1| over ``batches`` random inputs of
    ``tokens`` rows per MoE layer, summed in the gates' own dtype."""
    if not model.is_moe:
        raise ValueError("gate_sum_check needs an MoE model")
    rng = np.random.default_rng(seed)
    worst = 0.0
    with tn.no_grad():
        for block in model.blocks:
            for _ in range(batches):
                u = Tensor(rng.normal(scale=2.0, size=(tokens, model.cfg.d_model))
                           .astype(np.float32))
                _, record = block.slot.forward(u)
                worst = max(worst, float(np.abs(record.gates.sum(axis=1) - 1.0).max()))
    return worst


def gradient_check(cfg: ModelConfig, tokens, mask, seed: int,
                   n_probes: int = 50) -> dict[str, float]:
    """Max relative finite-difference error of the float64 loss gradient with
    respect to a dense model's parameters, an upcycled 4-expert top-3 MoE's
    parameters, and the mixing logits of a merge over drifted experts."""
    dense = build_dense_model(cfg, seed=seed)
    dense64 = dense.copy(dtype=np.float64)
    moe = upcycle_dense_to_moe(dense, MoEConfig(4, 3), seed=seed + 1).copy(dtype=np.float64)
    for block in moe.blocks:
        # spread affinities away from top-k selection boundaries
        block.slot.centroids.data *= 120.0

    rng = np.random.default_rng(seed)
    drifted = upcycle_dense_to_moe(dense, MoEConfig(4, 3), seed=seed + 2)
    for block in drifted.blocks:
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
    coeffs = init_mixing_coefficients(4, cfg.n_layers, lam=0.6, dtype=np.float64)
    for t in coeffs.logits:
        t.data += rng.normal(scale=0.3, size=t.shape)
    merged = _MergedTrainable(drifted.copy(dtype=np.float64), coeffs)

    fd = functools.partial(tn.finite_diff_check, n_probes=n_probes)
    return {
        "dense": fd(lambda: model_forward_loss(dense64, tokens, mask)[1],
                    dense64.named_parameters().values(), seed=seed),
        "moe": fd(lambda: model_forward_loss(moe, tokens, mask)[1],
                  moe.named_parameters().values(), seed=seed + 1),
        "mixing": fd(lambda: merged.batch_loss([(tokens, mask)]), coeffs.logits, seed=seed + 2),
    }


def ensemble_identity_check(alpha: float, seed: int, n_inputs: int = 100,
                            seq_len: int = 8) -> float:
    """Max logit deviation between a one-layer model whose two experts always
    get the gates (1 - alpha, alpha) and the same gate-weighted sum of the two
    one-expert dense models' logits; the unembedding follows the MoE directly."""
    cfg = ModelConfig(vocab_size=23, d_model=16, n_layers=1, n_heads=2, d_ff=24,
                      max_seq_len=max(seq_len, 2))
    rng = np.random.default_rng(seed)
    base = build_dense_model(cfg, seed=seed)
    block = base.blocks[0]
    layer = MoELayer([block.slot, build_dense_model(cfg, seed=seed + 1).blocks[0].slot],
                     Tensor(np.zeros((2, cfg.d_model), dtype=np.float32)), MoEConfig(2, 2))
    gates = np.array([1.0 - alpha, alpha], dtype=np.float32)

    worst = 0.0
    with tn.no_grad():
        for _ in range(n_inputs):
            tokens = rng.integers(0, cfg.vocab_size, size=seq_len)
            x = tn.gather_rows(base.tok_emb, tokens) + tn.gather_rows(
                base.pos_emb, np.arange(seq_len))
            u = attention_forward(x, block, cfg)

            h_moe, _ = layer.forward(u, router_override=([0, 1], gates))
            logits_moe = (h_moe @ base.unembed).data

            ensemble = np.zeros_like(logits_moe)
            for gate, expert in zip(gates, layer.experts):
                h = u + ffn_forward(u, expert)
                ensemble += gate * (h @ base.unembed).data
            worst = max(worst, float(np.abs(logits_moe - ensemble).max()))
    return worst


def ewa_closed_form_check(beta: float = EWA_DEFAULT_BETA, steps: int = 3) -> float:
    """Max error of ``steps`` EWA steps on two scalar experts {0, 1} against
    the closed form: each step shrinks every deviation from the (invariant)
    mean 1/2 by the factor 1 - beta."""
    experts = [FFNWeights(Tensor(np.array([[v]], dtype=np.float32)),
                          Tensor(np.zeros(1, dtype=np.float32)),
                          Tensor(np.ones((1, 1), dtype=np.float32)),
                          Tensor(np.zeros(1, dtype=np.float32)))
               for v in (0.0, 1.0)]
    layer = MoELayer(experts, Tensor(np.zeros((2, 1), dtype=np.float32)), MoEConfig(2, 2))
    for _ in range(steps):
        ewa_step(layer, beta)
    decay = (1.0 - beta) ** steps
    got = np.array([float(e.w_up.data[0, 0]) for e in layer.experts])
    return float(np.abs(got - [0.5 - 0.5 * decay, 0.5 + 0.5 * decay]).max())
