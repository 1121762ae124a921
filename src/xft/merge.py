"""Compiling an upcycled MoE back to a dense model.

One operation does it: each layer's FFN becomes a convex mix of that
layer's experts. The coefficients decide the merge. They are learned on the
instruction data with the shared expert's coefficient pinned to the shared
rate (xft), learned over all N experts (the unconstrained "learned soup"),
or uniform (the final step of the EWA baseline, which blends experts toward
their mean during training).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from xft import tensor as tn
from xft.model import Transformer, assemble, model_forward_loss, pack_batch
from xft.moe import MoELayer
from xft.tensor import Tensor
from xft.train import InstructionExample, TrainHyper, sft_train

DEFAULT_SHARED_RATE = 0.75       # 8-expert configuration
EWA_DEFAULT_BETA = 0.3
EWA_SCHEDULES = ("constant", "linear")  # "linear" ramps 0 -> beta across training

ALPHA_SUM_TOL = 1e-6


def _n_experts(model: Transformer) -> int:
    if not model.is_moe:
        raise ValueError("expected an MoE model")
    return model.moe_cfg.n_experts


class MixingCoefficients:
    """Per-layer learnable logits producing the expert mixing weights.

    Constrained mode (``lam`` set): the shared expert's coefficient is the
    fixed rate lam and softmax(logits) * (1 - lam) covers the normal experts.
    Unconstrained mode (``lam`` None): one softmax over all N experts.
    """

    def __init__(self, logits: list[Tensor], lam: float | None, n_experts: int):
        expected = n_experts if lam is None else n_experts - 1
        for t in logits:
            if t.shape != (expected,):
                raise ValueError(f"logit shape {t.shape} != ({expected},)")
        if lam is not None and not 0.0 <= lam <= 1.0:
            raise ValueError(f"shared rate must lie in [0, 1], got {lam}")
        self.logits = logits
        self.lam = lam
        self.n_experts = n_experts

    @property
    def n_layers(self) -> int:
        return len(self.logits)

    @property
    def unconstrained(self) -> bool:
        return self.lam is None

    def alphas(self, layer: int) -> np.ndarray:
        """Mixing weights for one layer as float64, shared expert first:
        ``graph_alphas``'s formula on a float64 copy of the logits."""
        with tn.no_grad():
            return _mixing(Tensor(self.logits[layer].data.astype(np.float64)), self.lam).data

    def graph_alphas(self, layer: int) -> Tensor:
        """One layer's [N] mixing weights for the differentiable merge, shared
        expert first; the pinned shared coefficient of constrained mode is a
        constant."""
        return _mixing(self.logits[layer], self.lam)

    def to_json_obj(self) -> dict:
        return {
            "n_experts": self.n_experts,
            "shared_rate": self.lam,
            "logits": [t.data.astype(np.float64).tolist() for t in self.logits],
            "alphas": [self.alphas(l).tolist() for l in range(self.n_layers)],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MixingCoefficients":
        """Inverse of ``to_json_obj``; ``alphas`` is derived, so it is not read."""
        fields = ("n_experts", "shared_rate", "logits")
        if not isinstance(obj, dict) or any(f not in obj for f in fields):
            raise ValueError(f"coefficients need the fields {', '.join(fields)}")
        n, lam, rows = (obj[f] for f in fields)
        if not (type(n) is int and (lam is None or _is_number(lam)) and isinstance(rows, list)
                and all(isinstance(row, list) and all(map(_is_number, row)) for row in rows)):
            raise ValueError("coefficient fields have the wrong types")
        with np.errstate(over="ignore"):  # an overflow to inf is refused below, by layer
            logits = [Tensor(np.asarray(row, dtype=np.float32), requires_grad=True) for row in rows]
        for layer, t in enumerate(logits):
            if not np.isfinite(t.data).all():
                raise ValueError(f"coefficient logits of layer {layer} are not finite in float32")
        return cls(logits, None if lam is None else float(lam), n)


def _mixing(logits: Tensor, lam: float | None) -> Tensor:
    """softmax(logits), or in constrained mode lam then softmax(logits) * (1 - lam)."""
    sm = tn.softmax(logits)
    if lam is None:
        return sm
    return tn.concat([Tensor(np.array([lam], dtype=sm.dtype)), sm * (1.0 - lam)])


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def init_mixing_coefficients(n_experts: int, n_layers: int, lam: float,
                             unconstrained: bool = False,
                             dtype=np.float32) -> MixingCoefficients:
    """Uniform initialization: shared coefficient lam, normals (1-lam)/(N-1)."""
    if unconstrained:
        if not 0.0 < lam < 1.0:
            raise ValueError("unconstrained initialization needs 0 < shared rate < 1")
        target = np.concatenate(([lam], np.full(n_experts - 1, (1.0 - lam) / (n_experts - 1))))
        logits = [Tensor(np.log(target).astype(dtype), requires_grad=True)
                  for _ in range(n_layers)]
        return MixingCoefficients(logits, None, n_experts)
    logits = [Tensor(np.zeros(n_experts - 1, dtype=dtype), requires_grad=True)
              for _ in range(n_layers)]
    return MixingCoefficients(logits, lam, n_experts)


def _convex(alpha, n_experts: int) -> np.ndarray:
    """``alpha`` as float64, checked to be n_experts finite, non-negative
    coefficients that sum to 1."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (n_experts,):
        raise ValueError(f"expected {n_experts} coefficients, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise ValueError(f"mixing coefficients must be finite, got {alpha.tolist()}")
    if abs(float(alpha.sum()) - 1.0) >= ALPHA_SUM_TOL:
        raise ValueError(f"mixing coefficients must sum to 1, got {float(alpha.sum())}")
    if (alpha < 0).any():
        raise ValueError("mixing coefficients must be non-negative")
    return alpha


def _merged(model: Transformer, coefs: list[Tensor]) -> Transformer:
    """The dense model whose layer-i FFN tensors mix that layer's stacked
    experts with the [N] coefficients ``coefs[i]`` (``tn.mix``). The MoE's
    buffers are read through frozen aliases, not copies, so no gradient
    reaches the MoE model."""
    params = {name: Tensor(t.data) for name, t in model.named_parameters().items()}

    def tensor(name: str, shape) -> Tensor:
        layer, ffn, key = name.partition(".ffn.")
        if not ffn:
            return params[name]
        return tn.mix(params[f"{layer}.moe.experts.{key}"], coefs[int(layer.split(".")[1])])

    return assemble(model.cfg, None, tensor)


def _merge_fixed(model: Transformer, alphas) -> Transformer:
    """A standalone dense model mixing layer i's experts with ``alphas[i]``."""
    coefs = [Tensor(_convex(a, _n_experts(model)).astype(model.tok_emb.dtype)) for a in alphas]
    with tn.no_grad():
        return _merged(model, coefs).copy()


def merge_xft(model: Transformer, coeffs: MixingCoefficients) -> Transformer:
    """Dense model from the learned mixing coefficients; routers discarded."""
    if coeffs.n_experts != _n_experts(model):
        raise ValueError("coefficient expert count does not match the model")
    if coeffs.n_layers != len(model.blocks):
        raise ValueError(f"coefficients cover {coeffs.n_layers} layers, not {len(model.blocks)}")
    return _merge_fixed(model, [coeffs.alphas(i) for i in range(coeffs.n_layers)])


def merge_uniform(model: Transformer) -> Transformer:
    """Dense model from the plain expert mean (EWA's final conversion)."""
    n = _n_experts(model)
    return _merge_fixed(model, [np.full(n, 1.0 / n)] * model.cfg.n_layers)


def ewa_hook(model: Transformer, beta: float, schedule: str,
             total_steps: int) -> Callable[[int], None]:
    """``sft_train``'s ``post_step`` for EWA: after step s, every MoE layer's
    experts blend toward their mean at rate beta ("constant"), or at
    beta * s / (total_steps - 1) ("linear"). Checks beta and the schedule now."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"share rate beta must lie in [0, 1], got {beta}")
    if schedule not in EWA_SCHEDULES:
        raise ValueError(f"unknown EWA schedule {schedule!r}")

    def post_step(step: int) -> None:
        constant = schedule == "constant" or total_steps <= 1
        rate = beta if constant else beta * step / (total_steps - 1)
        for block in model.blocks:
            ewa_step(block.slot, rate)

    return post_step


def ewa_step(layer: MoELayer, beta: float) -> None:
    """Blend every expert toward the uniform expert mean, in place."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    for t in layer.weights.tensors().values():
        t.data[...] = beta * np.mean(t.data, axis=0) + (1.0 - beta) * t.data


class _MergedTrainable:
    """The merge phase's trainable for ``sft_train``: only the mixing logits
    train. Every ``batch_loss`` call mixes the merged dense weights from the
    current logits over frozen aliases of the MoE's buffers, so gradients
    reach the logits and nothing else.
    """

    def __init__(self, model: Transformer, coeffs: MixingCoefficients):
        self.model = model
        self.cfg = model.cfg
        self.coeffs = coeffs

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"layers.{i}.mixing_logits": t for i, t in enumerate(self.coeffs.logits)}

    def batch_loss(self, batch) -> Tensor:
        """Task loss of the (tokens, mask) examples through the merged model."""
        coefs = [self.coeffs.graph_alphas(i) for i in range(self.coeffs.n_layers)]
        return model_forward_loss(_merged(self.model, coefs), *pack_batch(batch))[1]


def learn_mixing_coefficients(model: Transformer, examples: Sequence[InstructionExample],
                              lam: float, hyper: TrainHyper,
                              unconstrained: bool = False,
                              post_step=None) -> tuple[MixingCoefficients, list[float]]:
    """Gradient descent on the mixing logits only; experts stay frozen.

    Every step reforms the merged dense model from the current coefficients
    and takes the task loss through it. Returns the trained coefficients and
    the loss curve; the MoE model itself is untouched.
    """
    coeffs = init_mixing_coefficients(_n_experts(model), model.cfg.n_layers, lam,
                                      unconstrained=unconstrained)
    trainable = _MergedTrainable(model, coeffs)
    curve = sft_train(trainable, examples, hyper, post_step=post_step)
    return coeffs, curve
