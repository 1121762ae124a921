"""Compiling an upcycled MoE back to a dense model.

Three routes: fixed-coefficient weight averaging, a learnable merge where
per-layer mixing coefficients are trained on the instruction data (with the
shared expert's coefficient pinned to the shared rate, or fully learnable in
the unconstrained "learned soup" variant), and the EWA baseline that blends
experts toward their mean during training and averages them uniformly at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from xft import tensor as tn
from xft.model import FFNWeights, Transformer, assemble, model_forward_loss
from xft.moe import SHARED_EXPERT, MoELayer
from xft.tensor import Tensor
from xft.train import ByteTokenizer, InstructionExample, TrainHyper, pack_batch, sft_train

DEFAULT_SHARED_RATE = 0.75       # 8-expert configuration
EWA_DEFAULT_BETA = 0.3

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
        """Mixing weights for one layer as float64, shared expert first."""
        z = self.logits[layer].data.astype(np.float64)
        e = np.exp(z - z.max())
        sm = e / e.sum()
        if self.lam is None:
            return sm
        return np.concatenate(([self.lam], sm * (1.0 - self.lam)))

    def graph_alphas(self, layer: int) -> list:
        """Per-expert coefficients for the differentiable merge.

        Returns N entries aligned with expert indices; each is a size-1
        gradient-tracked Tensor, except the pinned shared coefficient in
        constrained mode, which is the plain float lam.
        """
        sm = tn.softmax(self.logits[layer], axis=-1)
        if self.lam is None:
            return [tn.gather_rows(sm, [i]) for i in range(self.n_experts)]
        coefs: list = [self.lam]
        for i in range(self.n_experts - 1):
            coefs.append(tn.gather_rows(sm, [i]) * (1.0 - self.lam))
        return coefs

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
        logits = [Tensor(np.asarray(row, dtype=np.float32), requires_grad=True) for row in rows]
        return cls(logits, None if lam is None else float(lam), n)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def init_mixing_coefficients(n_experts: int, n_layers: int, lam: float,
                             unconstrained: bool = False,
                             dtype=np.float32) -> MixingCoefficients:
    """Uniform initialization: shared coefficient lam, normals (1-lam)/(N-1)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"shared rate must lie in [0, 1], got {lam}")
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


def _convex(alpha, n_experts: int) -> list[float]:
    """``alpha`` as Python floats, checked to be n_experts finite,
    non-negative coefficients that sum to 1."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (n_experts,):
        raise ValueError(f"expected {n_experts} coefficients, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise ValueError(f"mixing coefficients must be finite, got {alpha.tolist()}")
    if abs(float(alpha.sum()) - 1.0) >= ALPHA_SUM_TOL:
        raise ValueError(f"mixing coefficients must sum to 1, got {float(alpha.sum())}")
    if (alpha < 0).any():
        raise ValueError("mixing coefficients must be non-negative")
    return alpha.tolist()


def _mix(experts: list[Tensor], coefs) -> Tensor:
    """Sum of coefs[e] * experts[e]. The sum starts from 0, so a -0.0 weight
    mixes to +0.0."""
    return sum((t * c for t, c in zip(experts, coefs)), 0)


def _merged(model: Transformer, coefs: list) -> Transformer:
    """The dense model whose layer-i FFN tensors mix that layer's experts with
    ``coefs[i]``; every other tensor is the MoE model's own, not a copy."""
    params = model.named_parameters()
    n = model.moe_cfg.n_experts

    def tensor(name: str, shape) -> Tensor:
        layer, ffn, key = name.partition(".ffn.")
        if not ffn:
            return params[name]
        experts = [params[f"{layer}.moe.experts.{e}.{key}"] for e in range(n)]
        return _mix(experts, coefs[int(layer.split(".")[1])])

    return assemble(model.cfg, None, tensor)


def _merge_fixed(model: Transformer, alphas) -> Transformer:
    """A standalone dense model mixing layer i's experts with ``alphas[i]``."""
    coefs = [_convex(a, _n_experts(model)) for a in alphas]
    with tn.no_grad():
        return _merged(model, coefs).copy(requires_grad=True)


def merge_fixed(layer: MoELayer, alpha) -> FFNWeights:
    """Convex combination of all expert weight sets, tensor by tensor."""
    coefs = _convex(alpha, layer.cfg.n_experts)
    with tn.no_grad():
        mixed = [_mix(ts, coefs) for ts in zip(*(e.tensors().values() for e in layer.experts))]
    return FFNWeights(*(Tensor(t.data, requires_grad=True) for t in mixed))


def merge_xft(model: Transformer, coeffs: MixingCoefficients) -> Transformer:
    """Dense model from the learned mixing coefficients; routers discarded."""
    if coeffs.n_experts != _n_experts(model):
        raise ValueError("coefficient expert count does not match the model")
    if coeffs.n_layers != len(model.blocks):
        raise ValueError(f"coefficients cover {coeffs.n_layers} layers, not {len(model.blocks)}")
    return _merge_fixed(model, [coeffs.alphas(i) for i in range(coeffs.n_layers)])


def merge_uniform(model: Transformer) -> Transformer:
    n = _n_experts(model)
    return _merge_fixed(model, [np.full(n, 1.0 / n)] * model.cfg.n_layers)


def extract_shared_expert(model: Transformer) -> Transformer:
    one_hot = np.eye(_n_experts(model))[SHARED_EXPERT]
    return _merge_fixed(model, [one_hot] * model.cfg.n_layers)


@dataclass
class EWAConfig:
    beta: float = EWA_DEFAULT_BETA
    schedule: str = "constant"  # "linear" ramps 0 -> beta across training

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"share rate beta must lie in [0, 1], got {self.beta}")
        if self.schedule not in ("constant", "linear"):
            raise ValueError(f"unknown EWA schedule {self.schedule!r}")


def ewa_beta_at_step(cfg: EWAConfig, step: int, total_steps: int) -> float:
    if cfg.schedule == "constant":
        return cfg.beta
    if total_steps <= 1:
        return cfg.beta
    return cfg.beta * step / (total_steps - 1)


def ewa_step(layer: MoELayer, beta: float) -> None:
    """Blend every expert toward the uniform expert mean, in place."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    for key in ("w_up", "b_up", "w_down", "b_down"):
        mean = np.mean([e.tensors()[key].data for e in layer.experts], axis=0)
        for expert in layer.experts:
            t = expert.tensors()[key]
            t.data[...] = beta * mean + (1.0 - beta) * t.data


class _MergedTrainable:
    """Merge-phase adapter: only the mixing logits are trainable.

    The MoE model's own tensors are wrapped as frozen views, and every
    ``batch_loss`` call mixes the merged dense weights from the current
    logits, so gradients reach the logits and nothing else.
    """

    def __init__(self, model: Transformer, coeffs: MixingCoefficients):
        self.coeffs = coeffs
        self._view = model.copy(share_data=True, requires_grad=False)

    @property
    def max_seq_len(self) -> int:
        return self._view.cfg.max_seq_len

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"layers.{i}.mixing_logits": t for i, t in enumerate(self.coeffs.logits)}

    def batch_loss(self, batch) -> Tensor:
        """Task loss of the (tokens, mask) examples through the merged model."""
        coefs = [self.coeffs.graph_alphas(i) for i in range(self.coeffs.n_layers)]
        return model_forward_loss(_merged(self._view, coefs), *pack_batch(batch))[1]


def learn_mixing_coefficients(model: Transformer, examples: Sequence[InstructionExample],
                              lam: float, hyper: TrainHyper,
                              tokenizer: ByteTokenizer | None = None,
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
    curve = sft_train(trainable, examples, hyper, tokenizer, post_step=post_step)
    return coeffs, curve
