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
from typing import Callable, Sequence

import numpy as np

from xft import tensor as tn
from xft.model import FFNWeights, Transformer, model_forward_loss
from xft.moe import MoELayer, SHARED_EXPERT
from xft.tensor import Tensor
from xft.train import ByteTokenizer, InstructionExample, TrainHyper, pack_batch, sft_train

DEFAULT_SHARED_RATE = 0.75       # 8-expert configuration
SHARED_RATE_4_EXPERTS = 0.85     # 4-expert configuration
EWA_DEFAULT_BETA = 0.3

ALPHA_SUM_TOL = 1e-6


def _moe_layers(model: Transformer) -> list[MoELayer]:
    if not model.is_moe:
        raise ValueError("expected an MoE model")
    return [block.slot for block in model.blocks]


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


def merge_fixed(layer: MoELayer, alpha) -> FFNWeights:
    """Convex combination of all expert weight sets, tensor by tensor."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (layer.cfg.n_experts,):
        raise ValueError(f"expected {layer.cfg.n_experts} coefficients, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise ValueError(f"mixing coefficients must be finite, got {alpha.tolist()}")
    if abs(float(alpha.sum()) - 1.0) >= ALPHA_SUM_TOL:
        raise ValueError(f"mixing coefficients must sum to 1, got {float(alpha.sum())}")
    if (alpha < 0).any():
        raise ValueError("mixing coefficients must be non-negative")

    merged = {}
    for key in ("w_up", "b_up", "w_down", "b_down"):
        acc = np.zeros_like(layer.experts[0].tensors()[key].data)
        for coef, expert in zip(alpha, layer.experts):
            acc += float(coef) * expert.tensors()[key].data
        merged[key] = Tensor(acc, requires_grad=True)
    return FFNWeights(**merged)


def _merge_with(model: Transformer, alphas_for_layer: Callable[[int], np.ndarray]) -> Transformer:
    layers = _moe_layers(model)
    out = model.copy()
    for i, block in enumerate(out.blocks):
        block.slot = merge_fixed(layers[i], alphas_for_layer(i))
    return out


def merge_xft(model: Transformer, coeffs: MixingCoefficients) -> Transformer:
    """Dense model from the learned mixing coefficients; routers discarded."""
    layers = _moe_layers(model)
    if coeffs.n_layers != len(layers):
        raise ValueError(f"coefficients cover {coeffs.n_layers} layers, model has {len(layers)}")
    if coeffs.n_experts != layers[0].cfg.n_experts:
        raise ValueError("coefficient expert count does not match the model")
    return _merge_with(model, coeffs.alphas)


def merge_uniform(model: Transformer) -> Transformer:
    n = _moe_layers(model)[0].cfg.n_experts
    return _merge_with(model, lambda _: np.full(n, 1.0 / n))


def extract_shared_expert(model: Transformer) -> Transformer:
    n = _moe_layers(model)[0].cfg.n_experts
    one_hot = np.zeros(n)
    one_hot[SHARED_EXPERT] = 1.0
    return _merge_with(model, lambda _: one_hot)


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
    ``batch_loss`` call rebuilds the merged dense weights from the current
    logits, so gradients reach the logits and nothing else.
    """

    def __init__(self, model: Transformer, coeffs: MixingCoefficients,
                 activation: Callable = tn.gelu):
        self.coeffs = coeffs
        self.activation = activation
        self._view = model.copy(share_data=True, requires_grad=False)
        self._frozen_slots: list[MoELayer] = [block.slot for block in self._view.blocks]

    @property
    def max_seq_len(self) -> int:
        return self._view.cfg.max_seq_len

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"layers.{i}.mixing_logits": t for i, t in enumerate(self.coeffs.logits)}

    def _rebuild_merged(self) -> None:
        for i, layer in enumerate(self._frozen_slots):
            coefs = self.coeffs.graph_alphas(i)
            merged = {}
            for key in ("w_up", "b_up", "w_down", "b_down"):
                acc = None
                for coef, expert in zip(coefs, layer.experts):
                    term = expert.tensors()[key] * coef
                    acc = term if acc is None else acc + term
                merged[key] = acc
            self._view.blocks[i].slot = FFNWeights(**merged)

    def batch_loss(self, batch) -> Tensor:
        """Task loss of the (tokens, mask) examples through the merged model."""
        self._rebuild_merged()
        return model_forward_loss(self._view, *pack_batch(batch))[1]


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
    layers = _moe_layers(model)
    coeffs = init_mixing_coefficients(layers[0].cfg.n_experts, len(layers), lam,
                                      unconstrained=unconstrained)
    trainable = _MergedTrainable(model, coeffs)
    curve = sft_train(trainable, examples, hyper, tokenizer, post_step=post_step)
    return coeffs, curve
