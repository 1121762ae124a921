"""The finite-difference gradient check at the seeds where rounding noise
used to read as error, and against a deliberately wrong backward."""

import numpy as np
import pytest

from xft import tensor as tn
from xft.invariants import gradient_check
from xft.model import ModelConfig, ffn_forward
from xft.tensor import Tensor

CFG = ModelConfig(vocab_size=17, d_model=16, n_layers=2, n_heads=2, d_ff=20, max_seq_len=12)
MASK = [0] + [1] * 7


def check_at(seed: int) -> dict[str, float]:
    tokens = np.random.default_rng(seed).integers(0, CFG.vocab_size, size=8).tolist()
    return gradient_check(CFG, tokens, MASK, seed, n_probes=40)


# Seeds 1, 4 and 11 probe MoE elements, and seed 29 a dense element, whose true
# gradient is 0 or ~1e-21 (attn.bk, saturated router centroids).
@pytest.mark.parametrize("seed", [1, 4, 11, 29])
def test_zero_gradient_elements_pass(seed):
    errors = check_at(seed)
    assert max(errors.values()) < 1e-3, errors


def skewed(activation):
    """``activation`` with a backward 1% too large and the forward unchanged;
    one op of its input, as ``tn.ffn`` requires of an activation."""
    def act(a: Tensor) -> Tensor:
        y = activation(a)
        return tn._make(y.data, (a,), lambda g: (y._backward_fn(g)[0] * 1.01,))
    return act


@pytest.mark.parametrize("seed", [0, 17, 29])
def test_one_percent_backward_error_fails_every_row(seed, monkeypatch):
    # dense FFNs take GELU from ``ffn_forward``'s default, MoE experts from ``tn.gelu``
    monkeypatch.setattr(ffn_forward, "__defaults__", (skewed(tn.gelu),))
    monkeypatch.setattr(tn, "gelu", skewed(tn.gelu))
    errors = check_at(seed)
    assert set(errors) == {"dense", "moe", "mixing"}
    assert min(errors.values()) >= 1e-3, errors


@pytest.mark.parametrize("seed", [0, 17, 29])
def test_one_percent_routed_expert_error_fails_the_moe_row(seed, monkeypatch):
    # ``tn.expert_ffn`` looks ``tn.gelu`` up when called; ``ffn_forward`` bound
    # it at import, so the skew reaches the MoE experts and nothing else.
    monkeypatch.setattr(tn, "gelu", skewed(tn.gelu))
    errors = check_at(seed)
    assert errors["moe"] >= 1e-3 and errors["dense"] < 1e-3, errors
