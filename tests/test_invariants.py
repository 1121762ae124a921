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


def skewed(grad):
    """GELU's derivative helper with a result 1% too large; the forward is unchanged."""
    return lambda x, t, g: grad(x, t, g) * 1.01


def gelu_with(grad):
    """``tn.gelu`` with ``grad`` bound as its derivative helper."""
    def act(a: Tensor) -> Tensor:
        y, t = tn._gelu_tanh(a.data)
        return tn._make(y, (a,), lambda g: (grad(a.data, t, g),))
    return act


@pytest.mark.parametrize("seed", [0, 17, 29])
def test_one_percent_backward_error_fails_every_row(seed, monkeypatch):
    # ``tn.gelu``'s rule (the dense FFNs) and ``tn.expert_ffn`` (the MoE experts)
    # both look ``tn._gelu_grad`` up when called
    monkeypatch.setattr(tn, "_gelu_grad", skewed(tn._gelu_grad))
    errors = check_at(seed)
    assert set(errors) == {"dense", "moe", "mixing"}
    assert min(errors.values()) >= 1e-3, errors


@pytest.mark.parametrize("seed", [0, 17, 29])
def test_one_percent_routed_expert_error_fails_the_moe_row(seed, monkeypatch):
    # the dense FFNs keep a GELU bound to the exact helper, so the skew reaches
    # the MoE experts and nothing else
    monkeypatch.setattr(ffn_forward, "__defaults__", (gelu_with(tn._gelu_grad),))
    monkeypatch.setattr(tn, "_gelu_grad", skewed(tn._gelu_grad))
    errors = check_at(seed)
    assert errors["moe"] >= 1e-3 and errors["dense"] < 1e-3, errors
