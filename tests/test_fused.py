"""The fused nodes change no output: a seeded pipeline run with ``tn.linear``,
``tn.ffn``, ``tn.affinities`` (the MoE router), ``tn.expert_ffn`` (an MoE layer
after its router) and ``tn.nll`` (the loss head) gives the same bytes as one run
with the composed expressions they replace."""

import numpy as np

from conftest import make_smoke_corpus
from oracles import (affinities_composed, ffn_composed, linear_composed, moe_layer_composed,
                     nll_composed)
from xft import tensor as tn
from xft.merge import learn_mixing_coefficients, merge_xft
from xft.model import ModelConfig, build_dense_model, generate_greedy
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.train import ByteTokenizer, TrainHyper, sft_train


def run_pipeline() -> dict:
    """Dense SFT, the upcycled MoE, one mixing epoch, the merge and greedy
    decoding, all at tiny sizes; every output as bytes or Python values."""
    cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size, d_model=16, n_layers=2,
                      n_heads=2, d_ff=24, max_seq_len=64)
    examples = make_smoke_corpus(12, seed=3)
    dense = build_dense_model(cfg, seed=1)
    sft_curve = sft_train(dense, examples, TrainHyper(batch_size=4, warmup_steps=1, seed=2))
    moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=3), seed=4)
    moe_curve = sft_train(moe, examples, TrainHyper(batch_size=4, peak_lr=2e-4, seed=5))
    coeffs, merge_curve = learn_mixing_coefficients(
        moe, examples, 0.75, TrainHyper(batch_size=4, peak_lr=2e-2, seed=6))
    merged = merge_xft(moe, coeffs)
    tok = ByteTokenizer()
    prompt = [tok.BOS] + tok.encode(examples[0].instruction) + [tok.SEP]
    models = {"dense": dense, "moe": moe, "merged": merged}
    return {
        "params": {f"{m}.{name}": p.data.tobytes()
                   for m, model in models.items() for name, p in model.named_parameters().items()},
        "curves": (sft_curve, moe_curve, merge_curve),
        "coefficients": [t.data.tobytes() for t in coeffs.logits],
        "tokens": {m: generate_greedy(model, prompt, 10) for m, model in models.items()},
    }


def test_pipeline_is_byte_identical_to_the_composed_ops(monkeypatch):
    fused = run_pipeline()
    monkeypatch.setattr(tn, "linear", linear_composed)
    monkeypatch.setattr(tn, "ffn", ffn_composed)
    monkeypatch.setattr(tn, "expert_ffn", moe_layer_composed)
    monkeypatch.setattr(tn, "affinities", affinities_composed)
    monkeypatch.setattr(tn, "nll", nll_composed)
    composed = run_pipeline()
    assert fused["params"].keys() == composed["params"].keys()
    for name, data in fused["params"].items():
        assert data == composed["params"][name], name
    assert fused["curves"] == composed["curves"]
    assert fused["coefficients"] == composed["coefficients"]
    assert fused["tokens"] == composed["tokens"]
    assert np.isfinite(fused["curves"][0]).all() and len(fused["tokens"]["moe"]) > 0
