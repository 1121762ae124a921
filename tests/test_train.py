"""Optimizer, schedule, tokenization/masking, and the SFT loop."""

import numpy as np
import pytest

from xft.merge import _MergedTrainable, init_mixing_coefficients
from xft.model import ModelConfig, build_dense_model
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import (
    AdamW,
    ByteTokenizer,
    InstructionExample,
    TrainHyper,
    TrainingDiverged,
    lr_at_step,
    sft_train,
    tokenize_and_mask,
)


def text_cfg(**overrides) -> ModelConfig:
    base = dict(vocab_size=ByteTokenizer.vocab_size, d_model=16, n_layers=2,
                n_heads=2, d_ff=20, max_seq_len=48)
    base.update(overrides)
    return ModelConfig(**base)


def corpus(n) -> list[InstructionExample]:
    words = ["ash", "birch", "cedar", "oak", "pine"]
    return [
        InstructionExample(f"name tree {i}", words[i % len(words)] * (1 + i % 2))
        for i in range(n)
    ]


class TestLRSchedule:
    HYPER = TrainHyper(peak_lr=5e-5, warmup_steps=500)

    def test_ramp_starts_at_zero(self):
        assert lr_at_step(0, self.HYPER, 2000) == 0.0

    def test_half_warmup(self):
        assert lr_at_step(250, self.HYPER, 2000) == pytest.approx(2.5e-5)

    def test_peak_at_warmup_boundary(self):
        assert lr_at_step(500, self.HYPER, 2000) == pytest.approx(5e-5)

    def test_decay_midpoint_is_half_peak(self):
        step = 500 + (2000 - 500) // 2
        assert lr_at_step(step, self.HYPER, 2000) == pytest.approx(2.5e-5)

    def test_decay_ends_at_zero(self):
        assert lr_at_step(2000, self.HYPER, 2000) == 0.0

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at_step(2001, self.HYPER, 2000)


def reference_adamw_scalar(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Step-by-step scalar oracle for the moment update (no decay on scalars)."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * mhat / (vhat**0.5 + eps)
    return x


class TestAdamW:
    def test_zero_gradient_zero_decay_leaves_param(self):
        p = Tensor(np.array([1.5], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(1, dtype=np.float32)
        opt = AdamW({"p": p})
        opt.step(lr=0.1)
        assert p.data[0] == 1.5

    def test_scalar_repeated_unit_gradient_matches_oracle(self):
        lr = 1e-3
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p})
        for _ in range(10):
            p.grad = np.ones(1, dtype=np.float64)
            opt.step(lr)
        expected = reference_adamw_scalar([1.0] * 10, lr)
        assert abs(float(p.data[0]) - expected) < 1e-7
        # first step moves by about -lr (bias-corrected unit moments)
        assert reference_adamw_scalar([1.0], lr) == pytest.approx(-lr, rel=1e-4)

    def test_zero_lr_no_change(self):
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([5.0], dtype=np.float32)
        AdamW({"p": p}).step(lr=0.0)
        assert p.data[0] == 2.0

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(FloatingPointError, match="'p'"):
            AdamW({"p": p}).step(lr=0.1)

    def test_weight_decay_applies_to_matrices_only(self):
        mat = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        vec = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        mat.grad = np.zeros((2, 2))
        vec.grad = np.zeros(2)
        AdamW({"m": mat, "v": vec}).step(lr=0.1)
        assert np.allclose(mat.data, 1.0 - 0.1 * 0.01)
        assert np.array_equal(vec.data, np.ones(2))


class TestWeightDecaySet:
    """AdamW decays the matrices: weights, embeddings, the unembedding and the
    router centroids. Biases, gains, the stacked expert biases [N, f] and the
    mixing logits stay undecayed."""

    @staticmethod
    def decayed(trainable) -> list[str]:
        params = trainable.named_parameters()
        for p in params.values():
            p.data[...] = 1.0
            p.grad = np.zeros_like(p.data)
        AdamW(params).step(lr=0.1)  # a zero gradient moves only what decays
        return sorted(name for name, p in params.items() if (p.data != 1.0).any())

    def test_dense_moe_and_merge_trainable(self):
        cfg = ModelConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq_len=6)
        dense = build_dense_model(cfg, seed=0)
        moe = upcycle_dense_to_moe(dense, MoEConfig(4, 2), seed=1)
        attn = ["layers.0.attn.wk", "layers.0.attn.wo", "layers.0.attn.wq", "layers.0.attn.wv"]
        embeddings = ["pos_emb", "tok_emb", "unembed"]
        assert self.decayed(dense) == attn + ["layers.0.ffn.w_down", "layers.0.ffn.w_up",
                                              *embeddings]
        assert self.decayed(moe) == attn + ["layers.0.moe.centroids",
                                            "layers.0.moe.experts.w_down",
                                            "layers.0.moe.experts.w_up", *embeddings]
        merge = _MergedTrainable(moe, init_mixing_coefficients(4, 1, 0.75))
        assert list(merge.named_parameters()) == ["layers.0.mixing_logits"]
        assert self.decayed(merge) == []


class TestByteTokenizer:
    def test_round_trip(self):
        tok = ByteTokenizer()
        text = "merge experts, s'il vous plait"
        assert tok.decode(tok.encode(text)) == text

    def test_specials_outside_byte_range(self):
        tok = ByteTokenizer()
        assert tok.BOS == 256 and tok.SEP == 257 and tok.EOS == 258
        assert tok.vocab_size == 259
        assert tok.decode([tok.BOS, 104, 105, tok.EOS]) == "hi"


class TestTokenizeAndMask:
    TOK = ByteTokenizer()

    def test_structure_and_mask(self):
        ex = InstructionExample("ab", "xyz")
        tokens, mask = tokenize_and_mask(ex, self.TOK, max_seq_len=64)
        assert tokens[0] == self.TOK.BOS
        assert tokens[3] == self.TOK.SEP
        assert tokens[-1] == self.TOK.EOS
        assert len(mask) == len(tokens)
        assert mask == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_mask_counts_output_plus_eos(self):
        ex = InstructionExample("question here", "answer")
        tokens, mask = tokenize_and_mask(ex, self.TOK, max_seq_len=64)
        assert sum(mask) == len(self.TOK.encode("answer")) + 1

    def test_instruction_truncated_from_left(self):
        ex = InstructionExample("abcdefghij", "xy")
        tokens, mask = tokenize_and_mask(ex, self.TOK, max_seq_len=10)
        assert len(tokens) == 10
        # surviving instruction is the right end of the original
        sep = tokens.index(self.TOK.SEP)
        kept = bytes(tokens[1:sep]).decode()
        assert "abcdefghij".endswith(kept)
        assert sum(mask) == 3  # output fully preserved

    def test_sequence_too_short_for_an_output_token_rejected(self):
        ex = InstructionExample("hello", "world")
        with pytest.raises(ValueError, match="at least 4"):
            tokenize_and_mask(ex, self.TOK, max_seq_len=3)

    def test_shortest_sequence_keeps_one_output_token(self):
        tokens, mask = tokenize_and_mask(InstructionExample("hello", "world"), self.TOK,
                                         max_seq_len=4)
        assert tokens == [self.TOK.BOS, self.TOK.SEP, ord("w"), self.TOK.EOS]
        assert mask == [0, 0, 1, 1]

    def test_empty_fields_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nonempty"):
            InstructionExample("  ", "ok")
        with pytest.raises(ValueError, match="nonempty"):
            InstructionExample("ok", "\n")


class TestSFTTrain:
    def test_zero_epochs_leaves_model_byte_identical(self):
        model = build_dense_model(text_cfg(), seed=1)
        before = {k: v.data.copy() for k, v in model.named_parameters().items()}
        curve = sft_train(model, corpus(8), TrainHyper(epochs=0))
        assert curve == []
        for name, arr in before.items():
            assert np.array_equal(arr, model.named_parameters()[name].data)

    def test_fixed_seed_reproduces_loss_curve(self):
        hyper = TrainHyper(batch_size=4, peak_lr=2e-3, warmup_steps=1, epochs=2, seed=9)
        curves = []
        for _ in range(2):
            model = build_dense_model(text_cfg(), seed=5)
            curves.append(sft_train(model, corpus(10), hyper))
        assert curves[0] == curves[1]

    def test_loss_decreases_on_synthetic_corpus(self):
        model = build_dense_model(text_cfg(), seed=3)
        hyper = TrainHyper(batch_size=16, peak_lr=3e-3, warmup_steps=2, epochs=2, seed=0)
        curve = sft_train(model, corpus(200), hyper)
        assert curve[-1] < curve[0]

    def test_curve_length_is_epochs_times_steps(self):
        model = build_dense_model(text_cfg(), seed=3)
        curve = sft_train(model, corpus(10),
                          TrainHyper(batch_size=4, epochs=2, warmup_steps=1, seed=0))
        assert len(curve) == 2 * 3  # ceil(10/4) = 3 steps per epoch

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sft_train(build_dense_model(text_cfg(), seed=0), [], TrainHyper())

    def test_warmup_must_fit_in_total_steps(self):
        with pytest.raises(ValueError, match="warmup"):
            sft_train(build_dense_model(text_cfg(), seed=0), corpus(4),
                      TrainHyper(batch_size=4, epochs=1, warmup_steps=10))

    def test_divergence_aborts(self):
        class ExplodingTrainable:
            cfg = text_cfg()

            def __init__(self):
                self._p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)

            def named_parameters(self):
                return {"p": self._p}

            def batch_loss(self, batch):
                return Tensor(np.float32(np.nan), requires_grad=True)

        with pytest.raises(TrainingDiverged, match="step 0"):
            sft_train(ExplodingTrainable(), corpus(4), TrainHyper(batch_size=4, epochs=1))

    def test_post_step_called_each_step(self):
        seen = []
        model = build_dense_model(text_cfg(), seed=3)
        sft_train(model, corpus(8), TrainHyper(batch_size=4, epochs=2, warmup_steps=1, seed=0),
                  post_step=seen.append)
        assert seen == [0, 1, 2, 3]
