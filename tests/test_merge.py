"""Expert merging: fixed coefficients, learnable mixing, EWA baseline."""

import numpy as np
import pytest

from xft import tensor as tn
from xft.merge import (
    EWAConfig,
    MixingCoefficients,
    ewa_beta_at_step,
    ewa_step,
    extract_shared_expert,
    init_mixing_coefficients,
    learn_mixing_coefficients,
    merge_fixed,
    merge_uniform,
    merge_xft,
    _MergedTrainable,
)
from xft.model import FFNWeights, ModelConfig, build_dense_model
from xft.moe import MoEConfig, MoELayer, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import InstructionExample, TrainHyper


def small_cfg(**overrides) -> ModelConfig:
    base = dict(vocab_size=13, d_model=16, n_layers=2, n_heads=2, d_ff=20, max_seq_len=32)
    base.update(overrides)
    return ModelConfig(**base)


def scalar_layer(values, top_k=2) -> MoELayer:
    """d_model=1 layer whose expert i has w_up = values[i] (other tensors fixed)."""
    cfg = MoEConfig(n_experts=len(values), top_k=top_k)
    experts = [
        FFNWeights(
            Tensor(np.array([[v]], dtype=np.float32)),
            Tensor(np.zeros(1, dtype=np.float32)),
            Tensor(np.ones((1, 1), dtype=np.float32)),
            Tensor(np.zeros(1, dtype=np.float32)),
        )
        for v in values
    ]
    return MoELayer(experts, Tensor(np.zeros((len(values), 1), dtype=np.float32)), cfg)


def tiny_corpus(n=12) -> list[InstructionExample]:
    words = ["red", "blue", "green", "gold"]
    return [
        InstructionExample(f"say {words[i % 4]} {i}", f"{words[i % 4]} {words[(i + 1) % 4]}")
        for i in range(n)
    ]


class TestMergeFixed:
    def test_one_hot_selects_expert_exactly(self):
        layer = scalar_layer([1.5, -2.0, 7.0])
        merged = merge_fixed(layer, [0.0, 0.0, 1.0])
        assert merged.w_up.data[0, 0] == 7.0

    def test_midpoint_of_two_experts(self):
        layer = scalar_layer([0.0, 0.0])
        layer.experts[0].w_up = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
        layer.experts[1].w_up = Tensor(np.array([[3.0, 2.0], [2.0, 3.0]], dtype=np.float32))
        merged = merge_fixed(layer, [0.5, 0.5])
        assert np.array_equal(merged.w_up.data, np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.float32))

    def test_identical_experts_are_a_fixed_point(self):
        layer = scalar_layer([3.0, 3.0, 3.0, 3.0])
        merged = merge_fixed(layer, [0.1, 0.2, 0.3, 0.4])
        assert merged.w_up.data[0, 0] == pytest.approx(3.0, abs=1e-7)

    def test_sum_violation_rejected(self):
        layer = scalar_layer([1.0, 2.0])
        with pytest.raises(ValueError, match="sum to 1"):
            merge_fixed(layer, [0.6, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            merge_fixed(scalar_layer([1.0, 2.0]), [bad, 0.5])

    def test_negative_coefficient_rejected(self):
        layer = scalar_layer([1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            merge_fixed(layer, [1.5, -0.5])

    def test_linearity_under_expert_scaling(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg(n_layers=1)
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=1), MoEConfig(4, 2), seed=2)
        layer = moe.blocks[0].slot
        for expert in layer.experts:  # make experts distinct
            expert.w_up.data += rng.normal(size=expert.w_up.shape).astype(np.float32)
        alpha = rng.dirichlet(np.ones(4))
        base = merge_fixed(layer, alpha)
        c = 3.0
        for expert in layer.experts:
            for t in expert.tensors().values():
                t.data *= c
        scaled = merge_fixed(layer, alpha)
        for key in ("w_up", "b_up", "w_down", "b_down"):
            assert np.allclose(scaled.tensors()[key].data, c * base.tensors()[key].data,
                               rtol=1e-6, atol=1e-6)


class TestInitMixingCoefficients:
    def test_default_rate_with_eight_experts(self):
        coeffs = init_mixing_coefficients(8, 2, lam=0.75)
        alphas = coeffs.alphas(0)
        assert alphas[0] == 0.75
        assert np.allclose(alphas[1:], 1.0 / 28.0, atol=1e-9)

    def test_rate_one_zeroes_normals(self):
        coeffs = init_mixing_coefficients(4, 1, lam=1.0)
        assert np.allclose(coeffs.alphas(0), [1.0, 0.0, 0.0, 0.0])

    def test_rate_zero_two_experts(self):
        coeffs = init_mixing_coefficients(2, 1, lam=0.0)
        assert np.allclose(coeffs.alphas(0), [0.0, 1.0])

    def test_unconstrained_matches_constrained_start(self):
        coeffs = init_mixing_coefficients(8, 3, lam=0.75, unconstrained=True)
        assert coeffs.unconstrained
        alphas = coeffs.alphas(2)
        assert alphas[0] == pytest.approx(0.75, abs=1e-6)
        assert np.allclose(alphas[1:], 1.0 / 28.0, atol=1e-7)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            init_mixing_coefficients(4, 1, lam=1.2)

    def test_json_round_trip(self):
        coeffs = init_mixing_coefficients(4, 2, lam=0.6)
        coeffs.logits[1].data[:] = [0.3, -0.1, 0.7]
        back = MixingCoefficients.from_json_obj(coeffs.to_json_obj())
        assert back.lam == coeffs.lam and back.n_experts == 4
        for l in range(2):
            assert np.allclose(back.alphas(l), coeffs.alphas(l), atol=1e-7)

    @pytest.mark.parametrize("edit", [{"logits": None}, {"logits": [["x", 0.0, 0.0]]},
                                      {"n_experts": "4"}, {"shared_rate": True}])
    def test_json_ill_typed_field_rejected(self, edit):
        obj = {**init_mixing_coefficients(4, 1, lam=0.6).to_json_obj(), **edit}
        with pytest.raises(ValueError, match="wrong types"):
            MixingCoefficients.from_json_obj(obj)


class TestMergeXft:
    def build_moe(self, seed=3, n=4, k=3, distinct=True):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=seed), MoEConfig(n, k), seed=seed + 1)
        if distinct:
            rng = np.random.default_rng(seed + 2)
            for block in moe.blocks:
                for expert in block.slot.experts:
                    for t in expert.tensors().values():
                        t.data += 0.05 * rng.normal(size=t.shape).astype(np.float32)
        return cfg, moe

    def test_rate_one_equals_shared_extraction(self):
        cfg, moe = self.build_moe()
        coeffs = init_mixing_coefficients(4, cfg.n_layers, lam=1.0)
        merged = merge_xft(moe, coeffs)
        extracted = extract_shared_expert(moe)
        tokens = [1, 2, 3, 4]
        with tn.no_grad():
            assert np.array_equal(merged.logits(tokens).data, extracted.logits(tokens).data)

    def test_rate_zero_two_experts_keeps_normal_expert(self):
        cfg, moe = self.build_moe(n=2, k=2)
        coeffs = init_mixing_coefficients(2, cfg.n_layers, lam=0.0)
        merged = merge_xft(moe, coeffs)
        expected = moe.blocks[0].slot.experts[1].w_up.data
        assert np.array_equal(merged.blocks[0].slot.w_up.data, expected)

    def test_identical_experts_merge_to_any_extraction(self):
        cfg, moe = self.build_moe(distinct=False)
        rng = np.random.default_rng(5)
        logits = [Tensor(rng.normal(size=3).astype(np.float32)) for _ in range(cfg.n_layers)]
        coeffs = MixingCoefficients(logits, lam=0.4, n_experts=4)
        merged = merge_xft(moe, coeffs)
        extracted = extract_shared_expert(moe)
        tokens = [5, 6, 7]
        with tn.no_grad():
            diff = np.abs(merged.logits(tokens).data - extracted.logits(tokens).data).max()
        assert diff < 1e-5

    def test_layer_count_mismatch_rejected(self):
        cfg, moe = self.build_moe()
        coeffs = init_mixing_coefficients(4, cfg.n_layers + 1, lam=0.5)
        with pytest.raises(ValueError, match="layers"):
            merge_xft(moe, coeffs)

    def test_merge_does_not_mutate_input(self):
        cfg, moe = self.build_moe()
        before = {k: v.data.copy() for k, v in moe.named_parameters().items()}
        merge_xft(moe, init_mixing_coefficients(4, cfg.n_layers, lam=0.75))
        merge_uniform(moe)
        extract_shared_expert(moe)
        after = moe.named_parameters()
        for name, arr in before.items():
            assert np.array_equal(arr, after[name].data), name

    def test_merged_structure_matches_dense_original(self):
        cfg, moe = self.build_moe()
        merged = merge_uniform(moe)
        dense = build_dense_model(cfg, seed=0)
        assert sorted(merged.named_parameters()) == sorted(dense.named_parameters())
        assert not merged.is_moe


class TestLearnMixingCoefficients:
    def test_identical_experts_give_zero_logit_gradients(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=9), MoEConfig(4, 3), seed=10)
        coeffs = init_mixing_coefficients(4, cfg.n_layers, lam=0.75)
        trainable = _MergedTrainable(moe, coeffs)
        loss = trainable.batch_loss([([1, 2, 3, 4, 5], [0, 1, 1, 1, 1])])
        tn.backward(loss)
        for t in coeffs.logits:
            assert np.abs(t.grad).max() <= 1e-5

    def test_logit_gradients_match_finite_differences(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=11), MoEConfig(4, 3), seed=12)
        rng = np.random.default_rng(13)
        for block in moe.blocks:  # distinct experts so the loss depends on alpha
            for expert in block.slot.experts:
                for t in expert.tensors().values():
                    t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
        moe64 = moe.copy(dtype=np.float64)
        coeffs = init_mixing_coefficients(4, cfg.n_layers, lam=0.6, dtype=np.float64)
        for t in coeffs.logits:
            t.data += rng.normal(scale=0.3, size=t.shape)
        trainable = _MergedTrainable(moe64, coeffs)
        tokens, mask = [1, 5, 2, 8, 0], [0, 1, 1, 1, 1]

        err = tn.finite_diff_check(lambda: trainable.batch_loss([(tokens, mask)]),
                                   coeffs.logits, h=1e-3)
        assert err < 1e-3

    def test_unconstrained_gradients_match_finite_differences(self):
        cfg = small_cfg(n_layers=1)
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=21), MoEConfig(3, 2), seed=22)
        rng = np.random.default_rng(23)
        for expert in moe.blocks[0].slot.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
        moe64 = moe.copy(dtype=np.float64)
        coeffs = init_mixing_coefficients(3, 1, lam=0.5, unconstrained=True, dtype=np.float64)
        trainable = _MergedTrainable(moe64, coeffs)

        def f():
            return trainable.batch_loss([([1, 2, 3, 4], [0, 1, 1, 1])])

        assert tn.finite_diff_check(f, coeffs.logits) < 1e-3

    def test_freezing_contract_and_simplex_invariant(self):
        cfg = small_cfg(vocab_size=259)  # byte-tokenizer vocabulary
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=14), MoEConfig(4, 3), seed=15)
        rng = np.random.default_rng(16)
        for block in moe.blocks:
            for expert in block.slot.experts:
                for t in expert.tensors().values():
                    t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
        before = {k: v.data.copy() for k, v in moe.named_parameters().items()}

        lam = 0.75
        seen_simplex = []
        coeffs_box = {}

        def check_simplex(step):
            coeffs = coeffs_box["coeffs"]
            for l in range(coeffs.n_layers):
                alphas = coeffs.alphas(l)
                assert alphas[0] == lam  # pinned exactly
                seen_simplex.append(abs(float(alphas[1:].sum()) - (1.0 - lam)))

        hyper = TrainHyper(batch_size=4, peak_lr=0.05, warmup_steps=1, epochs=2, seed=3)

        # hook needs the coeffs object that learn_mixing_coefficients creates;
        # grab it on first use via the trainable's closure
        import xft.merge as merge_mod
        orig_init = merge_mod.init_mixing_coefficients

        def capturing_init(*args, **kwargs):
            coeffs = orig_init(*args, **kwargs)
            coeffs_box["coeffs"] = coeffs
            return coeffs

        merge_mod.init_mixing_coefficients = capturing_init
        try:
            coeffs, curve = learn_mixing_coefficients(
                moe, tiny_corpus(), lam, hyper, post_step=check_simplex)
        finally:
            merge_mod.init_mixing_coefficients = orig_init

        assert len(curve) == 2 * 3
        assert seen_simplex and max(seen_simplex) < 1e-6
        # theta_o and experts byte-identical; only logits moved
        after = moe.named_parameters()
        for name, arr in before.items():
            assert np.array_equal(arr, after[name].data), name
        assert any(np.abs(t.data).max() > 0 for t in coeffs.logits)

    def test_rate_validation(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=1), MoEConfig(4, 3), seed=2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            learn_mixing_coefficients(moe, tiny_corpus(), 1.5, TrainHyper(epochs=1))


class TestEWA:
    def test_beta_zero_is_identity(self):
        layer = scalar_layer([0.0, 1.0])
        ewa_step(layer, 0.0)
        assert layer.experts[0].w_up.data[0, 0] == 0.0
        assert layer.experts[1].w_up.data[0, 0] == 1.0

    def test_beta_one_collapses_to_mean(self):
        layer = scalar_layer([0.0, 1.0])
        ewa_step(layer, 1.0)
        assert layer.experts[0].w_up.data[0, 0] == pytest.approx(0.5)
        assert layer.experts[1].w_up.data[0, 0] == pytest.approx(0.5)

    def test_single_step_hand_values(self):
        layer = scalar_layer([0.0, 1.0])
        ewa_step(layer, 0.3)
        assert layer.experts[0].w_up.data[0, 0] == pytest.approx(0.15, abs=1e-7)
        assert layer.experts[1].w_up.data[0, 0] == pytest.approx(0.85, abs=1e-7)

    def test_constant_beta_sequence_matches_closed_form(self):
        # deviations from the (invariant) mean decay by (1 - beta) per step
        layer = scalar_layer([0.0, 1.0])
        beta, steps = 0.3, 3
        for _ in range(steps):
            ewa_step(layer, beta)
        decay = (1.0 - beta) ** steps
        assert layer.experts[0].w_up.data[0, 0] == pytest.approx(0.5 - 0.5 * decay, abs=1e-6)
        assert layer.experts[1].w_up.data[0, 0] == pytest.approx(0.5 + 0.5 * decay, abs=1e-6)

    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ValueError):
            ewa_step(scalar_layer([0.0, 1.0]), 1.5)

    def test_linear_schedule_ramps_zero_to_beta(self):
        cfg = EWAConfig(beta=0.3, schedule="linear")
        assert ewa_beta_at_step(cfg, 0, 10) == 0.0
        assert ewa_beta_at_step(cfg, 9, 10) == pytest.approx(0.3)

    def test_constant_schedule(self):
        cfg = EWAConfig(beta=0.3)
        assert ewa_beta_at_step(cfg, 0, 10) == 0.3
        assert ewa_beta_at_step(cfg, 9, 10) == 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EWAConfig(beta=-0.1)
        with pytest.raises(ValueError):
            EWAConfig(beta=0.3, schedule="cosine")

    def test_reference_defaults(self):
        # reference share rate 0.3; constant schedule is the supported
        # default (the linear one destabilizes training)
        cfg = EWAConfig()
        assert cfg.beta == 0.3 and cfg.schedule == "constant"


class TestSharedRateConstants:
    def test_reference_shared_rates(self):
        from xft.merge import DEFAULT_SHARED_RATE
        assert DEFAULT_SHARED_RATE == 0.75     # 8-expert configuration


class TestEWAFinalize:
    def test_identical_experts_exact(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=4), MoEConfig(4, 2), seed=5)
        dense = merge_uniform(moe)
        expected = moe.blocks[0].slot.experts[0].w_up.data
        assert np.allclose(dense.blocks[0].slot.w_up.data, expected, atol=1e-7)

    def test_zero_and_m_average_to_half_m(self):
        layer = scalar_layer([0.0, 6.0])
        merged = merge_fixed(layer, [0.5, 0.5])
        assert merged.w_up.data[0, 0] == pytest.approx(3.0)

    def test_three_scalar_experts_mean(self):
        layer = scalar_layer([1.0, 2.0, 6.0])
        merged = merge_fixed(layer, np.full(3, 1 / 3))
        assert merged.w_up.data[0, 0] == pytest.approx(3.0, abs=1e-6)
