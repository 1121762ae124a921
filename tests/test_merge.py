"""Expert merging: fixed coefficients, learnable mixing, EWA baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_moe
from oracles import graph_alphas_composed, mix_composed
from xft import tensor as tn
from xft.merge import (
    EWA_DEFAULT_BETA,
    EWA_SCHEDULES,
    MixingCoefficients,
    ewa_hook,
    ewa_step,
    init_mixing_coefficients,
    learn_mixing_coefficients,
    merge_uniform,
    merge_xft,
    _merge_fixed,
    _MergedTrainable,
)
from xft.model import ModelConfig, build_dense_model
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import InstructionExample, TrainHyper


def small_cfg(**overrides) -> ModelConfig:
    base = dict(vocab_size=13, d_model=16, n_layers=2, n_heads=2, d_ff=20, max_seq_len=32)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_moe_layer(w_ups):
    return tiny_moe(w_ups).blocks[0].slot


def merged_w_up(w_ups, alpha) -> np.ndarray:
    """w_up of ``tiny_moe(w_ups)`` merged with the coefficients ``alpha``."""
    return _merge_fixed(tiny_moe(w_ups), [alpha]).blocks[0].slot.w_up.data


def tiny_corpus(n=12) -> list[InstructionExample]:
    words = ["red", "blue", "green", "gold"]
    return [
        InstructionExample(f"say {words[i % 4]} {i}", f"{words[i % 4]} {words[(i + 1) % 4]}")
        for i in range(n)
    ]


class TestMixNode:
    """``tn.mix`` is bit for bit the per-expert products and sums from +0 that
    the merge composed before it, coefficient gradients included."""

    SHAPES = [(5, 6, 7), (5, 7), (5, 7, 6), (5, 6)]  # one layer's stacked expert tensors

    def stacked(self, rng, dtype):
        tensors = [Tensor(rng.normal(size=s).astype(dtype)) for s in self.SHAPES]
        for t in tensors:  # every expert's first entry is -0.0: it mixes to +0.0
            t.data.reshape(5, -1)[:, 0] = -0.0
        return tensors

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fixed_coefficients(self, dtype):
        rng = np.random.default_rng(0)
        for alpha in (rng.dirichlet(np.ones(5)), np.eye(5)[3], np.full(5, 0.2)):
            for t in self.stacked(rng, dtype):
                got = tn.mix(t, Tensor(alpha.astype(dtype))).data
                want = mix_composed(t, alpha.tolist()).data
                assert got.dtype == dtype and got.tobytes() == want.tobytes()
                assert not np.signbit(got.reshape(-1)[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lam", [0.75, None], ids=["xft", "soup"])
    def test_learned_coefficients_and_their_gradients(self, dtype, lam):
        rng = np.random.default_rng(1)
        tensors = self.stacked(rng, dtype)
        readouts = [Tensor(rng.normal(size=t.shape[1:]).astype(dtype)) for t in tensors]
        logits = Tensor(rng.normal(size=5 if lam is None else 4).astype(dtype), requires_grad=True)
        coeffs = MixingCoefficients([logits], lam, 5)
        results = []
        for mix, alphas in ((tn.mix, coeffs.graph_alphas),
                            (mix_composed, lambda layer: graph_alphas_composed(coeffs, layer))):
            c = alphas(0)
            mixed = [mix(t, c) for t in tensors]
            logits.grad = None
            first, *rest = ((m * r).sum() for m, r in zip(mixed, readouts))
            tn.backward(sum(rest, first))
            results.append([m.data.tobytes() for m in mixed] + [logits.grad.tobytes()])
        assert results[0] == results[1]


class TestMergeFixed:
    def test_one_hot_selects_expert_exactly(self):
        assert merged_w_up([1.5, -2.0, 7.0], [0.0, 0.0, 1.0])[0, 0] == 7.0

    def test_midpoint_of_two_experts(self):
        w_ups = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[3.0, 2.0], [2.0, 3.0]])]
        assert np.array_equal(merged_w_up(w_ups, [0.5, 0.5]),
                              np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.float32))

    def test_identical_experts_are_a_fixed_point(self):
        merged = merged_w_up([3.0, 3.0, 3.0, 3.0], [0.1, 0.2, 0.3, 0.4])
        assert merged[0, 0] == pytest.approx(3.0, abs=1e-7)

    def test_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            merged_w_up([1.0, 2.0], [0.6, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            merged_w_up([1.0, 2.0], [bad, 0.5])

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            merged_w_up([1.0, 2.0], [1.5, -0.5])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           c=st.floats(-8.0, -0.125) | st.floats(0.125, 8.0))
    def test_linearity_under_expert_scaling(self, seed, c):
        # scaling every expert tensor by c scales every merged FFN tensor by c,
        # up to float32 rounding of the products and sums
        rng = np.random.default_rng(seed)
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=1), MoEConfig(4, 2), seed=2)
        for block in moe.blocks:  # make experts distinct
            for expert in block.slot.experts:
                for t in expert.tensors().values():
                    t.data += rng.normal(size=t.shape).astype(np.float32)
        alphas = rng.dirichlet(np.ones(4), size=cfg.n_layers)
        params = moe.named_parameters()
        base = _merge_fixed(moe, alphas).named_parameters()
        bounds = {name: 1e-6 * abs(c) * max(
                      np.abs(params[name.replace(".ffn.", ".moe.experts.")].data[e]).max()
                      for e in range(4))
                  for name in base if ".ffn." in name}
        for name, t in params.items():
            if ".moe.experts." in name:
                t.data *= np.float32(c)
        scaled = _merge_fixed(moe, alphas).named_parameters()
        for name, bound in bounds.items():
            assert np.abs(scaled[name].data - np.float32(c) * base[name].data).max() <= bound


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

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), 1e308, 1e39])
    def test_json_logit_not_finite_in_float32_rejected(self, value):
        obj = init_mixing_coefficients(4, 2, lam=0.6).to_json_obj()
        obj["logits"][1][2] = value
        with pytest.raises(ValueError, match="logits of layer 1 are not finite"):
            MixingCoefficients.from_json_obj(obj)

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
        extracted = merge_xft(moe, init_mixing_coefficients(4, cfg.n_layers, lam=1.0))
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
                                   coeffs.logits)
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

    @pytest.mark.parametrize("unconstrained", [False, True], ids=["xft", "soup"])
    def test_learned_merge_leaves_moe_alone(self, unconstrained):
        cfg = small_cfg(vocab_size=259)  # byte-tokenizer vocabulary
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=17), MoEConfig(4, 3), seed=18)
        rng = np.random.default_rng(19)
        for block in moe.blocks:
            for expert in block.slot.experts:
                for t in expert.tensors().values():
                    t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
        before = {k: v.data.tobytes() for k, v in moe.named_parameters().items()}
        hyper = TrainHyper(batch_size=4, peak_lr=0.05, warmup_steps=1, epochs=1, seed=3)
        learn_mixing_coefficients(moe, tiny_corpus(), 0.6, hyper, unconstrained=unconstrained)
        for name, t in moe.named_parameters().items():
            assert t.grad is None, name
            assert t.data.tobytes() == before[name], name

    def test_rate_validation(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=1), MoEConfig(4, 3), seed=2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            learn_mixing_coefficients(moe, tiny_corpus(), 1.5, TrainHyper(epochs=1))


class TestEWA:
    def test_beta_zero_is_identity(self):
        layer = tiny_moe_layer([0.0, 1.0])
        ewa_step(layer, 0.0)
        assert layer.experts[0].w_up.data[0, 0] == 0.0
        assert layer.experts[1].w_up.data[0, 0] == 1.0

    def test_beta_one_collapses_to_mean(self):
        layer = tiny_moe_layer([0.0, 1.0])
        ewa_step(layer, 1.0)
        assert layer.experts[0].w_up.data[0, 0] == pytest.approx(0.5)
        assert layer.experts[1].w_up.data[0, 0] == pytest.approx(0.5)

    def test_single_step_hand_values(self):
        layer = tiny_moe_layer([0.0, 1.0])
        ewa_step(layer, 0.3)
        assert layer.experts[0].w_up.data[0, 0] == pytest.approx(0.15, abs=1e-7)
        assert layer.experts[1].w_up.data[0, 0] == pytest.approx(0.85, abs=1e-7)

    def test_constant_beta_sequence_matches_closed_form(self):
        # deviations from the (invariant) mean decay by (1 - beta) per step
        layer = tiny_moe_layer([0.0, 1.0])
        beta, steps = 0.3, 3
        for _ in range(steps):
            ewa_step(layer, beta)
        decay = (1.0 - beta) ** steps
        assert layer.experts[0].w_up.data[0, 0] == pytest.approx(0.5 - 0.5 * decay, abs=1e-6)
        assert layer.experts[1].w_up.data[0, 0] == pytest.approx(0.5 + 0.5 * decay, abs=1e-6)

    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ValueError):
            ewa_step(tiny_moe_layer([0.0, 1.0]), 1.5)

    @pytest.mark.parametrize("schedule,step,total,rate", [
        ("linear", 0, 10, 0.0), ("linear", 3, 10, 0.1), ("linear", 9, 10, 0.3),
        ("linear", 0, 1, 0.3), ("constant", 0, 10, 0.3), ("constant", 9, 10, 0.3)])
    def test_hook_blends_at_the_scheduled_rate(self, schedule, step, total, rate):
        # after step s, two scalar experts {0, 1} sit at 0.5 -/+ 0.5 (1 - rate)
        moe = tiny_moe([0.0, 1.0])
        ewa_hook(moe, 0.3, schedule, total)(step)
        w_up = moe.blocks[0].slot.weights.w_up.data
        assert w_up[0, 0, 0] == pytest.approx(0.5 - 0.5 * (1.0 - rate), abs=1e-6)
        assert w_up[1, 0, 0] == pytest.approx(0.5 + 0.5 * (1.0 - rate), abs=1e-6)

    @pytest.mark.parametrize("beta,schedule,match", [
        (-0.1, "constant", r"\[0, 1\]"), (1.5, "linear", r"\[0, 1\]"),
        (0.3, "cosine", "unknown EWA schedule 'cosine'")],
        ids=["beta_below_0", "beta_above_1", "unknown_schedule"])
    def test_hook_rejects_bad_settings_before_training(self, beta, schedule, match):
        with pytest.raises(ValueError, match=match):
            ewa_hook(tiny_moe([0.0, 1.0]), beta, schedule, 10)

    def test_reference_defaults(self):
        # reference share rate 0.3; constant schedule is the supported
        # default (the linear one destabilizes training)
        assert EWA_DEFAULT_BETA == 0.3 and EWA_SCHEDULES[0] == "constant"


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
        merged = merge_uniform(tiny_moe([0.0, 6.0]))
        assert merged.blocks[0].slot.w_up.data[0, 0] == pytest.approx(3.0)

    def test_three_scalar_experts_mean(self):
        merged = merge_uniform(tiny_moe([1.0, 2.0, 6.0]))
        assert merged.blocks[0].slot.w_up.data[0, 0] == pytest.approx(3.0, abs=1e-6)
