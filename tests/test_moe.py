"""Shared-expert routing, gate normalization, and dense-to-MoE upcycling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xft import tensor as tn
from xft.model import ModelConfig, build_dense_model, model_forward_loss
from conftest import stack_experts
from oracles import (affinity_scores, bmul, expert_weights, moe_layer_composed, reshape,
                     route_shared_normalized, route_standard, rsub, take_along_rows)
from xft.moe import MoEConfig, MoELayer, SHARED_EXPERT, upcycle_dense_to_moe
from xft.model import FFNWeights, ffn_forward
from xft.checkpoint import load_checkpoint, save_checkpoint
from xft.moe import RoutingRecord
from xft.tensor import Tensor


def small_cfg(**overrides) -> ModelConfig:
    base = dict(vocab_size=13, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=16)
    base.update(overrides)
    return ModelConfig(**base)


def scalar_ffn(up: float, down: float) -> FFNWeights:
    """1-d FFN computing u -> gelu(u*up)*down."""
    return FFNWeights(
        Tensor(np.array([[up]], dtype=np.float32)),
        Tensor(np.zeros(1, dtype=np.float32)),
        Tensor(np.array([[down]], dtype=np.float32)),
        Tensor(np.zeros(1, dtype=np.float32)),
    )


def scalar_moe_layer(expert_maps, centroids, top_k, normalization=True) -> MoELayer:
    """d_model=1 MoE layer; expert i computes u -> gelu(expert_maps[i] * u)."""
    cfg = MoEConfig(n_experts=len(expert_maps), top_k=top_k,
                    normalization_enabled=normalization)
    experts = stack_experts([scalar_ffn(m, 1.0) for m in expert_maps])
    return MoELayer(experts, Tensor(np.asarray(centroids, dtype=np.float32)), cfg)


class TestMoEConfig:
    def test_paper_scale_defaults(self):
        cfg = MoEConfig()
        assert cfg.n_experts == 8 and cfg.top_k == 6

    def test_top_k_bounds(self):
        with pytest.raises(ValueError):
            MoEConfig(n_experts=4, top_k=5)
        with pytest.raises(ValueError):
            MoEConfig(n_experts=4, top_k=1)


class TestAffinityScores:
    def test_equal_logits_uniform(self):
        layer = scalar_moe_layer([1.0, 1.0, 1.0, 1.0], np.zeros((4, 1)), top_k=3)
        s = affinity_scores(np.array([2.0], dtype=np.float32), layer)
        assert s[0] == -np.inf
        assert np.allclose(s[1:], [1 / 3] * 3, atol=1e-6)

    def test_frozen_softmax_values(self):
        # centroid rows chosen so the normal-expert logits are [1.0, 0.5, 0.0]
        layer = scalar_moe_layer([0.0, 0.0, 0.0, 0.0],
                                 [[0.0], [1.0], [0.5], [0.0]], top_k=3)
        s = affinity_scores(np.array([1.0], dtype=np.float32), layer)
        assert np.allclose(s[1:], [0.506479, 0.307196, 0.186325], atol=1e-5)

    def test_shared_expert_never_in_topk(self):
        rng = np.random.default_rng(0)
        layer = scalar_moe_layer([0.0] * 5, rng.normal(size=(5, 1)), top_k=4)
        for _ in range(50):
            s = affinity_scores(rng.normal(size=1).astype(np.float32), layer)
            decision = route_shared_normalized(s, k=4)
            assert decision.selected[0] == SHARED_EXPERT
            assert SHARED_EXPERT not in decision.selected[1:]


class TestRouteStandard:
    def test_hand_checked_topk(self):
        logits = np.array([1.0, 0.5, 0.0, -0.5])
        e = np.exp(logits - logits.max())
        s = e / e.sum()
        decision = route_standard(s, k=2)
        assert decision.selected == [0, 1]
        assert np.allclose(decision.gates, [0.45506, 0.27601], atol=1e-5)
        # 0.73107 is the sum of the two rounded gates; per-gate rounding can
        # stack, so the sum check carries twice the per-gate tolerance
        assert float(decision.gates.sum()) == pytest.approx(0.73107, abs=2e-5)

    def test_k_equals_n_keeps_full_softmax(self):
        s = np.array([0.1, 0.2, 0.3, 0.4])
        decision = route_standard(s, k=4)
        assert float(decision.gates.sum()) == pytest.approx(1.0, abs=1e-7)

    def test_dominant_logit_saturates(self):
        logits = np.array([50.0, 0.0, 0.0])
        e = np.exp(logits - logits.max())
        decision = route_standard(e / e.sum(), k=1)
        assert decision.gates[0] == pytest.approx(1.0, abs=1e-6)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            route_standard(np.array([0.5, 0.5]), k=3)


class TestRouteSharedNormalized:
    def worked_affinities(self):
        s = np.full(4, -np.inf)
        s[1:] = [0.506479, 0.307196, 0.186325]
        return s

    def test_worked_example(self):
        decision = route_shared_normalized(self.worked_affinities(), k=3)
        assert decision.selected == [0, 1, 2]
        assert decision.gates[0] == pytest.approx(0.493521, abs=1e-5)
        assert np.allclose(decision.gates[1:], [0.278395, 0.228086], atol=1e-5)
        assert float(decision.gates.sum()) == pytest.approx(1.0, abs=1e-5)

    def test_equal_scores_split_s_max_equally(self):
        s = np.full(4, -np.inf)
        s[1:] = [0.4, 0.4, 0.2]
        decision = route_shared_normalized(s, k=3)
        assert decision.gates[1] == pytest.approx(decision.gates[2])
        assert decision.gates[1] + decision.gates[2] == pytest.approx(0.4, abs=1e-7)

    def test_k2_single_normal_gate_is_s_max(self):
        decision = route_shared_normalized(self.worked_affinities(), k=2)
        assert decision.gates[1] == pytest.approx(decision.s_max)
        assert len(decision.selected) == 2

    def test_ties_resolve_to_lower_expert_index(self):
        s = np.full(5, -np.inf)
        s[1:] = [0.25, 0.25, 0.25, 0.25]
        decision = route_shared_normalized(s, k=3)
        assert decision.selected == [0, 1, 2]

    def test_no_normalization_uses_raw_affinities(self):
        decision = route_shared_normalized(self.worked_affinities(), k=3, normalized=False)
        assert np.allclose(decision.gates[1:], [0.506479, 0.307196], atol=1e-6)
        assert float(decision.gates.sum()) != pytest.approx(1.0, abs=1e-3)

    def test_k_exceeding_normal_count_rejected(self):
        with pytest.raises(ValueError):
            route_shared_normalized(self.worked_affinities(), k=5)

    def test_invariant_to_permuting_unselected(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = 8
            s = np.full(n, -np.inf)
            s[1:] = rng.dirichlet(np.ones(n - 1))
            k = 4
            base = route_shared_normalized(s, k)
            unselected = [i for i in range(1, n) if i not in base.selected]
            perm = rng.permutation(unselected)
            s2 = s.copy()
            s2[unselected] = s[perm]
            shuffled = route_shared_normalized(s2, k)
            assert shuffled.selected == base.selected
            assert np.allclose(shuffled.gates, base.gates, atol=1e-12)


class TestMoELayerForward:
    def test_identical_experts_reduce_to_dense_ffn(self):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=5)
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=3), seed=9)
        rng = np.random.default_rng(1)
        u = Tensor(rng.normal(size=(7, cfg.d_model)).astype(np.float32))
        with tn.no_grad():
            from xft.model import ffn_forward
            expected = ffn_forward(u, dense.blocks[0].slot).data + u.data
            got, record = moe.blocks[0].slot.forward(u)
        assert np.allclose(got.data, expected, atol=1e-5)
        assert record.gates.shape == (7, 3)

    def test_scalar_toy_weighted_mix(self):
        # shared expert maps u -> gelu(2u), the selected normal expert
        # u -> gelu(4u); equal zero centroids make s = [0.5, 0.5], so s_max = 0.5
        # and both gates are 0.5: h = 0.5*gelu(2) + 0.5*gelu(4) + 1
        def gelu(x):
            return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))

        layer = scalar_moe_layer([2.0, 4.0, 9.0], np.zeros((3, 1)), top_k=2)
        u = Tensor(np.array([[1.0]], dtype=np.float32))
        h, record = layer.forward(u)
        assert h.data[0, 0] == pytest.approx(0.5 * gelu(2.0) + 0.5 * gelu(4.0) + 1, abs=1e-6)
        assert record.selected.tolist() == [[0, 1]]
        assert np.allclose(record.gates, [[0.5, 0.5]], atol=1e-6)

    def test_gate_sum_invariant_1000_random_tokens(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=2),
                                   MoEConfig(n_experts=8, top_k=6), seed=3)
        layer = moe.blocks[0].slot
        rng = np.random.default_rng(4)
        checked = 0
        with tn.no_grad():
            while checked < 1000:
                u = Tensor(rng.normal(scale=2.0, size=(50, cfg.d_model)).astype(np.float32))
                _, record = layer.forward(u)
                assert (np.abs(record.gates.sum(axis=1) - 1.0) < 1e-5).all()
                assert (record.selected[:, 0] == SHARED_EXPERT).all()
                checked += record.gates.shape[0]


def per_expert_forward(layer: MoELayer, u: Tensor) -> Tensor:
    """Reference for the grouped dispatch: the shared expert on every token,
    then one gather, expert call and gated scatter-add per normal expert.
    The scatter is a product with a 0/1 placement matrix. Each expert's
    weights are taken from the stacked ones as graph nodes."""
    t, r = u.shape[0], layer.cfg.top_k - 1
    scores = layer.normal_affinities(u)
    ranked = np.argsort(-scores.data, axis=1, kind="stable")
    sel = ranked[:, :r]
    s_max = take_along_rows(scores, ranked[:, :1])
    normal_gates = bmul(tn.softmax(take_along_rows(scores, sel)), s_max)
    h = u + bmul(ffn_forward(u, expert_weights(layer.weights, SHARED_EXPERT)), rsub(1.0, s_max))
    gates_flat = reshape(normal_gates, (t * r, 1))
    for e in range(1, layer.cfg.n_experts):
        rows, slots = np.nonzero(sel == e - 1)
        if rows.size == 0:
            continue
        gate_col = tn.gather_rows(gates_flat, rows * r + slots)
        out = bmul(ffn_forward(tn.gather_rows(u, rows), expert_weights(layer.weights, e)), gate_col)
        place = Tensor(np.eye(t, dtype=u.data.dtype)[:, rows].copy())
        h = h + place @ out
    return h


class TestGroupedDispatch:
    def layer_and_input(self, n, k, dtype, seed):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=seed), MoEConfig(n, k),
                                   seed=seed + 1).copy(dtype=dtype)
        layer = moe.blocks[0].slot
        rng = np.random.default_rng(seed + 2)
        layer.centroids.data *= 50.0
        for expert in layer.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape)
        u = Tensor(rng.normal(size=(23, cfg.d_model)).astype(dtype), requires_grad=True)
        return layer, u

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 3), (8, 6), (8, 8)])
    def test_forward_matches_per_expert_loop(self, n, k):
        layer, u = self.layer_and_input(n, k, np.float32, seed=n + k)
        with tn.no_grad():
            grouped, _ = layer.forward(u)
            ref = per_expert_forward(layer, u)
        assert np.allclose(grouped.data, ref.data, atol=1e-5)

    def test_gradients_match_per_expert_loop(self):
        layer, u = self.layer_and_input(8, 6, np.float64, seed=3)
        params = [u, layer.centroids, *layer.weights.tensors().values()]
        readout = Tensor(np.random.default_rng(4).normal(size=u.shape))
        grads = []
        for forward in (lambda: layer.forward(u)[0], lambda: per_expert_forward(layer, u)):
            for p in params:
                p.grad = None
            tn.backward((forward() * readout).sum())
            grads.append([p.grad.copy() for p in params])
        for grouped, ref in zip(*grads):
            assert np.allclose(grouped, ref, rtol=1e-9, atol=1e-12)


def random_layer(rng, n: int, k: int, d: int = 8, d_ff: int = 12) -> MoELayer:
    """MoE layer with independent random experts and centroids."""
    shapes = ((d, d_ff), (d_ff,), (d_ff, d), (d,))
    experts = stack_experts([FFNWeights(*(Tensor(rng.normal(scale=0.3, size=s).astype(np.float32))
                                          for s in shapes)) for _ in range(n)])
    return MoELayer(experts, Tensor(rng.normal(size=(n, d)).astype(np.float32)), MoEConfig(n, k))


@st.composite
def routed_inputs(draw):
    """(layer, u) for a random layer of 2-8 experts, top_k in [2, N], and 1-16 input rows."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = random_layer(rng, n, k)
    scale = draw(st.floats(0.1, 4.0))
    u = Tensor((scale * rng.normal(size=(draw(st.integers(1, 16)), 8))).astype(np.float32))
    return layer, u


def layer_outputs_and_grads(layer: MoELayer, u: Tensor, seed: int) -> list:
    """Output, gates and the gradients of u, the centroids and the 4 stacked
    expert tensors of one ``MoELayer.forward``, read out through seeded weights."""
    params = [u, layer.centroids, *layer.weights.tensors().values()]
    for p in params:
        p.grad = None
    h, record = layer.forward(u)
    readout = Tensor(np.random.default_rng(seed).normal(size=h.shape).astype(h.dtype))
    tn.backward((h * readout).sum())
    return [h.data, record.gates, record.selected] + [p.grad for p in params]


class TestFusedLayer:
    """``MoELayer.forward`` through the ``tn.expert_ffn`` node is bit for bit
    the composed layer, router gradients included."""

    @pytest.mark.parametrize("normalization", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows,n,k", [(1, 8, 6), (3, 8, 2), (23, 8, 6), (40, 4, 3)])
    def test_output_and_every_gradient(self, rows, n, k, dtype, normalization, monkeypatch):
        rng = np.random.default_rng(rows + n + k)
        layer = random_layer(rng, n, k)
        layer.cfg = MoEConfig(n, k, normalization_enabled=normalization)
        for p in [layer.centroids, *layer.weights.tensors().values()]:
            p.data, p.requires_grad = p.data.astype(dtype), True
        u = Tensor(rng.normal(size=(rows, 8)).astype(dtype), requires_grad=True)
        fused = layer_outputs_and_grads(layer, u, seed=rows)
        monkeypatch.setattr(tn, "expert_ffn", moe_layer_composed)
        composed = layer_outputs_and_grads(layer, u, seed=rows)
        for f, c in zip(fused, composed):
            assert (f is None and c is None) or (f.dtype == c.dtype and np.array_equal(f, c))
        idle = [e for e in range(n) if e not in fused[2]]  # experts that received no rows
        assert [e for e in range(n) if not any(g[e].any() for g in fused[5:])] == idle
        assert len(idle) >= (n - k if rows == 1 else 4 if rows == 3 else 0)

    def test_packed_segments_give_identical_loss_gradients(self, monkeypatch):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=8), MoEConfig(8, 6), seed=9)
        rng = np.random.default_rng(10)
        for p in moe.named_parameters().values():
            p.data += rng.normal(scale=0.05, size=p.shape).astype(np.float32)
        tokens = rng.integers(0, cfg.vocab_size, size=30)
        mask = np.ones(30)
        bounds = [0, 7, 9, 21, 30]

        def run():
            for p in moe.named_parameters().values():
                p.grad = None
            _, loss = model_forward_loss(moe, tokens, mask, bounds)
            tn.backward(loss)
            return [loss.data] + [p.grad for p in moe.named_parameters().values()]

        fused = run()
        monkeypatch.setattr(tn, "expert_ffn", moe_layer_composed)
        for f, c in zip(fused, run()):
            assert np.array_equal(f, c)


class TestRoutingProperties:
    @settings(max_examples=40, deadline=None)
    @given(routed_inputs())
    def test_gates_sum_to_one_and_shared_gate_is_one_minus_s_max(self, case):
        layer, u = case
        with tn.no_grad():
            _, record = layer.forward(u)
        assert np.abs(record.gates.sum(axis=1) - 1.0).max() < 1e-5
        assert (record.selected[:, 0] == SHARED_EXPERT).all()
        assert np.abs(record.gates[:, 0] - (1.0 - record.scores.max(axis=1))).max() < 1e-7

    @settings(max_examples=20, deadline=None)
    @given(routed_inputs())
    def test_tied_scores_select_the_lowest_expert_indices(self, case):
        layer, u = case
        layer.centroids.data[1:] = 0.0  # every normal expert gets the same score
        with tn.no_grad():
            _, record = layer.forward(u)
        assert (record.selected == np.arange(layer.cfg.top_k)).all()

    @settings(max_examples=40, deadline=None)
    @given(routed_inputs(), st.randoms(use_true_random=False))
    def test_permuting_normal_experts_permutes_selection(self, case, random):
        layer, u = case
        n, r = layer.cfg.n_experts, layer.cfg.top_k - 1
        perm = list(range(n - 1))
        random.shuffle(perm)
        order = [SHARED_EXPERT] + [1 + p for p in perm]  # new expert j is old expert order[j]
        permuted = MoELayer(FFNWeights(*(Tensor(t.data[order])
                                         for t in layer.weights.tensors().values())),
                            Tensor(layer.centroids.data[order]), layer.cfg)
        with tn.no_grad():
            h, record = layer.forward(u)
            h_perm, record_perm = permuted.forward(u)
        # a near-tie among the ranked scores may break either way once the
        # softmax sums in the permuted order
        ranked = -np.sort(-record.scores, axis=1)[:, :r + 1]
        assume(ranked.shape[1] < 2 or np.diff(ranked, axis=1).max() < -1e-5)
        new_index = np.argsort(order)  # old expert e is new expert new_index[e]
        assert np.array_equal(record_perm.selected, new_index[record.selected])
        assert np.allclose(h_perm.data, h.data, rtol=1e-5, atol=1e-5)


class TestRoutingRecord:
    def test_arrays_match_reference_router(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=2), MoEConfig(8, 6), seed=3)
        layer = moe.blocks[0].slot
        u = Tensor(np.random.default_rng(5).normal(scale=2.0, size=(9, cfg.d_model))
                   .astype(np.float32))
        with tn.no_grad():
            _, record = layer.forward(u)
        assert isinstance(record, RoutingRecord)
        assert record.selected.shape == (9, 6) and record.gates.shape == (9, 6)
        assert record.scores.shape == (9, 7)
        for i in range(9):
            ref = route_shared_normalized(affinity_scores(u.data[i], layer), 6)
            assert record.selected[i].tolist() == ref.selected
            assert np.allclose(record.gates[i], ref.gates, atol=1e-6)
            assert np.allclose(record.scores[i], ref.scores, atol=1e-7)


class TestUpcycle:
    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (4, 3), (8, 2), (8, 3), (8, 6)])
    def test_init_equivalence(self, n, k):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=31)
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=n, top_k=k), seed=77)
        rng = np.random.default_rng(13)
        with tn.no_grad():
            for _ in range(10):
                tokens = rng.integers(0, cfg.vocab_size, size=9).tolist()
                diff = np.abs(moe.logits(tokens).data - dense.logits(tokens).data).max()
                assert diff < 1e-5, f"N={n} K={k}: logit diff {diff}"

    def test_scale_mismatch_without_normalization(self):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=31)
        moe = upcycle_dense_to_moe(
            dense, MoEConfig(n_experts=8, top_k=6, normalization_enabled=False), seed=77)
        rng = np.random.default_rng(13)
        worst = 0.0
        with tn.no_grad():
            for _ in range(10):
                tokens = rng.integers(0, cfg.vocab_size, size=9).tolist()
                diff = np.abs(moe.logits(tokens).data - dense.logits(tokens).data).max()
                worst = max(worst, float(diff))
        assert worst > 1e-3

    def test_parameter_count(self):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=0)
        n = 5
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=n, top_k=3), seed=0)
        dense_count = sum(p.size for p in dense.named_parameters().values())
        moe_count = sum(p.size for p in moe.named_parameters().values())
        ffn_params = sum(t.size for t in dense.blocks[0].slot.tensors().values())
        expected = dense_count + (n - 1) * ffn_params * cfg.n_layers + n * cfg.d_model * cfg.n_layers
        assert moe_count == expected

    def test_theta_o_copied_verbatim(self):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=1)
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=2), seed=2)
        dense_params = dense.named_parameters()
        moe_params = moe.named_parameters()
        theta_o = [n for n in moe_params if ".ffn." not in n and ".moe." not in n]
        for name in theta_o:
            assert np.array_equal(moe_params[name].data, dense_params[name].data), name

    def test_experts_are_byte_identical_copies(self):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=1)
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=2), seed=2)
        original = dense.blocks[0].slot
        for expert in moe.blocks[0].slot.experts:
            for key, t in expert.tensors().items():
                assert np.array_equal(t.data, original.tensors()[key].data)
                assert t.data is not original.tensors()[key].data

    def test_router_seeded_deterministically(self):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=1)
        a = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=2), seed=5)
        b = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=2), seed=5)
        c = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=2), seed=6)
        assert np.array_equal(a.blocks[0].slot.centroids.data, b.blocks[0].slot.centroids.data)
        assert not np.array_equal(a.blocks[0].slot.centroids.data, c.blocks[0].slot.centroids.data)

    def test_upcycling_moe_input_rejected(self):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=0), MoEConfig(4, 2), seed=0)
        with pytest.raises(ValueError, match="dense"):
            upcycle_dense_to_moe(moe, MoEConfig(4, 2), seed=0)


class TestExpertViews:
    """``MoELayer.experts`` views the stacked weights: an in-place change to an
    expert's tensors, as the benchmark's drift makes, is a change to the layer."""

    def test_in_place_add_reaches_the_weights_the_output_and_the_file(self, tmp_path):
        cfg = small_cfg()
        moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=1), MoEConfig(4, 3), seed=2)
        layer = moe.blocks[0].slot
        before = {k: t.data.copy() for k, t in layer.weights.tensors().items()}
        u = Tensor(np.random.default_rng(3).normal(size=(9, cfg.d_model)).astype(np.float32))
        with tn.no_grad():
            h_before = layer.forward(u)[0].data
        save_checkpoint(moe, str(tmp_path / "before.xftc"))
        rng = np.random.default_rng(4)
        for i, expert in enumerate(layer.experts[1:], start=1):
            for t in expert.tensors().values():
                t.data += rng.normal(0.0, 0.1 * i, t.shape).astype(t.data.dtype)
        for key, t in layer.weights.tensors().items():
            assert np.array_equal(t.data[0], before[key][0])
            assert all((t.data[e] != before[key][e]).any() for e in range(1, 4))
        with tn.no_grad():
            assert not np.allclose(layer.forward(u)[0].data, h_before)
        path = tmp_path / "after.xftc"
        save_checkpoint(moe, str(path))
        assert path.read_bytes() != (tmp_path / "before.xftc").read_bytes()
        loaded = load_checkpoint(str(path)).blocks[0].slot.weights
        assert all(np.array_equal(loaded.tensors()[k].data, t.data)
                   for k, t in layer.weights.tensors().items())

    def test_the_view_list_is_read_only(self):
        layer = upcycle_dense_to_moe(build_dense_model(small_cfg()), MoEConfig(4, 3)).blocks[0].slot
        with pytest.raises(TypeError):
            layer.experts[1] = layer.experts[2]


class TestMoEGradients:
    def test_moe_model_loss_gradients(self):
        cfg = ModelConfig(vocab_size=9, d_model=16, n_layers=2, n_heads=2, d_ff=20, max_seq_len=8)
        dense = build_dense_model(cfg, seed=17)
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=4, top_k=3), seed=23)
        moe = moe.copy(dtype=np.float64)
        # spread the router affinities so finite differences stay off the
        # top-k selection boundaries (the routing is piecewise smooth)
        for block in moe.blocks:
            block.slot.centroids.data *= 120.0
        tokens = [1, 5, 2, 8, 0, 3]
        mask = [0, 1, 1, 1, 1, 1]

        def f():
            return model_forward_loss(moe, tokens, mask)[1]

        err = tn.finite_diff_check(f, moe.named_parameters().values(), n_probes=80, seed=1)
        assert err < 1e-3
