"""Expert-load reporting and the constant-gate ensembling identity."""

import numpy as np
import pytest

from conftest import symmetric_router_model
from xft.analysis import ExpertLoadReport, expert_load_histogram
from xft.invariants import ensemble_identity_check
from xft.model import ModelConfig, build_dense_model
from xft.moe import MoEConfig, upcycle_dense_to_moe


def moe_model(seed=0, n=8, k=6, d_model=32, layers=2):
    cfg = ModelConfig(vocab_size=61, d_model=d_model, n_layers=layers, n_heads=4,
                      d_ff=48, max_seq_len=64)
    dense = build_dense_model(cfg, seed=seed)
    return cfg, upcycle_dense_to_moe(dense, MoEConfig(n_experts=n, top_k=k), seed=seed + 1)


def token_stream(cfg, n_sequences, seq_len, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, cfg.vocab_size, size=seq_len).tolist() for _ in range(n_sequences)]


class TestExpertLoadHistogram:
    def test_proportions_sum_to_one_per_layer(self):
        cfg, model = moe_model()
        report = expert_load_histogram(model, token_stream(cfg, 8, 24))
        sums = report.proportions().sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_symmetric_router_is_near_uniform(self):
        cfg, model = symmetric_router_model(seed=3)
        report = expert_load_histogram(model, token_stream(cfg, 40, 50))
        assert report.n_tokens == 2000
        dev = np.abs(report.proportions() - report.uniform_reference).max()
        assert dev < 0.02, f"max deviation from 1/7: {dev}"

    def test_fixed_ranking_concentrates_on_first_five(self):
        # zero attention and expert weights keep hidden states equal to the
        # embeddings; centroids aligned with a positive embedding coordinate
        # then rank experts identically for every token
        cfg, model = moe_model(seed=7)
        for block in model.blocks:
            for t in vars(block.attn).values():
                t.data[:] = 0.0
            for expert in block.slot.experts:
                for t in expert.tensors().values():
                    t.data[:] = 0.0
            cent = np.zeros_like(block.slot.centroids.data)
            cent[1:, 0] = np.linspace(1.0, 0.3, 7)
            block.slot.centroids.data = cent
        model.tok_emb.data[:] = 0.0
        model.tok_emb.data[:, 0] = 1.0
        model.pos_emb.data[:] = 0.0

        report = expert_load_histogram(model, token_stream(cfg, 10, 20))
        props = report.proportions()
        assert np.allclose(props[:, :5], 0.2, atol=1e-9)
        assert np.allclose(props[:, 5:], 0.0, atol=1e-9)

    def test_permutation_equivariance(self):
        cfg, model = moe_model(seed=11, n=5, k=3)
        stream = token_stream(cfg, 6, 30)
        base = expert_load_histogram(model, stream).counts

        perm = np.array([2, 0, 3, 1])  # relabeling of the 4 normal experts
        permuted = model.copy()
        for block, orig_block in zip(permuted.blocks, model.blocks):
            for t, orig in zip(block.slot.weights.tensors().values(),
                               orig_block.slot.weights.tensors().values()):
                t.data[1:] = orig.data[1:][perm]
            cent = block.slot.centroids.data
            cent[1:] = orig_block.slot.centroids.data[1:][perm]
        moved = expert_load_histogram(permuted, stream).counts
        assert np.array_equal(moved, base[:, perm])

    def test_dense_model_rejected(self):
        cfg = ModelConfig(vocab_size=11, d_model=16, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        with pytest.raises(ValueError, match="MoE"):
            expert_load_histogram(build_dense_model(cfg, seed=0), [[1, 2]])

    def test_empty_corpus_rejected(self):
        _, model = moe_model()
        with pytest.raises(ValueError, match="nonempty"):
            expert_load_histogram(model, [])


class TestReportRendering:
    def report(self):
        counts = np.array([[30, 50, 20], [40, 30, 30]], dtype=np.int64)
        return ExpertLoadReport("sample", 50, 4, 3, counts)

    def test_rows_schema(self):
        rows = self.report().rows()
        assert {"layer", "expert", "proportion", "count"} == set(rows[0])
        assert rows[0]["expert"] == 1  # normal experts reported 1-based
        assert len(rows) == 6

    def test_uniform_reference(self):
        assert self.report().uniform_reference == pytest.approx(1 / 3)

    def test_render_mentions_reference_and_experts(self):
        text = self.report().render()
        assert "uniform 1/3" in text
        assert "expert 1" in text and "expert 3" in text
        assert "layer 1" in text


class TestEnsembleIdentity:
    def test_alpha_zero_matches_first_model_exactly(self):
        assert ensemble_identity_check(0.0, seed=3, n_inputs=20) == 0.0

    def test_alpha_one_matches_second_model_exactly(self):
        assert ensemble_identity_check(1.0, seed=3, n_inputs=20) == 0.0

    def test_interior_alpha_within_float32_budget(self):
        assert ensemble_identity_check(0.3, seed=4, n_inputs=100) < 1e-5

    def test_deterministic_in_seed(self):
        a = ensemble_identity_check(0.7, seed=9, n_inputs=10)
        b = ensemble_identity_check(0.7, seed=9, n_inputs=10)
        assert a == b
