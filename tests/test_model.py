"""Transformer backbone: FFN, causal attention, loss, greedy decoding."""

import contextlib
import hashlib
import math

import numpy as np
import pytest

from conftest import make_smoke_corpus, same_bits
from xft import tensor as tn
from oracles import (concat_rows, generate_uncached, identity, per_expert_parameters, slice_rows,
                     transpose)
from xft.model import (
    FFNWeights,
    KVCache,
    ModelConfig,
    Transformer,
    attention_forward,
    build_dense_model,
    ffn_forward,
    generate_greedy,
    model_forward_loss,
)
from xft.merge import init_mixing_coefficients, merge_uniform, merge_xft
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import ByteTokenizer, encode_examples


def small_cfg(**overrides) -> ModelConfig:
    base = dict(vocab_size=11, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=12)
    base.update(overrides)
    return ModelConfig(**base)


def ffn_from_arrays(w_up, b_up, w_down, b_down) -> FFNWeights:
    return FFNWeights(
        Tensor(np.asarray(w_up, dtype=np.float32)),
        Tensor(np.asarray(b_up, dtype=np.float32)),
        Tensor(np.asarray(w_down, dtype=np.float32)),
        Tensor(np.asarray(b_down, dtype=np.float32)),
    )


class TestModelConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(vocab_size=0)


class TestFFNForward:
    def test_zero_weights_zero_output(self):
        w = ffn_from_arrays(np.zeros((4, 6)), np.zeros(6), np.zeros((6, 4)), np.zeros(4))
        out = ffn_forward(Tensor(np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)), w)
        assert np.array_equal(out.data, np.zeros((3, 4), dtype=np.float32))

    def test_one_dimensional_toy_with_identity_activation(self):
        # up=2, down=3, identity activation: u=1 -> 1*2*3 = 6
        w = ffn_from_arrays([[2.0]], [0.0], [[3.0]], [0.0])
        out = ffn_forward(Tensor(np.array([[1.0]], dtype=np.float32)), w, activation=identity)
        assert out.data[0, 0] == pytest.approx(6.0)

    def test_output_shape_matches_input(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=0)
        w = model.blocks[0].slot
        rng = np.random.default_rng(1)
        for t in (1, 5, cfg.max_seq_len):
            u = Tensor(rng.normal(size=(t, cfg.d_model)).astype(np.float32))
            assert ffn_forward(u, w).shape == (t, cfg.d_model)


class TestAttention:
    def test_single_token_is_value_path_plus_residual(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=3)
        block = model.blocks[0]
        u = np.random.default_rng(5).normal(size=(1, cfg.d_model)).astype(np.float32)

        out = attention_forward(Tensor(u), block, cfg)

        # with one token the attention weight on self is 1, so the output is
        # the value projection of the normed input, output-projected, plus u
        mu = u.mean(axis=-1, keepdims=True)
        var = ((u - mu) ** 2).mean(axis=-1, keepdims=True)
        xn = (u - mu) / np.sqrt(var + 1e-5) * block.ln1.gain.data + block.ln1.bias.data
        v = xn @ block.attn.wv.data + block.attn.bv.data
        expected = u + v @ block.attn.wo.data + block.attn.bo.data
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_causality_bit_identical_prefix(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=7)
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, cfg.vocab_size, size=8).tolist()
        with tn.no_grad():
            base = model.logits(tokens).data.copy()
        for t in range(len(tokens) - 1):
            perturbed = list(tokens)
            perturbed[t + 1] = (perturbed[t + 1] + 3) % cfg.vocab_size
            with tn.no_grad():
                changed = model.logits(perturbed).data
            assert np.array_equal(base[: t + 1], changed[: t + 1]), f"prefix differs at t={t}"

    def test_causality_across_tiles(self):
        cfg = small_cfg(max_seq_len=150)
        model = build_dense_model(cfg, seed=7)
        tokens = np.random.default_rng(10).integers(0, cfg.vocab_size, size=150).tolist()
        with tn.no_grad():
            base = model.logits(tokens).data.copy()
            for t in (tn.ATTENTION_TILE + 1, 100, 149):
                perturbed = list(tokens)
                perturbed[t] = (perturbed[t] + 3) % cfg.vocab_size
                changed = model.logits(perturbed).data
                assert np.array_equal(base[:t], changed[:t]), f"prefix differs at t={t}"
                assert not np.array_equal(base[t], changed[t])

    def test_uniform_values_make_output_score_independent(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=11)
        block = model.blocks[0]
        # zero value projection with constant bias: every position's value
        # vector is identical, so any attention weights mix to the same thing
        block.attn.wv.data[:] = 0.0
        block.attn.bv.data[:] = np.random.default_rng(2).normal(size=cfg.d_model).astype(np.float32)
        u = Tensor(np.random.default_rng(4).normal(size=(6, cfg.d_model)).astype(np.float32))
        out1 = attention_forward(u, block, cfg).data.copy()
        block.attn.wq.data[:] = np.random.default_rng(8).normal(size=(cfg.d_model, cfg.d_model))
        out2 = attention_forward(u, block, cfg).data
        assert np.allclose(out1, out2, atol=1e-6)

    @pytest.mark.parametrize("bounds", [[0, 4, 2, 6], [0, 5], [1, 6], [0, 3, 3, 6], [[0, 6]]])
    def test_bad_bounds_rejected(self, bounds):
        cfg = small_cfg()
        block = build_dense_model(cfg, seed=0).blocks[0]
        u = Tensor(np.random.default_rng(1).normal(size=(6, cfg.d_model)).astype(np.float32))
        with pytest.raises(ValueError, match="segment bounds"):
            attention_forward(u, block, cfg, bounds)

    def test_overlong_sequence_rejected(self):
        cfg = small_cfg(max_seq_len=4)
        model = build_dense_model(cfg, seed=0)
        with pytest.raises(ValueError, match="max_seq_len"):
            model.logits([1, 2, 3, 4, 5])


def composed_attention(q, k, v, bounds, n_heads):
    """Reference for ``tn.causal_attention`` built from elementary ops: per
    segment and head, masked softmax(q k^T / sqrt(d_head)) v. Head columns
    are picked and placed back with 0/1 selector matrices."""
    d = q.shape[1]
    d_head = d // n_heads
    eye = np.eye(d, dtype=q.data.dtype)
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        qs, ks, vs = (slice_rows(x, lo, hi) for x in (q, k, v))
        mask = Tensor(tn.causal_mask(hi - lo, q.data.dtype))
        out = None
        for h in range(n_heads):
            pick = Tensor(eye[:, h * d_head:(h + 1) * d_head].copy())
            scores = ((qs @ pick) @ transpose(ks @ pick)) * (1.0 / math.sqrt(d_head)) + mask
            head = (tn.softmax(scores) @ (vs @ pick)) @ transpose(pick)
            out = head if out is None else out + head
        segments.append(out)
    return concat_rows(segments)


class TestFusedAttention:
    BOUNDS = [0, 5, 7, 15]
    # segments of several tiles, one of exactly one tile and one of a single row
    TILED_BOUNDS = [0, 150, 214, 215, 345]

    def qkv(self, dtype, seed=0, n=15):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(n, 8)).astype(dtype), requires_grad=True)
                for _ in range(3)]

    def check_forward(self, bounds):
        q, k, v = self.qkv(np.float32, n=bounds[-1])
        fused = tn.causal_attention(q, k, v, bounds, n_heads=2).data
        ref = composed_attention(q, k, v, bounds, n_heads=2).data
        assert np.allclose(fused, ref, atol=1e-6)

    def check_gradients(self, bounds):
        q, k, v = self.qkv(np.float64, seed=1, n=bounds[-1])
        readout = Tensor(np.random.default_rng(2).normal(size=(bounds[-1], 8)))
        grads = []
        for attend in (tn.causal_attention, composed_attention):
            for p in (q, k, v):
                p.grad = None
            tn.backward((attend(q, k, v, bounds, 2) * readout).sum())
            grads.append([p.grad.copy() for p in (q, k, v)])
        for fused, ref in zip(*grads):
            assert np.allclose(fused, ref, rtol=1e-10, atol=1e-12)

    def test_forward_matches_composed_ops(self):
        self.check_forward(self.BOUNDS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_output_is_the_graph_output(self, dtype):
        q, k, v = self.qkv(dtype, n=self.TILED_BOUNDS[-1])
        tracked = tn.causal_attention(q, k, v, self.TILED_BOUNDS, n_heads=2)
        with tn.no_grad():
            out = tn.causal_attention(q, k, v, self.TILED_BOUNDS, n_heads=2)
        assert tracked._parents and not out._parents and not out.requires_grad
        assert same_bits(out.data, tracked.data)

    def test_gradients_match_composed_ops(self):
        self.check_gradients(self.BOUNDS)

    def test_forward_matches_composed_ops_across_tiles(self):
        self.check_forward(self.TILED_BOUNDS)

    def test_gradients_match_composed_ops_across_tiles(self):
        self.check_gradients(self.TILED_BOUNDS)

    def test_non_finite_scores_rejected(self):
        q, k, v = self.qkv(np.float32)
        q.data[6, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            tn.causal_attention(q, k, v, self.BOUNDS, n_heads=2)

    @pytest.mark.parametrize("operand", [0, 1])
    def test_non_finite_scores_rejected_in_last_tile(self, operand):
        qkv = self.qkv(np.float32, n=150)
        qkv[operand].data[140, 0] = np.inf  # a query row, then a key row, of the last tile
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            tn.causal_attention(*qkv, [0, 150], n_heads=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("operand", [0, 1], ids=["q", "k"])
    def test_non_finite_operand_rejected(self, operand, value):
        qkv = self.qkv(np.float32)
        qkv[operand].data[3, 0] = value
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            tn.causal_attention(*qkv, self.BOUNDS, n_heads=2)

    def test_lone_negative_infinite_score_rejected(self):
        """Rows 3 and 4 score key 3 at -inf among finite scores: exp gives it a
        weight of 0 and leaves their softmax sums finite, yet they raise."""
        q, k, v = self.qkv(np.float32)
        q.data[:, 0] = np.abs(q.data[:, 0]) + 0.5
        k.data[3, 0] = -np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            tn.causal_attention(q, k, v, self.BOUNDS, n_heads=2)

    def check_key_offset(self, total, query_counts):
        """The last n queries over all keys give the last n rows of the square."""
        q, k, v = self.qkv(np.float32, n=total)
        square = tn.causal_attention(q, k, v, [0, total], n_heads=2).data
        for n in query_counts:
            rows = tn.causal_attention(Tensor(q.data[-n:]), k, v, [0, total], 2, [0, n]).data
            assert np.abs(rows - square[-n:]).max() <= 1e-6

    def test_key_offset_matches_last_rows_of_square(self):
        self.check_key_offset(15, (1, 4, 15))

    def test_key_offset_across_tiles_matches_last_rows_of_square(self):
        self.check_key_offset(150, (1, tn.ATTENTION_TILE + 6, 150))

    @staticmethod
    def offset_weights(past, n):
        """Attention weights of n queries over past + n keys, and the mask
        of the weights above the offset diagonal."""
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(n, past + n)).astype(np.float32))
        k = Tensor(rng.normal(size=(past + n, past + n)).astype(np.float32))
        # one head with identity values: the output rows are the weights
        w = tn.causal_attention(q, k, Tensor(np.eye(past + n, dtype=np.float32)),
                                [0, past + n], 1, [0, n]).data
        return w, np.triu(np.ones((n, past + n), dtype=bool), k=past + 1)

    def test_weights_above_offset_diagonal_are_zero(self):
        n = 3
        w, above = self.offset_weights(5, n)
        assert (w[above] == 0.0).all() and (w[~above] > 0.0).all()
        assert np.array_equal(tn.causal_mask(n) != 0, above[:, -n:])

    def test_weights_above_offset_diagonal_are_zero_across_tiles(self):
        # 80 queries over 150 keys: two query tiles, three tiles' worth of keys
        w, above = self.offset_weights(70, 80)
        assert (w[above] == 0.0).all() and (w[~above] > 0.0).all()

    # TILED_BOUNDS' segments of 150, 64, 1 and 130 rows, queried from row 20
    # (mid-tile, over a tile of queries), not at all, fully, and from row 70
    QUERY_BOUNDS = [0, 130, 130, 131, 191]

    def suffix_rows(self):
        """Rows of the square that the query suffixes at QUERY_BOUNDS stand for."""
        ends, counts = self.TILED_BOUNDS[1:], np.diff(self.QUERY_BOUNDS)
        return np.concatenate([np.arange(hi - c, hi) for hi, c in zip(ends, counts)])

    def test_query_suffixes_match_rows_of_square(self):
        q, k, v = self.qkv(np.float32, n=self.TILED_BOUNDS[-1])
        square = tn.causal_attention(q, k, v, self.TILED_BOUNDS, n_heads=2).data
        rows = self.suffix_rows()
        out = tn.causal_attention(Tensor(q.data[rows]), k, v, self.TILED_BOUNDS, 2,
                                  self.QUERY_BOUNDS).data
        assert np.abs(out - square[rows]).max() <= 1e-6

    def test_query_suffix_gradients_match_composed_ops(self):
        """float64: a segment without queries gets zero key and value gradients."""
        q, k, v = self.qkv(np.float64, seed=1, n=self.TILED_BOUNDS[-1])
        rows = self.suffix_rows()
        readout = np.random.default_rng(2).normal(size=(rows.size, 8))
        q_rows = Tensor(q.data[rows], requires_grad=True)
        tn.backward((tn.causal_attention(q_rows, k, v, self.TILED_BOUNDS, 2, self.QUERY_BOUNDS)
                     * Tensor(readout)).sum())
        fused = [q_rows.grad, k.grad.copy(), v.grad.copy()]
        k.grad = v.grad = None
        every = np.zeros((self.TILED_BOUNDS[-1], 8))
        every[rows] = readout
        tn.backward((composed_attention(q, k, v, self.TILED_BOUNDS, 2) * Tensor(every)).sum())
        for got, ref in zip(fused, [q.grad[rows], k.grad, v.grad]):
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)
        assert not fused[1][150:214].any() and not fused[2][150:214].any()

    @pytest.mark.parametrize("query_bounds", [[0, 0, 3, 4], [0, 3, 4], [0, 3, 2, 4], [0, 1, 3, 5]],
                             ids=["more-queries-than-rows", "wrong-count", "falling", "not-to-q"])
    def test_bad_query_bounds_rejected(self, query_bounds):
        q, k, v = self.qkv(np.float32)  # segments of 5, 2 and 8 rows
        with pytest.raises(ValueError, match="query bounds must rise from 0 to 4"):
            tn.causal_attention(Tensor(q.data[:4]), k, v, self.BOUNDS, 2, query_bounds)


class _StubModel:
    """Fixed-logit stand-in for loss-formula tests."""

    def __init__(self, logits_rows):
        self._rows = np.asarray(logits_rows, dtype=np.float32)

    def logits(self, tokens, bounds=None, rows=None):
        return Tensor(self._rows[: len(tokens)][rows])


class TestForwardLoss:
    def test_uniform_logits_gives_log_vocab(self):
        vocab = 7
        stub = _StubModel(np.zeros((3, vocab)))
        _, loss = model_forward_loss(stub, [0, 1, 2, 3], [0, 1, 1, 1])
        assert float(loss.data) == pytest.approx(math.log(vocab), rel=1e-5)

    def test_one_hot_logits_drive_loss_to_zero(self):
        rows = np.full((2, 5), -50.0)
        rows[0, 3] = 50.0
        rows[1, 1] = 50.0
        _, loss = model_forward_loss(_StubModel(rows), [0, 3, 1], [0, 1, 1])
        assert float(loss.data) < 1e-5

    def test_two_token_vocab_closed_form(self):
        # logits [0, 0] vs target 1: cross-entropy is ln 2
        _, loss = model_forward_loss(_StubModel(np.zeros((1, 2))), [0, 1], [0, 1])
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-6)

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="no target"):
            model_forward_loss(_StubModel(np.zeros((3, 4))), [0, 1, 2, 3], [1, 0, 0, 0])

    def test_masked_targets_do_not_contribute(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=13)
        tokens = [1, 2, 3, 4, 5]
        mask = [0, 1, 1, 1, 0]
        _, loss1 = model_forward_loss(model, tokens, mask)
        tokens2 = list(tokens)
        tokens2[-1] = 9  # final token is never an input, only a (masked) target
        _, loss2 = model_forward_loss(model, tokens2, mask)
        assert float(loss1.data) == float(loss2.data)

    def test_logits_returned_alongside_loss(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=1)
        logits, _ = model_forward_loss(model, [0, 1, 2], [0, 1, 1])
        assert logits.shape == (2, cfg.vocab_size)

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
    def test_desk_training_step_builds_28_nodes(self, moe):
        """The router and the loss head are one graph node each, and the last
        block layer-normalises its query rows apart: at the desk defaults, a
        dense and an MoE training step's graphs hold 28 nodes each."""
        cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size)
        model = build_dense_model(cfg, seed=0)
        if moe:
            model = upcycle_dense_to_moe(model, MoEConfig(), seed=1)
        loss = model.batch_loss(encode_examples(make_smoke_corpus(8, seed=2), cfg.max_seq_len))
        assert sum(1 for node in tn._topo_order(loss) if node._parents) == 28


class TestForwardPurity:
    def test_repeated_forward_bit_identical(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=21)
        tokens = [3, 1, 4, 1, 5]
        with tn.no_grad():
            a = model.logits(tokens).data.copy()
            b = model.logits(tokens).data.copy()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 11])
    def test_token_outside_vocab_rejected(self, bad):
        model = build_dense_model(small_cfg(), seed=0)  # vocab 11
        with pytest.raises(ValueError, match=r"token ids must lie in \[0, 11\)"):
            model.logits([1, bad, 2])


class TestFullModelGradients:
    def test_loss_gradients_match_finite_differences(self):
        cfg = ModelConfig(vocab_size=9, d_model=16, n_layers=2, n_heads=2, d_ff=20, max_seq_len=10)
        model = build_dense_model(cfg, seed=17).copy(dtype=np.float64)
        tokens = [1, 5, 2, 8, 0, 3]
        mask = [0, 1, 1, 1, 1, 1]
        params = model.named_parameters()

        def f():
            return model_forward_loss(model, tokens, mask)[1]

        err = tn.finite_diff_check(f, params.values(), n_probes=80, seed=0)
        assert err < 1e-3


class TestGenerateGreedy:
    def test_zero_new_tokens_returns_prompt(self):
        model = build_dense_model(small_cfg(), seed=0)
        assert generate_greedy(model, [1, 2, 3], 0) == [1, 2, 3]

    def test_forced_argmax_repeats_token(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=0)
        # collapse the final norm to a constant hidden state and point the
        # unembedding at token 7, forcing argmax = 7 everywhere
        model.ln_f.gain.data[:] = 0.0
        model.ln_f.bias.data[:] = 0.0
        model.ln_f.bias.data[0] = 1.0
        model.unembed.data[:] = 0.0
        model.unembed.data[0, 7] = 1.0
        assert generate_greedy(model, [2], 4) == [2, 7, 7, 7, 7]

    def test_argmax_ties_break_to_lower_token(self):
        cfg = small_cfg()
        model = build_dense_model(cfg, seed=0)
        model.ln_f.gain.data[:] = 0.0
        model.unembed.data[:] = 0.0  # all logits equal: argmax must pick token 0
        assert generate_greedy(model, [5], 2) == [5, 0, 0]

    def test_deterministic(self):
        model = build_dense_model(small_cfg(), seed=33)
        a = generate_greedy(model, [1, 2], 6)
        b = generate_greedy(model, [1, 2], 6)
        assert a == b

    def test_empty_prompt_rejected(self):
        model = build_dense_model(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            generate_greedy(model, [], 3)

    def test_overlong_prompt_rejected(self):
        cfg = small_cfg(max_seq_len=3)
        model = build_dense_model(cfg, seed=0)
        with pytest.raises(ValueError, match="max_seq_len"):
            generate_greedy(model, [1, 2, 3, 4], 1)

    def test_generation_stops_at_max_seq_len(self):
        cfg = small_cfg(max_seq_len=5)
        model = build_dense_model(cfg, seed=0)
        out = generate_greedy(model, [1, 2, 3], 10)
        assert len(out) == 5


@pytest.fixture(scope="module")
def decode_models() -> dict[str, Transformer]:
    """A dense model, an upcycled MoE whose experts have drifted apart, and
    that MoE merged back to dense."""
    cfg = small_cfg(vocab_size=23, max_seq_len=24)
    dense = build_dense_model(cfg, seed=5)
    moe = upcycle_dense_to_moe(dense, MoEConfig(4, 3), seed=6)
    rng = np.random.default_rng(7)
    for block in moe.blocks:
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data += rng.normal(0.0, 0.05, t.shape).astype(np.float32)
    merged = merge_xft(moe, init_mixing_coefficients(4, cfg.n_layers, 0.75))
    return {"dense": dense, "moe": moe, "merged": merged}


class TestKVCache:
    """Cached greedy decoding against the uncached reference path."""

    @pytest.mark.parametrize("kind", ["dense", "moe", "merged"])
    def test_tokens_match_uncached_decoding(self, decode_models, kind):
        model = decode_models[kind]
        rng = np.random.default_rng(11)
        for _ in range(50):
            prompt = rng.integers(0, model.cfg.vocab_size, size=rng.integers(1, 12)).tolist()
            assert generate_greedy(model, prompt, 8) == generate_uncached(model, prompt, 8)
        full = generate_greedy(model, [3], 100)
        assert len(full) == model.cfg.max_seq_len
        assert full == generate_uncached(model, [3], 100)

    @pytest.mark.parametrize("kind", ["dense", "moe", "merged"])
    def test_step_logits_match_full_prefix(self, decode_models, kind):
        model = decode_models[kind]
        seq = [4, 9, 1, 17]
        cache = KVCache(model)
        with tn.no_grad():
            step = model.logits(seq, cache=cache).data
            assert np.array_equal(step, model.logits(seq).data)
            while len(seq) < model.cfg.max_seq_len:
                seq.append(int(np.argmax(step[-1])))
                step = model.logits(seq[-1:], cache=cache).data
                # a 1-row and a T-row matmul may round differently
                assert np.abs(step - model.logits(seq).data[-1:]).max() <= 1e-5
        assert cache.length == model.cfg.max_seq_len

    def test_moe_routes_only_new_rows(self, decode_models):
        model = decode_models["moe"]
        cache = KVCache(model)
        with tn.no_grad():
            model.hidden([4, 9, 1], cache=cache)
            _, routing = model.hidden([17], cache=cache)
        assert [r.selected.shape[0] for r in routing] == [1] * model.cfg.n_layers

    @pytest.mark.parametrize("grad,tokens,bounds,match", [
        (True, [5], None, "no_grad"),
        (False, [5, 6], [0, 1, 2], "one segment"),
        (False, [5] * 22, None, "max_seq_len"),  # 3 cached + 22 > 24
    ], ids=["grad-enabled", "two-segments", "past-plus-n-over-max"])
    def test_misuse_raises_and_keeps_cache(self, decode_models, grad, tokens, bounds, match):
        model = decode_models["dense"]
        prompt = [4, 9, 1]
        cache = KVCache(model)
        with tn.no_grad():
            model.logits(prompt, cache=cache)
        with contextlib.nullcontext() if grad else tn.no_grad():
            with pytest.raises(ValueError, match=match):
                model.logits(tokens, bounds, cache)
        assert cache.length == len(prompt)
        with tn.no_grad():
            step = model.logits([5], cache=cache).data
            full = model.logits(prompt + [5]).data[-1:]
        assert np.abs(step - full).max() <= 1e-5


class TestCopy:
    def test_copy_is_independent(self):
        model = build_dense_model(small_cfg(), seed=2)
        clone = model.copy()
        clone.tok_emb.data[0, 0] += 1.0
        assert model.tok_emb.data[0, 0] != clone.tok_emb.data[0, 0]

    def test_copy_leaves_are_trainable(self):
        model = build_dense_model(small_cfg(), seed=2)
        for t in model.named_parameters().values():
            t.requires_grad = False
        assert all(t.requires_grad for t in model.copy().named_parameters().values())

    def test_dtype_conversion(self):
        model = build_dense_model(small_cfg(), seed=2)
        wide = model.copy(dtype=np.float64)
        assert wide.tok_emb.data.dtype == np.float64


class TestSeededConstructorBytes:
    """Digests of every tensor the seeded constructors build, recorded before
    they shared one assembler. They pin the order in which the assembler
    requests tensors (seeded draws follow it) and that a merge sums from 0
    (so a -0.0 expert weight merges to +0.0). No BLAS call is involved."""

    PINNED = {
        "dense": "1c0bbe46dc0e61119d88621ad13b131bef711943a37666557b739fe1042832ba",
        "upcycle": "d5b00aee9bda92965a0c715d4f99c63797e2e81156ded1680ddba4da7cb44b3c",
        "uniform": "f4e60d4a706e124a58e8ae5eff8bedb74eb5ea6c84628504f892804fb1a8b1e8",
        "extract-shared": "2968c2a076c2ba8b2bc4739df6916664b0d853b15790b4e8e0d64eac69aa2951",
        "xft": "7e5d0a92f1bc8157ecb1ed858e4273d1a291a2fff9b218e3adf955bcd1ba5bc4",
    }

    @staticmethod
    def digest(model) -> str:
        """Over the per-expert names and shapes the digests were recorded with."""
        h = hashlib.sha256()
        for name, t in per_expert_parameters(model):
            h.update(f"{name}{t.shape}{t.data.dtype}".encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def test_digests_match_the_recorded_ones(self):
        cfg = small_cfg(d_model=8, d_ff=12, max_seq_len=6)
        dense = build_dense_model(cfg, seed=7)
        moe = upcycle_dense_to_moe(dense, MoEConfig(4, 3), seed=8)
        got = {"dense": self.digest(dense), "upcycle": self.digest(moe)}
        rng = np.random.default_rng(9)
        for block in moe.blocks:
            for expert in block.slot.experts:
                for t in expert.tensors().values():
                    t.data += (0.05 * rng.normal(size=t.shape)).astype(np.float32)
                expert.w_up.data[0] = -0.0
        got["uniform"] = self.digest(merge_uniform(moe))
        got["extract-shared"] = self.digest(
            merge_xft(moe, init_mixing_coefficients(4, cfg.n_layers, 1.0)))
        got["xft"] = self.digest(merge_xft(moe, init_mixing_coefficients(4, cfg.n_layers, 0.75)))
        assert got == self.PINNED
