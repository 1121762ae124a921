"""Packed minibatches: one graph per training step, equal to per-example runs."""

import numpy as np
import pytest

from oracles import forward_loss_all_rows
from xft import tensor as tn
from xft.merge import _MergedTrainable, init_mixing_coefficients
from xft.model import (KVCache, ModelConfig, build_dense_model, model_forward_loss, pack_batch,
                       pack_sequences)
from xft.moe import MoEConfig, upcycle_dense_to_moe

CFG = ModelConfig(vocab_size=19, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=12)
LENGTHS = (7, 2, 12, 5)  # unequal, one of length 2, one at max_seq_len
LONG_CFG = ModelConfig(vocab_size=19, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=150)
# sequences of several attention tiles, one at max_seq_len, and a short one
LONG_LENGTHS = (2 * tn.ATTENTION_TILE + 1, 3, 150)


def random_batch(lengths, seed: int):
    """(tokens, mask) examples; every mask selects at least one target."""
    rng = np.random.default_rng(seed)
    batch = []
    for n in lengths:
        tokens = rng.integers(0, CFG.vocab_size, size=n).tolist()
        mask = [0] + rng.integers(0, 2, size=n - 1).tolist()
        mask[-1] = 1
        batch.append((tokens, mask))
    return batch


def distinct_moe(seed: int, n: int = 4, k: int = 3, cfg: ModelConfig = CFG,
                 normalized: bool = True):
    """Upcycled MoE whose experts differ and whose router is far from uniform."""
    moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=seed), MoEConfig(n, k, normalized),
                               seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    for block in moe.blocks:
        block.slot.centroids.data *= 50.0
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
    return moe


def dense_trainable():
    return build_dense_model(CFG, seed=3)


def moe_trainable():
    return distinct_moe(seed=4)


def merged_trainable(cfg: ModelConfig = CFG, dtype=np.float32):
    coeffs = init_mixing_coefficients(4, cfg.n_layers, lam=0.6, dtype=dtype)
    rng = np.random.default_rng(5)
    for t in coeffs.logits:
        t.data += rng.normal(scale=0.3, size=t.shape).astype(dtype)
    return _MergedTrainable(distinct_moe(seed=6, cfg=cfg).copy(dtype=dtype), coeffs)


TRAINABLES = {"dense": dense_trainable, "moe": moe_trainable, "merged": merged_trainable}
# float64: the key-bias gradient is 0 in exact arithmetic (softmax ignores a
# per-row shift), and its float32 rounding noise grows with the segment length
LONG_TRAINABLES = {"dense": lambda: build_dense_model(LONG_CFG, seed=3).copy(dtype=np.float64),
                   "merged": lambda: merged_trainable(LONG_CFG, np.float64)}


def loss_and_grads(trainable, batches, scale: float):
    """Summed loss of the batches times ``scale``, and the parameter grads."""
    params = trainable.named_parameters()
    for p in params.values():
        p.grad = None
    total = 0.0
    for batch in batches:
        loss = trainable.batch_loss(batch) * scale
        tn.backward(loss)
        total += float(loss.data)
    return total, {n: p.grad.copy() for n, p in params.items() if p.grad is not None}


def assert_packed_matches_per_example(trainable, batch):
    """One packed step and the per-example steps give the same loss and grads."""
    packed_loss, packed_grads = loss_and_grads(trainable, [batch], 1.0)
    ref_loss, ref_grads = loss_and_grads(trainable, [[ex] for ex in batch], 1.0 / len(batch))
    assert packed_loss == pytest.approx(ref_loss, rel=1e-5)
    assert sorted(packed_grads) == sorted(ref_grads)
    for name, g in ref_grads.items():
        scale = float(np.abs(g).max()) + 1e-6
        assert np.abs(packed_grads[name] - g).max() <= 1e-4 * scale, name


class TestPackedMatchesPerExample:
    @pytest.mark.parametrize("kind", sorted(TRAINABLES))
    def test_loss_and_gradients(self, kind):
        assert_packed_matches_per_example(TRAINABLES[kind](), random_batch(LENGTHS, seed=7))

    @pytest.mark.parametrize("kind", sorted(LONG_TRAINABLES))
    def test_loss_and_gradients_across_tiles(self, kind):
        batch = random_batch(LONG_LENGTHS, seed=13)
        assert_packed_matches_per_example(LONG_TRAINABLES[kind](), batch)

    @pytest.mark.parametrize("kind", ["dense", "moe"])
    def test_segment_logits_match_single_runs(self, kind):
        model = TRAINABLES[kind]()
        seqs = [tokens for tokens, _ in random_batch(LENGTHS, seed=8)]
        with tn.no_grad():
            packed = model.logits(*pack_sequences(seqs)).data
            singles = np.concatenate([model.logits(s).data for s in seqs])
        assert np.allclose(packed, singles, atol=1e-5)


class TestNoCrossContamination:
    @pytest.mark.parametrize("kind", ["dense", "moe"])
    def test_perturbing_one_segment_leaves_others_bit_identical(self, kind):
        model = TRAINABLES[kind]()
        seqs = [tokens for tokens, _ in random_batch(LENGTHS, seed=9)]
        tokens, bounds = pack_sequences(seqs)
        with tn.no_grad():
            base = model.logits(tokens, bounds).data.copy()
            for s in range(len(seqs)):
                lo, hi = bounds[s], bounds[s + 1]
                perturbed = tokens.copy()
                perturbed[lo:hi] = (perturbed[lo:hi] + 5) % CFG.vocab_size
                changed = model.logits(perturbed, bounds).data
                assert not np.array_equal(changed[lo:hi], base[lo:hi])
                assert np.array_equal(changed[:lo], base[:lo]), f"segment {s} leaked backward"
                assert np.array_equal(changed[hi:], base[hi:]), f"segment {s} leaked forward"

    def test_positions_restart_per_segment(self):
        model = build_dense_model(CFG, seed=10)
        seq = [3, 1, 4, 1, 5]
        with tn.no_grad():
            packed = model.logits(*pack_sequences([seq, seq])).data
        assert np.allclose(packed[:5], packed[5:], atol=1e-6)

    def test_each_segment_checked_against_max_seq_len(self):
        model = build_dense_model(CFG, seed=11)
        tokens, bounds = pack_sequences([[1] * 6, [2] * (CFG.max_seq_len + 1)])
        with pytest.raises(ValueError, match="max_seq_len"):
            model.logits(tokens, bounds)

    def test_bad_bounds_rejected(self):
        model = build_dense_model(CFG, seed=12)
        with pytest.raises(ValueError, match="segment bounds"):
            model.logits([1, 2, 3, 4], [0, 3, 3, 4])
        with pytest.raises(ValueError, match="segment bounds"):
            model.logits([1, 2, 3, 4], [0, 3])


SCORED_MODELS = {"dense": dense_trainable, "moe": moe_trainable,
                 "moe-raw": lambda: distinct_moe(seed=4, normalized=False)}


def forward_loss_grads(loss_fn, model, batch, per_token: bool):
    """Loss and parameter grads of ``loss_fn`` (a ``model_forward_loss``) on the packed batch."""
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    _, loss = loss_fn(model, *pack_batch(batch), per_token=per_token)
    tn.backward(loss)
    return float(loss.data), {n: p.grad.copy() for n, p in params.items() if p.grad is not None}


class TestScoredRowsMatchAllRows:
    """``model_forward_loss`` runs the last slot and the output head on the
    scored rows only; the reference runs them on every input row."""

    # (dtype, loss rel, grad rel, logits atol); float32 at the packing tolerances
    TOLERANCES = {"float64": (np.float64, 1e-10, 1e-10, 1e-12),
                  "float32": (np.float32, 1e-5, 1e-4, 1e-5)}

    @pytest.mark.parametrize("dtype", sorted(TOLERANCES))
    @pytest.mark.parametrize("per_token", [False, True])
    @pytest.mark.parametrize("kind", sorted(SCORED_MODELS))
    def test_loss_gradients_and_logits(self, kind, per_token, dtype):
        dtype, loss_rel, grad_rel, logits_atol = self.TOLERANCES[dtype]
        model = SCORED_MODELS[kind]().copy(dtype=dtype)
        batch = random_batch(LENGTHS, seed=14)
        loss, grads = forward_loss_grads(model_forward_loss, model, batch, per_token)
        ref, ref_grads = forward_loss_grads(forward_loss_all_rows, model, batch, per_token)
        assert loss == pytest.approx(ref, rel=loss_rel)
        assert sorted(grads) == sorted(ref_grads)
        # relative to the largest entry of any gradient: the key-bias gradient
        # is 0 in exact arithmetic, so its own entries are rounding noise
        scale = max(float(np.abs(g).max()) for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= grad_rel * scale, name
        tokens, mask, bounds = pack_batch(batch)
        rows = np.flatnonzero(mask)
        with tn.no_grad():
            kept = model.logits(tokens, bounds, rows=rows).data
            every = model.logits(tokens, bounds).data
        assert np.abs(kept - every[rows]).max() <= logits_atol

    # (config, segment lengths in tokens, each segment's scored targets)
    SEGMENT_CASES = {
        "not-a-suffix": (CFG, (7, 5, 12), ([1, 3, 4], [2, 4], [5, 6, 9, 11])),
        "one-scored-row": (CFG, (7, 2, 12), ([3], [1], [11])),
        # a 150-row segment scored from row 20: a suffix of over a tile, from mid-tile
        "long-suffix-mid-tile": (LONG_CFG, (151, 9), (range(21, 151), [8])),
    }

    @pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
    @pytest.mark.parametrize("kind", ["dense", "moe"])
    def test_segment_shapes_in_float64(self, kind, case):
        cfg, lengths, scored = self.SEGMENT_CASES[case]
        model = (build_dense_model(cfg, seed=3) if kind == "dense"
                 else distinct_moe(seed=4, cfg=cfg)).copy(dtype=np.float64)
        batch = [(tokens, np.isin(np.arange(len(tokens)), list(targets)).astype(int).tolist())
                 for (tokens, _), targets in zip(random_batch(lengths, seed=18), scored)]
        loss, grads = forward_loss_grads(model_forward_loss, model, batch, False)
        ref, ref_grads = forward_loss_grads(forward_loss_all_rows, model, batch, False)
        assert loss == pytest.approx(ref, rel=1e-10)
        assert sorted(grads) == sorted(ref_grads)
        scale = max(float(np.abs(g).max()) for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-10 * scale, name

    @pytest.mark.parametrize("kind", sorted(SCORED_MODELS))
    def test_rows_that_skip_a_segment(self, kind):
        """A segment without a requested row runs no query, and its keys get
        only the gradients of the rows that do attend to them: none."""
        model = SCORED_MODELS[kind]().copy(dtype=np.float64)
        tokens, bounds = pack_sequences([[3, 1, 4, 1, 5], [9, 2, 6], [5, 3, 5, 8, 9, 7]])
        rows = np.array([4, 1, 13, 9, 13])  # none in segment 1, unsorted, repeated, not suffixes
        readout = tn.Tensor(np.random.default_rng(19).normal(size=(rows.size, CFG.vocab_size)))
        grads = []
        for logits in (lambda: model.logits(tokens, bounds, rows=rows),
                       lambda: tn.gather_rows(model.logits(tokens, bounds), rows)):
            params = model.named_parameters()
            for p in params.values():
                p.grad = None
            tn.backward((logits() * readout).sum())
            grads.append({n: p.grad.copy() for n, p in params.items() if p.grad is not None})
        assert sorted(grads[0]) == sorted(grads[1])
        scale = max(float(np.abs(g).max()) for g in grads[1].values())
        for name, g in grads[1].items():
            assert np.abs(grads[0][name] - g).max() <= 1e-10 * scale, name

    @pytest.mark.parametrize("cached", [False, True], ids=["scored-rows", "decode-prompt"])
    def test_last_attention_queries_only_the_suffix(self, cached, monkeypatch):
        """The last block's Q product, attention queries and ``wo`` product see
        only each segment's rows from its first requested one; K and V see all.
        A decode prompt pass asks for its newest row: one query row."""
        model = build_dense_model(CFG, seed=20)
        tokens, mask, bounds = pack_batch(random_batch(LENGTHS, seed=21))
        rows = np.flatnonzero(mask)
        if cached:
            tokens, bounds, rows = tokens[:7], np.array([0, 7]), np.array([6])
        seen, linear, attend = [], tn.linear, tn.causal_attention
        monkeypatch.setattr(tn, "linear",
                            lambda x, w, b: seen.append((w, x.shape[0])) or linear(x, w, b))
        monkeypatch.setattr(tn, "causal_attention",
                            lambda q, *a: seen.append(("queries", q.shape[0])) or attend(q, *a))
        with tn.no_grad():
            model.logits(tokens, bounds, KVCache(model) if cached else None, rows)
        last = model.blocks[-1].attn
        rows_of = {key: [n for w, n in seen if w is key] for key in
                   (last.wq, last.wk, last.wv, last.wo)}
        first = [rows[(lo <= rows) & (rows < hi)].min() for lo, hi in zip(bounds, bounds[1:])]
        suffix = int((bounds[1:] - first).sum())
        assert (suffix == 1) if cached else (rows.size < suffix < tokens.size)
        assert rows_of[last.wk] == rows_of[last.wv] == [tokens.size]
        assert rows_of[last.wq] == rows_of[last.wo] == [suffix]
        assert [n for w, n in seen if w == "queries"][-1] == suffix

    def test_only_the_last_layer_routes_the_kept_rows(self):
        model = moe_trainable()
        tokens, mask, bounds = pack_batch(random_batch(LENGTHS, seed=16))
        rows = np.flatnonzero(mask)
        with tn.no_grad():
            _, routing = model.hidden(tokens, bounds, rows=rows)
            _, every = model.hidden(tokens, bounds)
        assert [r.selected.shape[0] for r in routing] == [tokens.size] * (CFG.n_layers - 1) + [rows.size]
        assert np.array_equal(routing[-1].selected, every[-1].selected[rows])

    @pytest.mark.parametrize("rows", [[[0, 1]], [-1], [0, 4], [3, 26]],
                             ids=["2-d", "negative", "at-T", "beyond-T"])
    def test_bad_rows_rejected(self, rows):
        model = build_dense_model(CFG, seed=17)
        tokens, bounds = pack_sequences([[1, 2, 3], [4]])  # T = 4
        with pytest.raises(ValueError, match=r"rows must be 1-d indices in \[0, 4\)"):
            model.logits(tokens, bounds, rows=rows)


def graph_nodes(root) -> int:
    """Nodes of the recorded graph under ``root``, leaves included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGraphSizeIndependentOfBatch:
    """The graph of one packed step has a fixed node count, whatever the batch
    size; this is what the benchmark's ``tensor.ops_per_step`` measures."""

    @pytest.mark.parametrize("kind", sorted(TRAINABLES))
    def test_node_count_flat_in_batch_size(self, kind):
        trainable = TRAINABLES[kind]()
        counts = [graph_nodes(trainable.batch_loss(random_batch([9] * b, seed=b)))
                  for b in (4, 16)]
        assert counts[0] == counts[1]
        assert graph_nodes(trainable.batch_loss(random_batch([9], seed=1))) <= counts[0]
