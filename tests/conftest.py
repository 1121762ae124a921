"""Shared builders for routing and pipeline tests."""

import numpy as np

from xft.model import FFNWeights, ModelConfig, build_dense_model
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import InstructionExample


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: unlike ``np.array_equal``, -0.0 is not +0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_smoke_corpus(n: int, seed: int) -> list[InstructionExample]:
    """Synthetic instruction pairs with byte-level regularities to learn."""
    rng = np.random.default_rng(seed)
    nouns = ["ember", "stone", "river", "cloud", "sprout", "quartz", "harbor", "willow"]
    verbs = ["echo", "twin", "join", "flip"]
    out = []
    for _ in range(n):
        noun = nouns[rng.integers(len(nouns))]
        other = nouns[rng.integers(len(nouns))]
        verb = verbs[rng.integers(len(verbs))]
        answer = {"echo": noun, "twin": f"{noun} {noun}", "join": f"{noun}-{other}",
                  "flip": noun[::-1]}[verb]
        out.append(InstructionExample(f"{verb} the word {noun} with {other}", answer))
    return out


def stack_experts(experts) -> FFNWeights:
    """One ``FFNWeights`` whose tensors stack the N given experts' along a first axis."""
    return FFNWeights(*(Tensor(np.stack([e.tensors()[k].data for e in experts]))
                        for k in experts[0].tensors()))


def tiny_moe(w_ups):
    """One-layer MoE with d_model = d_ff = 2 whose expert e has its w_up set
    from ``w_ups[e]`` (a number fills the matrix; a 2x2 array is copied)."""
    cfg = ModelConfig(vocab_size=4, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq_len=4)
    moe = upcycle_dense_to_moe(build_dense_model(cfg), MoEConfig(len(w_ups), 2))
    for expert, w in zip(moe.blocks[0].slot.experts, w_ups):
        expert.w_up.data[...] = w
    return moe


def symmetric_router_model(n=8, k=6, vocab=512, d_model=32, layers=2, seed=0):
    """MoE model whose routing affinities are exchangeable across experts.

    Token embeddings are isotropic Gaussian and reach the router unchanged
    (attention and expert weights zeroed), and each layer's centroids are
    mutually orthogonal with equal norms, so every normal expert wins the
    routing competition with identical probability.
    """
    cfg = ModelConfig(vocab_size=vocab, d_model=d_model, n_layers=layers,
                      n_heads=4, d_ff=48, max_seq_len=64)
    model = upcycle_dense_to_moe(build_dense_model(cfg, seed=seed),
                                 MoEConfig(n_experts=n, top_k=k), seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    model.tok_emb.data = rng.normal(size=(vocab, d_model)).astype(np.float32)
    model.pos_emb.data[:] = 0.0
    for block in model.blocks:
        for t in vars(block.attn).values():
            t.data[:] = 0.0
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data[:] = 0.0
        q, _ = np.linalg.qr(rng.normal(size=(d_model, n)))
        block.slot.centroids.data = (0.02 * q.T[:n]).astype(np.float32)
    return cfg, model
