"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The end-to-end smoke (criteria 10/11) drives the shipped CLI over
checkpoints on disk and is shared by both tests through a session fixture.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_smoke_corpus, symmetric_router_model, tiny_moe
from oracles import route_shared_normalized, route_standard
from xft import tensor as tn
from xft.analysis import expert_load_histogram
from xft.checkpoint import load_checkpoint
from xft.cli import EXIT_OK, cli_dispatch
from xft.dataset import save_instruction_dataset
from xft.invariants import (
    GATE_SUM_TOKENS,
    ensemble_identity_check,
    ewa_closed_form_check,
    gate_sum_check,
    gradient_check,
    init_equivalence_check,
)
from xft.merge import (
    MixingCoefficients,
    ewa_step,
    init_mixing_coefficients,
    learn_mixing_coefficients,
    merge_uniform,
    merge_xft,
)
from xft.model import FFNWeights, ModelConfig, build_dense_model
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import TrainHyper, dataset_loss


def acceptance(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                print(f"FAIL criterion {num:2d} [{name}]: {type(e).__name__}: {e}")
                raise
            elapsed = time.monotonic() - start
            print(f"PASS criterion {num:2d} [{name}]: {detail} ({elapsed:.1f}s)")
        return inner
    return wrap


def desk_cfg() -> ModelConfig:
    return ModelConfig(vocab_size=259, d_model=64, n_layers=2, n_heads=4,
                       d_ff=256, max_seq_len=256)


def grid_combos():
    return [(n, k) for n in (2, 4, 8) for k in (2, 3, 6) if k <= n]


@acceptance(1, "init-equivalence")
def test_criterion_1_init_equivalence():
    start = time.monotonic()
    cfg = desk_cfg()
    rng = np.random.default_rng(1)
    inputs = [rng.integers(0, cfg.vocab_size, size=12).tolist() for _ in range(100)]
    worst = init_equivalence_check(build_dense_model(cfg, seed=0), grid_combos(), inputs, seed=10)
    assert worst < 1e-5, f"max-abs logit diff {worst}"
    assert time.monotonic() - start < 60.0
    return f"max-abs logit diff {worst:.2e} over {len(grid_combos())} (N,K) combos x 100 inputs"


@acceptance(2, "scale-mismatch witness")
def test_criterion_2_scale_mismatch_witness():
    cfg = desk_cfg()
    dense = build_dense_model(cfg, seed=0)
    rng = np.random.default_rng(2)
    inputs = [rng.integers(0, cfg.vocab_size, size=12).tolist() for _ in range(20)]
    with tn.no_grad():
        dense_logits = [dense.logits(t).data.copy() for t in inputs]
    n_seeds, exceeded = 20, 0
    moe_cfg = MoEConfig(n_experts=8, top_k=6, normalization_enabled=False)
    for router_seed in range(n_seeds):
        moe = upcycle_dense_to_moe(dense, moe_cfg, seed=router_seed)
        with tn.no_grad():
            worst = max(
                float(np.abs(moe.logits(t).data - ref).max())
                for t, ref in zip(inputs, dense_logits))
        if worst > 1e-3:
            exceeded += 1
    assert exceeded >= 0.9 * n_seeds, f"only {exceeded}/{n_seeds} router seeds exceeded 1e-3"
    return f"{exceeded}/{n_seeds} router seeds exceed 1e-3 without normalization"


@acceptance(3, "gate-sum")
def test_criterion_3_gate_sum():
    moe = upcycle_dense_to_moe(build_dense_model(desk_cfg(), seed=3), MoEConfig(8, 6), seed=4)
    worst = gate_sum_check(moe, seed=5, batches=5)
    checked = len(moe.blocks) * 5 * GATE_SUM_TOKENS  # 2 layers x 5 batches x 100 tokens
    assert checked >= 1000
    assert worst < 1e-5
    return f"max |gate sum - 1| = {worst:.2e} over {checked} random routings"


@acceptance(4, "hand-oracle routing")
def test_criterion_4_hand_oracle_routing():
    # shared-expert routing worked example
    s = np.full(4, -np.inf)
    s[1:] = [0.506479, 0.307196, 0.186325]
    d = route_shared_normalized(s, k=3)
    expected = np.array([0.493521, 0.278395, 0.228086])
    dev_shared = float(np.abs(d.gates - expected).max())
    assert dev_shared < 1e-5

    # plain top-k worked example
    logits = np.array([1.0, 0.5, 0.0, -0.5])
    e = np.exp(logits - logits.max())
    d2 = route_standard(e / e.sum(), k=2)
    dev_standard = float(np.abs(d2.gates - np.array([0.45506, 0.27601])).max())
    assert dev_standard < 1e-5
    return f"worked-example gate deviations {dev_shared:.2e} and {dev_standard:.2e}"


@acceptance(5, "gradient correctness")
def test_criterion_5_gradient_correctness():
    start = time.monotonic()
    cfg = ModelConfig(vocab_size=17, d_model=16, n_layers=2, n_heads=2, d_ff=20,
                      max_seq_len=12)
    errors = gradient_check(cfg, [1, 5, 2, 8, 0, 3, 7, 4], [0, 1, 1, 1, 1, 1, 1, 1], seed=17)
    for name, err in errors.items():
        assert err < 1e-3, f"{name}: fd rel err {err}"
    assert time.monotonic() - start < 300.0
    return (f"fd rel err: dense {errors['dense']:.2e}, moe {errors['moe']:.2e}, "
            f"mixing logits {errors['mixing']:.2e} (tol 1e-3)")


@acceptance(6, "merge identities")
def test_criterion_6_merge_identities():
    cfg = ModelConfig(vocab_size=31, d_model=16, n_layers=2, n_heads=2, d_ff=20,
                      max_seq_len=16)
    dense = build_dense_model(cfg, seed=6)
    moe = upcycle_dense_to_moe(dense, MoEConfig(4, 3), seed=7)
    rng = np.random.default_rng(8)
    distinct = moe.copy()
    for block in distinct.blocks:
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)

    tokens = [1, 9, 14, 3, 22]
    with tn.no_grad():
        # shared rate 1: merged model equals shared-expert extraction
        lam1 = merge_xft(distinct, init_mixing_coefficients(4, 2, lam=1.0))
        shared_ffn = distinct.blocks[0].slot.experts[0]
        extracted = distinct.copy()
        for block, src in zip(extracted.blocks, distinct.blocks):
            block.slot = FFNWeights(**{k: Tensor(v.data.copy(), requires_grad=True)
                                       for k, v in src.slot.experts[0].tensors().items()})
        diff_lam1 = float(np.abs(lam1.logits(tokens).data - extracted.logits(tokens).data).max())
        assert diff_lam1 < 1e-5

        # identical experts: any coefficients reproduce the dense original
        coeffs = MixingCoefficients(
            [Tensor(rng.normal(size=3).astype(np.float32)) for _ in range(2)],
            lam=0.3, n_experts=4)
        remerged = merge_xft(moe, coeffs)
        diff_ident = float(np.abs(remerged.logits(tokens).data - dense.logits(tokens).data).max())
        assert diff_ident < 1e-5

    # uniform merge of three scalar stand-ins {1, 2, 6} averages to 3
    mean = merge_uniform(tiny_moe([1.0, 2.0, 6.0])).blocks[0].slot.w_up.data[0, 0]
    assert mean == pytest.approx(3.0, abs=1e-6)
    return (f"rate-1 diff {diff_lam1:.2e}, identical-expert diff {diff_ident:.2e}, "
            f"scalar mean {mean:.6f}")


@acceptance(7, "coefficient simplex")
def test_criterion_7_coefficient_simplex():
    cfg = ModelConfig(vocab_size=259, d_model=32, n_layers=2, n_heads=4, d_ff=48,
                      max_seq_len=64)
    moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=70), MoEConfig(8, 6), seed=71)
    rng = np.random.default_rng(72)
    for block in moe.blocks:
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)

    lam = 0.75
    corpus = make_smoke_corpus(24, seed=73)
    captured = {}
    gaps = []

    import xft.merge as merge_mod
    orig_init = merge_mod.init_mixing_coefficients

    def capturing_init(*args, **kwargs):
        captured["coeffs"] = orig_init(*args, **kwargs)
        return captured["coeffs"]

    def check(step):
        coeffs = captured["coeffs"]
        for layer in range(coeffs.n_layers):
            alphas = coeffs.alphas(layer)
            assert alphas[0] == lam, "shared coefficient must stay pinned exactly"
            gaps.append(abs(float(alphas[1:].sum()) - (1.0 - lam)))

    merge_mod.init_mixing_coefficients = capturing_init
    try:
        learn_mixing_coefficients(
            moe, corpus, lam,
            TrainHyper(batch_size=4, peak_lr=2e-2, warmup_steps=1, epochs=2, seed=74),
            post_step=check)
    finally:
        merge_mod.init_mixing_coefficients = orig_init
    assert gaps and max(gaps) < 1e-6
    return f"max |sum(normal alphas) - (1-rate)| = {max(gaps):.2e} over {len(gaps)} checks"


@acceptance(8, "output-ensembling identity")
def test_criterion_8_ensemble_identity():
    start = time.monotonic()
    worst = 0.0
    for tenth in range(11):
        dev = ensemble_identity_check(tenth / 10.0, seed=80 + tenth, n_inputs=100)
        worst = max(worst, dev)
        assert dev < 1e-5, f"alpha={tenth / 10}: deviation {dev}"
    assert time.monotonic() - start < 60.0
    return f"max deviation {worst:.2e} over alpha grid 0..1 step 0.1, 100 inputs each"


@acceptance(9, "EWA oracle")
def test_criterion_9_ewa_oracle():
    beta = 0.3
    err = ewa_closed_form_check()
    assert err < 1e-6

    # the EWA finalization is uniform averaging of the final experts
    cfg = ModelConfig(vocab_size=31, d_model=16, n_layers=1, n_heads=2, d_ff=20, max_seq_len=8)
    moe = upcycle_dense_to_moe(build_dense_model(cfg, seed=90), MoEConfig(4, 2), seed=91)
    rng = np.random.default_rng(92)
    for expert in moe.blocks[0].slot.experts:
        for t in expert.tensors().values():
            t.data += rng.normal(size=t.shape).astype(np.float32)
    for _ in range(2):
        ewa_step(moe.blocks[0].slot, beta)
    finalized = merge_uniform(moe)
    manual = np.mean([e.w_up.data for e in moe.blocks[0].slot.experts], axis=0)
    assert np.allclose(finalized.blocks[0].slot.w_up.data, manual, atol=1e-7)
    return f"closed-form decay error {err:.2e}; finalize equals uniform mean"


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """End-to-end pipeline over the CLI: warm start, both branches, sweeps."""
    root = tmp_path_factory.mktemp("smoke")
    corpus = make_smoke_corpus(520, seed=100)
    train, held = corpus[:416], corpus[416:]
    train_path = str(root / "train.jsonl")
    held_path = str(root / "held.jsonl")
    save_instruction_dataset(train, train_path)
    save_instruction_dataset(held, held_path)

    def run(*argv):
        assert cli_dispatch(list(argv)) == EXIT_OK, f"command failed: {argv}"

    paths = {name: str(root / f"{name}.xftc")
             for name in ("base", "warm", "baseline", "moe0", "moe", "soup_merged")}
    start = time.monotonic()

    run("init", "--out", paths["base"], "--seed", "0")
    # brief warm-up: the desk-scale stand-in for the pretrained dense model
    run("train-sft", "--ckpt", paths["base"], "--data", train_path, "--out", paths["warm"],
        "--epochs", "2", "--lr", "1e-3", "--warmup", "10", "--batch-size", "8", "--seed", "1")
    # dense baseline at the MoE budget (4 + 1 epochs) and learning rate
    run("train-sft", "--ckpt", paths["warm"], "--data", train_path, "--out", paths["baseline"],
        "--epochs", "5", "--lr", "2e-4", "--warmup", "20", "--batch-size", "8", "--seed", "11")
    run("upcycle", "--ckpt", paths["warm"], "--out", paths["moe0"],
        "--experts", "8", "--topk", "6", "--seed", "2")
    moe_curve = str(root / "moe_curve.json")
    run("train-moe", "--ckpt", paths["moe0"], "--data", train_path, "--out", paths["moe"],
        "--epochs", "4", "--lr", "2e-4", "--warmup", "20", "--batch-size", "8", "--seed", "3",
        "--curve", moe_curve)

    sweep = {}
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        coeffs = str(root / f"coeffs_{lam}.json")
        merged = str(root / f"merged_{lam}.xftc")
        run("learn-merge", "--ckpt", paths["moe"], "--data", train_path, "--out", coeffs,
            "--lambda", str(lam), "--epochs", "1", "--lr", "2e-2", "--warmup", "5",
            "--batch-size", "8", "--seed", "4")
        run("merge", "--ckpt", paths["moe"], "--out", merged, "--mode", "xft",
            "--coeffs", coeffs)
        sweep[lam] = merged

    soup_coeffs = str(root / "soup.json")
    run("learn-merge", "--ckpt", paths["moe"], "--data", train_path, "--out", soup_coeffs,
        "--lambda", "0.75", "--soup", "--epochs", "1", "--lr", "2e-2", "--warmup", "5",
        "--batch-size", "8", "--seed", "5")
    run("merge", "--ckpt", paths["moe"], "--out", paths["soup_merged"], "--coeffs", soup_coeffs)

    losses = {}
    for name in ("warm", "baseline", "moe"):
        losses[name] = dataset_loss(load_checkpoint(paths[name]), held)
    for lam, path in sweep.items():
        losses[f"merged@{lam}"] = dataset_loss(load_checkpoint(path), held)

    return {
        "paths": paths,
        "sweep": sweep,
        "losses": losses,
        "moe_curve": json.loads(Path(moe_curve).read_text()),
        "soup_coeffs": json.loads(Path(soup_coeffs).read_text()),
        "elapsed": time.monotonic() - start,
        "held": held,
    }


@acceptance(10, "end-to-end smoke")
def test_criterion_10_end_to_end_smoke(smoke):
    losses = smoke["losses"]
    curve = smoke["moe_curve"]
    assert curve[-1] < curve[0], "MoE fine-tuning loss must decrease"

    moe_loss = losses["moe"]
    merged_loss = losses["merged@0.75"]
    gap = (merged_loss - moe_loss) / moe_loss
    assert abs(gap) < 0.05, f"merged-vs-MoE held-out gap {gap:+.2%} exceeds 5%"

    print("\n  shared-rate sweep (held-out loss; ordering recorded, not asserted):")
    print(f"    dense baseline (fairness) {losses['baseline']:.4f}; MoE {moe_loss:.4f}")
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"    rate {lam:4.2f} -> {losses[f'merged@{lam}']:.4f}")
    assert smoke["elapsed"] < 1800.0
    return (f"merged {merged_loss:.4f} vs MoE {moe_loss:.4f} (gap {gap:+.2%}, tol 5%), "
            f"sweep complete in {smoke['elapsed']:.0f}s")


@acceptance(11, "learned-soup degeneracy")
def test_criterion_11_soup_degeneracy(smoke):
    coeffs = MixingCoefficients.from_json_obj(smoke["soup_coeffs"])
    assert coeffs.unconstrained
    init_shared = 0.75
    shared = [float(coeffs.alphas(layer)[0]) for layer in range(coeffs.n_layers)]
    risen = sum(1 for v in shared if v > init_shared)
    assert 2 * risen > coeffs.n_layers, \
        f"shared coefficient rose in only {risen}/{coeffs.n_layers} layers: {shared}"
    return (f"shared coefficient above its {init_shared} init in {risen}/{coeffs.n_layers} "
            f"layers: {[round(v, 3) for v in shared]}")


@acceptance(12, "routing uniformity")
def test_criterion_12_routing_uniformity():
    cfg, model = symmetric_router_model(n=8, k=6, vocab=4096, seed=120)
    rng = np.random.default_rng(121)
    stream = [rng.integers(0, cfg.vocab_size, size=50).tolist() for _ in range(210)]
    report = expert_load_histogram(model, stream)
    assert report.n_tokens >= 10_000
    dev = float(np.abs(report.proportions() - report.uniform_reference).max())
    assert dev < 0.02, f"max deviation from 1/7: {dev}"
    return f"max |proportion - 1/7| = {dev:.4f} over {report.n_tokens} tokens (tol 0.02)"
