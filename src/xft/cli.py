"""Pipeline command line: init, fine-tune, upcycle, merge, inspect, verify.

Exit codes: 0 success, 1 usage, 2 I/O or parse failure, 3 verification
failure. Seeds default to the XFT_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from xft import tensor as tn
from xft.analysis import ensemble_identity_check, expert_load_histogram
from xft.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from xft.dataset import DatasetError, load_instruction_dataset
from xft.merge import (
    DEFAULT_SHARED_RATE,
    EWA_DEFAULT_BETA,
    EWAConfig,
    MixingCoefficients,
    ewa_beta_at_step,
    ewa_finalize,
    ewa_step,
    extract_shared_expert,
    init_mixing_coefficients,
    learn_mixing_coefficients,
    merge_uniform,
    merge_xft,
)
from xft.model import (
    FFNWeights,
    ModelConfig,
    build_dense_model,
    generate_greedy,
    model_forward_loss,
)
from xft.moe import DEFAULT_N_EXPERTS, DEFAULT_TOP_K, MoEConfig, MoELayer, upcycle_dense_to_moe
from xft.tensor import Tensor
from xft.train import (
    ByteTokenizer,
    TrainHyper,
    TrainingDiverged,
    dataset_loss,
    fairness_epochs,
    sft_train,
    tokenize_and_mask,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3

MOE_EPOCHS_DEFAULT = 4
MERGE_EPOCHS_DEFAULT = 1
SFT_LR_DEFAULT = 1e-3   # dense warm-up from random weights
MOE_LR_DEFAULT = 2e-4   # fine-tuning regime: keeps experts mergeable
MERGE_LR_DEFAULT = 2e-2  # mixing logits only (a handful of parameters)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage is exit 1 here
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _default_seed() -> int:
    return int(os.environ.get("XFT_SEED", "0"))


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: $XFT_SEED or 0)")


def _add_train_args(p, default_lr):
    p.add_argument("--data", required=True, help="instruction JSONL")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=default_lr)
    p.add_argument("--warmup", type=int, default=None,
                   help="warmup steps (default: total steps // 10)")
    p.add_argument("--curve", default=None, help="write the per-step loss curve as JSON")


def build_parser() -> _Parser:
    parser = _Parser(prog="xft", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("init", help="create a random dense model")
    p.add_argument("--out", required=True)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--seq-len", type=int, default=256)
    _add_seed(p)

    p = sub.add_parser("train-sft", help="supervised fine-tuning of a dense model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None,
                   help=f"default {MOE_EPOCHS_DEFAULT}; --fairness uses the MoE+merge budget")
    p.add_argument("--fairness", action="store_true",
                   help="train for (MoE epochs + merge epochs) to match the two-phase budget")
    _add_train_args(p, SFT_LR_DEFAULT)
    _add_seed(p)

    p = sub.add_parser("upcycle", help="convert a dense checkpoint to a shared-expert MoE")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--experts", type=int, default=DEFAULT_N_EXPERTS)
    p.add_argument("--topk", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--router-std", type=float, default=0.02)
    p.add_argument("--no-normalization", action="store_true",
                   help="drop routing weight normalization (scale-mismatch ablation)")
    _add_seed(p)

    p = sub.add_parser("train-moe", help="fine-tune an upcycled MoE model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=MOE_EPOCHS_DEFAULT)
    p.add_argument("--ewa-beta", type=float, default=None,
                   help=f"enable EWA expert blending (reference share rate {EWA_DEFAULT_BETA})")
    p.add_argument("--ewa-schedule", choices=("constant", "linear"), default="constant")
    _add_train_args(p, MOE_LR_DEFAULT)
    _add_seed(p)

    p = sub.add_parser("learn-merge", help="learn mixing coefficients for merging")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="coefficients JSON")
    p.add_argument("--lambda", dest="shared_rate", type=float, default=DEFAULT_SHARED_RATE)
    p.add_argument("--epochs", type=int, default=MERGE_EPOCHS_DEFAULT)
    p.add_argument("--soup", action="store_true",
                   help="unconstrained learned soup: the shared coefficient is learned too")
    _add_train_args(p, MERGE_LR_DEFAULT)
    _add_seed(p)

    p = sub.add_parser("merge", help="compile an MoE checkpoint back to a dense model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("xft", "uniform", "soup", "ewa", "extract-shared"),
                   default="xft")
    p.add_argument("--coeffs", default=None, help="coefficients JSON from learn-merge")
    p.add_argument("--lambda", dest="shared_rate", type=float, default=DEFAULT_SHARED_RATE,
                   help="shared rate for initialized coefficients when --coeffs is absent")
    _add_seed(p)

    p = sub.add_parser("eval-loss", help="masked next-token loss over a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("generate", help="greedy decoding from an instruction prompt")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=64)

    p = sub.add_parser("route-stats", help="expert load histogram over a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="write the report as JSON")

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--ckpt", default=None, help="optional upcycled checkpoint to check")
    _add_seed(p)

    return parser


def _seed_of(args) -> int:
    return _default_seed() if getattr(args, "seed", None) is None else args.seed


def _resolve_hyper(args, n_examples: int, epochs: int, seed: int) -> TrainHyper:
    steps_per_epoch = max(1, math.ceil(n_examples / args.batch_size))
    total = epochs * steps_per_epoch
    warmup = args.warmup if args.warmup is not None else total // 10
    return TrainHyper(batch_size=args.batch_size, peak_lr=args.lr,
                      warmup_steps=warmup, epochs=epochs, seed=seed)


def _write_curve(args, curve) -> None:
    if args.curve:
        with open(args.curve, "w", encoding="utf-8") as f:
            json.dump(curve, f)


def _report_curve(curve, steps_per_epoch: int) -> None:
    for epoch_start in range(0, len(curve), steps_per_epoch):
        chunk = curve[epoch_start:epoch_start + steps_per_epoch]
        epoch = epoch_start // steps_per_epoch
        print(f"epoch {epoch}: mean loss {sum(chunk) / len(chunk):.4f}")


def cmd_init(args) -> int:
    seed = _seed_of(args)
    cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size, d_model=args.d_model,
                      n_layers=args.layers, n_heads=args.heads, d_ff=args.d_ff,
                      max_seq_len=args.seq_len)
    model = build_dense_model(cfg, seed=seed)
    save_checkpoint(model, args.out, meta={"phase": "init", "seed": seed})
    print(f"wrote dense model to {args.out}")
    return EXIT_OK


def cmd_train_sft(args) -> int:
    seed = _seed_of(args)
    model = load_checkpoint(args.ckpt)
    if model.is_moe:
        raise CheckpointError(f"{args.ckpt!r} holds an MoE model; use train-moe")
    examples = load_instruction_dataset(args.data)
    epochs = args.epochs
    if epochs is None:
        epochs = fairness_epochs(MOE_EPOCHS_DEFAULT, MERGE_EPOCHS_DEFAULT) if args.fairness \
            else MOE_EPOCHS_DEFAULT
    hyper = _resolve_hyper(args, len(examples), epochs, seed)
    curve = sft_train(model, examples, hyper)
    _report_curve(curve, max(1, math.ceil(len(examples) / hyper.batch_size)))
    _write_curve(args, curve)
    save_checkpoint(model, args.out, meta={"phase": "sft", "seed": seed, "epochs": epochs})
    print(f"wrote fine-tuned dense model to {args.out}")
    return EXIT_OK


def cmd_upcycle(args) -> int:
    seed = _seed_of(args)
    dense = load_checkpoint(args.ckpt)
    cfg = MoEConfig(n_experts=args.experts, top_k=args.topk,
                    normalization_enabled=not args.no_normalization,
                    router_init_std=args.router_std)
    moe = upcycle_dense_to_moe(dense, cfg, seed=seed)
    save_checkpoint(moe, args.out, meta={"phase": "upcycled", "seed": seed})
    print(f"wrote upcycled MoE ({args.experts} experts, top {args.topk}) to {args.out}")
    return EXIT_OK


def cmd_train_moe(args) -> int:
    seed = _seed_of(args)
    model = load_checkpoint(args.ckpt)
    if not model.is_moe:
        raise CheckpointError(f"{args.ckpt!r} holds a dense model; use train-sft")
    examples = load_instruction_dataset(args.data)
    hyper = _resolve_hyper(args, len(examples), args.epochs, seed)

    post_step = None
    if args.ewa_beta is not None:
        ewa_cfg = EWAConfig(beta=args.ewa_beta, schedule=args.ewa_schedule)
        steps_per_epoch = max(1, math.ceil(len(examples) / hyper.batch_size))
        total_steps = hyper.epochs * steps_per_epoch

        def post_step(step):
            beta = ewa_beta_at_step(ewa_cfg, step, total_steps)
            for block in model.blocks:
                ewa_step(block.slot, beta)

    curve = sft_train(model, examples, hyper, post_step=post_step)
    _report_curve(curve, max(1, math.ceil(len(examples) / hyper.batch_size)))
    _write_curve(args, curve)
    meta = {"phase": "moe-sft", "seed": seed, "epochs": args.epochs}
    if args.ewa_beta is not None:
        meta["ewa_beta"] = args.ewa_beta
        meta["ewa_schedule"] = args.ewa_schedule
    save_checkpoint(model, args.out, meta=meta)
    print(f"wrote fine-tuned MoE model to {args.out}")
    return EXIT_OK


def cmd_learn_merge(args) -> int:
    seed = _seed_of(args)
    model = load_checkpoint(args.ckpt)
    examples = load_instruction_dataset(args.data)
    hyper = _resolve_hyper(args, len(examples), args.epochs, seed)
    coeffs, curve = learn_mixing_coefficients(
        model, examples, args.shared_rate, hyper, unconstrained=args.soup)
    _report_curve(curve, max(1, math.ceil(len(examples) / hyper.batch_size)))
    _write_curve(args, curve)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(coeffs.to_json_obj(), f, sort_keys=True)
        f.write("\n")
    kind = "unconstrained soup" if args.soup else f"shared rate {args.shared_rate}"
    print(f"wrote learned mixing coefficients ({kind}) to {args.out}")
    return EXIT_OK


def cmd_merge(args) -> int:
    model = load_checkpoint(args.ckpt)
    if not model.is_moe:
        raise CheckpointError(f"{args.ckpt!r} holds a dense model; nothing to merge")
    n_experts = model.blocks[0].slot.cfg.n_experts
    lam = args.shared_rate

    if args.mode in ("xft", "soup"):
        if args.coeffs:
            with open(args.coeffs, "r", encoding="utf-8") as f:
                coeffs = MixingCoefficients.from_json_obj(json.load(f))
        else:
            coeffs = init_mixing_coefficients(n_experts, len(model.blocks), lam,
                                              unconstrained=(args.mode == "soup"))
        dense = merge_xft(model, coeffs)
        note = "learned" if args.coeffs else "initialized"
        detail = f"{args.mode} ({note} coefficients)"
    elif args.mode in ("uniform", "ewa"):
        dense = ewa_finalize(model) if args.mode == "ewa" else merge_uniform(model)
        detail = args.mode
    else:
        dense = extract_shared_expert(model)
        detail = "extract-shared"

    meta = {"phase": "merged", "mode": args.mode}
    if args.mode == "xft" and not args.coeffs:
        meta["shared_rate"] = lam
    save_checkpoint(dense, args.out, meta=meta)
    print(f"wrote merged dense model [{detail}] to {args.out}")
    return EXIT_OK


def cmd_eval_loss(args) -> int:
    model = load_checkpoint(args.ckpt)
    examples = load_instruction_dataset(args.data)
    print(f"loss: {dataset_loss(model, examples):.6f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    model = load_checkpoint(args.ckpt)
    tok = ByteTokenizer()
    prompt = [tok.BOS] + tok.encode(args.prompt) + [tok.SEP]
    out = generate_greedy(model, prompt, args.max_new)
    completion = out[len(prompt):]
    if tok.EOS in completion:
        completion = completion[: completion.index(tok.EOS)]
    print(tok.decode(completion))
    return EXIT_OK


def cmd_route_stats(args) -> int:
    model = load_checkpoint(args.ckpt)
    if not model.is_moe:
        raise CheckpointError(f"{args.ckpt!r} holds a dense model; no routing to report")
    examples = load_instruction_dataset(args.data)
    tok = ByteTokenizer()
    sequences = []
    for ex in examples:
        enc = tokenize_and_mask(ex, tok, model.cfg.max_seq_len)
        if enc is not None:
            sequences.append(enc[0])
    report = expert_load_histogram(model, sequences, corpus_label=os.path.basename(args.data))
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report.to_json_obj(), f, sort_keys=True)
            f.write("\n")
        print(f"wrote routing report to {args.out}")
    return EXIT_OK


def _verify_checks(seed: int, ckpt: str | None):
    """Yield (name, passed, detail) for the invariant suite."""
    # init-equivalence across expert-count / top-k combinations
    cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size, d_model=32, n_layers=2,
                      n_heads=4, d_ff=64, max_seq_len=32)
    dense = build_dense_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, k in ((2, 2), (4, 2), (4, 3), (8, 2), (8, 3), (8, 6)):
        moe = upcycle_dense_to_moe(dense, MoEConfig(n_experts=n, top_k=k), seed=seed + n + k)
        with tn.no_grad():
            for _ in range(10):
                tokens = rng.integers(0, cfg.vocab_size, size=12).tolist()
                diff = float(np.abs(moe.logits(tokens).data - dense.logits(tokens).data).max())
                worst = max(worst, diff)
    yield "init-equivalence", worst < 1e-5, f"max logit diff {worst:.2e}"

    # gate sums on an upcycled model (provided checkpoint or fresh)
    if ckpt is not None:
        moe = load_checkpoint(ckpt)
        if not moe.is_moe:
            raise CheckpointError(f"{ckpt!r} holds a dense model; verify needs an MoE checkpoint")
    else:
        moe = upcycle_dense_to_moe(dense, MoEConfig(), seed=seed)
    layer = moe.blocks[0].slot
    gate_dev, checked = 0.0, 0
    with tn.no_grad():
        while checked < 1000:
            u = tn.Tensor(rng.normal(scale=2.0, size=(100, moe.cfg.d_model)).astype(np.float32))
            _, decisions = layer.forward(u)
            for d in decisions:
                gate_dev = max(gate_dev, abs(float(d.gates.sum()) - 1.0))
            checked += len(decisions)
    yield "gate-sum", gate_dev < 1e-5, f"max |sum - 1| {gate_dev:.2e} over {checked} tokens"

    # gradient checks: dense model parameters and mixing logits
    gc_cfg = ModelConfig(vocab_size=17, d_model=16, n_layers=2, n_heads=2, d_ff=20,
                         max_seq_len=12)
    gc_model = build_dense_model(gc_cfg, seed=seed).copy(dtype=np.float64)
    tokens = rng.integers(0, gc_cfg.vocab_size, size=8).tolist()
    mask = [0] + [1] * 7
    err_dense = tn.finite_diff_check(
        lambda: model_forward_loss(gc_model, tokens, mask)[1],
        gc_model.named_parameters().values(), n_probes=40, seed=seed)

    from xft.merge import _MergedTrainable
    gc_moe = upcycle_dense_to_moe(build_dense_model(gc_cfg, seed=seed), MoEConfig(4, 3),
                                  seed=seed + 1)
    for block in gc_moe.blocks:
        for expert in block.slot.experts:
            for t in expert.tensors().values():
                t.data += 0.1 * rng.normal(size=t.shape).astype(np.float32)
    coeffs = init_mixing_coefficients(4, gc_cfg.n_layers, 0.6, dtype=np.float64)
    trainable = _MergedTrainable(gc_moe.copy(dtype=np.float64), coeffs)

    err_mix = tn.finite_diff_check(lambda: trainable.batch_loss([(tokens, mask)]),
                                   coeffs.logits)
    ok = err_dense < 1e-3 and err_mix < 1e-3
    yield "gradient-check", ok, f"dense {err_dense:.2e}, mixing logits {err_mix:.2e}"

    # ensembling identity across the gate grid
    worst_dev = max(ensemble_identity_check(a / 10.0, seed=seed, n_inputs=20)
                    for a in range(11))
    yield "ensemble-identity", worst_dev < 1e-5, f"max deviation {worst_dev:.2e}"

    # EWA constant-schedule closed form on two scalar experts
    def scalar_expert(v):
        return FFNWeights(Tensor(np.array([[v]], dtype=np.float32)),
                          Tensor(np.zeros(1, dtype=np.float32)),
                          Tensor(np.ones((1, 1), dtype=np.float32)),
                          Tensor(np.zeros(1, dtype=np.float32)))

    ewa_layer = MoELayer([scalar_expert(0.0), scalar_expert(1.0)],
                         Tensor(np.zeros((2, 1), dtype=np.float32)),
                         MoEConfig(n_experts=2, top_k=2))
    beta, steps = EWA_DEFAULT_BETA, 3
    for _ in range(steps):
        ewa_step(ewa_layer, beta)
    decay = (1.0 - beta) ** steps
    got = [float(e.w_up.data[0, 0]) for e in ewa_layer.experts]
    want = [0.5 - 0.5 * decay, 0.5 + 0.5 * decay]
    ewa_err = max(abs(g - w) for g, w in zip(got, want))
    yield "ewa-oracle", ewa_err < 1e-6, f"closed-form error {ewa_err:.2e}"


def cmd_verify(args) -> int:
    seed = _seed_of(args)
    failures = 0
    for name, passed, detail in _verify_checks(seed, args.ckpt):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


_HANDLERS = {
    "init": cmd_init,
    "train-sft": cmd_train_sft,
    "upcycle": cmd_upcycle,
    "train-moe": cmd_train_moe,
    "learn-merge": cmd_learn_merge,
    "merge": cmd_merge,
    "eval-loss": cmd_eval_loss,
    "generate": cmd_generate,
    "route-stats": cmd_route_stats,
    "verify": cmd_verify,
}


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (CheckpointError, DatasetError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (TrainingDiverged, FloatingPointError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
