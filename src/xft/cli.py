"""Pipeline command line: init, train-sft, upcycle, train-moe, learn-merge,
merge, eval-loss, generate, route-stats, verify.

Exit codes: 0 success, 1 usage, 2 I/O, parse or invalid input,
3 verification failure. A command's ``--seed`` defaults to the XFT_SEED
environment variable, then 0; ``merge`` is deterministic and takes no seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from xft import invariants as iv
from xft.analysis import expert_load_histogram
from xft.checkpoint import CheckpointError, atomic_write, load_checkpoint, save_checkpoint
from xft.dataset import DatasetError, load_instruction_dataset
from xft.merge import (
    DEFAULT_SHARED_RATE,
    EWA_DEFAULT_BETA,
    EWA_SCHEDULES,
    MixingCoefficients,
    ewa_hook,
    init_mixing_coefficients,
    learn_mixing_coefficients,
    merge_uniform,
    merge_xft,
)
from xft.model import ModelConfig, build_dense_model, generate_greedy
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.train import (
    MIN_SEQ_LEN,
    ByteTokenizer,
    TrainHyper,
    TrainingDiverged,
    dataset_loss,
    encode_examples,
    sft_train,
    steps_per_epoch,
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


def _add_seed(p):
    p.add_argument("--seed", default=None,
                   help="random seed (default: $XFT_SEED or 0)")


def _add_train_args(p, default_lr):
    p.add_argument("--data", required=True, help="instruction JSONL")
    p.add_argument("--batch-size", type=int, default=TrainHyper.batch_size)
    p.add_argument("--lr", type=float, default=default_lr)
    p.add_argument("--warmup", type=int, default=None,
                   help="warmup steps (default: total steps // 10)")
    p.add_argument("--curve", default=None, help="write the per-step loss curve as JSON")


def build_parser() -> _Parser:
    parser = _Parser(prog="xft", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("init", help="create a random dense model")
    p.add_argument("--out", required=True)
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--layers", type=int, default=ModelConfig.n_layers)
    p.add_argument("--heads", type=int, default=ModelConfig.n_heads)
    p.add_argument("--d-ff", type=int, default=ModelConfig.d_ff)
    p.add_argument("--seq-len", type=int, default=ModelConfig.max_seq_len)
    _add_seed(p)

    p = sub.add_parser("train-sft", help="supervised fine-tuning of a dense model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=MOE_EPOCHS_DEFAULT)
    _add_train_args(p, SFT_LR_DEFAULT)
    _add_seed(p)

    p = sub.add_parser("upcycle", help="convert a dense checkpoint to a shared-expert MoE")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--experts", type=int, default=MoEConfig.n_experts)
    p.add_argument("--topk", type=int, default=MoEConfig.top_k)
    p.add_argument("--router-std", type=float, default=MoEConfig.router_init_std)
    p.add_argument("--no-normalization", action="store_true",
                   help="drop routing weight normalization (scale-mismatch ablation)")
    _add_seed(p)

    p = sub.add_parser("train-moe", help="fine-tune an upcycled MoE model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=MOE_EPOCHS_DEFAULT)
    p.add_argument("--ewa-beta", type=float, default=None,
                   help=f"enable EWA expert blending (reference share rate {EWA_DEFAULT_BETA})")
    p.add_argument("--ewa-schedule", choices=EWA_SCHEDULES, default=None,
                   help=f"with --ewa-beta: share rate schedule (default {EWA_SCHEDULES[0]})")
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
    p.add_argument("--mode", choices=("xft", "uniform"), default="xft")
    p.add_argument("--coeffs", default=None,
                   help="coefficients JSON from learn-merge; soup coefficients merge as soup")
    p.add_argument("--lambda", dest="shared_rate", type=float, default=None,
                   help=f"shared rate of initialized xft coefficients, without --coeffs "
                        f"(default {DEFAULT_SHARED_RATE})")

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
    """``--seed``, else ``$XFT_SEED``, else 0; a seed that is not plain ASCII
    digits is a ValueError naming where it came from."""
    if args.seed is not None:
        source, text = "--seed", args.seed
    else:
        source, text = "XFT_SEED", os.environ.get("XFT_SEED", "0")
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return int(text)


def _resolve_hyper(args, n_examples: int, epochs: int) -> TrainHyper:
    total = epochs * steps_per_epoch(n_examples, args.batch_size)
    warmup = args.warmup if args.warmup is not None else total // 10
    return TrainHyper(batch_size=args.batch_size, peak_lr=args.lr,
                      warmup_steps=warmup, epochs=epochs, seed=args.seed)


def _report_curve(args, curve, n_examples: int) -> None:
    """Print each epoch's mean loss; write the curve to ``--curve`` if given.
    Called after the main artifact is written, so a failed write leaves no curve."""
    steps = steps_per_epoch(n_examples, args.batch_size)
    for start in range(0, len(curve), steps):
        chunk = curve[start:start + steps]
        print(f"epoch {start // steps}: mean loss {sum(chunk) / len(chunk):.4f}")
    if args.curve:
        with atomic_write(args.curve) as f:
            json.dump(curve, f)


def _load_model(path: str, moe: bool):
    """The model in the checkpoint at ``path``, which must be an MoE model if
    ``moe`` and a dense one if not; a CheckpointError naming the file otherwise."""
    model = load_checkpoint(path)
    if model.is_moe != moe:
        held, needed = ("an MoE", "a dense") if model.is_moe else ("a dense", "an MoE")
        raise CheckpointError(f"{path!r} holds {held} model; this command needs {needed} model")
    return model


def cmd_init(args) -> int:
    if args.seq_len < MIN_SEQ_LEN:
        raise ValueError(f"--seq-len {args.seq_len} leaves no room for an output token; "
                         f"it must be at least {MIN_SEQ_LEN}")
    cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size, d_model=args.d_model,
                      n_layers=args.layers, n_heads=args.heads, d_ff=args.d_ff,
                      max_seq_len=args.seq_len)
    model = build_dense_model(cfg, seed=args.seed)
    save_checkpoint(model, args.out, meta={"phase": "init", "seed": args.seed})
    print(f"wrote dense model to {args.out}")
    return EXIT_OK


def cmd_train_sft(args) -> int:
    model = _load_model(args.ckpt, moe=False)
    examples = load_instruction_dataset(args.data)
    hyper = _resolve_hyper(args, len(examples), args.epochs)
    curve = sft_train(model, examples, hyper)
    save_checkpoint(model, args.out,
                    meta={"phase": "sft", "seed": args.seed, "epochs": args.epochs})
    _report_curve(args, curve, len(examples))
    print(f"wrote fine-tuned dense model to {args.out}")
    return EXIT_OK


def cmd_upcycle(args) -> int:
    dense = _load_model(args.ckpt, moe=False)
    cfg = MoEConfig(n_experts=args.experts, top_k=args.topk,
                    normalization_enabled=not args.no_normalization,
                    router_init_std=args.router_std)
    moe = upcycle_dense_to_moe(dense, cfg, seed=args.seed)
    save_checkpoint(moe, args.out, meta={"phase": "upcycled", "seed": args.seed})
    print(f"wrote upcycled MoE ({args.experts} experts, top {args.topk}) to {args.out}")
    return EXIT_OK


def cmd_train_moe(args) -> int:
    if args.ewa_schedule is not None and args.ewa_beta is None:
        raise ValueError("--ewa-schedule needs --ewa-beta")
    model = _load_model(args.ckpt, moe=True)
    examples = load_instruction_dataset(args.data)
    hyper = _resolve_hyper(args, len(examples), args.epochs)

    schedule = args.ewa_schedule or EWA_SCHEDULES[0]
    post_step = None if args.ewa_beta is None else ewa_hook(
        model, args.ewa_beta, schedule,
        hyper.epochs * steps_per_epoch(len(examples), hyper.batch_size))
    curve = sft_train(model, examples, hyper, post_step=post_step)
    meta = {"phase": "moe-sft", "seed": args.seed, "epochs": args.epochs}
    if args.ewa_beta is not None:
        meta["ewa_beta"] = args.ewa_beta
        meta["ewa_schedule"] = schedule
    save_checkpoint(model, args.out, meta=meta)
    _report_curve(args, curve, len(examples))
    print(f"wrote fine-tuned MoE model to {args.out}")
    return EXIT_OK


def cmd_learn_merge(args) -> int:
    model = _load_model(args.ckpt, moe=True)
    examples = load_instruction_dataset(args.data)
    hyper = _resolve_hyper(args, len(examples), args.epochs)
    coeffs, curve = learn_mixing_coefficients(
        model, examples, args.shared_rate, hyper, unconstrained=args.soup)
    with atomic_write(args.out) as f:
        json.dump(coeffs.to_json_obj(), f, sort_keys=True)
        f.write("\n")
    _report_curve(args, curve, len(examples))
    kind = "unconstrained soup" if args.soup else f"shared rate {args.shared_rate}"
    print(f"wrote learned mixing coefficients ({kind}) to {args.out}")
    return EXIT_OK


def cmd_merge(args) -> int:
    if args.mode == "uniform" and (args.coeffs or args.shared_rate is not None):
        raise ValueError("--mode uniform takes neither --coeffs nor --lambda")
    if args.coeffs and args.shared_rate is not None:
        raise ValueError("--lambda sets initialized coefficients; it cannot go with --coeffs")
    lam = DEFAULT_SHARED_RATE if args.shared_rate is None else args.shared_rate
    model = _load_model(args.ckpt, moe=True)

    if args.mode == "uniform":
        dense, mode, detail = merge_uniform(model), "uniform", "uniform"
    else:
        if args.coeffs:
            with open(args.coeffs, "r", encoding="utf-8") as f:
                coeffs = MixingCoefficients.from_json_obj(json.load(f))
        else:
            coeffs = init_mixing_coefficients(model.moe_cfg.n_experts, len(model.blocks), lam)
        dense = merge_xft(model, coeffs)
        mode = "soup" if coeffs.unconstrained else "xft"  # the coefficients know their kind
        note = "learned" if args.coeffs else "initialized"
        detail = f"{mode} ({note} coefficients)"

    meta = {"phase": "merged", "mode": mode}
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
    model = _load_model(args.ckpt, moe=True)
    examples = load_instruction_dataset(args.data)
    sequences = [tokens for tokens, _ in encode_examples(examples, model.cfg.max_seq_len)]
    report = expert_load_histogram(model, sequences, corpus_label=os.path.basename(args.data))
    print(report.render())
    if args.out:
        with atomic_write(args.out) as f:
            json.dump(report.to_json_obj(), f, sort_keys=True)
            f.write("\n")
        print(f"wrote routing report to {args.out}")
    return EXIT_OK


VERIFY_GRID = ((2, 2), (4, 2), (4, 3), (8, 2), (8, 3), (8, 6))


def _verify_table(seed: int, moe):
    """(name, bound, measurement) rows of the invariant suite; ``moe`` is the
    model for the gate-sum row, upcycled fresh when None."""
    cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size, d_model=32, n_layers=2,
                      n_heads=4, d_ff=64, max_seq_len=32)
    dense = build_dense_model(cfg, seed=seed)
    if moe is None:
        moe = upcycle_dense_to_moe(dense, MoEConfig(), seed=seed)
    rng = np.random.default_rng(seed)
    inputs = [rng.integers(0, cfg.vocab_size, size=12).tolist() for _ in range(10)]
    gc_cfg = ModelConfig(vocab_size=17, d_model=16, n_layers=2, n_heads=2, d_ff=20,
                         max_seq_len=12)
    gc_tokens = rng.integers(0, gc_cfg.vocab_size, size=8).tolist()
    return (
        ("init-equivalence", 1e-5, lambda: iv.init_equivalence_check(dense, VERIFY_GRID,
                                                                     inputs, seed)),
        ("gate-sum", 1e-5, lambda: iv.gate_sum_check(moe, seed, batches=10)),
        ("gradient-check", 1e-3, lambda: max(iv.gradient_check(
            gc_cfg, gc_tokens, [0] + [1] * 7, seed, n_probes=40).values())),
        ("ensemble-identity", 1e-5, lambda: max(
            iv.ensemble_identity_check(a / 10.0, seed=seed, n_inputs=20) for a in range(11))),
        ("ewa-oracle", 1e-6, iv.ewa_closed_form_check),
    )


def cmd_verify(args) -> int:
    moe = _load_model(args.ckpt, moe=True) if args.ckpt else None
    failures = 0
    for name, bound, measure in _verify_table(args.seed, moe):
        worst = measure()
        passed = worst < bound
        print(f"{'PASS' if passed else 'FAIL'} {name}: worst {worst:.2e}, bound {bound:.0e}")
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
        if "seed" in vars(args):  # resolved before any file is read or written
            args.seed = _seed_of(args)
        return _HANDLERS[args.command](args)
    except (CheckpointError, DatasetError, OSError, TrainingDiverged, FloatingPointError,
            ValueError) as e:  # ValueError covers JSONDecodeError and invalid input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
