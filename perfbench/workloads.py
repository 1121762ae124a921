"""The benchmark's workloads: seeded inputs, set-up, a closed loop, checks.

Every workload drives the public API that the ``xft`` CLI commands wrap, from
one process and one caller: the next operation starts when the previous one
has returned.

- ``moe-sft`` fine-tunes the upcycled 8-expert/top-6 MoE on short grammar
  examples at batch 8 (``sft_train``). Experts, dispatch, the router, the
  autodiff tape and AdamW over 8x FFN parameters do most of the work.
- ``merge-long`` learns the mixing coefficients (``learn_mixing_coefficients``,
  shared rate 0.75) on examples that run to ``max_seq_len``. The merged dense
  FFN and attention dominate; no token is routed and only the mixing logits
  are optimised, so MoE and optimizer changes should leave it unchanged.
- ``serve`` is forward only: held-out scoring (``dataset_loss``) and
  fixed-length greedy decoding (``generate_greedy``) on the MoE and on its
  ``merge_xft`` dense model, interleaved so both see the same machine.

A training operation is one optimizer step; a serve operation is one round
of an eval chunk and a decode request on each model.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import xft.checkpoint as ckpt
import xft.dataset as ds
import xft.merge as mg
import xft.model as md
import xft.moe as mo
import xft.train as tr

import corpus
from spans import Recorder


@dataclass(frozen=True)
class Sizes:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 256
    n_experts: int = 8
    top_k: int = 6
    shared_rate: float = 0.75
    batch: int = 8
    warm_examples: int = 160   # one epoch of dense warm start before upcycling
    warm_lr: float = 1e-3
    drift: float = 0.03        # std step of the per-expert weight noise, see _drift
    short_examples: int = 104  # moe-sft: 13 steps per epoch
    sft_epochs: int = 2
    sft_lr: float = 2e-4       # the CLI's train-moe default
    long_examples: int = 48    # merge-long: 6 steps per epoch
    long_pairs: int = 8        # grammar pairs per long example: overflows 256 tokens
    merge_epochs: int = 4
    merge_lr: float = 2e-2     # the CLI's learn-merge default
    heldout: int = 128
    eval_chunk: int = 2
    prompts: int = 10
    max_new: int = 10
    min_ops: int = 100         # at least ten samples above p90
    setup_reps: int = 15
    warmup_steps: int = 3


# The seed picks the data, the held-out set, the prompts and the batch order.
# The starting weights come from this fixed seed, so that ``loss_end`` varies
# across seeds only with the data.
MODEL_SEED = 0

FULL = Sizes()
QUICK = Sizes(d_model=16, n_heads=2, d_ff=32, max_seq_len=64, n_experts=4, top_k=3, batch=4,
              warm_examples=16, short_examples=16, sft_lr=1e-2, long_examples=8, long_pairs=3,
              merge_epochs=3, heldout=8, eval_chunk=2, prompts=3, max_new=4, min_ops=1,
              setup_reps=2, warmup_steps=1)


@dataclass
class Cycle:
    """One repetition of a workload's unit of work."""

    op_ms: list[float] = field(default_factory=list)
    tokens: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    detail: dict = field(default_factory=dict)


class Tally:
    """Operations and correctness checks, attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _gate_sums(decisions) -> list[float]:
    gates = getattr(decisions, "gates", None)
    if gates is not None:
        return np.asarray(gates, dtype=np.float64).sum(axis=-1).ravel().tolist()
    return [float(np.sum(d.gates, dtype=np.float64)) for d in decisions]


def check_gate_sums(tally: Tally, model, examples) -> None:
    """Gates of real ``MoELayer.forward`` decisions sum to 1 within 1e-5."""
    sums: list[float] = []
    layers = [block.slot for block in model.blocks]
    for layer in layers:
        def recording(u, *args, _forward=layer.forward, **kwargs):
            h, decisions = _forward(u, *args, **kwargs)
            sums.extend(_gate_sums(decisions))
            return h, decisions
        layer.forward = recording
    try:
        tr.dataset_loss(model, examples)
    except Exception as e:  # a check that raises is a failed check
        tally.check("gate_sum", False, f"raised {e!r}")
        return
    finally:
        for layer in layers:
            del layer.forward
    worst = max((abs(s - 1.0) for s in sums), default=math.inf)
    tally.check("gate_sum", worst <= 1e-5, f"{len(sums)} decisions, max |sum-1| = {worst:.2e}")


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.tok = tr.ByteTokenizer()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def config(self) -> dict:
        s = self.sizes
        return {"model": self.model_cfg().to_dict(),
                "moe": {"n_experts": s.n_experts, "top_k": s.top_k},
                "workload": {k: v for k, v in vars(s).items()
                             if k not in ("d_model", "n_layers", "n_heads", "d_ff", "max_seq_len",
                                          "n_experts", "top_k")}}

    def model_cfg(self) -> md.ModelConfig:
        s = self.sizes
        return md.ModelConfig(vocab_size=tr.ByteTokenizer.vocab_size, d_model=s.d_model,
                              n_layers=s.n_layers, n_heads=s.n_heads, d_ff=s.d_ff,
                              max_seq_len=s.max_seq_len)

    # -- inputs, made once per run and not timed --------------------------
    def examples(self, pairs) -> list[tr.InstructionExample]:
        return [tr.InstructionExample(i, o) for i, o in pairs]

    def upcycled(self, drift: bool):
        """Dense model warm-started on grammar data, then upcycled to an MoE."""
        s = self.sizes
        dense = md.build_dense_model(self.model_cfg(), seed=MODEL_SEED)
        warm = self.examples(corpus.grammar_pairs(s.warm_examples, self.rng))
        steps = math.ceil(len(warm) / s.batch)
        tr.sft_train(dense, warm, tr.TrainHyper(batch_size=s.batch, peak_lr=s.warm_lr,
                                                 warmup_steps=steps // 10, seed=self.seed))
        moe = mo.upcycle_dense_to_moe(dense, mo.MoEConfig(n_experts=s.n_experts, top_k=s.top_k),
                                      seed=MODEL_SEED + 1)
        if drift:
            self._drift(moe)
        return moe

    def _drift(self, moe) -> None:
        """Move each normal expert away from the shared one, expert i by noise
        of std ``drift * i``, as fine-tuning does; with identical experts the
        mixing coefficients would get no gradient."""
        rng = np.random.default_rng([MODEL_SEED, 2])
        for block in moe.blocks:
            for i, expert in enumerate(block.slot.experts[1:], start=1):
                for t in expert.tensors().values():
                    t.data += rng.normal(0.0, self.sizes.drift * i, t.shape).astype(t.data.dtype)

    def n_tokens(self, ex: tr.InstructionExample) -> int:
        """Positions the model runs for one example (all tokens but the last)."""
        enc = tr.tokenize_and_mask(ex, self.tok, self.sizes.max_seq_len)
        return 0 if enc is None else len(enc[0]) - 1

    # -- the interface the runner drives ------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def cycle(self, rec: Recorder | None) -> Cycle:
        raise NotImplementedError

    def check(self, tally: Tally, cycles: list[Cycle]) -> float:
        """Run the correctness checks; return the workload's ``loss_end``."""
        raise NotImplementedError

    def report(self, cycles: list[Cycle]) -> list[str]:
        return []


class Training(Workload):
    """A cycle is one seeded training job, started afresh from the loaded
    inputs, so every job does identical work and yields the same curve."""

    data_file = ""

    def setup(self) -> None:
        self.data = ds.load_instruction_dataset(self.path(self.data_file))
        self.model = ckpt.load_checkpoint(self.path("moe.xftc"))

    def hyper(self, n_examples: int, epochs: int) -> tr.TrainHyper:
        total = epochs * math.ceil(n_examples / self.sizes.batch)
        return tr.TrainHyper(batch_size=self.sizes.batch, peak_lr=self.lr,
                             warmup_steps=total // 10, epochs=epochs, seed=self.seed)

    def fresh_model(self):
        return self.model

    def train(self, model, examples, hyper, post_step) -> list[float]:
        raise NotImplementedError

    def warmup(self) -> None:
        self.job_tokens = self.epochs * sum(self.n_tokens(ex) for ex in self.data)
        n = self.sizes.warmup_steps * self.sizes.batch
        self.train(self.fresh_model(), self.data[:n], self.hyper(n, 1), None)

    def cycle(self, rec: Recorder | None) -> Cycle:
        out = Cycle()
        stamps: list[float] = []

        def post_step(step: int) -> None:
            now = time.perf_counter()
            if rec is not None:
                rec.group("train.step", stamps[-1], now)
            stamps.append(now)

        hyper = self.hyper(len(self.data), self.epochs)
        model = self.fresh_model()
        stamps.append(time.perf_counter())
        try:
            curve = self.train(model, self.data, hyper, post_step)
        except Exception:  # a step that raises or diverges is a failed operation
            traceback.print_exc()
            out.failed = 1
            curve = []
        out.wall_s = time.perf_counter() - stamps[0]
        out.op_ms = [_ms(b - a) for a, b in zip(stamps, stamps[1:])]
        out.attempted = len(out.op_ms) + out.failed
        out.tokens = self.job_tokens if not out.failed else 0
        out.detail["curve"] = curve
        return out

    def check(self, tally: Tally, cycles: list[Cycle]) -> float:
        curves = [c.detail["curve"] for c in cycles if not c.failed]
        curve = curves[0] if curves else []
        finite = bool(curve) and all(math.isfinite(v) for v in curve)
        tally.check("loss_finite", finite, f"{len(curve)} steps")
        per_epoch = len(curve) // self.epochs if curve else 0
        first = float(np.mean(curve[:per_epoch])) if per_epoch else math.nan
        last = float(np.mean(curve[-per_epoch:])) if per_epoch else math.nan
        tally.check("loss_falls", last < first, f"first epoch {first:.4f}, last epoch {last:.4f}")
        tally.check("jobs_repeat", len(curves) > 1 and all(c == curve for c in curves),
                    f"{len(curves)} jobs give the same loss curve")
        return last


class MoESFT(Training):
    name = "moe-sft"
    data_file = "short.jsonl"

    def __init__(self, *args):
        super().__init__(*args)
        self.epochs = self.sizes.sft_epochs
        self.lr = self.sizes.sft_lr

    def generate(self) -> None:
        moe = self.upcycled(drift=False)
        ckpt.save_checkpoint(moe, self.path("moe.xftc"), meta={"phase": "upcycled"})
        ds.save_instruction_dataset(
            self.examples(corpus.grammar_pairs(self.sizes.short_examples, self.rng)),
            self.path(self.data_file))

    def fresh_model(self):
        self.trained = self.model.copy()
        return self.trained

    def train(self, model, examples, hyper, post_step) -> list[float]:
        return tr.sft_train(model, examples, hyper, post_step=post_step)

    def check(self, tally: Tally, cycles: list[Cycle]) -> float:
        loss_end = super().check(tally, cycles)
        check_gate_sums(tally, self.trained, self.data[: self.sizes.batch])
        return loss_end


class MergeLong(Training):
    name = "merge-long"
    data_file = "long.jsonl"

    def __init__(self, *args):
        super().__init__(*args)
        self.epochs = self.sizes.merge_epochs
        self.lr = self.sizes.merge_lr

    def generate(self) -> None:
        moe = self.upcycled(drift=True)
        ckpt.save_checkpoint(moe, self.path("moe.xftc"), meta={"phase": "moe-sft"})
        ds.save_instruction_dataset(
            self.examples(corpus.long_pairs(self.sizes.long_examples, self.sizes.long_pairs,
                                            self.rng)),
            self.path(self.data_file))

    def train(self, model, examples, hyper, post_step) -> list[float]:
        self.coeffs, curve = mg.learn_mixing_coefficients(
            model, examples, self.sizes.shared_rate, hyper, post_step=post_step)
        return curve

    def check(self, tally: Tally, cycles: list[Cycle]) -> float:
        loss_end = super().check(tally, cycles)
        alphas = [self.coeffs.alphas(i) for i in range(self.coeffs.n_layers)]
        worst = max(abs(float(a.sum()) - 1.0) for a in alphas)
        pinned = all(a[0] == self.sizes.shared_rate for a in alphas)
        tally.check("coefficient_simplex", worst < 1e-6 and pinned,
                    f"max |sum-1| = {worst:.1e}, shared rate pinned: {pinned}")
        return loss_end


class Serve(Workload):
    """A cycle is one pass over the prompts; each round scores one held-out
    chunk and decodes one prompt on the MoE, then on the merged model."""

    name = "serve"

    def generate(self) -> None:
        moe = self.upcycled(drift=True)
        ckpt.save_checkpoint(moe, self.path("moe.xftc"), meta={"phase": "moe-sft"})
        ds.save_instruction_dataset(
            self.examples(corpus.grammar_pairs(self.sizes.heldout, self.rng)),
            self.path("heldout.jsonl"))

    def setup(self) -> None:
        s = self.sizes
        self.heldout = ds.load_instruction_dataset(self.path("heldout.jsonl"))
        self.moe = ckpt.load_checkpoint(self.path("moe.xftc"))
        coeffs = mg.init_mixing_coefficients(s.n_experts, s.n_layers, s.shared_rate)
        self.merged_in_memory = mg.merge_xft(self.moe, coeffs)
        ckpt.save_checkpoint(self.merged_in_memory, self.path("merged.xftc"),
                             meta={"phase": "merged", "mode": "xft"})
        self.merged = ckpt.load_checkpoint(self.path("merged.xftc"))

    def warmup(self) -> None:
        s = self.sizes
        h = self.heldout
        self.chunks = [h[i:i + s.eval_chunk] for i in range(0, len(h), s.eval_chunk)]
        self.chunk_tokens = [sum(self.n_tokens(ex) for ex in c) for c in self.chunks]
        self.prompts = [[self.tok.BOS] + self.tok.encode(ex.instruction) + [self.tok.SEP]
                        for ex in h[: s.prompts]]
        self.first_output: dict[tuple[str, int], list[int]] = {}
        self.repeat_mismatches = 0
        self.wrong_length = 0
        self.models = (("moe", self.moe), ("merged", self.merged))
        for i in range(min(2, len(self.prompts))):
            self.round(i, Cycle(), record=False)

    def round(self, i: int, out: Cycle, record: bool = True) -> None:
        chunk = i % len(self.chunks)
        prompt = self.prompts[i]
        t_round = time.perf_counter()
        for label, model in self.models:
            out.attempted += 2
            t0 = time.perf_counter()
            try:
                tr.dataset_loss(model, self.chunks[chunk])
                out.tokens += self.chunk_tokens[chunk]
            except Exception:
                traceback.print_exc()
                out.failed += 1
            t1 = time.perf_counter()
            try:
                seq = md.generate_greedy(model, prompt, self.sizes.max_new)
            except Exception:
                traceback.print_exc()
                out.failed += 1
                seq = None
            t2 = time.perf_counter()
            if seq is not None:
                out.tokens += len(seq) - len(prompt)
                if len(seq) != len(prompt) + self.sizes.max_new:
                    out.failed += 1
                    self.wrong_length += record
                if record:
                    first = self.first_output.setdefault((label, i), seq)
                    self.repeat_mismatches += first != seq
            if record:
                out.detail.setdefault(f"{label}_eval_s", []).append(t1 - t0)
                out.detail.setdefault(f"{label}_eval_tokens", []).append(self.chunk_tokens[chunk])
                out.detail.setdefault(f"{label}_decode_ms", []).append(_ms(t2 - t1))
        out.op_ms.append(_ms(time.perf_counter() - t_round))

    def cycle(self, rec: Recorder | None) -> Cycle:
        out = Cycle()
        t0 = time.perf_counter()
        for i in range(len(self.prompts)):
            t_start = time.perf_counter()
            self.round(i, out)
            if rec is not None:
                rec.group("serve.round", t_start, time.perf_counter())
        out.wall_s = time.perf_counter() - t0
        return out

    def check(self, tally: Tally, cycles: list[Cycle]) -> float:
        requests = sum(len(c.op_ms) for c in cycles) * len(self.models)
        tally.check("decode_length", self.wrong_length == 0,
                    f"{self.wrong_length} of {requests} requests off prompt + {self.sizes.max_new}")
        repeats = requests - len(self.first_output)
        tally.check("decode_repeat", repeats > 0 and self.repeat_mismatches == 0,
                    f"{self.repeat_mismatches} of {repeats} repeated requests differ")
        try:
            in_memory = tr.dataset_loss(self.merged_in_memory, self.heldout)
            reloaded = tr.dataset_loss(self.merged, self.heldout)
        except Exception as e:  # a check that raises is a failed check
            in_memory = reloaded = math.nan
            print(f"held-out scoring raised {e!r}", file=sys.stderr)
        tally.check("merged_reload", in_memory == reloaded,
                    f"held-out loss {in_memory:.6f} in memory, {reloaded:.6f} reloaded")
        tally.check("loss_finite", math.isfinite(reloaded), f"merged held-out loss {reloaded}")
        check_gate_sums(tally, self.moe, self.heldout[: self.sizes.eval_chunk])
        return reloaded

    def report(self, cycles: list[Cycle]) -> list[str]:
        """The paper's cost row: MoE over merged, with both bases."""

        def pooled(key):
            return [v for c in cycles for v in c.detail.get(key, [])]

        row = {}
        for label, _ in self.models:
            row[f"{label}_eval_tok_s"] = sum(pooled(f"{label}_eval_tokens")) / sum(pooled(f"{label}_eval_s"))
            decode = pooled(f"{label}_decode_ms")
            row[f"{label}_decode_ms_p50"] = float(np.percentile(decode, 50))
            row[f"{label}_decode_ms_p90"] = float(np.percentile(decode, 90))
            row[f"{label}_requests"] = len(decode)
        lines = [f"cost row ({row['moe_requests']} requests per model):"]
        for key, unit in (("eval_tok_s", "tok/s"), ("decode_ms_p50", "ms"), ("decode_ms_p90", "ms")):
            moe, merged = row[f"moe_{key}"], row[f"merged_{key}"]
            lines.append(f"  {key}: moe {moe:.4g} {unit} / merged {merged:.4g} {unit} = {moe / merged:.3f}")
        return lines


WORKLOADS = {cls.name: cls for cls in (MoESFT, MergeLong, Serve)}
