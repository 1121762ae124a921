"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``xft`` modules from outside the
package: each wrapped call becomes a span (name, start, end, parent), and a
few wrappers also bump counters. Every public ``xft.tensor`` op (a public
function annotated to return a Tensor) is wrapped with a call counter only.
``install`` patches, ``uninstall`` restores the originals; nothing inside
``src/xft`` changes.

Functions imported by name into another module are separate bindings, so a
target names the namespace it patches. That is what splits
``xft.model.ffn_forward`` (called by dense slots) from ``xft.moe.ffn_forward``
(called per expert) although both bind the same function.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict


def _rows(x) -> int:
    return int(x.shape[0])


def _count_generate(rec, args, kwargs, result):
    prompt = kwargs.get("prompt", args[1] if len(args) > 1 else ())
    rec.counts["decode.new_tokens"] += len(result) - len(prompt)


def _count_logits(rec, args, kwargs, result):
    if rec.inside("model.generate"):
        rec.counts["decode.prefix_tokens"] += len(args[1])


def _count_moe_forward(rec, args, kwargs, result):
    rec.counts["moe.rows"] += _rows(args[1])


def _count_experts(rec, args, kwargs, result):
    rec.counts["moe.expert_rows"] += _rows(args[0])


def _count_ckpt_load(rec, args, kwargs, result):
    rec.counts["checkpoint.bytes"] += os.path.getsize(args[0])


def _count_ckpt_save(rec, args, kwargs, result):
    rec.counts["checkpoint.bytes"] += os.path.getsize(args[1])


# (span name, module, attribute or Class.method, counter hook)
TARGETS = [
    ("dataset.load", "xft.dataset", "load_instruction_dataset", None),
    ("checkpoint.load", "xft.checkpoint", "load_checkpoint", _count_ckpt_load),
    ("checkpoint.save", "xft.checkpoint", "save_checkpoint", _count_ckpt_save),
    ("merge.merge_xft", "xft.merge", "merge_xft", None),
    ("train.dataset_loss", "xft.train", "dataset_loss", None),
    ("model.generate", "xft.model", "generate_greedy", _count_generate),
    ("model.forward_loss", "xft.model", "model_forward_loss", None),
    ("model.forward_loss", "xft.train", "model_forward_loss", None),
    ("model.forward_loss", "xft.merge", "model_forward_loss", None),
    ("model.logits", "xft.model", "Transformer.logits", _count_logits),
    ("model.attention", "xft.model", "attention_forward", None),
    ("model.dense_ffn", "xft.model", "ffn_forward", None),
    ("moe.forward", "xft.moe", "MoELayer.forward", _count_moe_forward),
    ("moe.router", "xft.moe", "MoELayer.normal_affinities", None),
    ("moe.experts", "xft.moe", "ffn_forward", _count_experts),
    ("tensor.backward", "xft.tensor", "backward", None),
    ("train.clip", "xft.train", "clip_global_norm", None),
    ("train.optimizer", "xft.train", "AdamW.step", None),
]


def tensor_ops(module) -> dict:
    """Public functions of ``xft.tensor`` annotated to return a Tensor."""
    ops = {}
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        if fn.__annotations__.get("return") in ("Tensor", getattr(module, "Tensor", None)):
            ops[name] = fn
    return ops


class Recorder:
    """Spans in parallel lists, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._group_from = 0
        self._undo: list = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def group(self, name: str, start: float, end: float) -> None:
        """Record a span that closes after its children, such as a training
        step delimited by ``post_step`` timestamps, and adopt the top-level
        spans recorded since the previous group as its children."""
        idx = len(self.names)
        for i in range(self._group_from, idx):
            if self.parents[i] == -1:
                self.parents[i] = idx
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        self._group_from = idx + 1

    def wrap(self, name: str, fn, hook=None):
        rec = self

        def traced(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_op(self, fn):
        rec = self

        def counted(*args, **kwargs):
            rec.ops += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        self.missing = []
        for name, module_name, path, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._set(owner, attr, self.wrap(name, owner.__dict__[attr], hook))

        tensor = importlib.import_module("xft.tensor")
        counted = {id(fn): self._count_op(fn) for fn in tensor_ops(tensor).values()}
        for attr, fn in tensor_ops(tensor).items():
            self._set(tensor, attr, counted[id(fn)])
        # Default arguments captured an op at import time (``activation=tn.gelu``);
        # point them at the counting wrapper so those calls are counted too.
        for fn in self._xft_functions():
            if fn.__defaults__ and any(id(d) in counted for d in fn.__defaults__):
                self._undo.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(counted.get(id(d), d) for d in fn.__defaults__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @staticmethod
    def _xft_functions():
        seen = set()
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "xft" or module_name.startswith("xft.")):
                continue
            for value in list(vars(module).values()):
                members = vars(value).values() if inspect.isclass(value) else (value,)
                for fn in members:
                    fn = inspect.unwrap(fn) if inspect.isfunction(fn) else None
                    if fn is not None and fn.__module__ and fn.__module__.startswith("xft") \
                            and id(fn) not in seen:
                        seen.add(id(fn))
                        yield fn

    # -- summaries -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus children)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - child[i])
        return out

    def to_json_obj(self) -> dict:
        t0 = min(self.starts, default=0.0)
        return {
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[n, round(1e6 * (s - t0), 1), round(1e6 * (e - t0), 1), p]
                      for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)],
            "counts": dict(self.counts, **{"tensor.ops": self.ops}),
            "summary": self.summary(),
            "missing_targets": self.missing,
        }
