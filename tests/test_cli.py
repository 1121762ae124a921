"""Command-line pipeline: exit codes, artifacts, determinism."""

import argparse
import ast
import dataclasses
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from xft.checkpoint import load_checkpoint, read_checkpoint_config, save_checkpoint
from xft import cli
from xft.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, build_parser, cli_dispatch
from xft.dataset import save_instruction_dataset
from xft.merge import EWA_SCHEDULES, init_mixing_coefficients
from xft.model import ModelConfig, build_dense_model
from xft.moe import MoEConfig
from xft.train import ByteTokenizer, InstructionExample, TrainHyper

MODEL_FLAGS = ["--d-model", "16", "--layers", "2", "--heads", "2", "--d-ff", "20",
               "--seq-len", "48"]


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data.jsonl"
    words = ["sun", "moon", "tide", "rain"]
    examples = [InstructionExample(f"describe {words[i % 4]} {i}", words[(i + 1) % 4])
                for i in range(12)]
    save_instruction_dataset(examples, str(data))
    dense = tmp_path / "dense.xftc"
    assert cli_dispatch(["init", "--out", str(dense), "--seed", "3", *MODEL_FLAGS]) == EXIT_OK
    return tmp_path, str(dense), str(data)


def run(*argv) -> int:
    return cli_dispatch(list(argv))


def subcommands() -> dict:
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("explode") == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("init", "--out", "x", "--bogus") == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert run("init") == EXIT_USAGE

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("xft ")]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_help_description_names_the_subcommands(self):
        """``xft --help`` opens with the module docstring's command list."""
        listed = re.match(r"Pipeline command line: (.*?)\.\n", cli.__doc__, flags=re.S)
        names = [n.strip() for n in listed.group(1).split(",")]
        assert sorted(names) == sorted(subcommands())

    def test_every_declared_flag_is_read(self):
        """Each subcommand's handler, or a module function it hands ``args``
        to, reads every dest its parser declares."""
        tree = ast.parse(inspect.getsource(cli))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def reads(name, seen):
            seen.add(name)
            found = set()
            for node in ast.walk(functions[name]):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "args" and isinstance(node.ctx, ast.Load)):
                    found.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in functions and node.func.id not in seen
                      and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                    found |= reads(node.func.id, seen)
            return found

        unread = {}
        for command, sub in subcommands().items():
            declared = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
            missing = declared - reads(cli._HANDLERS[command].__name__, set())
            if missing:
                unread[command] = sorted(missing)
        assert unread == {}


class TestIOErrors:
    def test_missing_checkpoint_is_io_error(self, tmp_path, capsys):
        assert run("eval-loss", "--ckpt", str(tmp_path / "nope.xftc"),
                   "--data", str(tmp_path / "nope.jsonl")) == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_malformed_dataset_is_io_error(self, workspace, capsys):
        tmp_path, dense, _ = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run("eval-loss", "--ckpt", dense, "--data", str(bad)) == EXIT_IO
        assert ":1:" in capsys.readouterr().err

    def test_upcycle_rejects_moe_checkpoint(self, workspace, capsys):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        assert run("upcycle", "--ckpt", str(moe), "--out", str(tmp_path / "x.xftc")) == EXIT_IO
        assert "dense" in capsys.readouterr().err

    def test_train_moe_rejects_dense_checkpoint(self, workspace):
        tmp_path, dense, data = workspace
        assert run("train-moe", "--ckpt", dense, "--data", data,
                   "--out", str(tmp_path / "x.xftc")) == EXIT_IO

    @pytest.mark.parametrize("command, flags, field", [
        ("train-sft", ("--batch-size", "0"), "batch_size"),
        ("train-moe", ("--batch-size", "0"), "batch_size"),
        ("learn-merge", ("--batch-size", "0"), "batch_size"),
        ("train-sft", ("--lr", "nan"), "peak_lr"),
        ("upcycle", ("--router-std", "nan"), "router_init_std"),
    ], ids=["train-sft-batch-0", "train-moe-batch-0", "learn-merge-batch-0", "train-sft-lr-nan",
            "upcycle-router-std-nan"])
    def test_invalid_number_writes_nothing(self, workspace, capsys, command, flags, field):
        tmp_path, dense, data = workspace
        ckpt, out = dense, tmp_path / "out"
        if command in ("train-moe", "learn-merge"):
            ckpt = str(tmp_path / "moe.xftc")
            run("upcycle", "--ckpt", dense, "--out", ckpt, "--experts", "4", "--topk", "3")
        data_flags = () if command == "upcycle" else ("--data", data)
        assert run(command, "--ckpt", ckpt, "--out", str(out), *data_flags, *flags) == EXIT_IO
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("env, flags, source", [
        ("-1", (), "XFT_SEED"),
        ("abc", (), "XFT_SEED"),
        (None, ("--seed", "-3"), "--seed"),
        *((text, (), "XFT_SEED") for text in (" 1_0 ", "1_0", "+3", "\u0661")),
        *((None, ("--seed", text), "--seed") for text in (" 1_0 ", "1_0", "+3", "\u0661")),
    ], ids=["env-negative", "env-not-a-number", "flag-negative",
            *(f"{side}-{case}" for side in ("env", "flag")
              for case in ("spaced-underscore", "underscore", "plus", "arabic-indic-one"))])
    def test_invalid_seed_names_its_source(self, tmp_path, monkeypatch, capsys,
                                           env, flags, source):
        if env is not None:
            monkeypatch.setenv("XFT_SEED", env)
        out = tmp_path / "out.xftc"
        # the checkpoint does not exist: the seed is checked before it is read
        assert run("upcycle", "--ckpt", str(tmp_path / "missing.xftc"), "--out", str(out),
                   *flags) == EXIT_IO
        assert f"{source} must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_init_rejects_sequence_too_short_for_an_output(self, tmp_path, capsys):
        out = tmp_path / "short.xftc"
        assert run("init", "--out", str(out), *MODEL_FLAGS, "--seq-len", "3") == EXIT_IO
        assert "at least 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sequence_too_short_for_an_output_writes_nothing(self, workspace, capsys):
        tmp_path, _, data = workspace
        short, out, curve = (tmp_path / name for name in ("short.xftc", "out.xftc", "c.json"))
        cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size, d_model=16, n_layers=2,
                          n_heads=2, d_ff=20, max_seq_len=3)  # init refuses this length
        save_checkpoint(build_dense_model(cfg, seed=3), str(short))
        assert run("train-sft", "--ckpt", str(short), "--data", data, "--out", str(out),
                   "--curve", str(curve)) == EXIT_IO
        assert "at least 4" in capsys.readouterr().err
        assert not out.exists() and not curve.exists()

    @pytest.mark.parametrize("command, holds, flags", [
        ("train-sft", "an MoE", ("--data", "DATA", "--out", "OUT")),
        ("upcycle", "an MoE", ("--out", "OUT")),
        ("train-moe", "a dense", ("--data", "DATA", "--out", "OUT")),
        ("learn-merge", "a dense", ("--data", "MISSING", "--out", "OUT")),
        ("merge", "a dense", ("--out", "OUT")),
        ("route-stats", "a dense", ("--data", "DATA", "--out", "OUT")),
        ("verify", "a dense", ()),
    ], ids=["train-sft-on-moe", "upcycle-on-moe", "train-moe-on-dense", "learn-merge-on-dense",
            "merge-on-dense", "route-stats-on-dense", "verify-on-dense"])
    def test_wrong_model_kind_writes_nothing(self, workspace, capsys, command, holds, flags):
        # the checkpoint is checked when it is loaded, before the dataset is read
        tmp_path, dense, data = workspace
        ckpt, out = dense, tmp_path / "out"
        if holds == "an MoE":
            ckpt = str(tmp_path / "moe.xftc")
            run("upcycle", "--ckpt", dense, "--out", ckpt, "--experts", "4", "--topk", "3")
        argv = [{"DATA": data, "MISSING": str(tmp_path / "missing.jsonl"), "OUT": str(out)}.get(a, a)
                for a in flags]
        assert run(command, "--ckpt", ckpt, *argv) == EXIT_IO
        assert f"{ckpt!r} holds {holds} model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-sft", "train-moe", "learn-merge"])
    def test_unwritable_out_leaves_no_curve(self, workspace, capsys, command):
        tmp_path, dense, data = workspace
        ckpt, curve = dense, tmp_path / "curve.json"
        if command != "train-sft":
            ckpt = str(tmp_path / "moe.xftc")
            run("upcycle", "--ckpt", dense, "--out", ckpt, "--experts", "4", "--topk", "3")
        assert run(command, "--ckpt", ckpt, "--data", data, "--epochs", "1",
                   "--batch-size", "4", "--out", str(tmp_path / "missing" / "out"),
                   "--curve", str(curve)) == EXIT_IO
        assert "missing" in capsys.readouterr().err
        assert not curve.exists()

    @pytest.mark.parametrize("command, target", [
        ("learn-merge", "OUT"), ("train-sft", "CURVE"), ("learn-merge", "CURVE"),
        ("route-stats", "OUT")])
    def test_json_write_failing_midway_keeps_the_previous_file(self, workspace, capsys,
                                                               monkeypatch, command, target):
        # a dump that has written part of its text and then fails leaves the
        # target as it was, and no temp file beside it
        tmp_path, dense, data = workspace
        ckpt = dense
        if command != "train-sft":
            ckpt = str(tmp_path / "moe.xftc")
            run("upcycle", "--ckpt", dense, "--out", ckpt, "--experts", "4", "--topk", "3")
        paths = {"OUT": tmp_path / "out.json", "CURVE": tmp_path / "curve.json"}
        paths[target].write_text("previous contents\n", encoding="utf-8")
        argv = ["--ckpt", ckpt, "--data", data, "--out", str(paths["OUT"])]
        if command != "route-stats":
            argv += ["--epochs", "1", "--batch-size", "4", "--curve", str(paths["CURVE"])]
        if command == "train-sft":
            argv[5] = str(tmp_path / "sft.xftc")
        real_dump, calls = json.dump, []

        def dump(obj, f, **kwargs):
            calls.append(obj)
            if len(calls) == (2 if command == "learn-merge" and target == "CURVE" else 1):
                f.write('{"partial": ')
                raise OSError(28, "No space left on device")
            real_dump(obj, f, **kwargs)

        monkeypatch.setattr(json, "dump", dump)
        assert run(command, *argv) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert paths[target].read_text(encoding="utf-8") == "previous contents\n"
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_init_into_missing_directory_is_io_error(self, tmp_path, capsys):
        assert run("init", "--out", str(tmp_path / "missing" / "d.xftc")) == EXIT_IO
        assert "cannot write checkpoint" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_init_onto_a_directory_leaves_no_temp_file(self, tmp_path, capsys):
        # the temp file is written, then cannot replace a directory
        target = tmp_path / "taken"
        target.mkdir()
        assert run("init", "--out", str(target)) == EXIT_IO
        assert "cannot write checkpoint" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    @pytest.mark.parametrize("raw, message", [
        (b'["describe", "sun"]\n', ":1: expected a JSON object"),
        (b'{"instruction": "a", "output": 3}\n', ":1: field 'output' must be a string"),
        (b'{"instruction": "caf\xe9", "output": "b"}\n', "cannot read dataset"),
    ], ids=["json-array", "field-not-a-string", "not-utf-8"])
    def test_bad_dataset_writes_nothing(self, workspace, capsys, raw, message):
        tmp_path, dense, _ = workspace
        bad, out, curve = (tmp_path / name for name in ("bad.jsonl", "out.xftc", "c.json"))
        bad.write_bytes(raw)
        assert run("train-sft", "--ckpt", dense, "--data", str(bad), "--out", str(out),
                   "--curve", str(curve)) == EXIT_IO
        assert message in capsys.readouterr().err
        assert not out.exists() and not curve.exists()

    def test_generate_stops_the_completion_at_eos(self, workspace, capsys, monkeypatch):
        _, dense, _ = workspace
        tok = ByteTokenizer()
        monkeypatch.setattr(cli, "generate_greedy", lambda model, prompt, max_new:
                            prompt + tok.encode("ok") + [tok.EOS] + tok.encode("no"))
        assert run("generate", "--ckpt", dense, "--prompt", "hi") == EXIT_OK
        assert capsys.readouterr().out == "ok\n"

    def test_negative_max_new_is_io_error(self, workspace, capsys):
        _, dense, _ = workspace
        assert run("generate", "--ckpt", dense, "--prompt", "hi", "--max-new", "-5") == EXIT_IO
        assert "max_new" in capsys.readouterr().err


def merge_with_coeffs(workspace, mode, obj, *flags) -> int:
    """Exit code of ``merge`` with ``flags`` and ``--coeffs`` on the JSON
    ``obj`` (no ``--coeffs`` when ``obj`` is None); asserts no output."""
    tmp_path, dense, _ = workspace
    moe, coeffs, out = (tmp_path / name for name in ("moe.xftc", "c.json", "merged.xftc"))
    run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "3")
    if obj is not None:
        coeffs.write_text(json.dumps(obj))
        flags += ("--coeffs", str(coeffs))
    code = run("merge", "--ckpt", str(moe), "--out", str(out), "--mode", mode, *flags)
    assert not out.exists()
    return code


def coeffs_obj(soup=False) -> dict:
    return init_mixing_coefficients(4, 2, 0.75, unconstrained=soup).to_json_obj()


class TestCoefficientFiles:
    def test_nan_logit_writes_no_checkpoint(self, workspace):
        obj = coeffs_obj()
        obj["logits"][0][0] = float("nan")
        assert merge_with_coeffs(workspace, "xft", obj) == EXIT_IO

    @pytest.mark.parametrize("value", [float("nan"), 1e308, 1e39])
    def test_logit_not_finite_in_float32_is_named_by_layer(self, workspace, capsys, value):
        obj = coeffs_obj()
        obj["logits"][1][0] = value
        assert merge_with_coeffs(workspace, "xft", obj) == EXIT_IO
        assert "logits of layer 1 are not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("soup, mode", [(False, "xft"), (True, "soup")])
    def test_coeffs_file_sets_the_recorded_mode(self, workspace, soup, mode):
        tmp_path, dense, _ = workspace
        moe, coeffs, out = (tmp_path / name for name in ("moe.xftc", "c.json", "merged.xftc"))
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "3")
        coeffs.write_text(json.dumps(coeffs_obj(soup=soup)))
        assert run("merge", "--ckpt", str(moe), "--out", str(out),
                   "--coeffs", str(coeffs)) == EXIT_OK
        assert read_checkpoint_config(str(out))["meta"] == {"phase": "merged", "mode": mode}

    @pytest.mark.parametrize("mode", ["ewa", "extract-shared", "soup"])
    def test_removed_mode_is_usage_error(self, workspace, mode):
        assert merge_with_coeffs(workspace, mode, None) == EXIT_USAGE

    def test_expert_count_unlike_the_model_is_io_error(self, workspace, capsys):
        obj = init_mixing_coefficients(8, 2, 0.75).to_json_obj()  # the model has 4 experts
        assert merge_with_coeffs(workspace, "xft", obj) == EXIT_IO
        assert "expert count does not match" in capsys.readouterr().err

    def test_row_of_wrong_length_is_io_error(self, workspace, capsys):
        obj = coeffs_obj()
        obj["logits"][1].append(0.0)
        assert merge_with_coeffs(workspace, "xft", obj) == EXIT_IO
        assert "logit shape (4,) != (3,)" in capsys.readouterr().err

    def test_missing_logits_is_io_error(self, workspace):
        obj = coeffs_obj()
        del obj["logits"]
        assert merge_with_coeffs(workspace, "xft", obj) == EXIT_IO

    # --coeffs and --lambda go only with xft, and not together
    @pytest.mark.parametrize("mode, obj, flags", [
        ("uniform", coeffs_obj(), ()),
        ("xft", coeffs_obj(), ("--lambda", "0.5")),
        ("xft", coeffs_obj(soup=True), ("--lambda", "0.5")),
        ("uniform", None, ("--lambda", "0.5")),
    ], ids=["uniform-coeffs", "xft-coeffs-lambda", "soup-coeffs-lambda", "uniform-lambda"])
    def test_flag_the_mode_ignores_is_io_error(self, workspace, mode, obj, flags):
        assert merge_with_coeffs(workspace, mode, obj, *flags) == EXIT_IO


class TestPipelineCommands:
    def test_upcycle_defaults_mirror_reference_setup(self, workspace):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        assert run("upcycle", "--ckpt", dense, "--out", str(moe), "--seed", "5") == EXIT_OK
        cfg = read_checkpoint_config(str(moe))["moe"]
        assert cfg["n_experts"] == 8 and cfg["top_k"] == 6
        assert cfg == MoEConfig().to_dict()  # the flags default to MoEConfig's fields

    def test_upcycle_is_deterministic_and_byte_identical(self, workspace):
        tmp_path, dense, _ = workspace
        a, b = tmp_path / "a.xftc", tmp_path / "b.xftc"
        for out in (a, b):
            assert run("upcycle", "--ckpt", dense, "--out", str(out), "--seed", "9",
                       "--experts", "4", "--topk", "2") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_no_normalization_flag_recorded(self, workspace):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "m.xftc"
        assert run("upcycle", "--ckpt", dense, "--out", str(moe),
                   "--no-normalization") == EXIT_OK
        assert read_checkpoint_config(str(moe))["moe"]["normalization_enabled"] is False

    def test_train_sft_writes_checkpoint_and_curve(self, workspace):
        tmp_path, dense, data = workspace
        out = tmp_path / "sft.xftc"
        curve = tmp_path / "curve.json"
        assert run("train-sft", "--ckpt", dense, "--data", data, "--out", str(out),
                   "--epochs", "1", "--batch-size", "4", "--seed", "0",
                   "--curve", str(curve)) == EXIT_OK
        assert read_checkpoint_config(str(out))["meta"]["phase"] == "sft"
        assert len(json.loads(curve.read_text())) == 3

    def test_fairness_flag_is_usage_error(self, workspace):
        # the MoE + merge budget is --epochs 5
        tmp_path, dense, data = workspace
        out = tmp_path / "fair.xftc"
        assert run("train-sft", "--ckpt", dense, "--data", data, "--out", str(out),
                   "--fairness", "--batch-size", "4") == EXIT_USAGE
        assert not out.exists()

    def test_learn_merge_then_merge(self, workspace):
        tmp_path, dense, data = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "3")
        coeffs = tmp_path / "coeffs.json"
        assert run("learn-merge", "--ckpt", str(moe), "--data", data, "--out", str(coeffs),
                   "--lambda", "0.75", "--epochs", "1", "--batch-size", "4") == EXIT_OK
        obj = json.loads(coeffs.read_text())
        assert obj["shared_rate"] == 0.75
        assert len(obj["logits"]) == 2
        merged = tmp_path / "merged.xftc"
        assert run("merge", "--ckpt", str(moe), "--out", str(merged),
                   "--mode", "xft", "--coeffs", str(coeffs)) == EXIT_OK
        assert read_checkpoint_config(str(merged))["moe"] is None

    def test_merge_lambda_one_equals_extract_shared(self, workspace):
        # --lambda 1 keeps exactly the shared expert's FFN in every layer
        tmp_path, dense, _ = workspace
        moe, out = tmp_path / "moe.xftc", tmp_path / "lam1.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "3")
        model = load_checkpoint(str(moe))
        rng = np.random.default_rng(0)
        for t in model.named_parameters().values():  # make the experts distinct
            t.data += (0.1 * rng.normal(size=t.shape)).astype(np.float32)
        save_checkpoint(model, str(moe))
        assert run("merge", "--ckpt", str(moe), "--out", str(out), "--lambda", "1.0") == EXIT_OK
        params = model.named_parameters()
        for name, t in load_checkpoint(str(out)).named_parameters().items():
            layer, ffn, key = name.partition(".ffn.")
            shared = params[f"{layer}.moe.experts.{key}"].data[0] if ffn else params[name].data
            assert np.array_equal(t.data, shared)

    def test_merge_does_not_mutate_input_checkpoint(self, workspace):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        before = moe.read_bytes()
        for mode in ("xft", "uniform"):
            assert run("merge", "--ckpt", str(moe), "--out",
                       str(tmp_path / f"{mode}.xftc"), "--mode", mode) == EXIT_OK
        assert moe.read_bytes() == before

    def test_eval_loss_prints_number(self, workspace, capsys):
        _, dense, data = workspace
        assert run("eval-loss", "--ckpt", dense, "--data", data) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("loss: ")
        float(out.split()[1])

    def test_generate_deterministic(self, workspace, capsys):
        _, dense, _ = workspace
        assert run("generate", "--ckpt", dense, "--prompt", "hi", "--max-new", "8") == EXIT_OK
        first = capsys.readouterr().out
        assert run("generate", "--ckpt", dense, "--prompt", "hi", "--max-new", "8") == EXIT_OK
        assert capsys.readouterr().out == first

    def test_route_stats_writes_report(self, workspace, capsys):
        tmp_path, dense, data = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe))
        report = tmp_path / "report.json"
        assert run("route-stats", "--ckpt", str(moe), "--data", data,
                   "--out", str(report)) == EXIT_OK
        obj = json.loads(report.read_text())
        assert obj["uniform_reference"] == pytest.approx(1 / 7)
        assert {"layer", "expert", "proportion", "count"} == set(obj["rows"][0])
        assert "uniform" in capsys.readouterr().out

    def test_train_moe_with_ewa_flags(self, workspace):
        tmp_path, dense, data = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        out = tmp_path / "ewa.xftc"
        assert run("train-moe", "--ckpt", str(moe), "--data", data, "--out", str(out),
                   "--epochs", "1", "--batch-size", "4", "--ewa-beta", "0.3") == EXIT_OK
        meta = read_checkpoint_config(str(out))["meta"]
        assert meta["ewa_beta"] == 0.3 and meta["ewa_schedule"] == "constant"

    def test_ewa_schedule_without_beta_writes_nothing(self, workspace, capsys):
        tmp_path, dense, data = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        out = tmp_path / "ewa.xftc"
        assert run("train-moe", "--ckpt", str(moe), "--data", data, "--out", str(out),
                   "--epochs", "1", "--batch-size", "4", "--ewa-schedule", "linear") == EXIT_IO
        assert "--ewa-beta" in capsys.readouterr().err
        assert not out.exists()

    def test_merge_takes_no_seed(self, workspace, monkeypatch):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        out = tmp_path / "merged.xftc"
        assert run("merge", "--ckpt", str(moe), "--out", str(out), "--seed", "5") == EXIT_USAGE
        assert not out.exists()
        monkeypatch.setenv("XFT_SEED", "abc")  # merge never reads it
        assert run("merge", "--ckpt", str(moe), "--out", str(out)) == EXIT_OK

    def test_train_sft_reruns_byte_identical(self, workspace):
        tmp_path, dense, data = workspace
        a, b = tmp_path / "ta.xftc", tmp_path / "tb.xftc"
        for out in (a, b):
            assert run("train-sft", "--ckpt", dense, "--data", data, "--out", str(out),
                       "--epochs", "1", "--batch-size", "4", "--seed", "6") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_fallback(self, workspace, monkeypatch):
        tmp_path, dense, _ = workspace
        monkeypatch.setenv("XFT_SEED", "41")
        a, b = tmp_path / "ea.xftc", tmp_path / "eb.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(a), "--experts", "4", "--topk", "2")
        run("upcycle", "--ckpt", dense, "--out", str(b), "--experts", "4", "--topk", "2")
        assert a.read_bytes() == b.read_bytes()
        assert read_checkpoint_config(str(a))["meta"]["seed"] == 41


class TestDefaults:
    """The CLI's defaults are the config dataclasses' defaults."""

    @staticmethod
    def defaults(cls) -> dict:
        return {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}

    def test_parser_defaults_are_dataclass_defaults(self):
        parse = build_parser().parse_args
        init = vars(parse(["init", "--out", "x"]))
        model = self.defaults(ModelConfig)
        assert (init["d_model"], init["layers"], init["heads"], init["d_ff"],
                init["seq_len"]) == (model["d_model"], model["n_layers"], model["n_heads"],
                                     model["d_ff"], model["max_seq_len"])
        upcycle = vars(parse(["upcycle", "--ckpt", "a", "--out", "b"]))
        moe = self.defaults(MoEConfig)
        assert (upcycle["experts"], upcycle["topk"], upcycle["router_std"],
                not upcycle["no_normalization"]) == (
            moe["n_experts"], moe["top_k"], moe["router_init_std"], moe["normalization_enabled"])
        for command in ("train-sft", "train-moe", "learn-merge"):
            args = parse([command, "--ckpt", "a", "--out", "b", "--data", "c"])
            assert args.batch_size == self.defaults(TrainHyper)["batch_size"]
        schedule = next(a for a in subcommands()["train-moe"]._actions
                        if a.dest == "ewa_schedule")
        assert schedule.choices == EWA_SCHEDULES
        assert f"(default {EWA_SCHEDULES[0]})" in schedule.help

    def test_init_without_model_flags_writes_the_config_defaults(self, tmp_path):
        out = tmp_path / "d.xftc"
        assert run("init", "--out", str(out)) == EXIT_OK
        cfg = ModelConfig(vocab_size=ByteTokenizer.vocab_size)
        assert read_checkpoint_config(str(out))["model"] == cfg.to_dict()


class TestVerifyCommand:
    def test_verify_passes_on_fresh_models(self, capsys):
        assert run("verify", "--seed", "0") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_verify_passes_at_seed_29(self, capsys):
        # its gradient probes hit elements whose true gradient is 0
        assert run("verify", "--seed", "29") == EXIT_OK
        assert capsys.readouterr().out.count("PASS") == 5

    def test_verify_with_upcycled_checkpoint(self, workspace, capsys):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe))
        assert run("verify", "--seed", "1", "--ckpt", str(moe)) == EXIT_OK
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_fails_on_unnormalized_checkpoint(self, workspace, capsys):
        # without routing weight normalization the gate-sum contract breaks
        tmp_path, dense, _ = workspace
        moe = tmp_path / "nonorm.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--no-normalization")
        assert run("verify", "--seed", "1", "--ckpt", str(moe)) == 3
        assert "FAIL gate-sum" in capsys.readouterr().out
