"""Command-line pipeline: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from xft import tensor as tn
from xft.checkpoint import load_checkpoint, read_checkpoint_config
from xft.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, cli_dispatch
from xft.dataset import save_instruction_dataset
from xft.merge import init_mixing_coefficients
from xft.train import InstructionExample

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

    def test_xft_mode_rejects_soup_coefficients(self, workspace):
        assert merge_with_coeffs(workspace, "xft", coeffs_obj(soup=True)) == EXIT_IO

    def test_soup_mode_rejects_shared_rate_coefficients(self, workspace):
        assert merge_with_coeffs(workspace, "soup", coeffs_obj()) == EXIT_IO

    def test_missing_logits_is_io_error(self, workspace):
        obj = coeffs_obj()
        del obj["logits"]
        assert merge_with_coeffs(workspace, "xft", obj) == EXIT_IO

    # --coeffs goes only with xft/soup; --lambda only with xft/soup and no --coeffs
    @pytest.mark.parametrize("mode, obj, flags", [
        ("uniform", coeffs_obj(), ()),
        ("ewa", coeffs_obj(), ()),
        ("extract-shared", None, ("--coeffs", "/nonexistent/coeffs.json")),
        ("xft", coeffs_obj(), ("--lambda", "0.5")),
        ("soup", coeffs_obj(soup=True), ("--lambda", "0.5")),
        ("uniform", None, ("--lambda", "0.5")),
        ("ewa", None, ("--lambda", "0.75")),
        ("extract-shared", None, ("--lambda", "0.5")),
    ], ids=["uniform-coeffs", "ewa-coeffs", "extract-shared-missing-coeffs", "xft-coeffs-lambda",
            "soup-coeffs-lambda", "uniform-lambda", "ewa-lambda", "extract-shared-lambda"])
    def test_flag_the_mode_ignores_is_io_error(self, workspace, mode, obj, flags):
        assert merge_with_coeffs(workspace, mode, obj, *flags) == EXIT_IO


class TestPipelineCommands:
    def test_upcycle_defaults_mirror_reference_setup(self, workspace):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        assert run("upcycle", "--ckpt", dense, "--out", str(moe), "--seed", "5") == EXIT_OK
        cfg = read_checkpoint_config(str(moe))["moe"]
        assert cfg["n_experts"] == 8 and cfg["top_k"] == 6
        assert cfg["normalization_enabled"] is True

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

    def test_fairness_budget_is_moe_plus_merge_epochs(self, workspace):
        tmp_path, dense, data = workspace
        out = tmp_path / "fair.xftc"
        assert run("train-sft", "--ckpt", dense, "--data", data, "--out", str(out),
                   "--fairness", "--batch-size", "4") == EXIT_OK
        assert read_checkpoint_config(str(out))["meta"]["epochs"] == 5

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
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "3")
        a, b = tmp_path / "lam1.xftc", tmp_path / "shared.xftc"
        assert run("merge", "--ckpt", str(moe), "--out", str(a),
                   "--mode", "xft", "--lambda", "1.0") == EXIT_OK
        assert run("merge", "--ckpt", str(moe), "--out", str(b),
                   "--mode", "extract-shared") == EXIT_OK
        ma, mb = load_checkpoint(str(a)), load_checkpoint(str(b))
        with tn.no_grad():
            la = ma.logits([1, 2, 3]).data
            lb = mb.logits([1, 2, 3]).data
        assert np.array_equal(la, lb)

    def test_merge_does_not_mutate_input_checkpoint(self, workspace):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        before = moe.read_bytes()
        for mode in ("xft", "uniform", "soup", "ewa", "extract-shared"):
            assert run("merge", "--ckpt", str(moe), "--out",
                       str(tmp_path / f"{mode}.xftc"), "--mode", mode) == EXIT_OK
        assert moe.read_bytes() == before

    def test_merge_uniform_equals_ewa_mode(self, workspace):
        tmp_path, dense, _ = workspace
        moe = tmp_path / "moe.xftc"
        run("upcycle", "--ckpt", dense, "--out", str(moe), "--experts", "4", "--topk", "2")
        u, e = tmp_path / "u.xftc", tmp_path / "e.xftc"
        run("merge", "--ckpt", str(moe), "--out", str(u), "--mode", "uniform")
        run("merge", "--ckpt", str(moe), "--out", str(e), "--mode", "ewa")
        mu, me = load_checkpoint(str(u)), load_checkpoint(str(e))
        for name, p in mu.named_parameters().items():
            assert np.array_equal(p.data, me.named_parameters()[name].data)

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


class TestVerifyCommand:
    def test_verify_passes_on_fresh_models(self, capsys):
        assert run("verify", "--seed", "0") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

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
