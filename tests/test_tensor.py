"""Tensor engine: op semantics, backward rules, finite-difference oracle."""

import contextlib
import zlib

import numpy as np
import pytest

from oracles import (
    add_bias,
    expert_ffn_composed,
    ffn_composed,
    gelu_expressions,
    identity,
    linear_composed,
    reshape,
)
from xft import tensor as tn


def t(data, requires_grad=False, dtype=np.float32):
    return tn.Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        m = t([[3.0, 2.0], [2.0, 3.0]])
        out = tn.matmul(t(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_hand_expanded_2x2(self):
        # [[1,2],[3,4]] x [[5,6],[7,8]]: row-by-column expansion by hand
        out = t([[1.0, 2.0], [3.0, 4.0]]) @ t([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]], dtype=np.float32))

    def test_zero_matrix(self):
        out = t(np.zeros((2, 3))) @ t(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(out.data, np.zeros((2, 4), dtype=np.float32))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 4\)"):
            t(np.zeros((2, 3))) @ t(np.zeros((2, 4)))


class TestSoftmax:
    def test_symmetric_input(self):
        out = tn.softmax(t([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_single_element(self):
        out = tn.softmax(t([4.2]))
        assert out.data[0] == pytest.approx(1.0)

    def test_high_precision_values(self):
        # frozen from a float64 exp/sum evaluation of [1.0, 0.5, 0.0]
        out = tn.softmax(t([1.0, 0.5, 0.0]))
        assert np.allclose(out.data, [0.506479, 0.307196, 0.186325], atol=1e-5)

    def test_sums_to_one_up_to_length_4096(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 17, 512, 4096):
            v = t(rng.normal(scale=50.0, size=n))
            assert abs(float(tn.softmax(v).data.sum()) - 1.0) < 1e-6

    def test_extreme_magnitudes_stable(self):
        out = tn.softmax(t([1e30, 0.0, -1e30]))
        assert np.isfinite(out.data).all()
        assert abs(float(out.data.sum()) - 1.0) < 1e-6

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            tn.softmax(t([np.nan, 0.0]))


class TestBackward:
    def test_power_rule(self):
        x = t([3.0], requires_grad=True)
        y = (x * x).sum()
        tn.backward(y)
        assert x.grad[0] == pytest.approx(6.0)

    def test_constant_root_leaves_grads_empty(self):
        x = t([1.0, 2.0], requires_grad=True)
        c = t([5.0]).sum()
        tn.backward(c)  # no tracked inputs: no-op
        assert x.grad is None

    def test_non_scalar_root_rejected(self):
        x = t([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tn.backward(x * 2.0)

    def test_accumulation_doubles_exactly(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(4, 3)), requires_grad=True)
        w = t(rng.normal(size=(3, 2)), requires_grad=True)
        loss = tn.gelu(x @ w).sum()
        tn.backward(loss)
        gx, gw = x.grad.copy(), w.grad.copy()
        tn.backward(loss)
        assert np.array_equal(x.grad, 2 * gx)
        assert np.array_equal(w.grad, 2 * gw)

    def test_shared_subgraph_accumulates_once_per_path(self):
        x = t([2.0], requires_grad=True)
        y = x * 3.0
        z = (y + y).sum()  # dz/dx = 6
        tn.backward(z)
        assert x.grad[0] == pytest.approx(6.0)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(5, 6)), dtype=np.float64)
        w1 = t(rng.normal(size=(6, 8)), requires_grad=True, dtype=np.float64)
        b1 = t(rng.normal(size=(8,)), requires_grad=True, dtype=np.float64)
        w2 = t(rng.normal(size=(8, 4)), requires_grad=True, dtype=np.float64)
        targets = np.array([0, 3, 1, 2, 0])

        def f():
            logits = tn.gelu(add_bias(x @ w1, b1)) @ w2
            logp = tn.log_softmax(logits)
            return -tn.take_along_rows(logp, targets[:, None]).sum() * (1.0 / len(targets))

        err = tn.finite_diff_check(f, [w1, b1, w2])
        assert err < 1e-3


class TestFiniteDiffCheck:
    def test_sum_of_squares_is_nearly_exact(self):
        x = t([1.0, -2.0, 0.5], requires_grad=True, dtype=np.float64)
        err = tn.finite_diff_check(lambda: (x * x).sum(), [x])
        assert err < 1e-6

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(5)
        z = t(rng.normal(size=(3, 7)), requires_grad=True, dtype=np.float64)
        targets = np.array([1, 6, 0])

        def f():
            return -tn.take_along_rows(tn.log_softmax(z), targets[:, None]).sum() * (1.0 / len(targets))

        assert tn.finite_diff_check(f, [z]) < 1e-3

    def test_truncation_error_is_extrapolated_away(self):
        # d/dx x^3 at 0.01 is 3e-4; a central difference at h = 1e-3 adds h^2 = 1e-6,
        # a relative error of 1.7e-3, which the extrapolation cancels exactly
        x = t([0.01], requires_grad=True, dtype=np.float64)
        assert tn.finite_diff_check(lambda: (x * x * x).sum(), [x]) < 1e-9

    def test_constant_function_reports_zero_error(self):
        x = t([1.0, 2.0], requires_grad=True, dtype=np.float64)
        c = t([4.0])
        err = tn.finite_diff_check(lambda: (c * c).sum(), [x])
        assert err == 0.0


# Relative-error tolerance for per-op gradient checks (float64 probes).
FD_TOL = 1e-3

LINEAR_SHAPES = [(5, 4), (4, 3), (3,)]
FFN_SHAPES = [(5, 4), (4, 6), (6,), (6, 3), (3,)]


def ffn_gelu(u, w_up, b_up, w_down, b_down):
    return tn.ffn(u, w_up, b_up, w_down, b_down, tn.gelu)


def expert_op(sel, fn=tn.expert_ffn):
    """fn(u, gates, sel, experts) over flat operands: u, gates, then each
    expert's four weights."""
    return lambda u, gates, *w: fn(u, gates, sel, [w[i:i + 4] for i in range(0, len(w), 4)])


# 5 rows, 2 slots each over 3 experts that all receive rows
EXPERT_SEL = np.array([[0, 2], [1, 2], [2, 0], [0, 1], [2, 1]])
EXPERT_SHAPES = [(5, 4), (5, 2)] + FFN_SHAPES[1:] * 3


# (name, op over param tensors, param shapes); op output is read out through
# a fixed random weighting so every element carries a distinct gradient.
OP_CASES = [
    ("add.same", lambda a, b: a + b, [(3, 5), (3, 5)]),
    ("rsub", lambda a: 1.0 - a, [(3, 2)]),
    ("mul.same", lambda a, b: a * b, [(3, 4), (3, 4)]),
    ("mul.scalar_tensor", lambda s, m: s * m, [(1, 1), (4, 3)]),
    ("mul.column", lambda c, m: c * m, [(5, 1), (5, 4)]),
    ("matmul", lambda a, b: a @ b, [(3, 4), (4, 2)]),
    ("linear", tn.linear, LINEAR_SHAPES),
    ("ffn", ffn_gelu, FFN_SHAPES),
    ("expert_ffn", expert_op(EXPERT_SEL), EXPERT_SHAPES),
    ("transpose", lambda a: a.transpose(), [(3, 5)]),
    ("reshape", lambda a: reshape(a, (8, 3)), [(4, 6)]),
    ("gather_rows", lambda a: tn.gather_rows(a, [0, 2, 2, 5]), [(6, 3)]),
    ("take_along_rows",
     lambda a: tn.take_along_rows(a, np.array([[0, 3], [1, 1], [4, 0], [2, 3]])),
     [(4, 5)]),
    ("causal_attention",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, 2, 5, 6], n_heads=2),
     [(6, 4), (6, 4), (6, 4)]),
    ("causal_attention.key_offset",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, 2], n_heads=2),
     [(2, 4), (5, 4), (5, 4)]),
    ("causal_attention.tiles",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, tn.ATTENTION_TILE + 6], n_heads=2),
     [(tn.ATTENTION_TILE + 6, 4)] * 3),
    ("softmax", tn.softmax, [(3, 6)]),
    ("log_softmax", tn.log_softmax, [(3, 6)]),
    ("gelu", tn.gelu, [(4, 4)]),
    ("identity", identity, [(4, 4)]),
    ("layer_norm", tn.layer_norm, [(4, 6), (6,), (6,)]),
]


class TestGradientsAllOps:
    """Every differentiable op vs extrapolated central differences, 5 random trials."""

    @pytest.mark.parametrize("name,op,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
    def test_random_trials(self, name, op, shapes):
        rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hash() is salted per process
        for _ in range(5):
            params = [tn.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
            out_shape = op(*params).shape
            readout = tn.Tensor(rng.normal(size=out_shape))
            f = lambda: (op(*params) * readout).sum()
            err = tn.finite_diff_check(f, params)
            assert err < FD_TOL, f"{name}: fd error {err}"


# (name, op, shapes, frozen operand): broadcasting ops whose backward rule
# reduces or scales the incoming gradient for that operand
FROZEN_CASES = [
    ("mul.scalar_tensor", lambda a, b: a * b, [(1, 1), (4, 3)], 0),
    ("mul.scalar_tensor.frozen_tensor", lambda a, b: a * b, [(1, 1), (4, 3)], 1),
    ("mul.tensor_scalar", lambda a, b: a * b, [(4, 3), (1,)], 1),
    ("mul.column", lambda a, b: a * b, [(5, 1), (5, 4)], 0),
    ("mul.column.frozen_matrix", lambda a, b: a * b, [(5, 1), (5, 4)], 1),
    ("linear.frozen_input", tn.linear, LINEAR_SHAPES, 0),
    ("linear.frozen_weight", tn.linear, LINEAR_SHAPES, 1),
    ("linear.frozen_bias", tn.linear, LINEAR_SHAPES, 2),
    ("ffn.frozen_input", ffn_gelu, FFN_SHAPES, 0),
    ("ffn.frozen_up_weight", ffn_gelu, FFN_SHAPES, 1),
    ("ffn.frozen_down_bias", ffn_gelu, FFN_SHAPES, 4),
    ("expert_ffn.frozen_input", expert_op(EXPERT_SEL), EXPERT_SHAPES, 0),
    ("expert_ffn.frozen_gates", expert_op(EXPERT_SEL), EXPERT_SHAPES, 1),
    ("expert_ffn.frozen_up_weight", expert_op(EXPERT_SEL), EXPERT_SHAPES, 6),
    ("expert_ffn.frozen_down_bias", expert_op(EXPERT_SEL), EXPERT_SHAPES, 13),
]


class TestFrozenOperands:
    """A backward rule computes no gradient for an operand that needs none."""

    @pytest.mark.parametrize("name,op,shapes,frozen", FROZEN_CASES,
                             ids=[c[0] for c in FROZEN_CASES])
    def test_frozen_operand_gets_no_gradient(self, name, op, shapes, frozen):
        rng = np.random.default_rng(0)
        operands = [tn.Tensor(rng.normal(size=s), requires_grad=i != frozen)
                    for i, s in enumerate(shapes)]
        out = op(*operands)
        grads = out._backward_fn(np.ones_like(out.data))
        assert grads[frozen] is None
        assert [g.shape for i, g in enumerate(grads) if i != frozen] == \
            [s for i, s in enumerate(shapes) if i != frozen]


def forward_and_grads(op, shapes, seed, dtype=np.float32):
    """Output and every operand gradient of op over seeded operands, read out
    through a seeded random weighting; None for an operand given no gradient."""
    rng = np.random.default_rng(seed)
    operands = [tn.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                for s in shapes]
    out = op(*operands)
    tn.backward((out * tn.Tensor(rng.normal(size=out.shape).astype(dtype))).sum())
    return [out.data] + [p.grad for p in operands]


def assert_bit_identical(fused, composed):
    assert len(fused) == len(composed)
    for f, c in zip(fused, composed):
        assert (f is None and c is None) or (
            f is not None and c is not None and f.dtype == c.dtype and np.array_equal(f, c))


def counting_gelu(calls):
    """GELU as one op whose backward rule appends to ``calls``."""
    def act(a):
        y = tn.gelu(a)
        return tn._make(y.data, (a,), lambda g: calls.append(1) or y._backward_fn(g))
    return act


class TestFusedDense:
    """``linear`` and ``ffn`` are one node each, bit for bit the composed ops."""

    @pytest.mark.parametrize("rows", [1, 33, 238])
    def test_linear_matches_composed_ops(self, rows):
        shapes = [(rows, 16), (16, 24), (24,)]
        fused = forward_and_grads(tn.linear, shapes, rows)
        assert all(g is not None for g in fused)
        assert_bit_identical(fused, forward_and_grads(linear_composed, shapes, rows))

    @pytest.mark.parametrize("activation", [tn.gelu, identity], ids=["gelu", "identity"])
    @pytest.mark.parametrize("rows", [1, 33, 238])
    def test_ffn_matches_composed_ops(self, rows, activation):
        shapes = [(rows, 16), (16, 40), (40,), (40, 16), (16,)]
        fused = forward_and_grads(lambda *w: tn.ffn(*w, activation), shapes, rows)
        assert all(g is not None for g in fused)
        assert_bit_identical(fused, forward_and_grads(lambda *w: ffn_composed(*w, activation),
                                                      shapes, rows))

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("activation", [lambda a: tn.gelu(a) * 2.0, lambda a: a],
                             ids=["two_ops", "no_op"])
    def test_activation_that_is_not_one_op_rejected(self, activation, grad):
        rng = np.random.default_rng(0)
        operands = [tn.Tensor(rng.normal(size=s), requires_grad=True) for s in FFN_SHAPES]
        with contextlib.nullcontext() if grad else tn.no_grad():
            with pytest.raises(ValueError, match="single tensor op"):
                tn.ffn(*operands, activation)

    def test_no_grad_records_no_graph(self):
        rng = np.random.default_rng(1)
        operands = [tn.Tensor(rng.normal(size=s), requires_grad=True) for s in FFN_SHAPES]
        tracked = ffn_gelu(*operands)
        with tn.no_grad():
            outs = ffn_gelu(*operands), tn.linear(*operands[:3])
        for out in outs:
            assert not out.requires_grad and out.is_leaf()
        assert np.array_equal(outs[0].data, tracked.data)
        assert tn.grad_enabled()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_gelu_matches_the_expressions(self, dtype):
        rng = np.random.default_rng(3)
        x = (rng.normal(size=(64, 48)) * np.logspace(-40, 1, 48)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        y, dy = gelu_expressions(x)
        out = tn.gelu(tn.Tensor(x, requires_grad=True))
        assert np.array_equal(out.data, y)
        assert np.array_equal(out._backward_fn(g)[0], g * dy)

    def test_frozen_up_branch_skips_the_activation_backward(self):
        rng = np.random.default_rng(2)
        operands = [tn.Tensor(rng.normal(size=s), requires_grad=i >= 3)
                    for i, s in enumerate(FFN_SHAPES)]
        calls = []
        out = tn.ffn(*operands, counting_gelu(calls))
        grads = out._backward_fn(np.ones_like(out.data))
        assert grads[:3] == (None, None, None) and calls == []
        assert [g.shape for g in grads[3:]] == FFN_SHAPES[3:]


def routed(rows, n_experts=7, k=5, seed=0):
    """[rows, k] distinct experts per row, as the router picks them, and the
    operand shapes of ``expert_ffn`` at d_model 16 and d_ff 40."""
    sel = np.argsort(np.random.default_rng(seed).random((rows, n_experts)), axis=1)[:, :k]
    return sel, [(rows, 16), (rows, k)] + [(16, 40), (40,), (40, 16), (16,)] * n_experts


class TestExpertFFN:
    """``expert_ffn`` is one node, bit for bit the composed dispatch."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 33, 238])
    def test_matches_composed_ops(self, rows, dtype):
        sel, shapes = routed(rows, seed=rows)
        fused = forward_and_grads(expert_op(sel), shapes, rows, dtype)
        assert_bit_identical(fused, forward_and_grads(expert_op(sel, expert_ffn_composed),
                                                      shapes, rows, dtype))
        assert all(g is None or g.dtype == dtype for g in fused)
        # a 1-row decode call runs k experts; the others get no gradient
        idle = [e for e in range(7) if e not in sel]
        assert [e for e in range(7) if fused[3 + 4 * e] is None] == idle
        assert len(idle) == (2 if rows == 1 else 0)

    def test_expert_without_rows_gets_no_gradient(self):
        sel = np.array([[0, 1], [1, 3], [3, 0], [0, 1]])  # expert 2 receives no rows
        shapes = [(4, 16), (4, 2)] + [(16, 40), (40,), (40, 16), (16,)] * 4
        fused = forward_and_grads(expert_op(sel), shapes, 5)
        assert_bit_identical(fused, forward_and_grads(expert_op(sel, expert_ffn_composed),
                                                      shapes, 5))
        assert [i for i, g in enumerate(fused[1:]) if g is None] == [10, 11, 12, 13]

    def test_no_grad_records_no_graph(self):
        sel, shapes = routed(1)
        rng = np.random.default_rng(1)
        operands = [tn.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                    for s in shapes]
        tracked = expert_op(sel)(*operands)
        with tn.no_grad():
            out = expert_op(sel)(*operands)
        assert not out.requires_grad and out.is_leaf()
        assert out.dtype == np.float32 and np.array_equal(out.data, tracked.data)

    @pytest.mark.parametrize("gate_shape,sel,match", [
        ((5, 2), np.zeros((5, 3), dtype=int), "shape mismatch"),
        ((4, 2), np.zeros((4, 2), dtype=int), "shape mismatch"),  # u has 5 rows
        ((5, 2), np.minimum(EXPERT_SEL + 1, 3), "outside the 3 experts"),
        ((5, 2), EXPERT_SEL - 1, "outside the 3 experts"),
    ], ids=["sel_vs_gates", "sel_vs_rows", "index_3", "index_-1"])
    def test_inconsistent_operands_rejected(self, gate_shape, sel, match):
        shapes = [(5, 4), gate_shape] + EXPERT_SHAPES[2:]
        operands = [tn.Tensor(np.zeros(s)) for s in shapes]
        with pytest.raises(ValueError, match=match):
            expert_op(sel)(*operands)


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = t([1.0, 2.0], requires_grad=True)
        with tn.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y.is_leaf()

    def test_reenabled_after_block(self):
        x = t([1.0], requires_grad=True)
        with tn.no_grad():
            pass
        y = (x * 2.0).sum()
        tn.backward(y)
        assert x.grad[0] == pytest.approx(2.0)


class TestInvariants:
    def test_data_length_matches_shape(self):
        x = t(np.zeros((3, 5)))
        assert x.size == 15 and x.shape == (3, 5)

    def test_grad_shape_matches_data(self):
        x = t(np.ones((2, 3)), requires_grad=True)
        tn.backward((x * x).sum())
        assert x.grad.shape == x.data.shape

    def test_default_dtype_is_float32(self):
        assert t([1, 2, 3]).dtype == np.float32

    def test_broadcast_outside_supported_cases_rejected(self):
        with pytest.raises(ValueError):
            t(np.zeros((2, 3))) + t(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="add shape mismatch"):
            t(np.zeros((2, 3))) + t(np.zeros(3))
        with pytest.raises(ValueError):
            t(np.zeros((2, 3))) * t(np.zeros((4, 3)))
