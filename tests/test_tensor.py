"""Tensor engine: op semantics, backward rules, finite-difference oracle."""

import contextlib
import itertools
import zlib

import numpy as np
import pytest

from conftest import same_bits
from oracles import (
    add_bias,
    affinities_composed,
    bmul,
    ffn_composed,
    gelu_expressions,
    identity,
    layer_norm_mean,
    linear_composed,
    log_softmax,
    moe_layer_composed,
    neg,
    nll_composed,
    reshape,
    rsub,
    take_along_rows,
    transpose,
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
            logp = log_softmax(logits)
            return neg(take_along_rows(logp, targets[:, None]).sum()) * (1.0 / len(targets))

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
            return neg(take_along_rows(log_softmax(z), targets[:, None]).sum()) * (1.0 / len(targets))

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


def expert_op(sel, fn=tn.expert_ffn, normalized=True):
    """fn(u, scores, sel, w_up, b_up, w_down, b_down, normalized)'s output over
    its tensor operands: u, the normal experts' scores, then the four stacked
    expert weights, the shared expert first."""
    return lambda u, scores, *w: fn(u, scores, sel, *w, normalized)[0]


# 5 rows, 2 slots each over 3 normal experts that all receive rows, and the shared one
EXPERT_SEL = np.array([[0, 2], [1, 2], [2, 0], [0, 1], [2, 1]])
EXPERT_SHAPES = [(5, 4), (5, 3), (4, 4, 3), (4, 3), (4, 3, 4), (4, 4)]
MIX_SHAPES = [(4, 3, 5), (4,)]
AFFINITY_SHAPES = [(5, 4), (4, 4)]  # 5 rows, 4 centroids: the shared one and 3 normal


# (name, op over param tensors, param shapes); op output is read out through
# a fixed random weighting so every element carries a distinct gradient.
OP_CASES = [
    ("add.same", lambda a, b: a + b, [(3, 5), (3, 5)]),
    ("rsub", lambda a: rsub(1.0, a), [(3, 2)]),
    ("mul.same", lambda a, b: a * b, [(3, 4), (3, 4)]),
    ("mul.scalar_tensor", bmul, [(1, 1), (4, 3)]),
    ("mul.column", bmul, [(5, 1), (5, 4)]),
    ("matmul", lambda a, b: a @ b, [(3, 4), (4, 2)]),
    ("linear", tn.linear, LINEAR_SHAPES),
    ("ffn", ffn_gelu, FFN_SHAPES),
    ("expert_ffn", expert_op(EXPERT_SEL), EXPERT_SHAPES),
    ("expert_ffn.unnormalized", expert_op(EXPERT_SEL, normalized=False), EXPERT_SHAPES),
    ("mix", tn.mix, MIX_SHAPES),
    ("concat", lambda a, b: tn.concat([a, b]), [(2, 3), (4, 3)]),
    ("transpose", transpose, [(3, 5)]),
    ("reshape", lambda a: reshape(a, (8, 3)), [(4, 6)]),
    ("gather_rows", lambda a: tn.gather_rows(a, [0, 2, 2, 5]), [(6, 3)]),
    ("take_along_rows",
     lambda a: take_along_rows(a, np.array([[0, 3], [1, 1], [4, 0], [2, 3]])),
     [(4, 5)]),
    ("causal_attention",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, 2, 5, 6], n_heads=2),
     [(6, 4), (6, 4), (6, 4)]),
    ("causal_attention.key_offset",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, 5], n_heads=2, query_bounds=[0, 2]),
     [(2, 4), (5, 4), (5, 4)]),
    # segments of 3, 1, 5 and 2 rows queried by their last 2, none, 4 and 2
    ("causal_attention.query_suffixes",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, 3, 4, 9, 11], 2, [0, 2, 2, 6, 8]),
     [(8, 4), (11, 4), (11, 4)]),
    ("causal_attention.tiles",
     lambda q, k, v: tn.causal_attention(q, k, v, [0, tn.ATTENTION_TILE + 6], n_heads=2),
     [(tn.ATTENTION_TILE + 6, 4)] * 3),
    ("softmax", tn.softmax, [(3, 6)]),
    ("affinities", tn.affinities, AFFINITY_SHAPES),
    ("log_softmax", log_softmax, [(3, 6)]),
    ("nll", lambda a: tn.nll(a, [0, 5, 3]), [(3, 6)]),
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
    ("mul.scalar_tensor", bmul, [(1, 1), (4, 3)], 0),
    ("mul.scalar_tensor.frozen_tensor", bmul, [(1, 1), (4, 3)], 1),
    ("mul.tensor_scalar", bmul, [(4, 3), (1,)], 1),
    ("mul.column", bmul, [(5, 1), (5, 4)], 0),
    ("mul.column.frozen_matrix", bmul, [(5, 1), (5, 4)], 1),
    ("linear.frozen_input", tn.linear, LINEAR_SHAPES, 0),
    ("linear.frozen_weight", tn.linear, LINEAR_SHAPES, 1),
    ("linear.frozen_bias", tn.linear, LINEAR_SHAPES, 2),
    ("ffn.frozen_input", ffn_gelu, FFN_SHAPES, 0),
    ("ffn.frozen_up_weight", ffn_gelu, FFN_SHAPES, 1),
    ("ffn.frozen_down_bias", ffn_gelu, FFN_SHAPES, 4),
    ("expert_ffn.frozen_input", expert_op(EXPERT_SEL), EXPERT_SHAPES, 0),
    ("expert_ffn.frozen_scores", expert_op(EXPERT_SEL), EXPERT_SHAPES, 1),
    ("expert_ffn.frozen_up_weight", expert_op(EXPERT_SEL), EXPERT_SHAPES, 2),
    ("expert_ffn.frozen_down_bias", expert_op(EXPERT_SEL), EXPERT_SHAPES, 5),
    ("affinities.frozen_input", tn.affinities, AFFINITY_SHAPES, 0),
    ("affinities.frozen_centroids", tn.affinities, AFFINITY_SHAPES, 1),
    ("mix.frozen_stacked", tn.mix, MIX_SHAPES, 0),
    ("mix.frozen_coefficients", tn.mix, MIX_SHAPES, 1),
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
        assert (f is None and c is None) or (f is not None and c is not None and same_bits(f, c))


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
            assert not out.requires_grad and out._parents == ()
        assert same_bits(outs[0].data, tracked.data)
        assert tn.grad_enabled()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_gelu_matches_the_expressions(self, dtype):
        rng = np.random.default_rng(3)
        x = (rng.normal(size=(64, 48)) * np.logspace(-40, 1, 48)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        y, dy = gelu_expressions(x)
        out = tn.gelu(tn.Tensor(x, requires_grad=True))
        assert same_bits(out.data, y)
        assert same_bits(out._backward_fn(g)[0], g * dy)

    def test_frozen_up_branch_skips_the_activation_backward(self):
        rng = np.random.default_rng(2)
        operands = [tn.Tensor(rng.normal(size=s), requires_grad=i >= 3)
                    for i, s in enumerate(FFN_SHAPES)]
        calls = []
        out = tn.ffn(*operands, counting_gelu(calls))
        grads = out._backward_fn(np.ones_like(out.data))
        assert grads[:3] == (None, None, None) and calls == []
        assert [g.shape for g in grads[3:]] == FFN_SHAPES[3:]


class TestRouterAndLossNodes:
    """``affinities`` and ``nll`` are one node each, bit for bit the composed ops."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 40])
    def test_affinities_match_composed_ops(self, rows, dtype):
        shapes = [(rows, 16), (8, 16)]
        fused = forward_and_grads(tn.affinities, shapes, rows, dtype)
        assert all(g is not None and g.dtype == dtype for g in fused)
        assert_bit_identical(fused, forward_and_grads(affinities_composed, shapes, rows, dtype))
        g_centroids = fused[2]
        assert g_centroids[1:].all() and not g_centroids[0].any()
        assert not np.signbit(g_centroids[0]).any()  # the shared row is +0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 40])
    def test_nll_matches_composed_ops(self, rows, dtype):
        targets = np.random.default_rng(rows).integers(0, 11, size=rows)
        fused = forward_and_grads(lambda z: tn.nll(z, targets), [(rows, 11)], rows, dtype)
        assert fused[0].shape == (rows, 1) and (fused[0] > 0).all()
        assert all(g.dtype == dtype for g in fused)
        assert_bit_identical(fused, forward_and_grads(lambda z: nll_composed(z, targets),
                                                      [(rows, 11)], rows, dtype))

    def test_non_finite_inputs_rejected(self):
        u, centroids, logits = (t(np.ones(s)) for s in ((2, 3), (4, 3), (2, 5)))
        u.data[1, 2] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="softmax input contains non-finite"):
            tn.affinities(u, centroids)
        logits.data[0, 0] = np.nan
        with pytest.raises(ValueError, match="log_softmax input contains non-finite"):
            tn.nll(logits, [0, 1])

    def test_inconsistent_operands_rejected(self):
        with pytest.raises(ValueError, match="affinities shape mismatch"):
            tn.affinities(t(np.ones((2, 3))), t(np.ones((4, 5))))
        with pytest.raises(ValueError, match="nll shape mismatch"):
            tn.nll(t(np.ones((2, 5))), [0, 1, 2])


def routed(rows, n_normal=7, k=5, seed=0):
    """[rows, k] distinct normal experts per row, top score first as the router
    picks them, and the operand shapes of ``expert_ffn`` at d_model 16 and d_ff 40."""
    sel = np.argsort(np.random.default_rng(seed).random((rows, n_normal)), axis=1)[:, :k]
    n = n_normal + 1
    return sel, [(rows, 16), (rows, n_normal), (n, 16, 40), (n, 40), (n, 40, 16), (n, 16)]


class TestExpertFFN:
    """``expert_ffn`` is one node, bit for bit the composed MoE layer after its router."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 33, 238])
    def test_matches_composed_ops(self, rows, dtype):
        sel, shapes = routed(rows, seed=rows)
        for normalized in (True, False):
            fused = forward_and_grads(expert_op(sel, normalized=normalized), shapes, rows, dtype)
            assert_bit_identical(fused, forward_and_grads(
                expert_op(sel, moe_layer_composed, normalized), shapes, rows, dtype))
            assert all(g is None or g.dtype == dtype for g in fused)
            # a 1-row decode call runs the shared and k normal experts; the others'
            # gradient slices are exactly 0
            idle = [e for e in range(1, 8) if e - 1 not in sel]
            assert [e for e in range(8) if not any(g[e].any() for g in fused[3:])] == idle
            assert len(idle) == (2 if rows == 1 else 0)

    def test_expert_without_rows_gets_no_gradient(self):
        sel = np.array([[0, 1], [1, 3], [3, 0], [0, 1]])  # normal expert 2 receives no rows
        shapes = [(4, 16), (4, 4), (5, 16, 40), (5, 40), (5, 40, 16), (5, 16)]
        fused = forward_and_grads(expert_op(sel), shapes, 5)
        assert_bit_identical(fused, forward_and_grads(expert_op(sel, moe_layer_composed),
                                                      shapes, 5))
        assert [e for e in range(5) if not any(g[e].any() for g in fused[3:])] == [3]

    def test_no_grad_records_no_graph(self):
        """Without a graph the node returns a leaf with the graph-mode and composed
        bits, on the one-row batched path and on the block path."""
        for rows, dtype, normalized in itertools.product([1, 2, 4, 33, 238],
                                                         [np.float32, np.float64],
                                                         [True, False]):
            sel, shapes = routed(rows, seed=rows)
            rng = np.random.default_rng(1)
            operands = [tn.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                        for s in shapes]
            u, scores, weights = operands[0], operands[1], operands[2:]
            tracked, tracked_gates = tn.expert_ffn(u, scores, sel, *weights, normalized)
            composed, composed_gates = moe_layer_composed(u, scores, sel, *weights, normalized)
            with tn.no_grad():
                out, gates = tn.expert_ffn(u, scores, sel, *weights, normalized)
            assert not out.requires_grad and out._parents == () and out.dtype == dtype
            assert same_bits(out.data, tracked.data)
            assert same_bits(out.data, composed.data)
            assert same_bits(gates, tracked_gates) and same_bits(gates, composed_gates)
            assert gates.shape == (rows, 6)

    @pytest.mark.parametrize("grad", [True, False], ids=["recording", "no_grad"])
    def test_builds_one_tensor_its_output(self, grad, monkeypatch):
        """Recording and graph-free multi-row calls evaluate the experts on arrays."""
        sel, shapes = routed(33)
        rng = np.random.default_rng(2)
        u, scores, *weights = (tn.Tensor(rng.normal(size=s), requires_grad=True)
                               for s in shapes)
        built, init = [], tn.Tensor.__init__
        monkeypatch.setattr(tn.Tensor, "__init__",
                            lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
        with contextlib.nullcontext() if grad else tn.no_grad():
            out, _ = tn.expert_ffn(u, scores, sel, *weights, True)
        assert out.requires_grad == grad
        assert len(built) == 1 and built[0] is out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,d,f", [(2, 12, 20), (4, 7, 33), (16, 24, 9)])
    def test_one_row_call_matches_recording_and_composed(self, n, d, f, dtype):
        """A graph-free one-row call, all N experts in two batched products, gives
        the recording call's and the composed layer's output and gates bit for bit,
        for every slot count r and both gate forms."""
        rng = np.random.default_rng(n)
        for r, normalized in itertools.product(range(1, n), [True, False]):
            affinities = rng.random((1, n - 1)).astype(dtype)
            sel = np.argsort(-affinities, axis=1, kind="stable")[:, :r]
            scores = tn.Tensor(affinities, requires_grad=True)
            u, *weights = (tn.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                           for s in [(1, d), (n, d, f), (n, f), (n, f, d), (n, d)])
            with tn.no_grad():
                out, gates = tn.expert_ffn(u, scores, sel, *weights, normalized)
            assert out._parents == () and out.dtype == dtype and gates.shape == (1, 1 + r)
            for h, h_gates in (tn.expert_ffn(u, scores, sel, *weights, normalized),
                               moe_layer_composed(u, scores, sel, *weights, normalized)):
                assert h.requires_grad and same_bits(out.data, h.data)
                assert same_bits(gates, h_gates)

    @pytest.mark.parametrize("score_shape,sel,match", [
        ((5, 2), np.zeros((5, 2), dtype=int), "shape mismatch"),  # 3 normal experts
        ((4, 3), np.zeros((4, 2), dtype=int), "shape mismatch"),  # u has 5 rows
        ((5, 3), np.minimum(EXPERT_SEL + 1, 3), "outside the 3 normal experts"),
        ((5, 3), EXPERT_SEL - 1, "outside the 3 normal experts"),
        ((5, 3), np.zeros((5, 4), dtype=int), "shape mismatch"),  # more slots than experts
    ], ids=["scores_vs_experts", "sel_vs_rows", "index_3", "index_-1", "slots_vs_experts"])
    def test_inconsistent_operands_rejected(self, score_shape, sel, match):
        shapes = [(5, 4), score_shape] + EXPERT_SHAPES[2:]
        operands = [tn.Tensor(np.zeros(s)) for s in shapes]
        with pytest.raises(ValueError, match=match):
            expert_op(sel)(*operands)


    def test_stacked_weights_of_another_expert_count_rejected(self):
        shapes = EXPERT_SHAPES[:-1] + [(3, 4)]  # b_down stacks 3 experts, the rest 4
        with pytest.raises(ValueError, match="shape mismatch"):
            expert_op(EXPERT_SEL)(*[tn.Tensor(np.zeros(s)) for s in shapes])


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_mean_form(self, dtype):
        rng = np.random.default_rng(4)
        for rows in (1, 2, 7, 64, 333, 2000):
            for scale in (0.1, 1.0, 10.0):
                x, gain, bias = (rng.normal(size=s).astype(dtype) * scale
                                 for s in ((rows, 48), (48,), (48,)))
                out = tn.layer_norm(tn.Tensor(x), tn.Tensor(gain), tn.Tensor(bias)).data
                assert out.dtype == dtype and same_bits(out, layer_norm_mean(x, gain, bias))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = t([1.0, 2.0], requires_grad=True)
        with tn.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y._parents == ()

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
