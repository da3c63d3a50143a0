import math
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import unfolded_nn
import v2x_loadcast.gradcheck as gc
from conftest import src_env
from reference_gradcheck import reference_numerical_gradients
from reference_nn import reference_backward, reference_forward
from v2x_loadcast.errors import EmptyBatch, ShapeMismatch
from v2x_loadcast.gradcheck import check_random_model, grad_check, numerical_gradients
from v2x_loadcast.metrics import loss_mse, metric_mae
from v2x_loadcast.nn import (
    GATE_BLOCKS,
    ForwardTrace,
    ModelParameters,
    backward,
    forward,
    init_parameters,
    pin_heap_thresholds,
)
from v2x_loadcast.optim import RMSPropState, rmsprop_step


def zero_params(cell, d=2, h=3):
    blocks = 4 if cell == "lstm" else 3
    return ModelParameters(
        cell,
        np.zeros((d, blocks * h)),
        np.zeros((h, blocks * h)),
        np.zeros(blocks * h),
        np.zeros((h, 1)),
        np.zeros(1),
    )


def scalar_lstm_params(wx, b, dense_w, dense_b):
    """H=1, D=1 LSTM with zero recurrent weights; wx/b are (i, f, o, g)."""
    return ModelParameters(
        "lstm",
        np.array([wx]),
        np.zeros((1, 4)),
        np.array(b, dtype=float),
        np.array([[dense_w]]),
        np.array([dense_b]),
    )


def swap_g_o(cell, a, hidden):
    """Swap the LSTM g and o blocks of the last axis (i, f, o, g <-> i, f, g, o)."""
    if cell == "gru":
        return a
    h = hidden
    return np.concatenate((a[..., : 2 * h], a[..., 3 * h :], a[..., 2 * h : 3 * h]), axis=-1)


def reference_scalar_lstm(xs, wx, wh, b, dense_w, dense_b):
    """Independent scalar evaluation of the gate equations (math module only)."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = c = 0.0
    for x in xs:
        i = sig(wx[0] * x + wh[0] * h + b[0])
        f = sig(wx[1] * x + wh[1] * h + b[1])
        g = math.tanh(wx[2] * x + wh[2] * h + b[2])
        o = sig(wx[3] * x + wh[3] * h + b[3])
        c = f * c + i * g
        h = o * math.tanh(c)
    return dense_w * h + dense_b


def reference_scalar_gru(xs, wx, wh, b, dense_w, dense_b):
    """Independent scalar evaluation of the GRU equations; blocks (r, z, n)."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = 0.0
    for x in xs:
        r = sig(wx[0] * x + wh[0] * h + b[0])
        z = sig(wx[1] * x + wh[1] * h + b[1])
        n = math.tanh(wx[2] * x + r * (wh[2] * h) + b[2])
        h = z * h + (1.0 - z) * n
    return dense_w * h + dense_b


class TestForward:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_zero_parameters_predict_zero(self, cell):
        params = zero_params(cell)
        preds, trace = forward(params, np.ones((4, 6, 2)))
        assert np.all(preds == 0.0)
        assert trace.gates.shape[0] == 6

    def test_hand_computed_scalar_value(self):
        params = scalar_lstm_params(
            wx=[0.5, 0.3, -0.2, 1.0], b=[0.0, 1.0, 0.1, 0.0], dense_w=1.25, dense_b=-0.3
        )
        preds, _ = forward(params, np.array([[[1.0]]]))
        # Pinned from scalar evaluation of the gate equations for x = [1].
        assert preds[0, 0] == pytest.approx(-0.03786273724083433, abs=1e-15)

    def test_matches_scalar_reference_on_sequence(self):
        wx = [0.4, -0.3, 0.2, 0.9]
        wh = [0.1, 0.5, 0.3, -0.7]
        b = [0.05, 1.0, 0.0, -0.1]
        params = ModelParameters(
            "lstm",
            np.array([wx]),
            np.array([wh]),
            np.array(b, dtype=float),
            np.array([[0.8]]),
            np.array([0.25]),
        )
        xs = [1.0, -0.5, 2.0, 0.0, 0.75]
        preds, _ = forward(params, np.array(xs).reshape(1, 5, 1))
        ifgo = [swap_g_o("lstm", np.array(v), 1) for v in (wx, wh, b)]  # the reference's order
        want = reference_scalar_lstm(xs, *ifgo, 0.8, 0.25)
        assert preds[0, 0] == pytest.approx(want, abs=1e-14)

    def test_hand_computed_scalar_gru_value(self):
        params = ModelParameters(
            "gru",
            np.array([[0.5, -0.4, 1.2]]),
            np.zeros((1, 3)),
            np.array([0.1, 0.2, -0.3]),
            np.array([[1.5]]),
            np.array([0.25]),
        )
        preds, _ = forward(params, np.array([[[1.0]]]))
        # h' = 0: z = s(-0.2), n = tanh(0.9), h = (1 - z) n, pred = 1.5 h + 0.25.
        assert preds[0, 0] == pytest.approx(0.840767381856916, abs=1e-15)

    def test_gru_matches_scalar_reference_on_sequence(self):
        wx = [0.4, -0.3, 0.9]
        wh = [0.6, 0.5, -0.7]
        b = [0.05, -0.2, 0.1]
        params = ModelParameters(
            "gru",
            np.array([wx]),
            np.array([wh]),
            np.array(b, dtype=float),
            np.array([[0.8]]),
            np.array([0.25]),
        )
        xs = [1.0, -0.5, 2.0, 0.0, 0.75]
        preds, _ = forward(params, np.array(xs).reshape(1, 5, 1))
        want = reference_scalar_gru(xs, wx, wh, b, 0.8, 0.25)
        assert preds[0, 0] == pytest.approx(want, abs=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        params = init_parameters("gru", 3, 8, rng)
        x = rng.normal(size=(5, 7, 3))
        assert np.array_equal(forward(params, x)[0], forward(params, x)[0])

    def test_wrong_input_dim_rejected(self):
        params = zero_params("lstm", d=3)
        for x in (np.ones((1, 5, 2)), np.ones((5, 3))):  # one (M, D) window needs its batch axis too
            with pytest.raises(ShapeMismatch):
                forward(params, x)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_states_stay_finite_over_long_windows(self, cell):
        rng = np.random.default_rng(3)
        params = init_parameters(cell, 2, 8, rng)
        x = rng.uniform(-10.0, 10.0, (3, 100, 2))
        preds, trace = forward(params, x)
        assert np.all(np.isfinite(preds))
        assert np.all(np.isfinite(trace.h_prev))
        if cell == "lstm":
            assert np.all(np.isfinite(trace.cells[1:]))


class TestMetrics:
    def test_mse_identity_and_hand_values(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert loss_mse([0.0, 0.0], [1.0, 3.0]) == 5.0
        assert loss_mse([2.0], [5.0]) == 9.0

    def test_mae_hand_values_and_symmetry(self):
        assert metric_mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert metric_mae([0.0, 0.0], [1.0, 3.0]) == 2.0
        p = [0.3, -1.2, 4.0]
        t = [1.0, 0.0, -2.0]
        assert metric_mae(p, t) == metric_mae(t, p)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            loss_mse([], [])
        with pytest.raises(EmptyBatch):
            metric_mae([], [])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_mse([1.0, 2.0], [1.0])


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        params = zero_params("lstm")
        x = np.random.default_rng(0).normal(size=(2, 5, 2))
        preds, trace = forward(params, x)  # predictions are exactly 0
        grads = backward(params, trace, np.zeros((2, 1)))
        assert grads.shape == params.flat.shape and np.all(grads == 0.0)

    def test_dense_bias_gradient_zero_at_minimum(self):
        rng = np.random.default_rng(4)
        params = init_parameters("lstm", 2, 4, rng)
        x = rng.normal(size=(1, 5, 2))
        preds, trace = forward(params, x)
        grads = backward(params, trace, preds.copy())  # target equals prediction
        assert params.views(grads)["b_out"][0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_matches_finite_differences(self, cell):
        report = check_random_model(seed=123, cell=cell, input_size=3, batch=3)
        assert report.passed, report

    def test_target_shape_mismatch(self):
        params = zero_params("lstm")
        x = np.zeros((2, 5, 2))
        _, trace = forward(params, x)
        for targets in (np.zeros((3, 1)), np.zeros(2)):  # a (B,) target is not (B, T_out) either
            with pytest.raises(ShapeMismatch):
                backward(params, trace, targets)


def _max_norm_error(new, ref):
    """Largest elementwise error over the reference's largest magnitude.

    The norm is floored at 1e-3 (all compared tensors are O(1e-2) or larger
    unless their terms cancel), so a tensor that cancels to near zero is
    held to an absolute 1e-15 instead of a meaningless relative figure.
    """
    return float(np.max(np.abs(new - ref)) / max(np.max(np.abs(ref)), 1e-3))


def assert_traces_equal(got: ForwardTrace, want: ForwardTrace, context=()) -> None:
    """Every field of two traces bit for bit, or None in both."""
    for f in fields(ForwardTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None and b is None) or np.array_equal(a, b), (*context, f.name)


def assert_matches_unfolded(params, x, y, lead=(), seed=0) -> None:
    """A stack of `lead` models around `params` (just `params` for lead = ())
    against each model's own `forward`, and that against `unfolded_nn`: every
    trace field and the gradient `backward` takes from each trace, bit for bit."""
    rng = np.random.default_rng(seed)
    stack = params.flat + (rng.normal(0.0, 0.1, (*lead, params.flat.size)) if lead else 0.0)
    _, trace = forward(params.with_flat(stack), x)
    for k in np.ndindex(lead):
        one = params.with_flat(stack[k])
        _, one_trace = forward(one, x)
        _, ref_trace = unfolded_nn.forward(one, x)
        assert_traces_equal(one_trace, ref_trace, ("unfolded",))
        assert_traces_equal(trace.model(k), one_trace, ("stack", k))
        grads = backward(one, one_trace, y)
        assert np.array_equal(grads, backward(one, ref_trace, y)), "backward, unfolded"
        assert np.array_equal(grads, backward(one, trace.model(k), y)), ("backward, stack", k)


class TestKernelOracle:
    """The fused kernel against the per-step reference in `reference_nn`.

    The reference takes the LSTM blocks as i, f, g, o; its parameters are
    permuted into that order and its gradients back.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        cell=st.sampled_from(["lstm", "gru"]),
        batch=st.sampled_from([1, 2, 32]),
        window=st.sampled_from([1, 5, 18]),
        input_size=st.sampled_from([1, 3]),
        hidden=st.sampled_from([1, 4, 32]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_reference(self, cell, batch, window, input_size, hidden, seed):
        rng = np.random.default_rng(seed)
        params = init_parameters(cell, input_size, hidden, rng)
        params.b += rng.normal(0.0, 0.5, params.b.shape)
        params.b_out += rng.normal(0.0, 0.5, params.b_out.shape)
        x = rng.normal(0.0, 1.0, (batch, window, input_size))
        y = rng.normal(0.0, 1.0, (batch, 1))

        preds, trace = forward(params, x)
        grads = backward(params, trace, y)
        gated = ("w_x", "w_h", "b")
        ref_params = replace(params, **{k: swap_g_o(cell, getattr(params, k), hidden) for k in gated})
        ref_preds, acts = reference_forward(ref_params, x)
        ref_grads = reference_backward(ref_params, x, ref_preds, acts, y)
        ref_grads = {k: swap_g_o(cell, g, hidden) if k in gated else g for k, g in ref_grads.items()}

        grads = params.views(grads)
        assert _max_norm_error(preds, ref_preds) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert grads[name].shape == ref.shape, name
            assert _max_norm_error(grads[name], ref) <= 1e-12, name
        assert np.allclose(trace.h_prev, acts["h_prev"], rtol=0.0, atol=1e-12)
        if cell == "lstm":
            assert np.allclose(trace.cells[1:], acts["c"], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize(
        "d,h,batch,window", [(1, 32, 32, 18), (3, 32, 256, 18), (3, 4, 2, 5), (2, 7, 3, 1)]
    )
    def test_bit_identical_to_unfolded_forward(self, cell, d, h, batch, window):
        rng = np.random.default_rng(23)
        params = init_parameters(cell, d, h, rng)
        params.b += rng.normal(0.0, 0.5, params.b.shape)
        x = rng.normal(0.0, 1.0, (batch, window, d))
        assert_matches_unfolded(params, x, rng.normal(0.0, 1.0, (batch, 1)))

    @settings(max_examples=80, deadline=None)
    @given(
        cell=st.sampled_from(["lstm", "gru"]),
        d=st.integers(1, 3),
        h=st.integers(1, 8),
        batch=st.integers(1, 4),
        window=st.integers(1, 6),
        lead=st.sampled_from([(), (1,), (2,), (5,), (2, 3), (3, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    # The fixed shapes above, each in a stack of two.
    @example(cell="lstm", d=1, h=32, batch=32, window=18, lead=(2,), seed=23)
    @example(cell="gru", d=3, h=32, batch=256, window=18, lead=(2,), seed=23)
    @example(cell="gru", d=3, h=4, batch=2, window=5, lead=(2,), seed=23)
    @example(cell="lstm", d=2, h=7, batch=3, window=1, lead=(2,), seed=23)
    def test_every_trace_field_and_gradient_match_the_unfolded_kernel(
        self, cell, d, h, batch, window, lead, seed
    ):
        rng = np.random.default_rng(seed)
        params = init_parameters(cell, d, h, rng)
        params.b += rng.normal(0.0, 0.5, params.b.shape)
        x = rng.normal(0.0, 1.0, (batch, window, d))
        assert_matches_unfolded(params, x, rng.normal(0.0, 1.0, (batch, 1)), lead, seed)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_parameters_untouched(self, cell):
        rng = np.random.default_rng(11)
        params = init_parameters(cell, 3, 4, rng)
        before = params.flat.copy()
        _, trace = forward(params, rng.normal(size=(2, 5, 3)))
        backward(params, trace, rng.normal(size=(2, 1)))
        assert np.array_equal(params.flat, before)


class TestStackedForward:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("lead", [(1,), (7,), (2, 3)])
    def test_each_model_matches_its_own_forward(self, cell, lead):
        rng = np.random.default_rng(31)
        for d in (3, 1):  # D = 1 is every Net-mode model
            params = init_parameters(cell, d, 4, rng, out_size=2)
            stack = params.flat + rng.normal(0.0, 0.5, (*lead, params.flat.size))
            for batch in (3, 1):
                x = rng.normal(0.0, 1.0, (batch, 5, d))
                preds, trace = forward(params.with_flat(stack), x)
                assert preds.shape == (*lead, batch, 2)
                assert trace.h_prev.shape == (5, *lead, batch, 4)
                # Each step's activations read whole rows: all four LSTM gates
                # in one buffer; the GRU's r and z in one, its candidate n in another.
                widths = {"gates": 16} if cell == "lstm" else {"gates": 8, "cand": 4}
                for name, width in widths.items():
                    got = getattr(trace, name)
                    assert got.shape == (5, *lead, batch, width) and got.flags.c_contiguous, name
                for k in np.ndindex(lead):
                    _, one_trace = forward(params.with_flat(stack[k]), x)
                    assert_traces_equal(trace.model(k), one_trace, (d, batch, k))

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_one_model_allocates_its_gate_buffer_once(self, cell):
        # A single LSTM's GEMM result is already time-major: it is the gate
        # buffer, not a copy. The peak alone would not show a copy, whose source
        # is freed before the state buffers exist, so the view is checked too.
        # The GRU copies its r, z and n blocks out of that result once each.
        rng = np.random.default_rng(36)
        params = init_parameters(cell, 3, 32, rng)
        x = rng.normal(0.0, 1.0, (32, 18, 3))
        tracemalloc.start()
        try:
            _, trace = forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        owners = {}  # the trace's own buffers, each counted once (GRU's hh_n is a view of one)
        for name in ("preds", "states", "gates", "cells", "tanh_c", "cand", "hh_n"):
            array = getattr(trace, name)
            if array is not None:
                owner = array if array.base is None else array.base
                owners[id(owner)] = owner.nbytes
        assert peak < 1.25 * sum(owners.values()), (peak, sum(owners.values()))
        if cell == "lstm":
            assert trace.gates.base is not None and trace.gates.base.nbytes == trace.gates.nbytes
        else:
            assert trace.gates.base is None and trace.cand.base is None

    def test_views_follow_the_stack(self):
        params = init_parameters("gru", 2, 3, np.random.default_rng(0))
        stack = np.repeat(params.flat[None, :], 4, axis=0)
        stacked = params.with_flat(stack)
        assert stacked.w_h.shape == (4, 3, 9) and stacked.hidden_size == 3
        stacked.w_h[2, 0, 0] = 5.0
        assert stack[2, 2 * 9] == 5.0  # w_h starts after the (2, 9) w_x
        assert np.shares_memory(stacked.flat, stack) and params.w_h[0, 0] != 5.0

    def test_backward_rejects_a_stack(self):
        rng = np.random.default_rng(32)
        params = init_parameters("lstm", 3, 4, rng)
        stacked = params.with_flat(np.stack([params.flat, params.flat]))
        x, y = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 1))
        _, trace = forward(stacked, x)
        with pytest.raises(ShapeMismatch, match="one model"):
            backward(stacked, trace, y)


class TestGradCheck:
    @settings(max_examples=60, deadline=None)
    @given(
        cell=st.sampled_from(["lstm", "gru"]),
        d=st.sampled_from([1, 3]),
        h=st.sampled_from([1, 4]),
        window=st.sampled_from([1, 5]),
        batch=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_matches_per_element_loop(self, cell, d, h, window, batch, seed):
        rng = np.random.default_rng(seed)
        params = init_parameters(cell, d, h, rng)
        x = rng.normal(0.0, 1.0, (batch, window, d))
        y = rng.normal(0.0, 1.0, (batch, 1))
        before = params.flat.copy()
        got, trace = numerical_gradients(params, x, y)
        assert np.array_equal(params.flat, before)
        ref = reference_numerical_gradients(params, x, y, gc.DEFAULT_STEP)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-9)
        assert_traces_equal(trace, forward(params, x)[1])  # the stack's unperturbed last row

    def test_blocks_match_per_element_loop(self, monkeypatch):
        rng = np.random.default_rng(33)
        params = init_parameters("lstm", 3, 8, rng)
        x = rng.normal(0.0, 1.0, (3, 5, 3))
        y = rng.normal(0.0, 1.0, (3, 1))
        calls = []

        def counted(p, inputs):
            calls.append(p.flat.shape[0])
            return forward(p, inputs)

        monkeypatch.setattr(gc, "forward", counted)
        got, _ = numerical_gradients(params, x, y)
        assert len(calls) > 1 and sum(calls) == 2 * params.flat.size + 1, calls
        ref = reference_numerical_gradients(params, x, y, gc.DEFAULT_STEP)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_traced_peak_within_the_block_bound(self, cell):
        # 7 (LSTM) or 9 (GRU) models a block, so the check takes many calls.
        rng = np.random.default_rng(35)
        params = init_parameters(cell, 3, 4, rng)
        x = rng.normal(0.0, 1.0, (32, 18, 3))
        y = rng.normal(0.0, 1.0, (32, 1))
        tracemalloc.start()
        try:
            numerical_gradients(params, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        losses = 2 * params.flat.nbytes
        assert peak < 2 * 8 * gc.BLOCK_ELEMENTS + losses, peak

    def test_target_shape_mismatch(self):
        rng = np.random.default_rng(34)
        params = init_parameters("gru", 1, 2, rng)
        for targets in (np.zeros((3, 1)), np.zeros(2)):  # a (B,) target is not (B, T_out) either
            with pytest.raises(ShapeMismatch):
                numerical_gradients(params, rng.normal(size=(2, 4, 1)), targets)

    def test_injected_fault_detected(self, monkeypatch):
        rng = np.random.default_rng(9)
        params = init_parameters("lstm", 3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        y = rng.normal(size=(2, 1))
        assert grad_check(params, x, y).passed

        original = gc.backward

        def faulty(p, trace, targets):
            grads = original(p, trace, targets)
            p.views(grads)["w_h"][:] = 0.0
            return grads

        monkeypatch.setattr(gc, "backward", faulty)
        assert not grad_check(params, x, y).passed

    def test_large_step_degrades_accuracy(self):
        rng = np.random.default_rng(10)
        params = init_parameters("lstm", 1, 4, rng)
        x = rng.normal(size=(1, 5, 1))
        y = rng.normal(size=(1, 1))
        fine = grad_check(params, x, y, step=1e-5)
        coarse = grad_check(params, x, y, step=1e-1)
        assert coarse.max_rel_error > fine.max_rel_error


class TestRMSProp:
    @settings(max_examples=60, deadline=None)
    @given(
        cell=st.sampled_from(["lstm", "gru"]),
        d=st.integers(1, 3),
        h=st.integers(1, 5),
        t_out=st.integers(1, 3),
        data=st.data(),
    )
    def test_flat_step_matches_per_tensor_replay(self, cell, d, h, t_out, data):
        params = init_parameters(cell, d, h, np.random.default_rng(0), out_size=t_out)
        names = ("w_x", "w_h", "b", "w_out", "b_out")  # the documented order of `flat`
        finite = dict(allow_nan=False, allow_infinity=False)
        grads = {n: data.draw(arrays(np.float64, getattr(params, n).shape,
                                     elements=st.floats(-1e3, 1e3, **finite)), label=n)
                 for n in names}
        accs = {n: data.draw(arrays(np.float64, getattr(params, n).shape,
                                    elements=st.floats(0.0, 1e3, **finite)), label=f"acc {n}")
                for n in names}
        state = RMSPropState.for_parameters(params, learning_rate=0.01, decay=0.8, epsilon=1e-6)
        state.acc[:] = np.concatenate([accs[n].ravel() for n in names])
        want = {}
        for n in names:  # the per-tensor update, one tensor at a time
            g, acc = grads[n], accs[n]
            acc *= 0.8
            acc += (1.0 - 0.8) * g * g
            want[n] = getattr(params, n) - 0.01 * g / np.sqrt(acc + 1e-6)

        rmsprop_step(params, np.concatenate([grads[n].ravel() for n in names]), state)
        for n in names:
            assert np.array_equal(getattr(params, n), want[n]), n
        assert np.array_equal(state.acc, np.concatenate([accs[n].ravel() for n in names]))

    def test_zero_gradient_decays_accumulator_only(self):
        params = zero_params("lstm", d=1, h=2)
        state = RMSPropState.for_parameters(params)
        params.views(state.acc)["b_out"][:] = 1.0
        before = params.flat.copy()
        rmsprop_step(params, np.zeros_like(params.flat), state)
        assert np.array_equal(params.flat, before)
        assert params.views(state.acc)["b_out"][0] == pytest.approx(0.9)

    def test_single_step_hand_value(self):
        params = zero_params("lstm", d=1, h=1)
        state = RMSPropState.for_parameters(params)
        grads = np.zeros_like(params.flat)
        params.views(grads)["b_out"][:] = 1.0
        rmsprop_step(params, grads, state)
        want = -1e-3 * 1.0 / math.sqrt(0.1 + 1e-8)
        assert params.b_out[0] == pytest.approx(want, rel=1e-12)

    def test_two_steps_decrease_convex_quadratic(self):
        # Replay the update rule by hand on loss(theta) = theta^2 as the oracle.
        theta, acc = 1.0, 0.0
        replay = []
        for _ in range(2):
            g = 2.0 * theta
            acc = 0.9 * acc + 0.1 * g * g
            theta = theta - 1e-3 * g / math.sqrt(acc + 1e-8)
            replay.append(theta)
        assert replay[0] ** 2 < 1.0
        assert replay[1] ** 2 < replay[0] ** 2

        params = zero_params("lstm", d=1, h=1)
        params.b_out[0] = 1.0
        state = RMSPropState.for_parameters(params)
        for step in range(2):
            grads = np.zeros_like(params.flat)
            params.views(grads)["b_out"][:] = 2.0 * params.b_out[0]
            rmsprop_step(params, grads, state)
            assert params.b_out[0] == pytest.approx(replay[step], rel=1e-12)

    def test_shape_mismatch_rejected(self):
        params = zero_params("lstm", d=1, h=1)
        state = RMSPropState.for_parameters(params)
        with pytest.raises(ShapeMismatch):
            rmsprop_step(params, np.zeros(params.flat.size + 1), state)


class TestParameters:
    def test_init_shapes_and_forget_bias(self):
        rng = np.random.default_rng(5)
        lstm = init_parameters("lstm", 3, 32, rng)
        assert lstm.w_x.shape == (3, 128)
        assert lstm.w_h.shape == (32, 128)
        assert np.all(lstm.b[32:64] == 1.0)  # forget-gate block
        assert lstm.w_out.shape == (32, 1)
        gru = init_parameters("gru", 1, 32, rng)
        assert gru.w_x.shape == (1, 96)
        assert np.all(np.abs(gru.w_x) <= 1.0 / np.sqrt(32))

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ShapeMismatch):
            ModelParameters(
                "lstm",
                np.zeros((2, 12)),  # 12 != 4 * 4
                np.zeros((4, 16)),
                np.zeros(16),
                np.zeros((4, 1)),
                np.zeros(1),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeMismatch):
            ModelParameters(
                "lstm",
                np.full((1, 4), np.nan),
                np.zeros((1, 4)),
                np.zeros(4),
                np.zeros((1, 1)),
                np.zeros(1),
            )

    def test_lstm_init_draws_blocks_ifgo_and_stores_ifog(self):
        params = init_parameters("lstm", 2, 3, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        scale = 1.0 / np.sqrt(3)
        w_x = rng.uniform(-scale, scale, (2, 12))
        w_h = rng.uniform(-scale, scale, (3, 12))
        assert np.array_equal(params.w_x, swap_g_o("lstm", w_x, 3))
        assert np.array_equal(params.w_h, swap_g_o("lstm", w_h, 3))

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_fields_are_views_of_flat(self, cell):
        w_x = np.random.default_rng(7).normal(size=(2, GATE_BLOCKS[cell] * 3))
        params = ModelParameters(cell, w_x, np.zeros((3, w_x.shape[1])), np.ones(w_x.shape[1]),
                                 np.full((3, 2), 2.0), np.full(2, 3.0))
        fields = (params.w_x, params.w_h, params.b, params.w_out, params.b_out)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert np.array_equal(params.flat, np.concatenate([t.ravel() for t in fields]))
        assert all(np.shares_memory(t, params.flat) for t in fields)
        assert not np.shares_memory(params.w_x, w_x)  # the constructor copies
        params.flat[1] = -5.0
        assert params.w_x[0, 1] == -5.0
        params.w_out[2, 1] = 7.0
        assert params.flat[-3] == 7.0
        for name, view in params.views(params.flat).items():
            assert np.array_equal(view, getattr(params, name)), name

    def test_copy_is_deep(self):
        rng = np.random.default_rng(6)
        params = init_parameters("gru", 2, 3, rng)
        clone = params.copy()
        assert not np.shares_memory(clone.flat, params.flat)
        clone.w_x[0, 0] += 1.0
        assert params.w_x[0, 0] != clone.w_x[0, 0]
        assert clone.flat[0] == clone.w_x[0, 0]

    def test_copy_keeps_non_finite_weights(self):
        # A diverging training step may leave them; `Diverged`, not ShapeMismatch, reports it.
        params = init_parameters("lstm", 1, 2, np.random.default_rng(8))
        params.flat[3] = np.nan
        assert np.isnan(params.copy().w_x[0, 3])


# A fresh process, warmed up, then counting its minor page faults over the
# `gradcheck` workload's 20 models and 50 LSTM B=32 training steps.
FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from v2x_loadcast import gradcheck, nn, optim

    def check_models(first):
        for k in range(20):
            gradcheck.check_random_model(first + k, "lstm" if k % 2 == 0 else "gru",
                                         3 if k % 4 < 2 else 1)

    def faults(work, arg):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        work(arg)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    check_models(0)
    per_model = faults(check_models, 100) / 20

    rng = np.random.default_rng(1)
    params = nn.init_parameters("lstm", 3, 32, rng)
    state = optim.RMSPropState.for_parameters(params)
    x, y = rng.normal(size=(32, 18, 3)), rng.normal(size=(32, 1))

    def train_step():  # frees all it allocated when it returns
        trace = nn.forward(params, x)[1]
        optim.rmsprop_step(params, nn.backward(params, trace, y), state)

    def train_steps(n):
        for _ in range(n):
            train_step()

    train_steps(10)
    print(per_model, faults(train_steps, 50) / 50)
""")

# Importing the package under a fake C library: one without mallopt, or none at all.
FAKE_LIBC = {
    "no-mallopt": "ctypes.CDLL = lambda name: object()",
    "no-library": "def no_library(name):\n    raise OSError('cannot load')\nctypes.CDLL = no_library",
}


class TestHeapThresholds:
    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
        reason="the pinned thresholds and ru_minflt are Linux/glibc's",
    )
    def test_steady_state_gradcheck_and_training_take_no_minor_faults(self):
        # Unpinned, glibc trims the heap or maps arrays afresh between calls:
        # 30-100 faults per model and about 380 per step, with the history.
        run = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                             env=dict(src_env(), OPENBLAS_NUM_THREADS="1"), timeout=60)
        assert run.returncode == 0, run.stderr
        per_model, per_step = map(float, run.stdout.split())
        assert per_model < 5 and per_step < 5, (per_model, per_step)

    @pytest.mark.parametrize("env, pinned", [
        ({}, [(-3, 32 << 20), (-1, 64 << 20)]),  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        ({"MALLOC_TRIM_THRESHOLD_": "0"}, [(-3, 32 << 20)]),
        ({"MALLOC_MMAP_THRESHOLD_": "4096"}, [(-1, 64 << 20)]),
        ({"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=4096"}, [(-1, 64 << 20)]),
        ({"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0:glibc.malloc.trim_threshold=0"},
         [(-3, 32 << 20)]),
    ])
    def test_pin_sets_each_threshold_glibc_was_not_given(self, monkeypatch, env, pinned):
        for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        calls = []
        library = SimpleNamespace(mallopt=lambda *args: calls.append(args))
        monkeypatch.setattr("ctypes.CDLL", lambda name: library)
        pin_heap_thresholds()
        assert calls == pinned

    @pytest.mark.parametrize("fake", FAKE_LIBC.values(), ids=FAKE_LIBC.keys())
    def test_without_mallopt_the_pin_does_nothing_and_the_package_imports(self, fake):
        script = f"import ctypes\nimport numpy\n{fake}\n" + textwrap.dedent("""
            from v2x_loadcast.cli import dispatch  # imports nn, which calls the pin
            assert dispatch(["gradcheck", "--seeds", "1"]) == 0
        """)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=src_env(), timeout=60)
        assert run.returncode == 0, run.stderr
