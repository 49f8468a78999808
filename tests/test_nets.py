import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occq import nets
from occq.errors import InvalidSpec, NumericalFault, ShapeError
from occq.nets import (
    AdamState,
    MLPParams,
    adam_step,
    backward,
    forward,
    init_adam,
    init_mlp,
    l2_normalize,
    l2_normalize_backward,
)

from conftest import finite_difference, max_rel_error


def reference_forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Straightforward second evaluation path, written loop by loop."""
    h = np.array(x, dtype=np.float64)
    for i in range(params.n_hidden):
        z = params.weights[i] @ h + params.biases[i]
        if params.layernorm:
            mean = z.mean()
            var = ((z - mean) ** 2).mean()
            z = params.ln_scales[i] * (z - mean) / np.sqrt(var + 1e-5) + params.ln_shifts[i]
        a = np.array([v if v > 0 else 0.0 for v in z])
        h = np.concatenate([h, a]) if params.densenet else a
    return params.weights[-1] @ h + params.biases[-1]


class TestForward:
    def test_zero_net_zero_output(self):
        params = MLPParams(
            weights=[np.zeros((4, 3)), np.zeros((2, 7))],
            biases=[np.zeros(4), np.zeros(2)],
            ln_scales=[np.ones(4)],
            ln_shifts=[np.zeros(4)],
            densenet=True,
            layernorm=False,
        )
        y, _ = forward(params, np.array([1.0, -2.0, 3.0])[None, :])
        assert np.all(y[0] == 0.0)

    def test_identity_single_layer(self):
        params = MLPParams(
            weights=[np.eye(3)], biases=[np.zeros(3)], ln_scales=[], ln_shifts=[], densenet=False
        )
        x = np.array([0.3, -1.2, 9.0])
        y, _ = forward(params, x[None, :])
        assert np.array_equal(y[0], x)

    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize("layernorm", [True, False])
    def test_matches_reference_implementation(self, rng, densenet, layernorm):
        params = init_mlp(rng, 5, (8, 6), 4, densenet=densenet, layernorm=layernorm)
        for _ in range(5):
            x = rng.standard_normal(5)
            y, _ = forward(params, x[None, :])
            assert np.max(np.abs(y[0] - reference_forward(params, x))) <= 1e-12

    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize("layernorm", [True, False])
    def test_same_bits_as_out_of_place_formulas(self, rng, densenet, layernorm):
        params = init_mlp(rng, 5, (7, 6), 3, densenet=densenet, layernorm=layernorm)
        params.ln_scales = [rng.uniform(0.5, 1.5, s.shape) for s in params.ln_scales]
        params.ln_shifts = [rng.uniform(-0.5, 0.5, s.shape) for s in params.ln_shifts]
        x = rng.standard_normal((40, 5))
        y, cache = forward(params, x)
        h = x
        for i, layer in enumerate(cache["layers"]):
            z = h @ params.weights[i].T + params.biases[i]
            n = z
            if layernorm:
                inv_std = 1.0 / np.sqrt(np.var(z, axis=1, keepdims=True) + 1e-5)
                z_hat = (z - np.mean(z, axis=1, keepdims=True)) * inv_std
                n = params.ln_scales[i] * z_hat + params.ln_shifts[i]
                assert np.array_equal(layer["z_hat"], z_hat) and np.array_equal(layer["inv_std"], inv_std)
            assert np.array_equal(layer["x"], h) and np.array_equal(layer["relu_mask"], n > 0.0)
            a = np.maximum(n, 0.0)
            h = np.concatenate([h, a], axis=1) if densenet else a
        assert np.array_equal(y, h @ params.weights[-1].T + params.biases[-1])

    def test_shape_mismatch(self, rng):
        params = init_mlp(rng, 4, (6,), 3)
        with pytest.raises(ShapeError):
            forward(params, np.zeros(5)[None, :])

    def test_nonfinite_faults(self, rng):
        params = init_mlp(rng, 3, (), 2)
        params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericalFault):
            forward(params, np.ones(3)[None, :])


class TestBackward:
    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize("layernorm", [True, False])
    def test_param_grads_match_finite_differences(self, densenet, layernorm):
        rng = np.random.default_rng(7)
        params = init_mlp(rng, 4, (6, 5), 3, densenet=densenet, layernorm=layernorm)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 3))  # fixed projection to a scalar loss

        def loss(arrays):
            p = nets.with_param_list(params, arrays)
            y, _ = forward(p, x)
            return float((y * w).sum())

        arrays = nets.param_list(params)
        y, cache = forward(params, x)
        grads, _ = backward(params, cache, w)
        fd = finite_difference(loss, arrays)
        assert max_rel_error(nets.grad_list(params, grads), fd) <= 1e-4

    def test_input_grad_matches_finite_differences(self, rng):
        params = init_mlp(rng, 4, (6,), 3)
        x = rng.standard_normal(4)[None, :]
        w = rng.standard_normal(3)[None, :]
        _, cache = forward(params, x)
        _, dx = backward(params, cache, w)

        def loss(arrays):
            y, _ = forward(params, arrays[0])
            return float((y * w).sum())

        fd = finite_difference(loss, [x.copy()])
        assert max_rel_error([dx], fd) <= 1e-4

    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize("layernorm", [True, False])
    def test_input_grad_alone_has_the_same_bits(self, rng, densenet, layernorm):
        params = init_mlp(rng, 5, (8, 6), 3, densenet=densenet, layernorm=layernorm)
        _, cache = forward(params, rng.standard_normal((7, 5)))
        dy = rng.standard_normal((7, 3))
        grads, dx = backward(params, cache, dy, param_grads=False)
        assert grads is None
        assert dx.tobytes() == backward(params, cache, dy)[1].tobytes()

    def test_zero_output_grad(self, rng):
        params = init_mlp(rng, 3, (4,), 2)
        _, cache = forward(params, rng.standard_normal(3)[None, :])
        grads, dx = backward(params, cache, np.zeros(2)[None, :])
        assert all(np.all(g == 0.0) for g in nets.grad_list(params, grads))
        assert np.all(dx == 0.0)

    def test_linear_layer_closed_form(self, rng):
        params = MLPParams(
            weights=[rng.standard_normal((3, 4))],
            biases=[np.zeros(3)],
            ln_scales=[],
            ln_shifts=[],
            densenet=False,
        )
        x = rng.standard_normal(4)
        g = rng.standard_normal(3)
        _, cache = forward(params, x[None, :])
        grads, _ = backward(params, cache, g[None, :])
        assert np.max(np.abs(grads.weights[0] - np.outer(g, x))) <= 1e-14
        assert np.max(np.abs(grads.biases[0] - g)) <= 1e-14


class TestAdam:
    def test_zero_gradient_keeps_params(self, rng):
        arrays = [rng.standard_normal((3, 2)), rng.standard_normal(3)]
        state = init_adam(arrays, learning_rate=1e-3)
        new_state, new_arrays, _ = adam_step(state, arrays, [np.zeros_like(a) for a in arrays])
        assert new_state.step_count == 1
        for a, b in zip(arrays, new_arrays):
            assert np.array_equal(a, b)

    def test_descent_direction(self):
        arrays = [np.zeros(4)]
        state = init_adam(arrays, learning_rate=1e-2)
        g = np.array([1.0, -2.0, 3.0, -4.0])
        for _ in range(50):
            state, arrays, _ = adam_step(state, arrays, [g])
        assert np.all(np.sign(arrays[0]) == -np.sign(g))

    def test_gradient_clipped_to_max_norm(self):
        arrays = [np.zeros(2)]
        state = init_adam(arrays, learning_rate=1.0)
        huge = [np.array([1e6, 0.0])]
        _, _, norm = adam_step(state, arrays, huge, max_grad_norm=100.0)
        assert norm == pytest.approx(1e6)
        # applied update uses the clipped gradient: reconstruct its norm
        state2 = init_adam(arrays, learning_rate=1.0)
        new_state, _, _ = adam_step(state2, arrays, huge, max_grad_norm=100.0)
        applied = np.linalg.norm(new_state.m) / 0.1  # beta1 = 0.9
        assert applied == pytest.approx(100.0)

    def test_nonfinite_gradient_faults(self):
        arrays = [np.zeros(2)]
        state = init_adam(arrays, learning_rate=1.0)
        with pytest.raises(NumericalFault):
            adam_step(state, arrays, [np.array([np.nan, 0.0])])

    @pytest.mark.parametrize("grad_scale", [0.1, 1e3])  # below and above the clipping norm
    def test_matches_per_array_loop(self, rng, grad_scale):
        arrays = [rng.standard_normal(s) for s in [(4, 3), (4,), (2, 7), (1,), (5,)]]
        state = init_adam(arrays, learning_rate=1e-2)
        ref_p, ref_m, ref_v = arrays, [np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays]
        b1, b2, eps, lr, max_norm = 0.9, 0.999, 1e-8, 1e-2, 100.0
        for t in range(1, 6):
            grads = [grad_scale * rng.standard_normal(a.shape) for a in arrays]
            state, arrays, norm = adam_step(state, arrays, grads, max_grad_norm=max_norm)
            ref_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
            if ref_norm > max_norm:
                grads = [g * (max_norm / ref_norm) for g in grads]
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            ref_m = [b1 * m + (1.0 - b1) * g for m, g in zip(ref_m, grads)]
            ref_v = [b2 * v + (1.0 - b2) * g * g for v, g in zip(ref_v, grads)]
            ref_p = [p - lr * (m / c1) / (np.sqrt(v / c2) + eps) for p, m, v in zip(ref_p, ref_m, ref_v)]
            assert norm == ref_norm
            assert state.step_count == t
            for got, want in zip(arrays, ref_p):
                assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(state.m, np.concatenate([m.reshape(-1) for m in ref_m]))
            assert np.array_equal(state.v, np.concatenate([v.reshape(-1) for v in ref_v]))

    def test_inputs_left_untouched(self, rng):
        arrays = [rng.standard_normal((3, 2)), rng.standard_normal(3)]
        state = init_adam(arrays, learning_rate=1e-2)
        state, arrays, _ = adam_step(state, arrays, [rng.standard_normal(a.shape) for a in arrays])
        grads = [1e3 * rng.standard_normal(a.shape) for a in arrays]  # clipped
        before = [a.copy() for a in arrays + grads], state.m.copy(), state.v.copy()
        adam_step(state, arrays, grads)
        assert all(np.array_equal(a, b) for a, b in zip(arrays + grads, before[0]))
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert state.step_count == 1


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])[None, :])[0], [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(l2_normalize(v[None, :])[0], v)

    def test_zero_vector_guarded_and_flagged(self):
        nets.reset_l2_degenerate_rows()
        out = l2_normalize(np.zeros(3)[None, :])[0]
        assert np.all(out == 0.0)
        assert nets.l2_degenerate_rows() == 1

    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_output_norm_one(self, seed, dim):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 3)
        norm = np.linalg.norm(l2_normalize(v[None, :])[0])
        assert abs(norm - 1.0) <= 1e-9

    def test_backward_matches_finite_differences(self, rng):
        v = rng.standard_normal((2, 5))
        w = rng.standard_normal((2, 5))

        def loss(arrays):
            return float((l2_normalize(arrays[0]) * w).sum())

        fd = finite_difference(loss, [v.copy()])
        analytic = l2_normalize_backward(v, w)
        assert max_rel_error([analytic], fd) <= 1e-4


class TestLayout:
    FIELDS = ("weights", "biases", "ln_scales", "ln_shifts")

    def assert_same_arrays(self, got, want):
        for field in self.FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize("layernorm", [True, False])
    def test_checkpoint_arrays_round_trip(self, rng, densenet, layernorm):
        params = init_mlp(rng, 4, (6, 5), 3, densenet=densenet, layernorm=layernorm)
        params.ln_scales = [rng.uniform(0.5, 1.5, s.shape) for s in params.ln_scales]
        params.ln_shifts = [rng.uniform(-0.5, 0.5, s.shape) for s in params.ln_shifts]
        arrays = nets.mlp_to_arrays("net", params)
        assert len(arrays) == 3 + 3 + 2 + 2
        back = nets.mlp_from_arrays(arrays, "net", densenet, layernorm)
        assert (back.densenet, back.layernorm) == (densenet, layernorm)
        self.assert_same_arrays(back, params)
        with pytest.raises(InvalidSpec):
            nets.mlp_from_arrays(arrays, "other", densenet, layernorm)
        del arrays["net/bias_1"]
        with pytest.raises(InvalidSpec):
            nets.mlp_from_arrays(arrays, "net", densenet, layernorm)

    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize(
        "name, cut, error",
        [
            ("weight_1", lambda a: a[:, 1:], "do not chain"),
            ("weight_2", lambda a: a[:-1], "do not chain"),
            ("bias_0", lambda a: a[1:], "do not chain"),
            ("ln_scale_1", lambda a: a[1:], "do not chain"),
            ("ln_shift_0", lambda a: a[:, None], "do not chain"),
            ("weight_0", lambda a: a.reshape(-1), "not matrices"),
        ],
        ids=["hidden-fan-in", "output-rows", "bias", "ln-scale", "ln-shift-2d", "weight-1d"],
    )
    def test_arrays_that_do_not_chain_rejected(self, rng, densenet, name, cut, error):
        arrays = nets.mlp_to_arrays("net", init_mlp(rng, 4, (6, 5), 3, densenet=densenet))
        arrays[f"net/{name}"] = cut(arrays[f"net/{name}"])
        with pytest.raises(InvalidSpec, match=error):
            nets.mlp_from_arrays(arrays, "net", densenet, True)

    @pytest.mark.parametrize("densenet", [True, False])
    @pytest.mark.parametrize("layernorm", [True, False])
    def test_grads_share_the_param_layout(self, rng, densenet, layernorm):
        params = init_mlp(rng, 4, (6, 5), 3, densenet=densenet, layernorm=layernorm)
        _, cache = forward(params, rng.standard_normal((2, 4)))
        grads, _ = backward(params, cache, rng.standard_normal((2, 3)))
        assert [g.shape for g in nets.param_list(grads)] == [p.shape for p in nets.param_list(params)]

    @pytest.mark.parametrize("layernorm", [True, False])
    def test_adam_update_matches_flat_step(self, rng, layernorm):
        sa = init_mlp(rng, 5, (6, 4), 3, layernorm=layernorm)
        future = init_mlp(rng, 3, (6, 4), 3, layernorm=layernorm)
        mlps = [sa, future]
        state = init_adam(nets.param_list(sa) + nets.param_list(future), learning_rate=1e-2)
        for _ in range(4):
            grads = []
            for mlp in mlps:
                _, cache = forward(mlp, rng.standard_normal((4, mlp.input_dim)))
                grads.append(backward(mlp, cache, rng.standard_normal((4, 3)))[0])
            # reference: one flat adam_step, split back by hand
            arrays = nets.param_list(mlps[0]) + nets.param_list(mlps[1])
            flat = nets.grad_list(mlps[0], grads[0]) + nets.grad_list(mlps[1], grads[1])
            want_state, want_arrays, want_norm = adam_step(state, arrays, flat, max_grad_norm=1.0)
            n_sa = len(nets.param_list(mlps[0]))
            want = [
                nets.with_param_list(mlps[0], want_arrays[:n_sa]),
                nets.with_param_list(mlps[1], want_arrays[n_sa:]),
            ]
            state, mlps, norm = nets.adam_update(state, mlps, grads, 1.0)
            assert norm == want_norm and state.step_count == want_state.step_count
            assert np.array_equal(state.m, want_state.m) and np.array_equal(state.v, want_state.v)
            for got, ref in zip(mlps, want):
                self.assert_same_arrays(got, ref)
        # untrained LayerNorm arrays stay as initialized
        if not layernorm:
            assert all(np.array_equal(s, np.ones_like(s)) for s in mlps[0].ln_scales)


def _backward_with_output_grad(rng, shape):
    params = init_mlp(rng, 4, (6,), 3)
    _, cache = forward(params, rng.standard_normal((5, 4)))
    return backward(params, cache, np.zeros(shape))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: _backward_with_output_grad(rng, (5, 2)), "output_grad"),
        (lambda rng: _backward_with_output_grad(rng, (4, 3)), "output_grad"),
        (lambda rng: adam_step(init_adam([np.zeros(3)], 1e-3), [np.zeros(3)], [np.zeros(2)]), "gradient shapes"),
        (lambda rng: adam_step(init_adam([np.zeros(3)], 1e-3), [np.zeros(2)], [np.zeros(2)]), "optimizer state"),
        (lambda rng: forward(init_mlp(rng, 4, (6,), 3), np.zeros(4)), "input of shape"),
    ],
    ids=["backward-width", "backward-rows", "adam-gradient", "adam-state", "forward-vector"],
)
def test_mismatched_shapes_rejected(rng, call, message):
    with pytest.raises(ShapeError, match=message):
        call(rng)
