"""Minimal dense network kernel with explicit forward and backward passes.

The encoder architecture is an MLP whose hidden layers apply a linear map,
LayerNorm, then ReLU, and (in DenseNet mode) concatenate each layer's input
to its activation before the next layer; a final linear layer produces the
output.  Gradients are computed by hand and verified against central finite
differences in the test suite, which keeps training fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, NumericalFault, ShapeError

_LN_EPS = 1e-5
_L2_EPS = 1e-12

# Rows that hit the zero-vector guard in l2_normalize since the last reset.
_L2_DEGENERATE_ROWS = 0


@dataclass(eq=False)
class MLPParams:
    """Weights of one MLP.

    ``weights[i]`` has shape (fan_out, fan_in); the last entry is the output
    layer.  ``ln_scales`` / ``ln_shifts`` hold one LayerNorm pair per hidden
    layer (unused when ``layernorm`` is off).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    ln_scales: list[np.ndarray]
    ln_shifts: list[np.ndarray]
    densenet: bool = True
    layernorm: bool = True

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def n_hidden(self) -> int:
        return len(self.weights) - 1


# MLPParams list fields and their checkpoint array names; the order is the
# flat order of ``param_list``.
_FIELDS = {"weights": "weight", "biases": "bias", "ln_scales": "ln_scale", "ln_shifts": "ln_shift"}


def _trained(mlp: MLPParams) -> tuple[str, ...]:
    """Fields the optimizer updates: the LayerNorm pairs only when LayerNorm is on."""
    return tuple(_FIELDS) if mlp.layernorm else ("weights", "biases")


def mlp_to_arrays(prefix: str, mlp: MLPParams) -> dict[str, np.ndarray]:
    """Checkpoint arrays of one MLP, named ``{prefix}/weight_{i}`` and so on."""
    return {
        f"{prefix}/{name}_{i}": a for field, name in _FIELDS.items() for i, a in enumerate(getattr(mlp, field))
    }


def mlp_from_arrays(arrays: dict[str, np.ndarray], prefix: str, densenet: bool, layernorm: bool) -> MLPParams:
    """Inverse of ``mlp_to_arrays``."""
    lists = {}
    for field, name in _FIELDS.items():
        lists[field] = []
        while (key := f"{prefix}/{name}_{len(lists[field])}") in arrays:
            lists[field].append(arrays[key])
    n = len(lists["weights"])
    if not n or [len(v) for v in lists.values()] != [n, n, n - 1, n - 1]:
        raise InvalidSpec(f"checkpoint is missing {prefix!r} arrays")
    return MLPParams(**lists, densenet=densenet, layernorm=layernorm)


def map_params(fn, *mlps: MLPParams) -> MLPParams:
    """The first MLP with every array replaced by ``fn`` of the matching
    arrays of ``mlps``, entry by entry."""
    return replace(mlps[0], **{f: [fn(*xs) for xs in zip(*(getattr(m, f) for m in mlps))] for f in _FIELDS})


def init_mlp(
    rng: np.random.Generator,
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    densenet: bool = True,
    layernorm: bool = True,
) -> MLPParams:
    """Fan-in scaled uniform weights, zero biases, identity LayerNorm."""
    weights, biases, scales, shifts = [], [], [], []
    fan_in = input_dim
    for width in hidden:
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(width, fan_in)))
        biases.append(np.zeros(width))
        scales.append(np.ones(width))
        shifts.append(np.zeros(width))
        fan_in = fan_in + width if densenet else width
    bound = 1.0 / np.sqrt(fan_in)
    weights.append(rng.uniform(-bound, bound, size=(output_dim, fan_in)))
    biases.append(np.zeros(output_dim))
    return MLPParams(weights, biases, scales, shifts, densenet=densenet, layernorm=layernorm)


def forward(params: MLPParams, x: np.ndarray):
    """Evaluate the network; returns (output, cache) with the cache holding
    every intermediate needed by ``backward``.  Accepts a single vector or a
    batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"input of width {x.shape[-1]} into a net expecting {params.input_dim}")
    layers = []
    h = x
    for i in range(params.n_hidden):
        # z = h W^T + b, z_hat = (z - mean) * inv_std, n = scale * z_hat + shift and
        # a = relu(n), each updated in place: fewer fresh temporaries, same bits.
        z = h @ params.weights[i].T
        z += params.biases[i]
        if params.layernorm:
            # np.mean / np.var arithmetic (same bits) without their call overhead
            z -= np.add.reduce(z, axis=1, keepdims=True) / z.shape[1]
            n = z * z
            var = np.add.reduce(n, axis=1, keepdims=True) / z.shape[1]
            inv_std = 1.0 / np.sqrt(var + _LN_EPS)
            z *= inv_std
            z_hat = z
            np.multiply(params.ln_scales[i], z_hat, out=n)
            n += params.ln_shifts[i]
        else:
            z_hat, inv_std = None, None
            n = z
        relu_mask = n > 0.0
        a = np.maximum(n, 0.0, out=n)
        nxt = np.concatenate([h, a], axis=1) if params.densenet else a
        layers.append({"x": h, "relu_mask": relu_mask, "z_hat": z_hat, "inv_std": inv_std})
        h = nxt
    y = h @ params.weights[-1].T
    y += params.biases[-1]
    if not np.all(np.isfinite(y)):
        raise NumericalFault("non-finite activation in forward pass")
    cache = {"layers": layers, "last": h, "single": single, "batch": x.shape[0]}
    return (y[0] if single else y), cache


def _layernorm_backward(dn, z_hat, inv_std, scale):
    d_hat = dn * scale
    width = d_hat.shape[1]
    mean_d, mean_dz = (np.add.reduce(a, axis=1, keepdims=True) / width for a in (d_hat, d_hat * z_hat))
    dz = inv_std * (d_hat - mean_d - z_hat * mean_dz)
    return dz, (dn * z_hat).sum(axis=0), dn.sum(axis=0)


def backward(params: MLPParams, cache, output_grad: np.ndarray):
    """Exact gradients of the forward map.

    Returns (grads, input_grad), with ``grads`` an MLPParams laid out like
    ``params``; ``output_grad`` must match the forward call's output shape.
    """
    dy = np.asarray(output_grad, dtype=np.float64)
    if cache["single"]:
        dy = dy[None, :]
    if dy.shape != (cache["batch"], params.output_dim):
        raise ShapeError("output_grad shape does not match the forward pass")
    h = cache["last"]
    gw = [dy.T @ h]
    gb = [dy.sum(axis=0)]
    gls, glh = [], []
    dh = dy @ params.weights[-1]
    for i in reversed(range(params.n_hidden)):
        layer = cache["layers"][i]
        x = layer["x"]
        if params.densenet:
            dx_skip, da = dh[:, : x.shape[1]], dh[:, x.shape[1] :]
        else:
            dx_skip, da = 0.0, dh
        dn = da * layer["relu_mask"]
        if params.layernorm:
            dz, g_scale, g_shift = _layernorm_backward(dn, layer["z_hat"], layer["inv_std"], params.ln_scales[i])
        else:
            dz, g_scale, g_shift = dn, np.zeros_like(params.ln_scales[i]), np.zeros_like(params.ln_shifts[i])
        gw.append(dz.T @ x)
        gb.append(dz.sum(axis=0))
        gls.append(g_scale)
        glh.append(g_shift)
        dh = dx_skip + dz @ params.weights[i]
    grads = replace(params, weights=gw[::-1], biases=gb[::-1], ln_scales=gls[::-1], ln_shifts=glh[::-1])
    dx = dh[0] if cache["single"] else dh
    return grads, dx


def param_list(params: MLPParams) -> list[np.ndarray]:
    """Flat ordering of the trained arrays (stable across calls)."""
    return [a for field in _trained(params) for a in getattr(params, field)]


def grad_list(params: MLPParams, grads: MLPParams) -> list[np.ndarray]:
    """The gradient arrays in the order of ``param_list(params)``."""
    return param_list(grads)


def with_param_list(params: MLPParams, arrays) -> MLPParams:
    """Rebuild an MLPParams from the flat array ordering of ``param_list``,
    taking the arrays from the front of ``arrays``; untrained fields are kept."""
    rest = iter(arrays)
    return replace(params, **{f: [next(rest) for _ in getattr(params, f)] for f in _trained(params)})


@dataclass(eq=False)
class AdamState:
    """Adam moments for a fixed list of parameter arrays.

    Each moment is one flat buffer over all arrays, in list order, so a step
    runs a few whole-buffer ufuncs instead of a loop over the arrays;
    ``first_moment`` and ``second_moment`` give per-array views of them.
    """

    m: np.ndarray
    v: np.ndarray
    shapes: tuple[tuple[int, ...], ...]
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @property
    def first_moment(self) -> list[np.ndarray]:
        return _split(self.m, self.shapes)

    @property
    def second_moment(self) -> list[np.ndarray]:
        return _split(self.v, self.shapes)


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of ``flat`` with the given shapes, laid end to end."""
    out, pos = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[pos : pos + n].reshape(shape))
        pos += n
    return out


def init_adam(arrays: list[np.ndarray], learning_rate: float) -> AdamState:
    total = sum(a.size for a in arrays)
    return AdamState(
        m=np.zeros(total),
        v=np.zeros(total),
        shapes=tuple(a.shape for a in arrays),
        step_count=0,
        learning_rate=learning_rate,
    )


def global_grad_norm(grads: list[np.ndarray]) -> float:
    # np.sum arithmetic (same bits), one array at a time, without its call overhead
    return float(np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads)))


def adam_step(
    state: AdamState,
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    max_grad_norm: float = 100.0,
):
    """One Adam update with bias correction and global-norm clipping.

    Returns (new_state, new_arrays, pre_clip_grad_norm).  Raises
    NumericalFault on non-finite gradients without touching the parameters.
    No argument is modified.
    """
    shapes = tuple(a.shape for a in arrays)
    if shapes != tuple(g.shape for g in grads):
        raise ShapeError("gradient shapes do not match parameters")
    if shapes != state.shapes:
        raise ShapeError("parameter shapes do not match the optimizer state")
    norm = global_grad_norm(grads)
    if not np.isfinite(norm):
        raise NumericalFault("non-finite gradient; update skipped")
    t = state.step_count + 1
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    # Four whole-buffer updates, each in the operation order of its formula:
    #   g <- g * (max_grad_norm / norm)                 (clipping)
    #   m <- beta1 * m + (1 - beta1) * g
    #   v <- beta2 * v + (1 - beta2) * g * g
    #   p <- p - lr * (m / c1) / (sqrt(v / c2) + eps)
    # computed in place in two scratch buffers (g and step) to keep temporaries few.
    g = np.concatenate([x.reshape(-1) for x in grads])
    if max_grad_norm > 0 and norm > max_grad_norm:
        g *= max_grad_norm / norm
    m = state.beta1 * state.m
    step = np.multiply(1.0 - state.beta1, g)
    m += step
    v = state.beta2 * state.v
    np.multiply(1.0 - state.beta2, g, out=step)
    step *= g
    v += step
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += state.epsilon
    step /= g
    new_p = [p - s for p, s in zip(arrays, _split(step, state.shapes))]
    return replace(state, m=m, v=v, step_count=t), new_p, norm


def adam_update(state: AdamState, mlps: list[MLPParams], grads: list[MLPParams], max_grad_norm: float):
    """One ``adam_step`` over the trained arrays of ``mlps``, in order, with
    ``grads`` laid out like them.  Returns (new_state, new_mlps, pre_clip_grad_norm)."""
    arrays = [a for mlp in mlps for a in param_list(mlp)]
    flat_grads = [g for gr in grads for g in param_list(gr)]
    state, new_arrays, norm = adam_step(state, arrays, flat_grads, max_grad_norm=max_grad_norm)
    rest = iter(new_arrays)  # each rebuild takes its own arrays off the front
    return state, [with_param_list(mlp, rest) for mlp in mlps], norm


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; near-zero rows pass through a guard and are
    counted in the degenerate-row diagnostic."""
    global _L2_DEGENERATE_ROWS
    v = np.asarray(v, dtype=np.float64)
    single = v.ndim == 1
    rows = v[None, :] if single else v
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    degenerate = norms <= _L2_EPS
    if np.any(degenerate):
        _L2_DEGENERATE_ROWS += int(degenerate.sum())
    out = rows / np.maximum(norms, _L2_EPS)
    return out[0] if single else out


def l2_normalize_backward(v: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of l2_normalize w.r.t. its input (rows independent)."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    dout = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    norms = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), _L2_EPS)
    u = v / norms
    return (dout - u * (u * dout).sum(axis=1, keepdims=True)) / norms


def l2_degenerate_rows() -> int:
    return _L2_DEGENERATE_ROWS


def reset_l2_degenerate_rows():
    global _L2_DEGENERATE_ROWS
    _L2_DEGENERATE_ROWS = 0
