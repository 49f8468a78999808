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
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Rows that hit the zero-vector guard in l2_normalize since the last reset.
_L2_DEGENERATE_ROWS = 0


@dataclass(eq=False)
class MLPParams:
    """Weights of one MLP.

    ``weights[i]`` has shape (fan_out, fan_in); the last entry is the output
    layer.  ``ln_scales`` / ``ln_shifts`` hold one LayerNorm pair per hidden
    layer (unused when ``layernorm`` is off: ``backward`` then gives them
    zero gradients, so Adam leaves them as they are).
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


def mlp_to_arrays(prefix: str, mlp: MLPParams) -> dict[str, np.ndarray]:
    """Checkpoint arrays of one MLP, named ``{prefix}/weight_{i}`` and so on."""
    return {
        f"{prefix}/{name}_{i}": a for field, name in _FIELDS.items() for i, a in enumerate(getattr(mlp, field))
    }


def mlp_from_arrays(arrays: dict[str, np.ndarray], prefix: str, densenet: bool, layernorm: bool) -> MLPParams:
    """Inverse of ``mlp_to_arrays``.  Raises ``InvalidSpec`` when arrays are
    missing or their shapes do not chain from the first weight's fan-in to
    the last weight's fan-out."""
    lists = {}
    for field, name in _FIELDS.items():
        lists[field] = []
        while (key := f"{prefix}/{name}_{len(lists[field])}") in arrays:
            lists[field].append(arrays[key])
    weights = lists["weights"]
    if not weights or [len(v) for v in lists.values()] != [len(weights)] * 2 + [len(weights) - 1] * 2:
        raise InvalidSpec(f"checkpoint is missing {prefix!r} arrays")
    if any(w.ndim != 2 for w in weights):
        raise InvalidSpec(f"{prefix!r} weights are not matrices")
    fan_in, fan_out, hidden = weights[0].shape[1], weights[-1].shape[0], tuple(w.shape[0] for w in weights[:-1])
    shapes = weight_shapes(fan_in, hidden, fan_out, densenet)
    if [a.shape for v in lists.values() for a in v] != shapes + [s[:1] for s in shapes] + [(w,) for w in hidden] * 2:
        raise InvalidSpec(f"{prefix!r} arrays do not chain from {fan_in} inputs to {fan_out} outputs")
    return MLPParams(**lists, densenet=densenet, layernorm=layernorm)


def map_params(fn, *mlps: MLPParams) -> MLPParams:
    """The first MLP with every array replaced by ``fn`` of the matching
    arrays of ``mlps``, entry by entry."""
    return replace(mlps[0], **{f: [fn(*xs) for xs in zip(*(getattr(m, f) for m in mlps))] for f in _FIELDS})


def weight_shapes(input_dim: int, hidden: tuple[int, ...], output_dim: int, densenet: bool) -> list[tuple[int, int]]:
    """(fan_out, fan_in) of each weight, the output layer last."""
    shapes, fan_in = [], input_dim
    for width in hidden:
        shapes.append((width, fan_in))
        fan_in = fan_in + width if densenet else width
    return shapes + [(output_dim, fan_in)]


def init_mlp(
    rng: np.random.Generator,
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    densenet: bool = True,
    layernorm: bool = True,
) -> MLPParams:
    """Fan-in scaled uniform weights, zero biases, identity LayerNorm."""
    shapes = weight_shapes(input_dim, hidden, output_dim, densenet)
    weights = []
    for fan_out, fan_in in shapes:
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
    biases = [np.zeros(fan_out) for fan_out, _ in shapes]
    scales, shifts = [np.ones(width) for width in hidden], [np.zeros(width) for width in hidden]
    return MLPParams(weights, biases, scales, shifts, densenet=densenet, layernorm=layernorm)


def forward(params: MLPParams, x: np.ndarray):
    """Evaluate the network on a batch of rows, shape (n, input_dim); returns
    (output, cache) with the cache holding every intermediate needed by
    ``backward``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"input of shape {x.shape} into a net expecting rows of width {params.input_dim}")
    layers = []
    h = x
    for i in range(params.n_hidden):
        # z = h W^T + b, z_hat = (z - mean) * inv_std, n = scale * z_hat + shift and
        # a = relu(n), each updated in place: the same bits as the plain formulas, whose
        # fresh temporaries raised perfbench mc-rff's peak RSS from 55.3 to 57.9 MB (6 A/B pairs).
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
    return y, {"layers": layers, "last": h, "batch": x.shape[0]}


def _layernorm_backward(dn, z_hat, inv_std, scale):
    d_hat = dn * scale
    width = d_hat.shape[1]
    mean_d, mean_dz = (np.add.reduce(a, axis=1, keepdims=True) / width for a in (d_hat, d_hat * z_hat))
    return inv_std * (d_hat - mean_d - z_hat * mean_dz)


def backward(params: MLPParams, cache, output_grad: np.ndarray, *, param_grads: bool = True):
    """Exact gradients of the forward map.

    Returns (grads, input_grad), with ``grads`` an MLPParams laid out like
    ``params``; ``output_grad`` must match the forward call's output shape.
    With ``param_grads`` off, ``grads`` is None and only the input gradient
    is computed (the same bits).
    """
    dy = np.asarray(output_grad, dtype=np.float64)
    if dy.shape != (cache["batch"], params.output_dim):
        raise ShapeError("output_grad shape does not match the forward pass")
    gw, gb, gls, glh = [], [], [], []
    if param_grads:
        gw.append(dy.T @ cache["last"])
        gb.append(dy.sum(axis=0))
    dh = dy @ params.weights[-1]
    for i in reversed(range(params.n_hidden)):
        layer = cache["layers"][i]
        x = layer["x"]
        if params.densenet:
            dx_skip, da = dh[:, : x.shape[1]], dh[:, x.shape[1] :]
        else:
            dx_skip, da = 0.0, dh
        dn = da * layer["relu_mask"]
        dz = dn
        if params.layernorm:
            dz = _layernorm_backward(dn, layer["z_hat"], layer["inv_std"], params.ln_scales[i])
        if param_grads:
            gw.append(dz.T @ x)
            gb.append(dz.sum(axis=0))
            gls.append((dn * layer["z_hat"]).sum(axis=0) if params.layernorm else np.zeros_like(params.ln_scales[i]))
            glh.append(dn.sum(axis=0) if params.layernorm else np.zeros_like(params.ln_shifts[i]))
        dh = dx_skip + dz @ params.weights[i]
    if not param_grads:
        return None, dh
    grads = replace(params, weights=gw[::-1], biases=gb[::-1], ln_scales=gls[::-1], ln_shifts=glh[::-1])
    return grads, dh


def param_list(params: MLPParams) -> list[np.ndarray]:
    """Flat ordering of every array, the one Adam trains (stable across calls)."""
    return [a for field in _FIELDS for a in getattr(params, field)]


def grad_list(params: MLPParams, grads: MLPParams) -> list[np.ndarray]:
    """The gradient arrays in the order of ``param_list(params)``."""
    return param_list(grads)


def with_param_list(params: MLPParams, arrays) -> MLPParams:
    """Rebuild an MLPParams from the flat array ordering of ``param_list``,
    taking the arrays from the front of ``arrays``."""
    rest = iter(arrays)
    return replace(params, **{f: [next(rest) for _ in getattr(params, f)] for f in _FIELDS})


@dataclass(eq=False)
class AdamState:
    """Adam moments for a fixed list of parameter arrays.

    Each moment (``m``, ``v``) is one flat buffer over all arrays, laid end
    to end in list order with the sizes of ``shapes``, so a step runs a few
    whole-buffer ufuncs instead of a loop over the arrays.
    """

    m: np.ndarray
    v: np.ndarray
    shapes: tuple[tuple[int, ...], ...]
    step_count: int
    learning_rate: float


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
    c1 = 1.0 - _ADAM_BETA1**t
    c2 = 1.0 - _ADAM_BETA2**t
    # Four whole-buffer updates, each in the operation order of its formula:
    #   g <- g * (max_grad_norm / norm)                 (clipping)
    #   m <- beta1 * m + (1 - beta1) * g
    #   v <- beta2 * v + (1 - beta2) * g * g
    #   p <- p - lr * (m / c1) / (sqrt(v / c2) + eps)
    # computed in place in two scratch buffers (g and step): the four textbook lines give
    # the same bits with about nine more buffer-sized temporaries, and ran perfbench
    # grid-direct at a median 168 steps/s against 178 (6 A/B pairs, 2 vCPUs).
    g = np.concatenate([x.reshape(-1) for x in grads])
    if max_grad_norm > 0 and norm > max_grad_norm:
        g *= max_grad_norm / norm
    m = _ADAM_BETA1 * state.m
    step = np.multiply(1.0 - _ADAM_BETA1, g)
    m += step
    v = _ADAM_BETA2 * state.v
    np.multiply(1.0 - _ADAM_BETA2, g, out=step)
    step *= g
    v += step
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += _ADAM_EPS
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
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    degenerate = norms <= _L2_EPS
    if np.any(degenerate):
        _L2_DEGENERATE_ROWS += int(degenerate.sum())
    return v / np.maximum(norms, _L2_EPS)


def l2_normalize_backward(v: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of l2_normalize w.r.t. its input (rows independent)."""
    norms = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), _L2_EPS)
    u = v / norms
    return (dout - u * (u * dout).sum(axis=1, keepdims=True)) / norms


def l2_degenerate_rows() -> int:
    return _L2_DEGENERATE_ROWS


def reset_l2_degenerate_rows():
    global _L2_DEGENERATE_ROWS
    _L2_DEGENERATE_ROWS = 0
