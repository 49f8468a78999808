import numpy as np
import pytest

from occq.envs import make_chain, make_gridworld


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def chain():
    return make_chain(2, gamma=0.9, horizon=10)


@pytest.fixture
def grid3():
    return make_gridworld(3, 3, goal_cell=8, slip_prob=0.0, gamma=0.9, horizon=15)


@pytest.fixture
def grid5():
    return make_gridworld(5, 5, goal_cell=24, slip_prob=0.1, gamma=0.9, horizon=40)


def finite_difference(loss_fn, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of ``loss_fn(arrays)`` w.r.t. every entry."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(arrays)
            flat[i] = orig - h
            down = loss_fn(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    """Worst per-parameter relative error, floored at a fraction of the
    overall gradient scale so components near zero do not blow up on
    finite-difference roundoff."""
    a = np.concatenate([g.reshape(-1) for g in analytic])
    b = np.concatenate([g.reshape(-1) for g in numeric])
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6 * scale)
    return float(np.max(np.abs(a - b) / denom))


def reference_value_iteration(P, r, gamma, iters=10_000, tol=1e-12):
    """Plain loop value iteration, written independently of the library."""
    S, A, _ = P.shape
    Q = np.zeros((S, A))
    for _ in range(iters):
        V = Q.max(axis=1)
        nxt = np.zeros_like(Q)
        for s in range(S):
            for a in range(A):
                nxt[s, a] = sum(P[s, a, t] * (r[t] + gamma * V[t]) for t in range(S))
        if np.max(np.abs(nxt - Q)) < tol:
            return nxt
        Q = nxt
    return Q


def replace_token(path, line_index, token_index, value):
    """Rewrite text file ``path`` with one whitespace-separated token of line ``line_index`` replaced."""
    lines = path.read_text().splitlines()
    tokens = lines[line_index].split()
    tokens[token_index] = value
    lines[line_index] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return path
