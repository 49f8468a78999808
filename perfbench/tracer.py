"""Span recording from outside the program, and the occq layer wrappers.

``Tracer`` keeps spans in memory as ``[name, start, end, parent, step]``
lists and writes them out only when asked.  ``instrument`` wraps the public
functions of each ``occq`` module at the names their callers look up at
call time (a module attribute or a class attribute), so ``src/`` needs no
hooks; ``Tracer.restore`` puts every original back.

Counts that the program keeps itself (future-encoder rows, degenerate L2
rows, a dataset's reward reads and skipped episodes) are read as deltas
around the wrapped calls.  Counts named ``*_elems`` and ``*.flops`` are
computed from argument shapes, not measured.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder plus a registry of patched attributes."""

    def __init__(self, clock=time.perf_counter, fault_types: tuple[type, ...] = ()):
        self.clock = clock
        self.fault_types = fault_types
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.step])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def replace(self, owner, attr: str, new):
        """Bind ``owner.attr`` to ``new``, remembering the original."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(args, kwargs)`` runs ahead of the span and its return value
        is handed to ``after(args, kwargs, result, token)``, which runs once
        the span has ended, so count bookkeeping stays out of the timing.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except tracer.fault_types:
                tracer.counts[f"{name}.faults"] += 1
                raise
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        self.replace(owner, attr, traced)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tstep\n")
            for name, start, end, parent, step in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{step}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span itself."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``.

    Inclusive time counts only the outermost span of a name, so a name
    nested inside itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for idx, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * selfs[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["ms"] += 1e3 * (end - start)
    return dict(out)


def _rows(x) -> int:
    return np.atleast_2d(x).shape[0]


def _matmul_weights(mlp) -> int:
    return sum(int(w.size) for w in mlp.weights)


def instrument(tracer: Tracer):
    """Wrap the occq layers at the bindings the training loop calls through."""
    from occq import critic, data, metrics, nets, policy, rff, training

    counts = tracer.counts

    def add(key, value):
        counts[key] += value

    # training: step ids follow the batches drawn by train.
    def next_step(args, kwargs):
        tracer.step += 1

    # data (with truncgeom)
    tracer.wrap(
        training,
        "sample_batch",
        "data.sample_batch",
        before=next_step,
        after=lambda a, k, batch, t: add("data.sample_batch.anchors", batch.batch_size),
    )
    tracer.wrap(data, "sample_supports", "truncgeom.sample_supports")

    # critic
    future_rows = critic.future_encode_rows

    def rows_delta(key):
        return lambda a, k, result, before: add(key, future_rows() - before)

    tracer.wrap(
        training,
        "critic_update",
        "critic.critic_update",
        before=lambda a, k: future_rows(),
        after=rows_delta("critic.encode_future.rows_critic"),
    )
    for fn in ("infonce_loss", "infonce_grad", "partition_reg", "partition_reg_grad"):
        tracer.wrap(critic, fn, "critic.loss_terms")
    tracer.wrap(critic, "ema_update", "critic.ema_update")
    for owner in (critic, rff):
        tracer.wrap(
            owner,
            "encode_anchor",
            "critic.encode_anchor",
            after=lambda a, k, r, t: add("critic.encode_anchor.rows", _rows(a[1])),
        )
        tracer.wrap(owner, "encode_future", "critic.encode_future")
    tracer.wrap(
        training,
        "encode_future",
        "critic.encode_future",
        before=lambda a, k: future_rows(),
        after=rows_delta("critic.encode_future.rows_fold"),
    )

    # rff
    def trig_after(key):
        def after(a, k, r, t):
            rows = _rows(a[1])
            add(f"{key}.rows", rows)
            add(f"{key}.trig_elems", rows * a[0].feature_dim)

        return after

    for owner in (training, rff):
        tracer.wrap(owner, "rff_features", "rff.rff_features", after=trig_after("rff.rff_features"))
    tracer.wrap(
        rff,
        "rff_features_backward",
        "rff.rff_features_backward",
        after=trig_after("rff.rff_features_backward"),
    )
    tracer.wrap(training, "update_reward_features", "rff.update_reward_features")

    def q_factory(attr, pool_arg):
        original = getattr(training, attr)

        def factory(*args, **kwargs):
            q_fn = original(*args, **kwargs)
            pool = _rows(args[pool_arg]) if pool_arg is not None else 0

            def traced_q_fn(state_feats, action_feats):
                idx = tracer.begin("rff.q_fn")
                try:
                    return q_fn(state_feats, action_feats)
                finally:
                    tracer.end(idx)
                    rows = _rows(state_feats)
                    add("rff.q_fn.rows", rows)
                    add("rff.direct_exp_elems", rows * pool)

            return traced_q_fn

        tracer.replace(training, attr, factory)

    q_factory("make_rff_q_fn", None)
    q_factory("make_direct_q_fn", 1)

    # policy
    tracer.wrap(
        training,
        "policy_update",
        "policy.policy_update",
        before=lambda a, k: future_rows(),
        after=rows_delta("critic.encode_future.rows_policy"),
    )
    tracer.wrap(policy, "kl_boltzmann_loss", "policy.kl_boltzmann_loss")
    tracer.wrap(policy, "bc_loss", "policy.bc_loss")

    # nets: every caller goes through the module attribute (nets.forward, ...).
    def forward_after(a, k, r, t):
        rows = _rows(a[1])
        add("nets.forward.rows", rows)
        add("nets.forward.flops", 2 * rows * _matmul_weights(a[0]))

    def backward_after(a, k, r, t):
        rows = a[1]["batch"]
        add("nets.backward.rows", rows)
        add("nets.backward.flops", 4 * rows * _matmul_weights(a[0]))

    tracer.wrap(nets, "forward", "nets.forward", after=forward_after)
    tracer.wrap(nets, "backward", "nets.backward", after=backward_after)
    tracer.wrap(
        nets,
        "adam_step",
        "nets.adam_step",
        after=lambda a, k, r, t: add("nets.adam_step.params", sum(int(p.size) for p in a[1])),
    )
    tracer.wrap(
        nets,
        "l2_normalize",
        "nets.l2_normalize",
        after=lambda a, k, r, t: add("nets.l2_normalize.rows", _rows(a[0])),
    )
    tracer.wrap(
        nets,
        "l2_normalize_backward",
        "nets.l2_normalize_backward",
        after=lambda a, k, r, t: add("nets.l2_normalize_backward.rows", _rows(a[0])),
    )

    # checkpoint and metrics I/O
    tracer.wrap(
        training,
        "save_checkpoint",
        "checkpoint.write",
        after=lambda a, k, r, t: add("checkpoint.write.bytes", os.path.getsize(a[0])),
    )
    tracer.wrap(
        metrics.MetricsWriter,
        "append",
        "metrics.append",
        after=lambda a, k, r, t: add("metrics.append.bytes", len(a[1].to_line()) + 1),
    )

    # data.load runs before the root span, called through the module attribute.
    tracer.wrap(
        data,
        "load",
        "data.load",
        after=lambda a, k, r, t: add("data.load.bytes", os.path.getsize(a[0])),
    )


class CounterDeltas:
    """Program-kept counters read before and after the traced call."""

    def __init__(self, dataset):
        from occq import nets

        self._nets = nets
        self.dataset = dataset
        self.start = self._read()

    def _read(self):
        return (self._nets.l2_degenerate_rows(), self.dataset.reward_reads, self.dataset.skipped_episodes)

    def finish(self, counts: Counter):
        now = self._read()
        counts["nets.l2_degenerate_rows"] += now[0] - self.start[0]
        counts["data.reward_reads"] += now[1] - self.start[1]
        counts["data.sample_batch.skipped"] += now[2] - self.start[2]
