"""Per-step training metrics: in-memory records and an append-only log.

Each record is one line of ``key=value`` fields; floats are hex literals so
identical runs produce identical files.  The reader tolerates a truncated
final line (a crash mid-append) by dropping it; malformed lines elsewhere
are an error.  Wall-clock timing is kept only in memory so the persisted
stream stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError

_INT_FIELDS = {"step", "epoch"}
_FLAG_FIELDS = {"fault"}


@dataclass
class MetricsRecord:
    step: int
    epoch: int
    critic_loss: float = float("nan")
    partition_reg: float = float("nan")
    positive_logit_mean: float = float("nan")
    policy_kl_loss: float | None = None
    bc_loss: float | None = None
    mean_q: float | None = None
    critic_grad_norm: float | None = None
    policy_grad_norm: float | None = None
    fault: bool = False
    wall_time: float | None = None  # in-memory only, never serialized

    def to_line(self) -> str:
        parts = []
        for f in fields(self):
            if f.name == "wall_time":
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in _INT_FIELDS or f.name in _FLAG_FIELDS:
                parts.append(f"{f.name}={int(value)}")
            else:
                parts.append(f"{f.name}={float(value).hex()}")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str, lineno: int | None = None) -> "MetricsRecord":
        known = {f.name for f in fields(cls)}
        values = {}
        for token in line.split():
            if "=" not in token:
                raise FormatError(f"bad metrics token {token!r}", line=lineno)
            key, raw = token.split("=", 1)
            if key not in known or key == "wall_time":
                raise FormatError(f"unknown metrics field {key!r}", line=lineno)
            try:
                if key in _INT_FIELDS:
                    values[key] = int(raw)
                elif key in _FLAG_FIELDS:
                    values[key] = bool(int(raw))
                else:
                    values[key] = float.fromhex(raw)
            except ValueError:
                raise FormatError(f"bad value for {key!r}: {raw!r}", line=lineno) from None
        if "step" not in values or "epoch" not in values:
            raise FormatError("record is missing step/epoch", line=lineno)
        return cls(**values)


class MetricsWriter:
    """Append-only metrics log; one flushed line per record.

    A fresh writer truncates: each training run owns its log file and only
    ever appends during the run.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def append(self, record: MetricsRecord):
        self._fh.write(record.to_line() + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_metrics(path) -> tuple[list[MetricsRecord], int]:
    """Read all complete records; returns (records, dropped_partial_lines).

    Only an unparseable *final* line is treated as a crash artifact and
    dropped; anything else malformed raises FormatError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    lines = content.split("\n")
    trailing_complete = content.endswith("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[MetricsRecord] = []
    dropped = 0
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        is_last = i == len(lines) - 1
        try:
            records.append(MetricsRecord.from_line(line, lineno=i + 1))
        except FormatError:
            if is_last and not trailing_complete:
                dropped += 1
                break
            raise
    if records and not trailing_complete:
        # final line parsed but had no newline: still treat as partial
        records.pop()
        dropped += 1
    return records, dropped


def numeric_fields() -> list[str]:
    return [f.name for f in fields(MetricsRecord) if f.name not in ("wall_time",)]


def export_plot_data(records: list[MetricsRecord], field_names: list[str], delimiter: str = ",") -> str:
    """Delimiter-separated (step, metric...) table for external plotting."""
    known = set(numeric_fields())
    for name in field_names:
        if name not in known:
            raise FormatError(f"unknown metrics field {name!r}")
    header = delimiter.join(["step"] + field_names)
    rows = [header]
    for rec in records:
        cells = [str(rec.step)]
        for name in field_names:
            value = getattr(rec, name)
            if value is None or (isinstance(value, float) and np.isnan(value)):
                cells.append("")
            elif isinstance(value, bool):
                cells.append(str(int(value)))
            else:
                cells.append(repr(float(value)) if isinstance(value, float) else str(value))
        rows.append(delimiter.join(cells))
    return "\n".join(rows) + "\n"
