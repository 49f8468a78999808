"""Per-step training metrics: in-memory records and an append-only log.

Each record is one line of ``key=value`` fields in ``_SERIALIZED`` order: the
integers in ``_INTS`` as decimals, every other field as a hex float literal,
so identical runs produce identical files.  A line ends with a newline once
it is complete; the reader drops whatever follows the last newline (a crash
mid-append) and raises on any other malformed line.  ``wall_time`` is kept
only in memory so the persisted stream stays deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import FormatError
from .fileio import _read_count, _read_hex, read_text


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
        values = ((name, getattr(self, name)) for name in _SERIALIZED)
        return " ".join(f"{k}={int(v) if k in _INTS else float(v).hex()}" for k, v in values if v is not None)

    @classmethod
    def from_line(cls, line: str, lineno: int | None = None) -> "MetricsRecord":
        values = {}
        for token in line.split():
            key, sep, raw = token.partition("=")
            if not sep or key not in _SERIALIZED or key in values:
                raise FormatError(f"bad or repeated metrics token {token!r}", line=lineno)
            try:
                values[key] = _INTS[key](raw, lineno) if key in _INTS else _read_hex(raw)
            except (ValueError, OverflowError):
                raise FormatError(f"bad value for {key!r}: {raw!r}", line=lineno) from None
        missing = [name for name in _ALWAYS_WRITTEN if name not in values]
        if missing:
            raise FormatError(f"record is missing {', '.join(missing)}", line=lineno)
        return cls(**values)


# The fields a line holds, in order; those every written line holds (the ones
# whose default is not None); and the readers of the integer ones.
_SERIALIZED = [f.name for f in fields(MetricsRecord) if f.name != "wall_time"]
_ALWAYS_WRITTEN = [f.name for f in fields(MetricsRecord) if f.default is not None]
_INTS = {"step": _read_count, "epoch": _read_count, "fault": lambda raw, line: bool(_read_count(raw, line, 2))}


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

    The text after the last newline is a torn tail and is dropped; every
    other non-blank line must parse or FormatError is raised.
    """
    *lines, tail = read_text(path).split("\n")
    records = [MetricsRecord.from_line(line, lineno=i) for i, line in enumerate(lines, 1) if line.strip()]
    return records, int(bool(tail.strip()))


def export_plot_data(records: list[MetricsRecord], field_names: list[str], delimiter: str = ",") -> str:
    """Delimiter-separated (step, metric...) table for external plotting."""
    for name in field_names:
        if name not in _SERIALIZED:
            raise FormatError(f"unknown metrics field {name!r}")
    rows = [delimiter.join(["step"] + field_names)]
    for rec in records:
        cells = [str(rec.step)]
        for name in field_names:
            value = getattr(rec, name)
            if value is None or (name not in _INTS and math.isnan(value)):
                cells.append("")
            else:
                cells.append(str(int(value)) if name in _INTS else repr(float(value)))
        rows.append(delimiter.join(cells))
    return "\n".join(rows) + "\n"
