"""Training configuration and the flat key-value config file format.

Config files are plain ``key = value`` lines ('#' starts a comment; string
values may be quoted), as are CLI ``--set`` overrides, which take precedence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass

from .errors import FormatError, InvalidSpec
from .fileio import read_text


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of a training run.

    Defaults follow the reference setup where one exists: discount 0.99,
    learning rate 3e-4, gradient-norm clip 100, 256x256 DenseNet encoders
    with LayerNorm, batch = every anchor of two episodes, 10 action samples
    for the policy KL, InfoNCE temperature 1, partition coefficient 0.001,
    behavior-cloning coefficient 0.1 (0 for mountain car), random-feature Q
    path on, L2-normalized encoder outputs.
    """

    gamma: float = 0.99
    horizon: int = 0  # 0 = inherit from the dataset
    learning_rate: float = 3e-4
    lambda_partition: float = 0.001
    lambda_bc: float = 0.1
    tau_nce: float = 1.0  # InfoNCE temperature
    tau_boltzmann: float = 1.0  # softmax temperature of the decoded policy target
    entropy_coeff: float = 1.0  # entropy bonus weight inside the BC loss
    n_action_samples: int = 10
    ema_beta: float = 0.005  # target future-encoder EMA step
    reward_feature_ema: float = 0.01  # EMA step of the reward-weighted feature average
    rff_dim: int = 2048
    use_rff: bool = True
    l2_normalize: bool = True
    epochs: int = 10
    steps_per_epoch: int = 100
    seed: int = 0
    max_grad_norm: float = 100.0
    hidden_sizes: tuple[int, ...] = (256, 256)
    latent_dim: int = 16
    densenet: bool = True
    layernorm: bool = True
    log_std_min: float = -5.0
    log_std_max: float = 2.0
    policy_state_cap: int = 0  # 0 = policy losses use the whole batch

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise InvalidSpec("gamma must lie in [0, 1)")
        for name in (
            "learning_rate",
            "lambda_partition",
            "lambda_bc",
            "entropy_coeff",
            "ema_beta",
            "reward_feature_ema",
            "max_grad_norm",
            "seed",
            "horizon",
            "policy_state_cap",
        ):
            if getattr(self, name) < 0:
                raise InvalidSpec(f"{name} must be non-negative")
        if self.tau_nce <= 0 or self.tau_boltzmann <= 0:
            raise InvalidSpec("temperatures must be positive")
        if self.rff_dim < 1 or self.latent_dim < 1:
            raise InvalidSpec("feature dimensions must be positive")
        if any(width < 1 for width in self.hidden_sizes):
            raise InvalidSpec("hidden_sizes entries must be positive")
        if self.log_std_min >= self.log_std_max:
            raise InvalidSpec("log_std_min must be below log_std_max")
        if self.n_action_samples < 1:
            raise InvalidSpec("need at least one action sample")
        if self.epochs < 0 or self.steps_per_epoch < 1:
            raise InvalidSpec("bad epoch structure")
        if not 0.0 <= self.ema_beta <= 1.0 or not 0.0 < self.reward_feature_ema <= 1.0:
            raise InvalidSpec("EMA coefficients must lie in [0, 1]")
        if self.use_rff and not (self.l2_normalize and self.tau_nce == 1):
            raise InvalidSpec(
                "use_rff needs l2_normalize and tau_nce = 1: the random features approximate exp(x . y) "
                "only at unit norm and unit temperature"
            )


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str, types: dict = _FIELD_TYPES):
    """Parse ``text`` as the type ``types[key]`` (``TrainConfig``'s by default)."""
    if key not in types:
        raise InvalidSpec(f"unknown key {key!r}")
    target_type = types[key]
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1]
    try:
        if target_type is bool:
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type == tuple[int, ...]:
            return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise InvalidSpec(f"bad value for key {key!r}: {text!r}") from None
    return text


def config_to_kv(config: TrainConfig) -> dict[str, str]:
    return {f.name: _format_value(getattr(config, f.name)) for f in dataclasses.fields(TrainConfig)}


def config_from_kv(kv: dict[str, str]) -> TrainConfig:
    return TrainConfig(**{key: _parse_value(key, raw) for key, raw in kv.items()})


def config_hash(config: TrainConfig) -> str:
    """Stable digest of the full configuration."""
    text = "\n".join(f"{k}={v}" for k, v in sorted(config_to_kv(config).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_kv(lines) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines are skipped."""
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    return kv


def read_kv(path) -> dict[str, str]:
    """Parse a flat key-value text file."""
    return parse_kv(read_text(path).split("\n"))


def load_config(path, overrides: dict[str, str] | None = None) -> TrainConfig:
    """Read a config file and apply CLI-style overrides on top."""
    return config_from_kv({**read_kv(path), **(overrides or {})})
