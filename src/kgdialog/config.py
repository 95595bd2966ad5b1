"""Run configuration shared by model construction, training, and the CLI."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

from .acquire import AcquisitionConfig


@dataclass(frozen=True)
class TrainingConfig:
    """All knobs for building and training a model.

    ``mlp_hidden`` of None means 2 * dim. ``lam``/``gamma``/``beta`` weight
    the cross-entropy, regularization, and parameter-penalty loss terms of
    the objective L = lam * L_CE + gamma * L_r + beta * ||params||^2; each
    is finite and non-negative, and not all are zero. A pair's graph holds
    lam * L_CE + gamma * L_r (``decoder.total_loss``); the penalty's
    gradient 2 beta * params is the optimizer's weight decay
    (``training.Adam.step``), and ``train_model`` adds its value to the
    loss it reports.
    ``use_relations`` switches the relation-knowledge pipeline off for the
    ablation configuration, and ``attn_scale`` enables 1/sqrt(D) attention
    scaling (off by default: the attention here is plain softmax(QK^T)V).
    """

    dim: int = 64
    enc_blocks: int = 2
    dec_blocks: int = 2
    n_latent: int = 8
    mlp_hidden: int | None = None
    epsilon: float = 0.8
    max_hops: int = 2
    max_tuples: int = 64
    lam: float = 1.0
    gamma: float = 0.1
    beta: float = 1e-6
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 1
    seed: int = 0
    max_seq_len: int = 256
    max_gen_len: int = 32
    use_relations: bool = True
    attn_scale: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _JSON_TYPE_OK[f.type](value):
                raise ValueError(f"config field {f.name!r} must be {f.type}, "
                                 f"got {value!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.enc_blocks < 0 or self.dec_blocks < 0:
            raise ValueError("block counts must be >= 0")
        if self.n_latent < 1:
            raise ValueError("n_latent must be >= 1")
        if self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise ValueError("mlp_hidden must be >= 1 or None")
        self.acquisition  # built now, so a bad acquisition field fails here
        for name in ("lam", "gamma", "beta"):
            value = getattr(self, name)
            # written so that NaN fails too: every comparison with it is false
            if not 0 <= value < math.inf:
                raise ValueError(f"loss weight {name} must be finite and "
                                 f"non-negative, got {value!r}")
        if self.lam == self.gamma == self.beta == 0:
            raise ValueError("at least one loss weight must be positive")
        if not 0 < self.learning_rate < math.inf:  # false for NaN too
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be >= 2")
        if not 1 <= self.max_gen_len <= self.max_seq_len:
            raise ValueError("max_gen_len must lie in [1, max_seq_len]")

    @cached_property
    def acquisition(self) -> AcquisitionConfig:
        """The acquisition settings among these fields, built once; not a
        field, so ``to_dict`` and checkpoints hold the three fields alone."""
        return AcquisitionConfig(self.epsilon, self.max_hops, self.max_tuples)

    @property
    def hidden(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 2 * self.dim

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        """Build from a decoded JSON object (a config file or checkpoint)."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**d)

    def replace(self, **overrides) -> "TrainingConfig":
        return dataclasses.replace(self, **overrides)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation (a string under postponed evaluation) -> accepted values.
_JSON_TYPE_OK = {
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
}
