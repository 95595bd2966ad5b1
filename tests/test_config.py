"""Run configuration validation."""
import os
import subprocess
import sys

import pytest

from kgdialog.config import TrainingConfig


def test_config_loads_no_model_module():
    """The config checks its own fields: importing it loads neither the
    autodiff engine nor the modules built on it."""
    code = ("import sys, kgdialog.config; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('kgdialog.'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join(sys.path)))
    loaded = set(out.stdout.split())
    assert "kgdialog.config" in loaded
    assert not loaded & {"kgdialog.autodiff", "kgdialog.composer",
                         "kgdialog.decoder"}, loaded


def test_loss_weight_defaults():
    cfg = TrainingConfig()
    assert (cfg.lam, cfg.gamma, cfg.beta) == (1.0, 0.1, 1e-6)


@pytest.mark.parametrize("field", ["lam", "gamma", "beta"])
def test_negative_loss_weight_rejected_by_name(field):
    with pytest.raises(ValueError, match=f"loss weight {field} must be "
                                         f"finite and non-negative"):
        TrainingConfig(**{field: -1.0})


def test_all_zero_loss_weights_rejected():
    with pytest.raises(ValueError, match="at least one loss weight"):
        TrainingConfig(lam=0, gamma=0, beta=0)


@pytest.mark.parametrize("fields", [
    {"dim": True}, {"mlp_hidden": 1.0}, {"lam": "1"}, {"attn_scale": 1},
])
def test_from_dict_rejects_json_type_mismatch(fields):
    with pytest.raises(ValueError, match=repr(next(iter(fields)))):
        TrainingConfig.from_dict(fields)


@pytest.mark.parametrize("field, value", [
    ("max_tuples", None), ("dim", 8.0), ("use_relations", 1),
])
def test_constructor_checks_json_types_too(field, value):
    with pytest.raises(ValueError, match=f"{field!r} must be"):
        TrainingConfig(**{field: value})


@pytest.mark.parametrize("doc", [[1], "dim", None])
def test_from_dict_rejects_a_non_object(doc):
    with pytest.raises(ValueError, match="config must be a JSON object"):
        TrainingConfig.from_dict(doc)


def test_from_dict_accepts_json_types_of_each_field():
    cfg = TrainingConfig.from_dict({"dim": 8, "mlp_hidden": None, "lam": 1,
                                    "epsilon": 0.5, "use_relations": False})
    assert (cfg.dim, cfg.mlp_hidden, cfg.lam, cfg.use_relations) == \
        (8, None, 1, False)


@pytest.mark.parametrize("field", ["lam", "gamma", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_loss_weight_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"loss weight {field} must be "
                                         f"finite"):
        TrainingConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
def test_learning_rate_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="learning_rate must be finite and "
                                         "positive"):
        TrainingConfig(learning_rate=value)
