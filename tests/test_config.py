"""Run configuration validation."""
import pytest

from kgdialog.config import TrainingConfig


def test_all_zero_loss_weights_rejected():
    with pytest.raises(ValueError, match="at least one loss weight"):
        TrainingConfig(lam=0, gamma=0, beta=0)


@pytest.mark.parametrize("fields", [
    {"dim": True}, {"mlp_hidden": 1.0}, {"lam": "1"}, {"attn_scale": 1},
])
def test_from_dict_rejects_json_type_mismatch(fields):
    with pytest.raises(ValueError, match=repr(next(iter(fields)))):
        TrainingConfig.from_dict(fields)


def test_from_dict_accepts_json_types_of_each_field():
    cfg = TrainingConfig.from_dict({"dim": 8, "mlp_hidden": None, "lam": 1,
                                    "epsilon": 0.5, "use_relations": False})
    assert (cfg.dim, cfg.mlp_hidden, cfg.lam, cfg.use_relations) == \
        (8, None, 1, False)
