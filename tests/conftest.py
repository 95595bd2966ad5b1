"""Marks the training studies as slow, so that ``pytest -m "not slow"``
gives a fast inner loop. The marks are applied here by node id, which
leaves the test modules themselves untouched."""
import pytest

SLOW = {
    "tests/test_acceptance.py::test_relation_ablation_direction",
    "tests/test_acceptance.py::test_overfit_end_to_end",
    "tests/test_acceptance.py::test_regularization_direction",
}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)
