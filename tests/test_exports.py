"""The package's export lists name what its modules hold."""

import pytest

import oewb
from oewb import errors, harness


@pytest.mark.parametrize("module", [oewb, harness], ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_one_dataset_record_is_exported():
    assert [name for name in oewb.__all__ + harness.__all__ if name.endswith("Dataset")] == ["Dataset"]


def test_the_two_errors_are_exported():
    # every refused input is a ValidationError (exit 1); a diverged run is a DivergenceError (exit 2)
    assert sorted(name for name in oewb.__all__ if name.endswith("Error")) == ["DivergenceError", "ValidationError"]
    defined = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, BaseException)]
    assert defined == [errors.ValidationError, errors.DivergenceError]
    assert not issubclass(errors.DivergenceError, errors.ValidationError)
