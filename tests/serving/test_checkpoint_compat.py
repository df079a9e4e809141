"""Checkpoint compatibility: frozen checkpoints written by an earlier commit.

``fixtures/`` holds frozen ``.npz`` checkpoints (one per model family and
serving mode) together with the outputs and storage report the writing
commit produced; ``fixtures/make_fixtures.py`` documents how they were
made.  The current code must load every one of them to the same outputs bit
for bit, and saving the loaded model again must write the same spec JSON,
array keys, dtypes and array contents.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import frozen_op_types, load_frozen, save_frozen
from repro.serving.frozen import iter_ops

FIXTURES = Path(__file__).resolve().parent / "fixtures"
NAMES = sorted(path.name[:-len(".expected.npz")]
               for path in FIXTURES.glob("*.expected.npz"))


def read_npz(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def test_fixture_set_is_present():
    assert len(NAMES) == 11, NAMES


@pytest.mark.parametrize("name", NAMES)
def test_fixture_loads_bit_identically(name):
    model = load_frozen(FIXTURES / f"{name}.npz")
    expected = read_npz(FIXTURES / f"{name}.expected.npz")
    methods = {key.split(".")[0] for key in expected if key.endswith(".outputs")}
    assert methods
    for method in sorted(methods):
        args = [expected[f"{method}.arg{index}"]
                for index in range(sum(key.startswith(f"{method}.arg") for key in expected))]
        out = getattr(model, method)(*args)
        want = expected[f"{method}.outputs"]
        assert out.dtype == want.dtype, method
        np.testing.assert_array_equal(out, want, err_msg=f"{name}.{method}")
    assert model.storage_report() == json.loads(str(expected["storage_report"][()]))


@pytest.mark.parametrize("name", NAMES)
def test_fixture_resaves_identically(name, tmp_path):
    original = read_npz(FIXTURES / f"{name}.npz")
    resaved = read_npz(save_frozen(load_frozen(FIXTURES / f"{name}.npz"),
                                   tmp_path / f"{name}.npz"))
    assert str(resaved.pop("__spec__")[()]) == str(original.pop("__spec__")[()])
    assert sorted(resaved) == sorted(original)
    for key, array in original.items():
        assert resaved[key].dtype == array.dtype, key
        np.testing.assert_array_equal(resaved[key], array, err_msg=key)


def test_fixtures_cover_every_op_kind():
    kinds = set()
    for name in NAMES:
        kinds.update(op.kind for op in iter_ops(load_frozen(FIXTURES / f"{name}.npz").root))
    assert not set(frozen_op_types()) - kinds
