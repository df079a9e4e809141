"""``.npz``-based checkpointing for live models and frozen exports.

Two formats live here:

* **State checkpoints** (:func:`save_state` / :func:`load_state`) -- a flat
  dump of a live module's ``state_dict`` (parameters *and* buffers, so
  batch-norm running statistics survive).  Loading requires a compatible
  model instance, exactly like ``torch.load_state_dict``.
* **Frozen checkpoints** (:func:`save_frozen` / :func:`load_frozen`) -- a
  self-describing serialization of a :class:`~repro.serving.frozen.FrozenModel`:
  a JSON spec tree describing the op graph plus one compact array per
  tensor.  Quantized weights are stored as packed BFP integer arrays
  (int8 signs, uint8/16 mantissas, int16 shared exponents -- the information
  content of the Figure 15 memory layout), so a 4-bit-mantissa checkpoint is
  a fraction of the FP32 size and reloads **bit-identically**:
  dequantization via ``BFPTensor.to_float`` reproduces the exact grid values
  the live model computes.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Dict

import numpy as np

from ..nn.modules import Module
from .frozen import FrozenModel, FrozenOp, frozen_op_types

__all__ = ["CheckpointError", "save_state", "load_state", "save_frozen", "load_frozen"]

_SPEC_KEY = "__spec__"


class CheckpointError(ValueError):
    """A checkpoint file is corrupted, truncated, or incompatible.

    Subclasses :class:`ValueError` so pre-existing callers catching the old
    error type keep working; the message always names the offending file
    and, where known, the missing keys.
    """


def _read_npz(path: Path) -> Dict[str, np.ndarray]:
    """Load every array of an ``.npz``, turning low-level decode failures
    (truncated zip, corrupted member, not-a-zip) into a named
    :class:`CheckpointError`."""
    try:
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as error:
        raise CheckpointError(
            f"{path}: corrupted or truncated checkpoint ({error})") from error


# --------------------------------------------------------------------------- #
# Live-module state checkpoints
# --------------------------------------------------------------------------- #
def save_state(module: Module, path) -> Path:
    """Write a module's parameters and buffers to a compressed ``.npz``."""
    path = Path(path)
    state = module.state_dict()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **state)
    return path


def load_state(module: Module, path) -> Module:
    """Load a :func:`save_state` checkpoint into a compatible module.

    Validates the checkpoint against the module's ``state_dict`` before
    touching the module: missing or unexpected keys raise a
    :class:`CheckpointError` naming the file and the keys, instead of a
    cryptic failure mid-load.
    """
    path = Path(path)
    state = _read_npz(path)
    expected = set(module.state_dict())
    found = set(state)
    if expected != found:
        missing = sorted(expected - found)
        unexpected = sorted(found - expected)
        parts = [f"{path}: state checkpoint does not match the model"]
        if missing:
            parts.append(f"missing {len(missing)} keys: {missing[:8]}")
        if unexpected:
            parts.append(f"unexpected {len(unexpected)} keys: {unexpected[:8]}")
        raise CheckpointError("; ".join(parts))
    module.load_state_dict(state)
    return module


# --------------------------------------------------------------------------- #
# Frozen-model checkpoints
# --------------------------------------------------------------------------- #
def _collect(op: FrozenOp, path: str, arrays_out: Dict[str, np.ndarray]) -> dict:
    config, arrays, children = op.state()
    for name, array in arrays.items():
        arrays_out[f"{path}/{name}"] = array
    child_specs = {}
    for name, child in children.items():
        if isinstance(child, (list, tuple)):
            child_specs[name] = [
                _collect(item, f"{path}/{name}.{index}", arrays_out)
                for index, item in enumerate(child)
            ]
        else:
            child_specs[name] = _collect(child, f"{path}/{name}", arrays_out)
    return {"type": op.kind, "config": config, "children": child_specs}


def _build(spec: dict, path: str, arrays_by_dir: Dict[str, Dict[str, np.ndarray]],
           source: Path) -> FrozenOp:
    kind = spec.get("type")
    op_type = frozen_op_types().get(kind)
    if op_type is None:
        raise CheckpointError(f"{source}: op {path!r} has unknown frozen op type {kind!r}")
    children = {}
    for name, child_spec in spec.get("children", {}).items():
        if isinstance(child_spec, list):
            children[name] = [
                _build(item, f"{path}/{name}.{index}", arrays_by_dir, source)
                for index, item in enumerate(child_spec)
            ]
        else:
            children[name] = _build(child_spec, f"{path}/{name}", arrays_by_dir, source)
    try:
        return op_type.from_state(spec.get("config", {}), arrays_by_dir.get(path, {}),
                                  children)
    except KeyError as error:
        # from_state names what is missing: "config key 'packed.axis'",
        # "array 'bias'", "child op 'conv1'".
        raise CheckpointError(
            f"{source}: op {path!r} ({kind}) is missing {error.args[0]} "
            "(truncated or corrupted)") from error


def save_frozen(model: FrozenModel, path) -> Path:
    """Serialize a frozen model (spec JSON + compact arrays) to ``.npz``."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    root_spec = _collect(model.root, "root", arrays)
    spec = {
        "format": "repro-frozen",
        "version": FrozenModel.FORMAT_VERSION,
        "family": model.family,
        "meta": model.meta,
        # Array manifest: load_frozen validates the .npz against it so a
        # truncated/corrupted file fails with the missing keys by name.
        "arrays": sorted(arrays),
        "root": root_spec,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{_SPEC_KEY: np.array(json.dumps(spec))}, **arrays)
    return path


def load_frozen(path) -> FrozenModel:
    """Reconstruct a :func:`save_frozen` checkpoint.

    The returned model's outputs are bit-identical to the model that was
    saved: packed weights decode to the exact BFP grid values, raw arrays
    round-trip untouched.
    """
    path = Path(path)
    data = _read_npz(path)
    if _SPEC_KEY not in data:
        raise CheckpointError(f"{path} is not a frozen-model checkpoint")
    try:
        spec = json.loads(str(data[_SPEC_KEY][()]))
    except (json.JSONDecodeError, TypeError) as error:
        raise CheckpointError(
            f"{path}: frozen checkpoint spec is corrupted ({error})") from error
    arrays_by_dir: Dict[str, Dict[str, np.ndarray]] = {}
    for key in data:
        if key == _SPEC_KEY:
            continue
        directory, _, name = key.rpartition("/")
        arrays_by_dir.setdefault(directory, {})[name] = data[key]
    if spec.get("format") != "repro-frozen":
        raise CheckpointError(f"unsupported checkpoint format {spec.get('format')!r}")
    if spec.get("version") != FrozenModel.FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {spec.get('version')!r}")
    manifest = spec.get("arrays")
    if manifest is not None:
        missing = sorted(set(manifest) - set(data))
        if missing:
            raise CheckpointError(
                f"{path}: frozen checkpoint is missing {len(missing)} of "
                f"{len(manifest)} arrays (truncated or corrupted): {missing[:8]}")
    root = _build(spec.get("root", {}), "root", arrays_by_dir, path)
    model = FrozenModel(root, spec["family"], meta=spec.get("meta"))
    compute_dtype = model.meta.get("compute_dtype")
    if compute_dtype is not None:
        # Packed weights always dequantize to float64; re-apply the saved
        # serving dtype so a cast model round-trips as cast.
        model.cast(compute_dtype)
    return model
