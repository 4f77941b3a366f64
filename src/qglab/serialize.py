"""Instance JSON format: bit-exact round trips of the structure tensors.

Top-level object: name, dim, basis_labels, mult, coproduct, unit, counit,
antipode, star, haar.  Complex numbers are always two-element [re, im]
arrays; nested arrays follow the tensor index order.  On load, dim must be
a positive int (not a bool), name a string, and basis_labels, when given, a
list of dim strings; non-finite numbers are rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import StructuralError
from .qgroup import _RANKS, FiniteQuantumGroup

# tensor field -> rank, from the instance schema; the state is stored as "haar"
_FIELDS = {("haar" if key == "state" else key): rank for key, rank in _RANKS.items()}


def _encode(arr):
    a = np.asarray(arr, dtype=complex)
    if a.ndim == 0:
        return [a.real.item(), a.imag.item()]
    return [_encode(sub) for sub in a]


def _decode(node, shape, path):
    if len(shape) == 0:
        if (not isinstance(node, list) or len(node) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in node)):
            raise StructuralError("field %s: complex numbers must be [re, im]" % path)
        re, im = float(node[0]), float(node[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise StructuralError("field %s: non-finite number" % path)
        return complex(re, im)
    if not isinstance(node, list) or len(node) != shape[0]:
        raise StructuralError("field %s: expected a list of length %d" % (path, shape[0]))
    return [_decode(sub, shape[1:], "%s[%d]" % (path, i))
            for i, sub in enumerate(node)]


def instance_to_dict(G: FiniteQuantumGroup) -> dict:
    out = {"name": G.name, "dim": G.dim, "basis_labels": list(G.basis_labels)}
    out.update((key, _encode(getattr(G, key))) for key in _FIELDS)
    return out


def instance_from_dict(data: dict) -> FiniteQuantumGroup:
    if not isinstance(data, dict):
        raise StructuralError("instance file must contain a JSON object")
    for key in ("name", "dim", *_FIELDS):
        if key not in data:
            raise StructuralError("missing field %r" % key)
    n = data["dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise StructuralError("field 'dim' must be a positive integer")
    if not isinstance(data["name"], str):
        raise StructuralError("field 'name' must be a string")
    labels = data.get("basis_labels")
    if "basis_labels" in data and not (
            isinstance(labels, list) and len(labels) == n
            and all(isinstance(b, str) for b in labels)):
        raise StructuralError("field 'basis_labels' must be a list of %d strings" % n)
    tensors = {key: np.array(_decode(data[key], (n,) * rank, key), dtype=complex)
               for key, rank in _FIELDS.items()}
    return FiniteQuantumGroup(data["name"], basis_labels=labels, **tensors)


def instance_json(G: FiniteQuantumGroup) -> str:
    """The text of G's instance file, the one form every writer emits."""
    return json.dumps(instance_to_dict(G), indent=1, sort_keys=True) + "\n"


def load_instance(path) -> FiniteQuantumGroup:
    """The instance in the JSON file at ``path``; a file that cannot be
    opened, decoded or parsed raises StructuralError naming the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError("invalid JSON in %s: %s" % (path, exc)) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError("cannot read instance file %s: %s"
                              % (path, exc)) from None
    return instance_from_dict(data)
