"""Instance JSON format: bit-exact round trips of the structure tensors.

Top-level object: name, dim, basis_labels, mult, coproduct, unit, counit,
antipode, star, haar.  Complex numbers are always two-element [re, im]
arrays; nested arrays follow the tensor index order.  Non-finite numbers
are rejected on load.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import StructuralError
from .qgroup import FiniteQuantumGroup

_FIELDS = ("mult", "coproduct", "unit", "counit", "antipode", "star", "haar")


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
    return {
        "name": G.name,
        "dim": G.dim,
        "basis_labels": list(G.basis_labels),
        "mult": _encode(G.mult),
        "coproduct": _encode(G.coproduct),
        "unit": _encode(G.unit),
        "counit": _encode(G.counit),
        "antipode": _encode(G.antipode),
        "star": _encode(G.star),
        "haar": _encode(G.haar),
    }


def instance_from_dict(data: dict) -> FiniteQuantumGroup:
    if not isinstance(data, dict):
        raise StructuralError("instance file must contain a JSON object")
    for key in ("name", "dim") + _FIELDS:
        if key not in data:
            raise StructuralError("missing field %r" % key)
    n = data["dim"]
    if not isinstance(n, int) or n <= 0:
        raise StructuralError("field 'dim' must be a positive integer")
    shapes = {
        "mult": (n, n, n), "coproduct": (n, n, n),
        "unit": (n,), "counit": (n,), "haar": (n,),
        "antipode": (n, n), "star": (n, n),
    }
    tensors = {}
    for key in _FIELDS:
        tensors[key] = np.array(_decode(data[key], shapes[key], key), dtype=complex)
    labels = data.get("basis_labels")
    return FiniteQuantumGroup(data["name"], tensors["mult"], tensors["unit"],
                              tensors["coproduct"], tensors["counit"],
                              tensors["antipode"], tensors["star"],
                              tensors["haar"], basis_labels=labels)


def save_instance(G: FiniteQuantumGroup, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(G), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> FiniteQuantumGroup:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError("invalid JSON in %s: %s" % (path, exc)) from None
    return instance_from_dict(data)
