"""Instance JSON round trips and schema validation."""

import json
import os
import re

import numpy as np
import pytest

from qglab.builders import builtin_instance, BUILTIN_NAMES
from qglab.errors import StructuralError
from qglab.serialize import (
    instance_from_dict,
    instance_json,
    instance_to_dict,
    load_instance,
)
from qglab.qgroup import validate

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def test_round_trip_is_bit_exact(tmp_path):
    for name in BUILTIN_NAMES:
        G = builtin_instance(name)
        p = tmp_path / ("%s.json" % name)
        p.write_text(instance_json(G))
        H = load_instance(p)
        for key in ("mult", "coproduct", "unit", "counit", "antipode", "star",
                    "haar"):
            assert np.array_equal(getattr(G, key), getattr(H, key)), (name, key)
        assert H.basis_labels == G.basis_labels
        # serialized form of the reload is byte-identical
        s1 = json.dumps(instance_to_dict(G), sort_keys=True)
        s2 = json.dumps(instance_to_dict(H), sort_keys=True)
        assert s1 == s2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_corpus_file_is_the_builtins_serialization(name):
    with open(os.path.join(CORPUS_DIR, "%s.json" % name)) as fh:
        assert fh.read() == instance_json(builtin_instance(name))


def test_corpus_files_load_and_validate():
    G = load_instance(os.path.join(CORPUS_DIR, "c_z2.json"))
    assert G.dim == 2
    K = load_instance(os.path.join(CORPUS_DIR, "kac_paljutkin.json"))
    assert K.dim == 8
    assert validate(K, tol=1e-10).passed


def test_missing_field_named(tmp_path):
    d = instance_to_dict(builtin_instance("c_z2"))
    del d["haar"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(d))
    with pytest.raises(StructuralError, match="haar"):
        load_instance(p)


def test_wrong_shape_named():
    d = instance_to_dict(builtin_instance("c_z2"))
    d["unit"] = d["unit"][:1]
    with pytest.raises(StructuralError, match="unit"):
        instance_from_dict(d)


def test_non_finite_rejected():
    d = instance_to_dict(builtin_instance("c_z2"))
    d["haar"][0][0] = float("nan")
    with pytest.raises(StructuralError, match="haar"):
        instance_from_dict(d)


def test_scalar_encoding_rejected():
    d = instance_to_dict(builtin_instance("c_z2"))
    d["haar"][0] = 0.5  # bare float instead of [re, im]
    with pytest.raises(StructuralError):
        instance_from_dict(d)


def test_invalid_json(tmp_path):
    p = tmp_path / "trunc.json"
    p.write_text('{"name": "x", "dim": 2')
    with pytest.raises(StructuralError):
        load_instance(p)


@pytest.mark.parametrize("key,value,match", [
    ("basis_labels", 5, "basis_labels"),
    ("basis_labels", "ab", "basis_labels"),
    ("basis_labels", None, "basis_labels"),
    ("basis_labels", ["a"], "basis_labels"),
    ("basis_labels", ["a", 1], "basis_labels"),
    ("dim", True, "dim"),
    ("dim", 2.0, "dim"),
    ("name", ["x"], "name"),
    ("name", 7, "name"),
])
def test_malformed_metadata_rejected(key, value, match):
    d = instance_to_dict(builtin_instance("c_z2"))
    d[key] = value
    with pytest.raises(StructuralError, match=match):
        instance_from_dict(d)


def test_basis_labels_may_be_absent():
    d = instance_to_dict(builtin_instance("c_z2"))
    del d["basis_labels"]
    assert instance_from_dict(d).basis_labels == ["e0", "e1"]


@pytest.mark.parametrize("case", ["missing", "directory", "undecodable"])
def test_unreadable_file_is_structural_and_named(tmp_path, case):
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
    p = {"missing": tmp_path / "missing.json", "directory": tmp_path,
         "undecodable": tmp_path / "bytes.json"}[case]
    with pytest.raises(StructuralError, match=re.escape(str(p))):
        load_instance(p)
