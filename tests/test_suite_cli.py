"""Suite orchestration and the command-line interface: determinism, report
formats, and the exit-code contract."""

import itertools
import json
import os
import subprocess
import sys
import types

import pytest

from qglab import suite
from qglab.builders import builtin_instance
from qglab.serialize import instance_to_dict, load_instance
from qglab.suite import (
    SUITE_NAMES,
    TOLERANCES,
    SuiteConfig,
    SuiteReport,
    emit_report,
    run_suite,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def small_cfg(suites, instances=("c_z2",), **kw):
    return SuiteConfig(
        instances=[(n, builtin_instance(n)) for n in instances],
        suites=suites,
        seed=kw.pop("seed", 1),
        trials=kw.pop("trials", 5),
        copies=kw.pop("copies", 4),
        length=kw.pop("length", 3),
        **kw,
    )


def test_run_suite_passes_on_corpus_instance():
    rep = run_suite(small_cfg(("validate", "duality", "corep")))
    assert rep.passed
    assert all(r.passed for r in rep.records)


def test_run_suite_fails_on_corrupted_haar():
    data = instance_to_dict(builtin_instance("c_z2"))
    data["haar"] = [[1.0, 0.0], [0.0, 0.0]]
    from qglab.serialize import instance_from_dict
    bad = instance_from_dict(data)
    cfg = SuiteConfig(instances=[("bad", bad)], suites=("validate",))
    rep = run_suite(cfg)
    assert not rep.passed


def test_report_determinism():
    def run_once():
        rep = run_suite(small_cfg(("validate", "corep", "khintchine"),
                                  instances=("c_z2",), seed=7))
        return emit_report(rep, "json")

    def strip_runtime(text):
        d = json.loads(text)
        d.pop("runtime_ms", None)
        for r in d["records"]:
            r.pop("runtime_ms", None)
        return json.dumps(d, sort_keys=True)

    assert strip_runtime(run_once()) == strip_runtime(run_once())


def test_emit_report_json_shape():
    rep = SuiteReport(small_cfg(("validate",)))
    out = json.loads(emit_report(rep, "json"))
    assert out["records"] == []
    assert out["pass"] is True


def test_emit_report_md_flags_failures():
    from qglab.suite import Record
    rep = SuiteReport(small_cfg(("validate",)))
    rep.add(Record("x/check", "some identity", "abc", 1.0, 1e-8, False, 0.0))
    text = emit_report(rep, "md")
    assert "FAIL" in text
    with pytest.raises(Exception):
        emit_report(rep, "yaml")


def test_full_run_contains_anchors():
    rep = run_suite(small_cfg(("validate", "duality", "unitarize",
                               "multiplier")))
    text = emit_report(rep, "json")
    for anchor in ("W12 W13 W23 = W23 W12",
                   "lambda-hat(L omega) = x lambda-hat(omega)",
                   "Hopf *-algebra, Kac and Haar axioms"):
        assert anchor in text
    assert rep.passed


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qglab.cli", *args],
        capture_output=True, text=True,
        cwd=os.path.join(os.path.dirname(__file__), os.pardir))


def test_cli_validate_pass_and_fail(tmp_path):
    r = _cli("validate", "--builtin", "c_z2")
    assert r.returncode == 0, r.stderr
    data = instance_to_dict(builtin_instance("c_z2"))
    data["haar"] = [[1.0, 0.0], [0.0, 0.0]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    r = _cli("validate", "--instance", str(p))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["pass"] is False


def test_cli_structural_error_is_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x"}')
    r = _cli("validate", "--instance", str(p))
    assert r.returncode == 2


def test_cli_budget_error_is_exit_2():
    r = _cli("khintchine", "--copies", "16", "--length", "4",
             "--dim-cap", "100")
    assert r.returncode == 2
    assert "budget" in r.stderr.lower()


def test_cli_dim_cap_env(tmp_path):
    env = dict(os.environ, QGLAB_DIM_CAP="100")
    r = subprocess.run(
        [sys.executable, "-m", "qglab.cli", "khintchine", "--copies", "16",
         "--length", "4"],
        capture_output=True, text=True, env=env,
        cwd=os.path.join(os.path.dirname(__file__), os.pardir))
    assert r.returncode == 2


def test_cli_dual_round_trips(tmp_path):
    out = tmp_path / "dual.json"
    r = _cli("dual", "--builtin", "c_z2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    H = load_instance(out)
    assert H.dim == 2
    from qglab.qgroup import validate
    assert validate(H, tol=1e-9).passed


def test_cli_noncb_report_fields():
    r = _cli("noncb", "--copies", "4", "--length", "3")
    assert r.returncode == 0, r.stderr
    d = json.loads(r.stdout)
    for key in ("config", "noncb", "runtime_ms", "records"):
        assert key in d
    for key in ("certified_lower", "analytic_bounds", "ratios", "measured"):
        assert key in d["noncb"]
    assert d["pass"] is True


def test_khintchine_and_noncb_keep_their_own_extra():
    d = json.loads(emit_report(run_suite(small_cfg(("khintchine", "noncb"))),
                               "json"))
    assert set(d["khintchine"]) == {"ratios", "analytic_bounds",
                                    "certified_lower"}
    assert d["khintchine"]["analytic_bounds"] == {"khintchine_constant": 3.0}
    assert len(d["khintchine"]["ratios"]) == 5      # N = 2, 4 and 2, 4, 6
    assert set(d["noncb"]) == {"ratios", "analytic_bounds", "certified_lower",
                               "measured"}
    assert d["noncb"]["analytic_bounds"]["bounded_upper"] == 6.0


def test_every_record_times_its_own_work(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(suite, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))
    rep = run_suite(small_cfg(SUITE_NAMES, trials=2, copies=5))
    assert {r.name.split("/")[0] for r in rep.records} == set(SUITE_NAMES)
    assert all(r.runtime_ms > 0 for r in rep.records)
    assert sum(r.runtime_ms for r in rep.records) <= rep.runtime_ms


def test_every_tolerance_name_reaches_a_record():
    overrides = {name: 1e-3 * (1 + k / 100) for k, name in enumerate(TOLERANCES)}
    rep = run_suite(small_cfg(SUITE_NAMES, trials=2, tol=overrides))
    assert rep.passed
    assert set(overrides.values()) <= {r.tol for r in rep.records}
    assert rep.to_dict()["config"]["tol_overrides"] == overrides


def test_cli_unknown_tolerance_name_is_exit_2():
    r = _cli("validate", "--builtin", "c_z2", "--tol", "pentgon=1e-3")
    assert r.returncode == 2
    assert "pentgon" in r.stderr and r.stdout == ""


def test_cli_md_format():
    r = _cli("validate", "--builtin", "c_z2", "--format", "md")
    assert r.returncode == 0
    assert "aggregate: PASS" in r.stdout


def test_corpus_suites_keep_one_keyed_cache():
    G = builtin_instance("cg_s3")
    rep = run_suite(SuiteConfig(instances=[("cg_s3", G)],
                                suites=("validate", "duality", "corep",
                                        "multiplier", "unitarize"),
                                trials=2))
    assert rep.passed
    old = {"_gns", "_blocks", "_mult_unitary", "_dual", "_corep_catalog",
           "_biduality"}
    assert not old & set(vars(G))
    tensors = {"mult", "unit", "star", "state", "coproduct", "counit",
               "antipode"}
    assert set(vars(G)) - tensors == {"name", "dim", "basis_labels", "_cache"}
    stages = {key[0] for key in G._cache}
    assert {"gns", "build_w", "build_dual", "corep_catalog",
            "biduality"} <= stages


def test_cli_defaults_come_from_suite_config():
    from qglab import cli
    args = cli._parser().parse_args(["all"])
    cfg = SuiteConfig()
    assert (args.seed, args.trials, args.copies, args.length) == \
        (cfg.seed, cfg.trials, cfg.copies, cfg.length)
