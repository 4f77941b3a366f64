"""Suite orchestration and the command-line interface: determinism, report
formats, and the exit-code contract."""

import itertools
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from qglab import suite
from qglab.builders import builtin_instance
from qglab.duality import build_dual
from qglab.errors import StructuralError
from qglab.serialize import instance_json, instance_to_dict, load_instance
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


def _cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qglab.cli", *args],
        capture_output=True, text=True, env=env,
        cwd=os.path.join(os.path.dirname(__file__), os.pardir))


def test_readme_tour_runs():
    # the README's tour calls the package as a reader would; running it keeps
    # its signatures current
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as fh:
        tour = fh.read().split("## A two-minute tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=root, timeout=60)
    assert r.returncode == 0, r.stderr
    # the drawn twist shows: ||V|| well above the unitarized 1
    cb_twisted, cb_unitary = map(float, r.stdout.splitlines()[-2].split())
    assert cb_twisted > 2.0 and abs(cb_unitary - 1.0) < 1e-9


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


def test_cli_malformed_basis_labels_is_exit_2(tmp_path):
    data = instance_to_dict(builtin_instance("c_z2"))
    data["basis_labels"] = 5
    p = tmp_path / "labels.json"
    p.write_text(json.dumps(data))
    r = _cli("validate", "--instance", str(p))
    assert r.returncode == 2
    assert "basis_labels" in r.stderr and "Traceback" not in r.stderr


def test_cli_unreadable_instance_is_exit_2(tmp_path):
    r = _cli("validate", "--instance", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    assert "missing.json" in r.stderr and "Traceback" not in r.stderr


def test_cli_unwritable_out_is_exit_2(tmp_path):
    out = str(tmp_path / "no" / "such" / "dir" / "r.json")
    for command in ("validate", "dual"):
        r = _cli(command, "--builtin", "c_z2", "--out", out)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and out in r.stderr
        assert "Traceback" not in r.stderr and len(r.stderr.splitlines()) == 1


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
    dual = build_dual(builtin_instance("c_z2")).group
    assert out.read_text() == instance_json(dual)
    H = load_instance(out)
    assert H.dim == 2
    for key in ("mult", "coproduct", "unit", "counit", "antipode", "star",
                "haar"):
        assert np.array_equal(getattr(H, key), getattr(dual, key)), key
    assert H.basis_labels == dual.basis_labels
    from qglab.qgroup import validate
    assert validate(H, tol=1e-9).passed


@pytest.mark.parametrize("flags", [(), ("--builtin", "c_z2", "--builtin", "c_z3"),
                                   ("--builtin", "c_z2", "--instance",
                                    os.path.join(CORPUS_DIR, "c_z3.json"))])
def test_cli_dual_takes_exactly_one_instance(tmp_path, flags):
    out = tmp_path / "dual.json"
    r = _cli("dual", *flags, "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: dual takes exactly one instance")
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--format", "md"), ("--seed", "5"),
                                  ("--trials", "3"), ("--copies", "4"),
                                  ("--length", "3"), ("--tol", "pentagon=1e-6"),
                                  ("--dim-cap", "100")])
def test_cli_dual_refuses_the_suite_flags(tmp_path, flag):
    # the dual is one instance file: a suite flag would be accepted and
    # ignored, so the parser refuses it
    out = tmp_path / "dual.json"
    r = _cli("dual", "--builtin", "c_z2", *flag, "--out", str(out))
    assert r.returncode == 2
    assert "unrecognized arguments: %s" % flag[0] in r.stderr
    assert not out.exists()


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
                               "cb_bracket", "pi_bracket", "measured"}
    assert d["noncb"]["analytic_bounds"]["bounded_upper"] == 6.0


def test_noncb_cb_bracket_holds_for_every_n():
    d = json.loads(emit_report(run_suite(small_cfg(("noncb",), copies=6)),
                               "json"))["noncb"]
    assert set(d["cb_bracket"]) == {"4", "6"}
    for N, (lo, hi) in d["cb_bracket"].items():
        assert hi == math.sqrt(int(N) + 1)
        assert lo == min(d["certified_lower"][N], hi)
        assert hi >= lo


def test_noncb_pi_bracket_holds_for_every_n():
    d = json.loads(emit_report(run_suite(small_cfg(("noncb",), copies=6)),
                               "json"))["noncb"]
    assert set(d["pi_bracket"]) == {"4", "6"}
    for N, (lo, hi) in d["pi_bracket"].items():
        assert lo == d["measured"][N]["pi_lower_search"]
        assert hi == math.sqrt(10)
        assert hi >= lo


@pytest.mark.parametrize("copies", [3, 5, 8, 9])
def test_noncb_passes_at_small_copy_counts(copies):
    # the coefficient's l1 norm is sqrt(N), so from N1 = min(4, copies) to
    # N2 = max(4, copies) it grows by sqrt(N2) - sqrt(N1), at most 1 here
    report = run_suite(small_cfg(("noncb",), copies=copies))
    n1, n2 = sorted({4, copies})
    growth = {r.name: r for r in report.records}["noncb/multiplier-growth"]
    assert growth.bound == math.sqrt(n2) - math.sqrt(n1) <= 1.0
    assert report.passed, [r.name for r in report.records if not r.passed]


def test_noncb_records_agree_across_blas_thread_counts():
    # reports are byte-stable at one BLAS thread; at two, long-vector norms
    # may sum in another order, which moves values by a few ulps only
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        r = _cli("noncb", "--copies", "16", "--length", "4", env=env)
        assert r.returncode == 0, r.stderr
        runs.append(json.loads(r.stdout)["records"])
    one, two = runs
    assert [(r["name"], r["passed"]) for r in one] \
        == [(r["name"], r["passed"]) for r in two]
    for a, b in zip(one, two):
        assert math.isclose(a["value"], b["value"], rel_tol=1e-12)


def _without_runtimes(records):
    return json.dumps([{k: v for k, v in r.items() if k != "runtime_ms"}
                       for r in records], sort_keys=True)


def _records_at_blas_threads(*args):
    """The records of one CLI run at one OpenBLAS thread and of one at two,
    after checking that a second run at one thread is byte-identical and
    that the run at two has the same names and outcomes."""
    runs = []
    for threads in ("1", "1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        r = _cli(*args, env=env)
        assert r.returncode == 0, r.stderr
        runs.append(json.loads(r.stdout)["records"])
    one, again, two = runs
    assert _without_runtimes(one) == _without_runtimes(again)
    assert [(r["name"], r["passed"]) for r in one] \
        == [(r["name"], r["passed"]) for r in two]
    return one, two


@pytest.mark.parametrize("command", ["corep-suite", "multiplier-suite"])
def test_stacked_suite_records_agree_across_runs_and_blas_thread_counts(command):
    # the stacked trials run their gemms on whole stacks, where a thread
    # count could change a summation order: byte-stable at one BLAS thread,
    # within a few ulps at two
    one, two = _records_at_blas_threads(command, "--builtin", "c_s3",
                                        "--builtin", "kac_paljutkin")
    for a, b in zip(one, two):
        assert math.isclose(a["value"], b["value"], rel_tol=1e-12)


def test_duality_records_agree_across_runs_and_blas_thread_counts():
    # the pentagon bound sums Gram matrices formed by gemm, whose summation
    # order may follow the thread count: byte-stable at one BLAS thread; at
    # two, within a few ulps, or 1e-15 for values that are roundoff alone
    one, two = _records_at_blas_threads("duality", "--builtin", "c_s3",
                                        "--builtin", "kac_paljutkin")
    for a, b in zip(one, two):
        assert math.isclose(a["value"], b["value"], rel_tol=1e-12, abs_tol=1e-15)


def _ticking_clock(monkeypatch):
    """Make suite's perf_counter return 0, 1, 2, ... seconds, one per call."""
    ticks = itertools.count()
    monkeypatch.setattr(suite, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))


def test_every_record_times_its_own_work(monkeypatch):
    _ticking_clock(monkeypatch)
    notes = {}
    note = suite._Recorder.note

    def counted(rec, name, *values):
        key = "%s/%s" % (rec.prefix, name)
        notes[key] = notes.get(key, 0) + 1
        note(rec, name, *values)

    monkeypatch.setattr(suite._Recorder, "note", counted)
    rep = run_suite(small_cfg(SUITE_NAMES, trials=2, copies=5))
    assert {r.name.split("/")[0] for r in rep.records} == set(SUITE_NAMES)
    assert all(r.runtime_ms > 0 for r in rep.records)
    assert sum(r.runtime_ms for r in rep.records) <= rep.runtime_ms
    # every note takes one tick, and charges it to its own record
    noted = [r for r in rep.records
             if r.name.split("/")[0] in ("corep", "unitarize", "multiplier")
             and r.name in notes]
    assert {r.name.split("/")[0] for r in noted} == {"corep", "unitarize",
                                                     "multiplier"}
    assert len(noted) == 18         # 8 corep, 4 unitarize, 6 multiplier checks
    for r in noted:
        assert r.runtime_ms >= 1e3 * notes[r.name], r.name


def test_interleaved_notes_are_charged_to_their_own_records(monkeypatch):
    _ticking_clock(monkeypatch)
    report = SuiteReport(small_cfg(("corep",)))
    rec = suite._Recorder(report, "p", "")          # tick 0
    rec.note("a", 1.0)                              # tick 1: a
    rec.note("b", 2.0)                              # tick 2: b
    rec.note("a", 3.0)                              # tick 3: a
    rec.note("a", 0.5)                              # tick 4: a
    rec.note("b", 4.0)                              # tick 5: b
    rec.check("a", "", 10.0)                        # tick 6: a
    rec.lower("b", "", 0.0, 1.0)                    # tick 7: b
    rec.check("c", "", 1.0, 0.0)                    # tick 8: c
    assert [(r.name, r.value, r.runtime_ms) for r in report.records] == [
        ("p/a", 3.0, 4e3), ("p/b", 2.0, 3e3), ("p/c", 0.0, 1e3)]


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


@pytest.mark.parametrize("value", ["abc", "-1", "nan"])
def test_cli_malformed_tolerance_value_is_exit_2(value):
    r = _cli("validate", "--builtin", "c_z2", "--tol", "validate=" + value)
    assert r.returncode == 2
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_cli_malformed_dim_cap_env_is_exit_2():
    r = _cli("validate", "--builtin", "c_z2",
             env=dict(os.environ, QGLAB_DIM_CAP="lots"))
    assert r.returncode == 2
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert "QGLAB_DIM_CAP" in r.stderr and r.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("corep-suite", "--builtin", "c_z2", "--seed", "-1"),
    ("corep-suite", "--builtin", "c_z2", "--trials", "0"),
    ("noncb", "--copies", "0"),
    ("noncb", "--length", "1"),
])
def test_cli_out_of_range_count_is_exit_2(args):
    r = _cli(*args)
    assert r.returncode == 2
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert args[-2].lstrip("-") in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("kw", [{"seed": -1}, {"trials": 0}, {"trials": -3},
                                {"copies": 0}, {"length": 1}])
def test_suite_config_rejects_out_of_range_counts(kw):
    with pytest.raises(StructuralError, match=next(iter(kw))):
        SuiteConfig(**kw)


def test_cli_repeated_instance_label_is_exit_2():
    path = os.path.join(CORPUS_DIR, "c_z2.json")
    r = _cli("validate", "--builtin", "c_z2", "--instance", path)
    assert r.returncode == 2
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert "c_z2" in r.stderr and r.stderr.count("\n") == 1


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), "1e-3"])
def test_tolerance_values_must_be_finite_and_positive(value):
    with pytest.raises(StructuralError, match="finite and > 0"):
        SuiteConfig(tol={"validate": value})


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


def test_the_fock_constants_have_one_home(monkeypatch):
    # every Fock gate, anchor and report value reads the suite's constants
    monkeypatch.setattr(suite, "KHINTCHINE_CONSTANT", 0.5)
    monkeypatch.setattr(suite, "PI_BOUND", 0.25)
    monkeypatch.setattr(suite, "CB_FLOOR_SHIFT", 0.75)
    rep = run_suite(small_cfg(("khintchine", "noncb")))
    recs = {r.name: r for r in rep.records}
    upper = recs["khintchine/certified-upper"]
    assert "LHS_cert <= 0.5 max" in upper.anchor and not upper.passed
    assert "<= 0.5 max{C1, C2}" in recs["khintchine/norm-equivalence"].anchor
    pi = recs["noncb/pi-bounded-4"]
    assert pi.anchor.endswith("under 0.25") and pi.bound == 0.25
    assert not pi.passed
    cb = recs["noncb/cb-lower-4"]
    assert cb.anchor.endswith("sqrt(N) - 0.75") and cb.bound == 1.25
    noncb = rep.extra["noncb"]
    assert rep.extra["khintchine"]["analytic_bounds"] == {
        "khintchine_constant": suite.KHINTCHINE_CONSTANT}
    assert noncb["analytic_bounds"] == {
        "bounded_upper": suite.PI_BOUND,
        "cb_floor": {"4": 2.0 - suite.CB_FLOOR_SHIFT}}
    assert noncb["ratios"]["4"] == noncb["measured"]["4"]["cb_lower"] / 0.25
    assert noncb["pi_bracket"]["4"][1] == math.sqrt(0.5 ** 2 + 1.0)


def test_fock_suites_compute_at_depth_at_most_4():
    # khintchine and noncb cap the depth at 4 (the monotone probe at 6), and
    # the Khintchine grid at 16 copies, so length 6 gives the records of
    # length 4 and 20 copies those of 16, digests included; the config
    # echoes what was asked
    def run(suites, **kw):
        rep = run_suite(small_cfg(suites, **kw))
        values = [(r.name, r.anchor, r.digest, r.value, r.bound, r.passed)
                  for r in rep.sorted_records()]
        return rep.config.config_dict(), values, rep.extra
    four, six = (run(("khintchine", "noncb"), length=n) for n in (4, 6))
    assert (four[0]["length"], six[0]["length"]) == (4, 6)
    assert four[1:] == six[1:]
    sixteen, twenty = (run(("khintchine",), copies=n, length=4)
                       for n in (16, 20))
    assert (sixteen[0]["copies"], twenty[0]["copies"]) == (16, 20)
    assert sixteen[1:] == twenty[1:]


def test_dual_haar_reads_the_haar_invariance_axioms():
    from qglab.qgroup import HAAR_INVARIANCE
    G = builtin_instance("kac_paljutkin")
    checks = dict(build_dual(G).validation.checks)
    rep = run_suite(small_cfg(("duality",), instances=("kac_paljutkin",)))
    haar = [r for r in rep.records if r.name.endswith("/dual-haar")]
    assert [r.value for r in haar] == [max(checks[a] for a in HAAR_INVARIANCE)]
