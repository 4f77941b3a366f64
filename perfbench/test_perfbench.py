"""Self-test of the benchmark: two tiny traced passes of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

CORPUS, FOCK, SCALE = workloads.WORKLOADS

# Where each span does work (calls > 0, or self time > 0 for spans reported
# by self time only); everywhere else it must do none.
WORKS = {
    **{"%s.%s" % (layer, f.rpartition(".")[2]): {CORPUS}
       for layer in ("qgroup", "builders", "convolution", "corep", "duality",
                     "catalog") for f in tracer.LAYERS[layer]},
    **{"fock." + f: {FOCK} for f in tracer.LAYERS["fock"]},
    "qgroup.validate": {CORPUS, SCALE},
    "qgroup.gns": {CORPUS, SCALE},
    "builders.from_function_algebra": {CORPUS, SCALE},
    "builders.from_group_algebra": {CORPUS, SCALE},
    "duality.build_w": {CORPUS, SCALE},
    "duality.build_dual": {CORPUS, SCALE},
    "duality.biduality": {CORPUS, SCALE},
    # the duality suite's lambda(omega#) = lambda(omega)* check
    "convolution.sharp": {CORPUS, SCALE},
    **{"suite." + s: {CORPUS} for s in workloads.CORPUS_SUITES},
    **{"suite." + s: {FOCK} for s in workloads.FOCK_SUITES},
    "suite.validate": {CORPUS, SCALE},
    "suite.duality": {CORPUS, SCALE},
}


def _bindings():
    """Every attribute of every qglab module and class, by identity."""
    out = {}
    for m in tracer._qglab_modules():
        for attr, val in vars(m).items():
            out[(m.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == m.__name__:
                for k, v in vars(val).items():
                    out[(m.__name__, attr, k)] = v
    return out


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request):
    workload = request.param
    before = _bindings()
    inp = workloads.make_inputs(workload, 1, workloads.Params.tiny())
    t = tracer.Tracer(workload)
    outcomes = []
    for index in range(2):
        with t.traced_pass(index):
            if index == 0:
                wrapped = {(type(o).__name__, a) for o, a, _ in t.bindings()}
            outcomes.append(workloads.run_pass(inp, span=t.span))
    return workload, inp, t, outcomes, before, wrapped


def test_passes_are_correct(traced):
    workload, inp, _, outcomes, _, _ = traced
    for out in outcomes:
        verdict = workloads.check_pass(inp, out, None)
        assert verdict.failed == 0, verdict.problems
        assert verdict.attempted > 0


def test_every_metric_is_emitted(traced):
    _, _, t, _, _, _ = traced
    names = [name for name, _, _ in tracer.metric_specs()
             if not name.startswith("trace.")]
    assert sorted(t.metrics()) == sorted(names)


def test_layers_work_where_expected(traced):
    workload, _, t, _, _, _ = traced
    metrics = t.metrics()
    for span, where in WORKS.items():
        stat = next(s for s in ("calls", "s", "self_s")
                    if "%s.%s" % (span, s) in metrics)
        value = metrics["%s.%s" % (span, stat)]["value"]
        if workload in where:
            assert value > 0, "%s.%s is 0 on %s" % (span, stat, workload)
        else:
            assert value == 0, "%s.%s is %r on %s" % (span, stat, value, workload)


def test_every_binding_was_wrapped_and_restored(traced):
    _, _, _, _, before, wrapped = traced
    # functions imported by name into other modules are wrapped there too
    assert ("module", "build_dual") in wrapped
    assert ("type", "gns") in wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def test_instance_caches_start_cold_in_every_pass(traced):
    workload, _, t, _, _, _ = traced
    stats = t.pass_stats()
    assert sorted(stats) == [0, 1]
    for span in ("duality.build_w", "duality.build_dual", "qgroup.gns"):
        ratios = []
        for p in (0, 1):
            st = stats[p].get(span, {"calls": 0, "hits": 0})
            ratios.append((st["calls"], st["hits"]))
        assert ratios[0] == ratios[1], span
    if workload == CORPUS:
        # the duality suite builds the dual once per instance, later calls hit
        calls, hits = (stats[0]["duality.build_dual"][k] for k in ("calls", "hits"))
        assert 0 < hits < calls


def test_spans_are_written_as_json_lines(traced, tmp_path):
    import gzip
    workload, _, t, _, _, _ = traced
    path = tmp_path / "spans.jsonl.gz"
    t.write_jsonl(str(path))
    with gzip.open(path, "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == len(t.spans)
    for row in rows:
        assert {"id", "parent", "name", "start", "end", "workload", "pass",
                "labels"} <= row.keys()
        assert row["workload"] == workload and row["end"] >= row["start"]
    labelled = [r for r in rows if r["name"] not in ("pass",)
                and not r["name"].startswith("suite.")]
    assert labelled and all(r["labels"] for r in labelled)


def test_wrapped_binding_sites():
    """Both the defining module and importers see the wrapper."""
    import qglab.catalog
    import qglab.duality
    import qglab.suite
    orig = qglab.duality.build_dual
    t = tracer.Tracer("probe")
    with t.installed():
        assert qglab.suite.build_dual is qglab.catalog.build_dual
        assert qglab.suite.build_dual is qglab.duality.build_dual
        assert qglab.suite.build_dual is not orig
    assert qglab.suite.build_dual is orig and qglab.catalog.build_dual is orig


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [tuple(s) for s in tracer.metric_specs()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_kesten_gate_catches_a_certificate_above_the_exact_norm():
    from qglab.suite import Record
    inp = workloads.make_inputs(FOCK, 1, workloads.Params.tiny())
    ok = [Record("noncb/x", "anchor", "", 0.0, 1.0, True, 0.0)]
    exact = workloads.kesten_exact(inp.params)
    assert workloads.check_pass(inp, workloads.PassOutcome(ok, exact), None).failed == 0
    bad = workloads.PassOutcome(ok, kesten=exact + 1e-6)
    assert workloads.check_pass(inp, bad, None).failed == 1


def test_dihedral_table_is_a_group():
    from qglab.builders import check_group_table
    t = workloads.dihedral_table(5)
    assert len(t) == 10
    check_group_table(t)
