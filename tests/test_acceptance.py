"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured quantity, its tolerance, and the runtime."""

import json
import os
import time

import numpy as np
import pytest

from qglab.builders import BUILTIN_NAMES
from qglab.convolution import basis_functional
from qglab.corep import (
    conjugate_corep,
    corep_direct_sum,
    essential_data,
    pi_of,
    random_invertible_corep,
    zero_corep,
)
from qglab.serialize import load_instance
from qglab.suite import (
    SuiteConfig,
    emit_report,
    run_khintchine,
    run_noncb,
    run_suite,
    SuiteReport,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="module")
def corpus():
    out = []
    for name in BUILTIN_NAMES:
        out.append((name, load_instance(os.path.join(CORPUS_DIR,
                                                     "%s.json" % name))))
    return out


def announce(num, passed, detail):
    line = "ACCEPTANCE %-2d [%s] %s" % (num, "PASS" if passed else "FAIL", detail)
    print(line)
    assert passed, line


def cfg_for(corpus, suites, **kw):
    return SuiteConfig(instances=corpus, suites=suites,
                       seed=kw.pop("seed", 1), trials=kw.pop("trials", 50),
                       copies=kw.pop("copies", 16),
                       length=kw.pop("length", 4), **kw)


def run_and_collect(corpus, suites, budget_s, **kw):
    t0 = time.perf_counter()
    rep = run_suite(cfg_for(corpus, suites, **kw))
    dt = time.perf_counter() - t0
    failures = [r for r in rep.records if not r.passed]
    return rep, dt, failures


def test_criterion_1_axiom_suite(corpus):
    from qglab.qgroup import validate
    t0 = time.perf_counter()
    worst = 0.0
    for name, G in corpus:
        rep = validate(G, tol=1e-10)
        worst = max(worst, rep.max_violation)
        assert rep.passed, name
    dt = time.perf_counter() - t0
    announce(1, worst <= 1e-10 and dt < 1.0,
             "axiom suite: max residual %.2e <= 1e-10 over %d instances, "
             "%.2fs < 1s" % (worst, len(corpus), dt))


def test_criterion_2_duality_suite(corpus):
    rep, dt, failures = run_and_collect(corpus, ("duality",), 5.0)
    worst = {}
    for r in rep.records:
        kind = r.name.rsplit("/", 1)[-1]
        worst[kind] = max(worst.get(kind, 0.0), r.value)
    announce(2, not failures and dt < 5.0,
             "duality suite: pentagon %.1e<=1e-9, coproduct %.1e<=1e-9, "
             "lambda-sharp %.1e<=1e-10, biduality %.1e<=1e-8, %.2fs < 5s"
             % (worst.get("pentagon", 0), worst.get("coproduct", 0),
                worst.get("lambda-sharp", 0), worst.get("biduality", 0), dt))


def test_criterion_3_corep_suite(corpus):
    rep, dt, failures = run_and_collect(corpus, ("corep",), 10.0)
    worst = {}
    for r in rep.records:
        kind = r.name.rsplit("/", 1)[-1]
        worst[kind] = max(worst.get(kind, 0.0), r.value)
    announce(3, not failures and dt < 10.0,
             "corep suite (50 trials/instance): dichotomy ok, generators "
             "%.1e<=1e-10, antipode-coefficient %.1e<=1e-8, inverse %.1e<=1e-8, "
             "isometry %.1e<=1e-10, %.2fs < 10s"
             % (worst.get("generators", 0), worst.get("antipode-coefficient", 0),
                worst.get("inverse", 0), worst.get("isometry-unitary", 0), dt))


def test_criterion_4_unitarization(corpus):
    rep, dt, failures = run_and_collect(corpus, ("unitarize",), 10.0)
    worst = {}
    floor_margin = 0.0
    for r in rep.records:
        kind = r.name.rsplit("/", 1)[-1]
        if kind == "positivity-floor":
            floor_margin = min(floor_margin, r.value - r.bound)
        else:
            worst[kind] = max(worst.get(kind, 0.0), r.value)
    announce(4, not failures and dt < 10.0,
             "unitarization (50 twisted unitaries/instance, cond<=10): "
             "||V'*V'-1|| %.1e<=1e-8, corep %.1e<=1e-8, star %.1e<=1e-8, "
             "T floor margin %.1e>=-1e-8, %.2fs < 10s"
             % (worst.get("unitary", 0), worst.get("corep", 0),
                worst.get("star-property", 0), floor_margin, dt))


def test_criterion_5_degenerate(corpus):
    rng = np.random.default_rng(11)
    worst_p = worst_pq = 0.0
    dims_exact = True
    t0 = time.perf_counter()
    for name, G in corpus:
        for trial in range(10):
            d = 1 + trial % 2
            V0, _, _ = random_invertible_corep(G, d, seed=90 + trial)
            Vdeg = corep_direct_sum(V0, zero_corep(G, 1))
            A = rng.standard_normal((d + 1, d + 1)) \
                + 1j * rng.standard_normal((d + 1, d + 1))
            Uq, _, Vq = np.linalg.svd(A)
            Tw = Uq @ np.diag(0.2 + 0.8 * rng.random(d + 1)) @ Vq
            Vtw = conjugate_corep(Vdeg, Tw)
            ed = essential_data(Vtw)
            worst_p = max(worst_p, ed.idempotent_violation, ed.commute_violation)
            dims_exact = dims_exact and ed.dimension == d
            for i in range(G.dim):
                piw = pi_of(Vtw, basis_functional(G, i))
                worst_pq = max(worst_pq, float(np.linalg.norm(piw @ ed.Q - piw)))
    dt = time.perf_counter() - t0
    announce(5, worst_p <= 1e-8 and worst_pq <= 1e-10 and dims_exact,
             "degenerate case: P idempotent/commuting %.1e<=1e-8, essential "
             "dimensions exact, pi(w)Q=pi(w) %.1e<=1e-10, %.2fs"
             % (worst_p, worst_pq, dt))


def test_criterion_6_multiplier_suite(corpus):
    rep, dt, failures = run_and_collect(corpus, ("multiplier",), 20.0)
    worst = {}
    for r in rep.records:
        kind = r.name.rsplit("/", 1)[-1]
        worst[kind] = max(worst.get(kind, -np.inf), r.value)
    announce(6, not failures and dt < 20.0,
             "multiplier suite (50 seeded (V,a,b)/instance): action %.1e<=1e-8, "
             "W-identity %.1e<=1e-8, factorization margin %.1e<=1e-6, %.2fs < 20s"
             % (worst.get("action", 0), worst.get("w-identity", 0),
                worst.get("factorization", -1), dt))


def test_criterion_7_pairing_identity(corpus):
    from qglab.duality import pairing_identity_check
    from qglab.convolution import Functional
    rng = np.random.default_rng(13)
    worst = 0.0
    t0 = time.perf_counter()
    for name, G in corpus:
        for _ in range(100):
            x = G.element(rng.standard_normal(G.dim)
                          + 1j * rng.standard_normal(G.dim))
            w1 = Functional(G, rng.standard_normal(G.dim)
                            + 1j * rng.standard_normal(G.dim))
            w2 = Functional(G, rng.standard_normal(G.dim)
                            + 1j * rng.standard_normal(G.dim))
            worst = max(worst, pairing_identity_check(G, x, w1, w2))
    dt = time.perf_counter() - t0
    announce(7, worst <= 1e-8,
             "pairing identity (100 seeded (x,w1,w2)/instance): residual "
             "%.1e <= 1e-8, %.2fs" % (worst, dt))


def test_criterion_8_free_probability():
    cfg = SuiteConfig(instances=[], suites=("khintchine",), seed=1,
                      trials=25, copies=16, length=4)
    t0 = time.perf_counter()
    report = SuiteReport(cfg)
    run_khintchine(cfg, report)
    dt = time.perf_counter() - t0
    by = {r.name.rsplit("/", 1)[-1]: r for r in report.records}
    ok = report.passed and dt < 60.0
    announce(8, ok,
             "free probability: freeness %.1e<=1e-10, column norms |.-sqrt(N)| "
             "%.1e<=1e-10 (N=4,9,16), Khintchine margin %.1e<=1e-8, monotone "
             "%.1e, %.2fs < 60s"
             % (by["freeness"].value, by["column-norm"].value,
                by["certified-upper"].value, by["monotone"].value, dt))


def test_criterion_9_non_cb():
    cfg = SuiteConfig(instances=[], suites=("noncb",), seed=1,
                      trials=25, copies=16, length=4)
    t0 = time.perf_counter()
    report = SuiteReport(cfg)
    run_noncb(cfg, report)
    dt = time.perf_counter() - t0
    m = report.extra["noncb"]["measured"]
    cb4, cb16 = m["4"]["cb_lower"], m["16"]["cb_lower"]
    col4, col16 = m["4"]["column_norm"], m["16"]["column_norm"]
    ml4, ml16 = m["4"]["multiplier_l1_lower"], m["16"]["multiplier_l1_lower"]
    pi4, pi16 = m["4"]["pi_lower_search"], m["16"]["pi_lower_search"]
    ok = (cb4 >= np.sqrt(4) - 1 - 1e-6 and cb16 >= np.sqrt(16) - 1 - 1e-6
          and report.extra["noncb"]["analytic_bounds"]["bounded_upper"] == 6.0
          and pi4 <= 6 + 1e-6 and pi16 <= 6 + 1e-6
          and col16 - col4 >= 2 - 1e-6
          and ml16 > ml4
          and report.passed and dt < 120.0)
    announce(9, ok,
             "non-cb: cb_lower(4)=%.3f>=1, cb_lower(16)=%.3f>=3, upper=6, "
             "pi-search (%.2f, %.2f)<=6, column gap %.6f>=2-1e-6 "
             "(generator gap %.3f recorded), multiplier l1 %.1f->%.1f grows, "
             "%.1fs < 120s"
             % (cb4, cb16, pi4, pi16, col16 - col4, cb16 - cb4, ml4, ml16, dt))


def test_criterion_10_determinism():
    def run_once():
        names = ("c_z2", "cg_s3")
        from qglab.builders import builtin_instance
        cfg = SuiteConfig(
            instances=[(n, builtin_instance(n)) for n in names],
            suites=("validate", "duality", "corep", "multiplier", "unitarize",
                    "khintchine", "noncb"),
            seed=5, trials=4, copies=4, length=3)
        return emit_report(run_suite(cfg), "json")

    fields = {"name", "anchor", "digest", "value", "tol", "passed", "runtime_ms"}
    odd = []

    def strip(text):
        d = json.loads(text)
        d.pop("runtime_ms", None)
        for r in d["records"]:
            if set(r) - {"bound"} != fields:
                odd.append(r["name"])
            r.pop("runtime_ms", None)
        return json.dumps(d, sort_keys=True)

    a, b = strip(run_once()), strip(run_once())
    announce(10, a == b and not odd,
             "determinism: two 'all' runs at seed 5 are byte-identical "
             "modulo runtime fields (%d bytes); records with other fields "
             "than %s (+ bound): %s" % (len(a), sorted(fields), odd))
