"""The benchmark's workloads: inputs made from a seed, one timed pass, and the
correctness gate applied to every pass.

Every qglab call goes through a module attribute (``builders.builtin_instance``,
``fock.compression_norm``, ...) looked up at call time, so the tracer's
wrappers are seen when they are installed.  Instances are built afresh in
every pass: qglab caches GNS data, blocks, the multiplicative unitary, the
dual, the corep catalog and the biduality result as attributes of the
instance object, and reused objects would hide all of that work after the
first pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math

WORKLOADS = ("corpus-algebra", "fock-certify", "scale-n10")

CORPUS_SUITES = ("validate", "duality", "corep", "multiplier", "unitarize")
FOCK_SUITES = ("khintchine", "noncb")
SCALE_SUITES = ("validate", "duality")

# The record whose value is the certified ascent lower bound on ||pi||.
PI_LOWER_RECORD = "noncb/pi-bounded-16"

# Lowest certified Kesten value (N=4 free symmetries, depth 10) over seeds
# 1..20 at the commit that introduced the benchmark, less 1e-6.  A solver
# that certifies less than this has become looser.
KESTEN_FLOOR = 3.3436184


@dataclasses.dataclass(frozen=True)
class Params:
    """Sizes of one workload; ``full()`` is the measured configuration and
    ``tiny()`` the one the self-test traces."""

    corpus: tuple | None      # builtin names; None means the whole corpus
    trials: int
    copies: int
    length: int
    kesten_copies: int
    kesten_depth: int
    dihedral_points: int

    @classmethod
    def full(cls):
        # trials, copies and length are the `qglab all` command-line defaults
        return cls(corpus=None, trials=50, copies=16, length=4,
                   kesten_copies=4, kesten_depth=10, dihedral_points=5)

    @classmethod
    def tiny(cls):
        return cls(corpus=("c_z2", "cg_z2"), trials=2, copies=4, length=3,
                   kesten_copies=4, kesten_depth=4, dihedral_points=3)

    @property
    def is_full(self):
        return self == Params.full()


def dihedral_table(m):
    """Multiplication table of the dihedral group of order 2m, generated by
    the rotation and the reflection of m points; element 0 is the identity."""
    rot = tuple((x + 1) % m for x in range(m))
    ref = tuple((-x) % m for x in range(m))

    def compose(p, q):
        return tuple(p[q[x]] for x in range(m))

    elems = [tuple(range(m))]
    frontier = list(elems)
    while frontier:
        nxt = []
        for g, h in itertools.product(frontier, (rot, ref)):
            k = compose(g, h)
            if k not in elems:
                elems.append(k)
                nxt.append(k)
        frontier = nxt
    index = {p: i for i, p in enumerate(elems)}
    return [[index[compose(p, q)] for q in elems] for p in elems]


@dataclasses.dataclass
class Inputs:
    workload: str
    seed: int
    params: Params
    corpus: tuple = ()
    table: list | None = None


def make_inputs(workload, seed, params=None):
    """Everything a pass needs that is not qglab work: names, sizes, tables."""
    from qglab import builders
    params = params or Params.full()
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    inp = Inputs(workload, int(seed), params)
    if workload == "corpus-algebra":
        inp.corpus = tuple(params.corpus or builders.BUILTIN_NAMES)
    elif workload == "scale-n10":
        inp.table = dihedral_table(params.dihedral_points)
    return inp


@dataclasses.dataclass
class PassOutcome:
    records: list
    kesten: float | None = None


def _suite_config(inp, instances, suites):
    from qglab import suite
    p = inp.params
    return suite.SuiteConfig(instances=instances, suites=suites, seed=inp.seed,
                             trials=p.trials, copies=p.copies, length=p.length)


def run_pass(inp, span=None):
    """One pass of the workload.  ``span(name)`` is a context manager around
    each suite (the tracer's, or none)."""
    from qglab import builders, fock, suite
    span = span or (lambda name: contextlib.nullcontext())
    p = inp.params
    if inp.workload == "corpus-algebra":
        instances = [(name, builders.builtin_instance(name)) for name in inp.corpus]
        suites = CORPUS_SUITES
    elif inp.workload == "scale-n10":
        tag = "d%d" % p.dihedral_points
        instances = [
            ("c_" + tag, builders.from_function_algebra(inp.table, name="c_" + tag)),
            ("cg_" + tag, builders.from_group_algebra(inp.table, name="cg_" + tag)),
        ]
        suites = SCALE_SUITES
    else:
        instances = []
        suites = FOCK_SUITES
    records = []
    # One run_suite call per suite, so that each suite gets its own span:
    # suite._RUNNERS holds the runners themselves, out of the tracer's reach.
    for name in suites:
        with span("suite." + name):
            records.extend(suite.run_suite(
                _suite_config(inp, instances, (name,))).records)
    out = PassOutcome(records)
    if inp.workload == "fock-certify":
        # Kesten: || sum of N free symmetries || = 2 sqrt(N - 1) exactly.
        F = fock.build_fock([fock.z2_factor() for _ in range(p.kesten_copies)],
                            p.kesten_depth)
        u = fock.z2_symmetry()
        total = sum(fock.free_action(F, i, u).matrix
                    for i in range(p.kesten_copies))
        out.kesten = float(fock.compression_norm(total, F, seed=inp.seed))
    return out


def kesten_exact(params):
    return 2.0 * math.sqrt(params.kesten_copies - 1)


def payload_digest(records):
    """sha256 of the byte-stable part of the records (everything but runtime)."""
    rows = []
    for r in sorted(records, key=lambda r: r.name):
        d = r.to_dict()
        d.pop("runtime_ms", None)
        rows.append(d)
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list


def check_pass(inp, outcome, expected_names):
    """Gate one pass.  Every record must pass; with the full parameters the
    record names must equal ``expected_names``; the Kesten certificate must
    not exceed the exact norm (then it is no lower bound) and, with the full
    parameters, must not fall below KESTEN_FLOOR."""
    got = {r.name for r in outcome.records}
    expected = got if expected_names is None else set(expected_names)
    good = {r.name for r in outcome.records if r.passed} & expected
    names = got | expected
    problems = []
    for name in sorted(names - good):
        reason = ("missing" if name not in got else
                  "unexpected" if name not in expected else "failed")
        problems.append("%s record %s" % (reason, name))
    attempted = len(names)
    failed = len(names - good)
    if len(outcome.records) != len(got):
        problems.append("duplicate record names")
        attempted += len(outcome.records) - len(got)
        failed += len(outcome.records) - len(got)
    if inp.workload == "fock-certify":
        attempted += 1
        value = outcome.kesten
        exact = kesten_exact(inp.params)
        if value is None or not value <= exact + 1e-9:
            problems.append("Kesten certificate %r exceeds 2 sqrt(N-1) = %.12f"
                            % (value, exact))
            failed += 1
        elif inp.params.is_full and value < KESTEN_FLOOR:
            problems.append("Kesten certificate %.9f fell below %.7f"
                            % (value, KESTEN_FLOOR))
            failed += 1
    if not outcome.records:
        problems.append("no records")
        failed = max(failed, 1)
        attempted = max(attempted, 1)
    return Verdict(attempted, failed, problems)

