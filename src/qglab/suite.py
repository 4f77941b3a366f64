"""Suite orchestration: run the named check suites over corpus instances and
emit deterministic, machine-readable reports.

Every record carries the mathematical identity it checks (the anchor), a
digest of its inputs, the measured residual or bound pair, and the tolerance
it was held to.  Reports are byte-stable across runs for a fixed config and
seed, up to the runtime fields.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import builders
from .catalog import available_dimensions
from .convolution import Functional, basis_functional, convolve, sharp, star_l1
from .corep import (
    Corepresentation,
    antipode_coeff_check,
    conjugate_corep,
    corep_direct_sum,
    corep_distance,
    corep_product,
    essential_data,
    generator_of,
    inverse_corep,
    is_corep,
    pi_check,
    pi_of,
    random_invertible_corep,
    trivial_corep,
    unitarize,
    zero_corep,
)
from .duality import (
    biduality,
    build_dual,
    build_w,
    multiplier_from_coefficient,
    pairing_identity_check,
)
from .errors import StructuralError
from .fock import (
    DEFAULT_DIM_CAP,
    NonCbRep,
    build_fock,
    cb_vs_bounded_probe,
    column_norm,
    compression_norm,
    free_action,
    khintchine_check,
    matrix_factor,
    norm_equivalence,
    vacuum_state,
    z2_factor,
    z2_symmetry,
)
from .qgroup import validate
from .serialize import load_instance

SUITE_NAMES = ("validate", "duality", "corep", "multiplier", "unitarize",
               "khintchine", "noncb")

# The tolerances that ``--tol NAME=VALUE`` may override, with their defaults.
TOLERANCES = {
    "validate": 1e-10,
    "pentagon": 1e-9,
    "lambda_sharp": 1e-10,
    "dual": 1e-9,
    "biduality": 1e-8,
    "corep": 1e-8,
    "generators": 1e-10,
    "isometry": 1e-10,
    "unitarize": 1e-8,
    "multiplier": 1e-8,
    "multiplier_bound": 1e-6,
    "freeness": 1e-10,
    "column": 1e-10,
    "khintchine": 1e-8,
}


@dataclass
class SuiteConfig:
    instances: list = field(default_factory=list)   # (label, FiniteQuantumGroup)
    suites: tuple = SUITE_NAMES
    seed: int = 1
    trials: int = 50
    copies: int = 16
    length: int = 4
    dim_cap: int = DEFAULT_DIM_CAP
    tol: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, least in (("seed", 0), ("trials", 1), ("copies", 1)):
            if getattr(self, name) < least:
                raise StructuralError("%s must be >= %d, got %r"
                                      % (name, least, getattr(self, name)))
        unknown = sorted(set(self.tol) - set(TOLERANCES))
        if unknown:
            raise StructuralError("unknown tolerance name(s) %s; known: %s"
                                  % (", ".join(unknown), ", ".join(TOLERANCES)))
        bad = sorted(k for k, v in self.tol.items()
                     if not (isinstance(v, numbers.Real) and 0 < v < np.inf))
        if bad:
            raise StructuralError("tolerance(s) %s must be finite and > 0"
                                  % ", ".join(bad))

    def tolerance(self, key):
        return float(self.tol.get(key, TOLERANCES[key]))

    def config_dict(self):
        return {
            "instances": [label for label, _ in self.instances],
            "suites": list(self.suites),
            "seed": self.seed,
            "trials": self.trials,
            "copies": self.copies,
            "length": self.length,
            "dim_cap": self.dim_cap,
            "tol_overrides": {k: float(v) for k, v in sorted(self.tol.items())},
        }


@dataclass
class Record:
    name: str
    anchor: str
    digest: str
    value: float
    tol: float
    passed: bool
    runtime_ms: float
    bound: float | None = None

    def to_dict(self):
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "digest": self.digest,
            "value": float(self.value),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "runtime_ms": round(float(self.runtime_ms), 3),
        }
        if self.bound is not None:
            out["bound"] = float(self.bound)
        return out


class SuiteReport:
    def __init__(self, config):
        self.config = config
        self.records = []
        self.extra = {}     # suite name -> that suite's extra report data
        self.runtime_ms = 0.0

    def add(self, record):
        self.records.append(record)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.name)

    def to_dict(self):
        out = {
            "config": self.config.config_dict(),
            "records": [r.to_dict() for r in self.sorted_records()],
            "pass": self.passed,
            "runtime_ms": round(self.runtime_ms, 3),
        }
        out.update(self.extra)
        return out


def _digest(*parts):
    h = hashlib.sha256(repr(parts).encode())
    return h.hexdigest()[:12]


class _Recorder:
    """Adds records ``prefix/name``, each timed since this recorder's previous
    record (or its creation), with its digest unless a record gives one."""

    def __init__(self, report, prefix, digest):
        self.report = report
        self.prefix = prefix
        self.digest = digest
        self.clock = time.perf_counter()

    def _add(self, name, anchor, value, tol, passed, bound, digest):
        now = time.perf_counter()
        self.report.add(Record("%s/%s" % (self.prefix, name), anchor,
                               self.digest if digest is None else digest,
                               value, tol, passed, (now - self.clock) * 1e3,
                               bound))
        self.clock = now

    def check(self, name, anchor, value, tol, bound=None, digest=None):
        """Pass when value <= tol, or value <= bound + tol."""
        value = float(value)
        passed = value <= (tol if bound is None else bound + tol)
        self._add(name, anchor, value, float(tol), passed, bound, digest)

    def lower(self, name, anchor, value, floor, slack, digest=None):
        """Pass when value >= floor - slack."""
        value = float(value)
        self._add(name, anchor, value, float(slack),
                  value >= float(floor) - slack, float(floor), digest)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_functional(G, rng):
    return Functional(G, _complex_normal(rng, G.dim))


def _random_element(G, rng):
    return G.element(_complex_normal(rng, G.dim))


def _random_coreps(cfg, G, rng, salt):
    """Yield (trial, d, V, T, V0) for cfg.trials random invertible coreps of G.
    All dims (<= 4) are drawn from rng first; trial t has seed cfg.seed*salt+t."""
    dims = [d for d in available_dimensions(G, dmax=4) if d <= 4]
    picks = [int(dims[rng.integers(0, len(dims))]) for _ in range(cfg.trials)]
    for trial, d in enumerate(picks):
        V, T, V0 = random_invertible_corep(G, d, seed=cfg.seed * salt + trial)
        yield trial, d, V, T, V0


def _basis_pair_defect(V):
    """max over basis pairs (i, j) of ||pi(e_i e_j) - pi(e_i) pi(e_j)||_F."""
    G = V.owner
    mats = [pi_of(V, basis_functional(G, i)) for i in range(G.dim)]
    worst = 0.0
    for i in range(G.dim):
        for j in range(G.dim):
            conv = convolve(basis_functional(G, i), basis_functional(G, j))
            worst = max(worst, float(np.linalg.norm(
                pi_of(V, conv) - mats[i] @ mats[j])))
    return worst


# ---------------------------------------------------------------------------
# Individual suites


def run_validate(cfg, report):
    tol = cfg.tolerance("validate")
    for label, G in cfg.instances:
        rec = _Recorder(report, "validate/%s" % label, _digest(label))
        rep = validate(G, tol=tol)
        rec.check("axioms", "Hopf *-algebra, Kac and Haar axioms",
                  rep.max_violation, tol)


def run_duality(cfg, report):
    for label, G in cfg.instances:
        rec = _Recorder(report, "duality/%s" % label, _digest(label))
        rng = np.random.default_rng(cfg.seed)
        Wd = build_w(G)
        rec.check("pentagon", "W12 W13 W23 = W23 W12", Wd.pentagon_residual,
                  cfg.tolerance("pentagon"))
        rec.check("coproduct", "Delta(x) = W*(1 (x) x)W", Wd.coproduct_residual,
                  cfg.tolerance("pentagon"))
        worst = 0.0
        for _ in range(8):
            w = _random_functional(G, rng)
            worst = max(worst, float(np.linalg.norm(
                Wd.lambda_of(sharp(w)) - Wd.lambda_of(w).conj().T, 2)))
        rec.check("lambda-sharp", "lambda(omega#) = lambda(omega)*", worst,
                  cfg.tolerance("lambda_sharp"))
        dual = build_dual(G)
        rec.check("dual-axioms", "extracted dual instance satisfies all axioms",
                  dual.validation.max_violation, cfg.tolerance("dual"))
        haar_inv = max(v for axiom, v in dual.validation.checks if axiom.startswith(
            ("haar left invariant", "haar right invariant")))
        rec.check("dual-haar", "dual Haar state is bi-invariant", haar_inv,
                  cfg.tolerance("dual"))
        bid = biduality(G)
        rec.check("biduality", "double dual is canonically *-isomorphic to G",
                  bid["max_violation"], cfg.tolerance("biduality"))
        zrank = np.linalg.matrix_rank(dual.Z.reshape(G.dim, -1), tol=1e-9)
        rec.check("regularity", "slices of W span A and the dual image",
                  0.0 if zrank == G.dim else 1.0, 0.5)


def run_corep(cfg, report):
    tol8 = cfg.tolerance("corep")
    for label, G in cfg.instances:
        rec = _Recorder(report, "corep/%s" % label,
                        _digest(label, cfg.seed, cfg.trials))
        rng = np.random.default_rng(cfg.seed)
        worst = {"antipode_coeff": 0.0, "inverse": 0.0, "anti_hom": 0.0,
                 "generators": 0.0, "multiplicativity": 0.0,
                 "isometry": 0.0, "degenerate": 0.0}
        dichotomy_ok = True

        def note(key, *values):
            worst[key] = max(worst[key], *values)

        for trial, d, V, _, V0 in _random_coreps(cfg, G, rng, 1000):
            note("multiplicativity", is_corep(V).violation, _basis_pair_defect(V))
            # generator identities: V_tilde = V*, V_star = V_check*
            Vt = generator_of("tilde", V)
            w = _random_functional(G, rng)
            note("generators",
                 float(np.linalg.norm(
                     pi_of(Vt, w) - pi_of(V, star_l1(w)).conj().T, 2)),
                 corep_distance(generator_of("star", V),
                                generator_of("tilde", generator_of("check", V))))
            alpha, beta = _complex_normal(rng, d), _complex_normal(rng, d)
            note("antipode_coeff", antipode_coeff_check(V, alpha, beta))
            Vi = inverse_corep(V)
            one = trivial_corep(G, d)
            note("inverse", corep_distance(corep_product(Vi, V), one),
                 corep_distance(corep_product(V, Vi), one))
            w1, w2 = _random_functional(G, rng), _random_functional(G, rng)
            note("anti_hom", float(np.linalg.norm(
                pi_check(V, convolve(w1, w2))
                - pi_check(V, w2) @ pi_check(V, w1), 2)))
            # isometry => unitary regression on the unitarized form
            g = V0.gns_matrix()
            if np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0]), 2) <= 1e-10:
                note("isometry", float(np.linalg.norm(
                    g @ g.conj().T - np.eye(g.shape[0]), 2)))
            # degenerate block sum, twisted
            if trial % 5 == 0:
                Vdeg = corep_direct_sum(V0, zero_corep(G, 1))
                Uq, _, Vq = np.linalg.svd(_complex_normal(rng, (d + 1, d + 1)))
                Tw = Uq @ np.diag(0.2 + 0.8 * rng.random(d + 1)) @ Vq
                Vtw = conjugate_corep(Vdeg, Tw)
                ed = essential_data(Vtw)
                note("degenerate", ed.idempotent_violation, ed.commute_violation,
                     abs(ed.dimension - d))
                for i in range(G.dim):
                    piw = pi_of(Vtw, basis_functional(G, i))
                    note("degenerate", float(np.linalg.norm(piw @ ed.Q - piw)))
            # dichotomy: corrupted tensors must break multiplicativity
            if trial % 7 == 0:
                bad = Corepresentation(
                    G, V.tensor + 0.3 * _complex_normal(rng, V.tensor.shape))
                if not is_corep(bad).is_corep:
                    dichotomy_ok = dichotomy_ok and _basis_pair_defect(bad) > 1e-6
        rec.check("multiplicativity", "pi(w1 w2) = pi(w1) pi(w2) iff corep identity",
                  worst["multiplicativity"], 1e-9)
        rec.check("dichotomy", "broken corep identity breaks multiplicativity",
                  0.0 if dichotomy_ok else 1.0, 0.5)
        rec.check("generators", "V_tilde = V*, V_star = V_check*",
                  worst["generators"], cfg.tolerance("generators"))
        rec.check("antipode-coefficient", "S(T*[a,b])* = T[b,a]",
                  worst["antipode_coeff"], tol8)
        rec.check("inverse", "(S (x) id)V is a two-sided inverse",
                  worst["inverse"], tol8)
        rec.check("anti-homomorphism", "pi-check reverses convolution products",
                  worst["anti_hom"], 1e-9)
        rec.check("isometry-unitary", "V*V = 1 implies VV* = 1",
                  worst["isometry"], cfg.tolerance("isometry"))
        rec.check("degenerate", "P = V(S (x) id)V idempotent; Q carries pi",
                  worst["degenerate"], tol8)


def run_unitarize(cfg, report):
    tol8 = cfg.tolerance("unitarize")
    for label, G in cfg.instances:
        rec = _Recorder(report, "unitarize/%s" % label,
                        _digest(label, cfg.seed, cfg.trials))
        rng = np.random.default_rng(cfg.seed + 1)
        worst_unitary = worst_corep = worst_star = 0.0
        floor_margin = np.inf
        for _, _, V, _, _ in _random_coreps(cfg, G, rng, 2000):
            T, Vp = unitarize(V)
            g = Vp.gns_matrix()
            eye = np.eye(g.shape[0])
            worst_unitary = max(worst_unitary,
                                float(np.linalg.norm(g.conj().T @ g - eye, 2)),
                                float(np.linalg.norm(g @ g.conj().T - eye, 2)))
            worst_corep = max(worst_corep, is_corep(Vp).violation)
            w = _random_functional(G, rng)
            worst_star = max(worst_star, float(np.linalg.norm(
                pi_of(Vp, sharp(w)) - pi_of(Vp, w).conj().T, 2)))
            # 1 / ||V^-1||^2 is the squared smallest singular value of V
            floor_margin = min(floor_margin,
                               float(np.min(np.linalg.eigvalsh(T)))
                               - float(np.linalg.norm(V.gns_matrix(), -2)) ** 2)
        rec.check("unitary", "V' = (1 (x) T^1/2) V (1 (x) T^-1/2) is unitary",
                  worst_unitary, tol8)
        rec.check("corep", "V' satisfies the corepresentation identity",
                  worst_corep, tol8)
        rec.check("star-property", "pi'(omega#) = pi'(omega)*",
                  worst_star, tol8)
        rec.lower("positivity-floor", "averaged T >= 1/||V^-1||^2",
                  floor_margin, 0.0, tol8)


def run_multiplier(cfg, report):
    tol8 = cfg.tolerance("multiplier")
    for label, G in cfg.instances:
        rec = _Recorder(report, "multiplier/%s" % label,
                        _digest(label, cfg.seed, cfg.trials))
        rng = np.random.default_rng(cfg.seed + 2)
        worst_action = worst_w = worst_basis = 0.0
        bound_margin = fact_margin = -np.inf
        for trial, d, V, _, _ in _random_coreps(cfg, G, rng, 3000):
            alpha, beta = _complex_normal(rng, d), _complex_normal(rng, d)
            md = multiplier_from_coefficient(V, alpha, beta)
            worst_action = max(worst_action, md.residual_action)
            worst_w = max(worst_w, md.residual_w)
            bound_margin = max(bound_margin, md.norm_bound - md.cb_bound)
            fact_margin = max(fact_margin, md.factorization_norm - md.cb_bound)
            if trial % 10 == 0:
                Q, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
                md2 = multiplier_from_coefficient(V, alpha, beta, basis=Q)
                worst_basis = max(worst_basis, float(
                    np.max(np.abs(md.Lmat - md2.Lmat))))
        rec.check("action", "lambda-hat(L omega) = x lambda-hat(omega)",
                  worst_action, tol8)
        rec.check("w-identity", "(L* (x) id)(W-hat) = (1 (x) x) W-hat",
                  worst_w, tol8)
        rec.check("norm-bound", "row-column bound <= cb bound product",
                  bound_margin, cfg.tolerance("multiplier_bound"))
        rec.check("factorization", "measured factorization norm <= cb bound",
                  fact_margin, cfg.tolerance("multiplier_bound"))
        rec.check("basis-independence", "L does not depend on the chosen frame",
                  worst_basis, tol8)
        worst_pairing = 0.0
        for _ in range(max(1, 2 * cfg.trials)):
            x = _random_element(G, rng)
            w1 = _random_functional(G, rng)
            w2 = _random_functional(G, rng)
            worst_pairing = max(worst_pairing, pairing_identity_check(G, x, w1, w2))
        rec.check("pairing", "GNS pairing of the two transforms matches",
                  worst_pairing, tol8)


def run_khintchine(cfg, report):
    rec = _Recorder(report, "khintchine", _digest(cfg.seed))
    rng = np.random.default_rng(cfg.seed + 3)
    u = z2_symmetry()
    worst_free = 0.0
    F0 = build_fock([z2_factor() for _ in range(3)], min(cfg.length, 4),
                    dim_cap=cfg.dim_cap)
    ops = [free_action(F0, i, u) for i in range(3)]
    for pattern in [(0, 1), (0, 1, 0), (1, 0, 2, 0), (0, 2, 1, 2)]:
        if len(pattern) > F0.max_len:
            continue
        val, exact = vacuum_state(F0, [ops[i] for i in pattern])
        if exact:
            worst_free = max(worst_free, abs(val))
    rec.check("freeness", "alternating centred products have zero vacuum mean",
              worst_free, cfg.tolerance("freeness"))
    # column norms over the exact zone
    worst_col = 0.0
    for N in (4, 9, 16):
        F = build_fock([z2_factor() for _ in range(N)], 2, dim_cap=cfg.dim_cap)
        col = column_norm(NonCbRep(F), seed=cfg.seed)
        worst_col = max(worst_col, abs(col - np.sqrt(N)))
    rec.check("column-norm", "|| sum_i u_i (x) e_i0 || = sqrt(N)",
              worst_col, cfg.tolerance("column"))
    # certified Khintchine direction over the configured grid
    checks = []
    for N in sorted({2, 4, max(2, min(cfg.copies, 16))}):
        F = build_fock([z2_factor() for _ in range(N)],
                       min(cfg.length, 4), dim_cap=cfg.dim_cap)
        checks.append(khintchine_check([1.0] * N, [(i, u) for i in range(N)], F,
                                       seed=cfg.seed))
    for N in (2, 4, 6):
        F = build_fock([matrix_factor(2) for _ in range(N)],
                       3 if N < 6 else min(cfg.length, 4), dim_cap=cfg.dim_cap)
        a_fam, x_fam = [], []
        for i in range(N):
            a_fam.append(_complex_normal(rng, (2, 2)))
            x = _complex_normal(rng, 4)
            f = F.factors[i]
            x = x - f.phi(x) * f.unit
            x_fam.append((i, x))
        checks.append(khintchine_check(a_fam, x_fam, F, seed=cfg.seed))
    margin = max(r["lhs_cert"] - 3.0 * r["rhs_max"] for r in checks)
    rec.check("certified-upper", "LHS_cert <= 3 max{||a (x) x||, row, column}",
              margin, cfg.tolerance("khintchine"),
              digest=_digest(cfg.seed, cfg.copies, cfg.length))
    # monotonicity of the compressed norm in the domain length
    N = 4
    F = build_fock([z2_factor() for _ in range(N)], min(cfg.length + 2, 6),
                   dim_cap=cfg.dim_cap)
    total = sum(free_action(F, i, u).matrix for i in range(N))
    vals = [compression_norm(total, F, domain_len=L, seed=cfg.seed)
            for L in range(F.max_len)]
    mono = max([a - b for a, b in zip(vals, vals[1:])] + [0.0])
    rec.check("monotone", "compressed norms are nondecreasing in the domain",
              mono, 1e-8)
    envelope = max(vals) - 2.0 * np.sqrt(N - 1)
    rec.check("envelope", "compressed norms stay under 2 sqrt(N-1)",
              envelope, 1e-8)
    # norm equivalence on the one-dimensional coefficient span
    F = build_fock([z2_factor() for _ in range(4)], min(cfg.length, 4),
                   dim_cap=cfg.dim_cap)
    ne = norm_equivalence(F, [u], sample_count=min(100, 4 * cfg.trials),
                          seed=cfg.seed)
    rec.check("norm-equivalence", "||x|| <= 3 max{C1, C2} ||x Omega|| on the span",
              ne["max_ratio"] - ne["bound"], 1e-6)
    report.extra["khintchine"] = {
        "ratios": [float(r["ratio"]) for r in checks],
        "analytic_bounds": {"khintchine_constant": 3.0},
        "certified_lower": float(vals[-1]),
    }


def run_noncb(cfg, report):
    rec = _Recorder(report, "noncb", "")     # each record gives its digest
    results = {}
    for N in sorted({4, cfg.copies}):
        F = build_fock([z2_factor() for _ in range(N)],
                       min(cfg.length, 4), dim_cap=cfg.dim_cap)
        probe = cb_vs_bounded_probe(F, seed=cfg.seed)
        results[N] = probe
        rec.lower("cb-lower-%d" % N, "certified ||V|| >= sqrt(N) - 1",
                  probe["cb_lower"], probe["cb_floor"], 1e-6,
                  digest=_digest(cfg.seed, N))
        rec.check("pi-bounded-%d" % N, "searched ||pi|| stays under 6",
                  probe["pi_lower_search"], 1e-6, bound=6.0,
                  digest=_digest(cfg.seed, N))
    Ns = sorted(results)
    if len(Ns) >= 2:
        a, b = Ns[0], Ns[-1]
        rec.lower("column-growth", "column norms grow by sqrt(N2) - sqrt(N1)",
                  results[b]["column_norm"] - results[a]["column_norm"],
                  np.sqrt(b) - np.sqrt(a), 1e-6, digest=_digest(cfg.seed, a, b))
        rec.lower("multiplier-growth",
                  "dual-side l1 norm of the coefficient grows",
                  results[b]["multiplier_l1_lower"]
                  - results[a]["multiplier_l1_lower"],
                  1.0, 1e-9, digest=_digest(cfg.seed, a, b))

    def per_n(key):
        return {str(N): float(p[key]) for N, p in results.items()}

    measured = ("cb_lower", "column_norm", "pi_lower_search", "multiplier_l1_lower")
    report.extra["noncb"] = {
        "certified_lower": per_n("cb_lower"),
        "analytic_bounds": {"bounded_upper": 6.0, "cb_floor": per_n("cb_floor")},
        "ratios": {str(N): float(p["cb_lower"] / p["bounded_upper"])
                   for N, p in results.items()},
        "measured": {str(N): {k: float(p[k]) for k in measured}
                     for N, p in results.items()},
    }


_RUNNERS = {
    "validate": run_validate,
    "duality": run_duality,
    "corep": run_corep,
    "multiplier": run_multiplier,
    "unitarize": run_unitarize,
    "khintchine": run_khintchine,
    "noncb": run_noncb,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport(cfg)
    t0 = time.perf_counter()
    for name in cfg.suites:
        if name not in _RUNNERS:
            raise StructuralError("unknown suite %r" % name)
        _RUNNERS[name](cfg, report)
    report.runtime_ms = (time.perf_counter() - t0) * 1e3
    return report


# ---------------------------------------------------------------------------
# Emission


def emit_report(report: SuiteReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
    if fmt == "md":
        lines = ["| check | identity | value | tol | status |",
                 "| --- | --- | ---: | ---: | --- |"]
        for r in report.sorted_records():
            status = "ok" if r.passed else "FAIL"
            bound = "" if r.bound is None else " (bound %.3e)" % r.bound
            lines.append("| %s | %s | %.3e%s | %.1e | %s |"
                         % (r.name, r.anchor, r.value, bound, r.tol, status))
        lines.append("")
        lines.append("aggregate: %s" % ("PASS" if report.passed else "FAIL"))
        return "\n".join(lines) + "\n"
    raise StructuralError("unknown report format %r" % fmt)


def default_instances(names=None):
    out = []
    for name in (names or builders.BUILTIN_NAMES):
        out.append((name, builders.builtin_instance(name)))
    return out


def load_config_instances(builtin=None, paths=None):
    instances = []
    for name in builtin or []:
        instances.append((name, builders.builtin_instance(name)))
    for p in paths or []:
        label = os.path.splitext(os.path.basename(p))[0]
        instances.append((label, load_instance(p)))
    if not instances:
        instances = default_instances()
    return instances
