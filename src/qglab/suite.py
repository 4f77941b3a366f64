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
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import builders
from .convolution import Functional, convolve, sharp
from .corep import (
    Corepresentation,
    adjoints,
    antipode_coeff_check,
    conjugate_corep,
    corep_adjoint,
    corep_direct_sum,
    diagonal_matrices,
    essential_data,
    inverse_corep,
    is_corep,
    pi_check,
    pi_of,
    pi_tilde,
    random_invertible_corep,
    similarity_draw,
    unitarity_defects,
    unitarize,
    zero_corep,
)
from .duality import (
    DUAL_TOL,
    biduality,
    build_dual,
    build_w,
    multiplier_from_coefficient,
    pairing_identity_check,
)
from .errors import DEFAULT_DIM_CAP, StructuralError
from .qgroup import HAAR_INVARIANCE, STRUCT_TOL, validate
from .serialize import load_instance

SUITE_NAMES = ("validate", "duality", "corep", "multiplier", "unitarize",
               "khintchine", "noncb")

# The tolerances that ``--tol NAME=VALUE`` may override, with their defaults.
TOLERANCES = {
    "validate": STRUCT_TOL,
    "pentagon": 1e-9,
    "lambda_sharp": 1e-10,
    "dual": DUAL_TOL,
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

# The Fock gates' constants: every Fock record, anchor and report value reads them.
KHINTCHINE_CONSTANT = 3.0   # the free Khintchine constant (Ricard-Xu)
PI_BOUND = 6.0              # the bound on ||pi|| that pi-bounded-* checks
CB_FLOOR_SHIFT = 1.0        # cb-lower-* checks ||V|| >= sqrt(N) - this


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
        # at length 1 the exact zone holds only the vacuum
        for name, least in (("seed", 0), ("trials", 1), ("copies", 1),
                            ("length", 2)):
            if getattr(self, name) < least:
                raise StructuralError("%s must be >= %d, got %r"
                                      % (name, least, getattr(self, name)))
        labels = [label for label, _ in self.instances]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise StructuralError("instance label(s) %s given more than once"
                                  % ", ".join(repeated))
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
    """Adds records ``prefix/name``, with this recorder's digest unless a
    record gives its own.

    A check is passed its value, or takes the extreme of the values that
    ``note`` kept for it over the trials, and then fails when none was
    noted.  A noted value is a number or an array of them, one per trial of
    a stack; a NaN anywhere makes the extreme NaN, which fails.  A note
    charges its check the time since the recorder's previous note or record
    (or its creation); a record's runtime is the time charged to its notes
    plus the time since the previous note or record.
    """

    def __init__(self, report, prefix, digest):
        self.report = report
        self.prefix = prefix
        self.digest = digest
        self.clock = time.perf_counter()
        self.notes = {}         # name -> [(seconds charged, values), ...]

    def _lap(self):
        now = time.perf_counter()
        spent, self.clock = now - self.clock, now
        return spent

    def note(self, name, *values):
        """Keep values (numbers or arrays) for check ``name``, charging it
        the time since the previous note or record."""
        self.notes.setdefault(name, []).append((self._lap(), values))

    def _add(self, name, anchor, value, pick, tol, passes, bound, digest):
        """Record check ``name`` at the value given, else at pick(noted
        values); with neither it fails."""
        notes = self.notes.pop(name, ())
        ms = (sum(spent for spent, _ in notes) + self._lap()) * 1e3
        noted = [np.ravel(v) for _, values in notes for v in values]
        if value is None and noted:
            noted = np.concatenate(noted)
            value = pick(noted) if noted.size else None
        passed = value is not None and passes(float(value))
        self.report.add(Record("%s/%s" % (self.prefix, name), anchor,
                               self.digest if digest is None else digest,
                               0.0 if value is None else float(value),
                               float(tol), passed, ms, bound))

    def check(self, name, anchor, tol, value=None, bound=None, digest=None):
        """Pass when value <= tol, or value <= bound + tol; without a value,
        the largest noted one."""
        limit = tol if bound is None else bound + tol
        self._add(name, anchor, value, np.max, tol, lambda v: v <= limit,
                  bound, digest)

    def lower(self, name, anchor, floor, slack, value=None, digest=None):
        """Pass when value >= floor - slack; without a value, the smallest
        noted one."""
        self._add(name, anchor, value, np.min, slack,
                  lambda v: v >= float(floor) - slack, float(floor), digest)


def _complex_normals(rng, *shapes):
    """One complex standard normal array per shape, from one
    ``rng.standard_normal`` read: the real parts of the first array, then
    its imaginary parts, then those of the next.  A read of a + b numbers
    gives the numbers of a read of a and then one of b, and leaves the
    stream at the same place, so these are the arrays, bit for bit, of one
    draw per shape in turn, each ``standard_normal(shape) + 1j *
    standard_normal(shape)``."""
    shapes = [(s,) if isinstance(s, int) else s for s in shapes]
    sizes = [math.prod(shape) for shape in shapes]
    flat = rng.standard_normal(2 * sum(sizes))
    out, pos = [], 0
    for shape, size in zip(shapes, sizes):
        z = np.empty(shape, dtype=complex)
        z.real = flat[pos:pos + size].reshape(shape)
        z.imag = flat[pos + size:pos + 2 * size].reshape(shape)
        out.append(z)
        pos += 2 * size
    return out


def _spectral_norms(*mats):
    """The largest singular value of each of the same-shape matrices (or
    stacks of them), from one batched SVD."""
    return np.linalg.svd(np.stack(mats), compute_uv=False)[..., 0]


def _trial_plan(cfg, report, suite, stream, shared=lambda rng, dims: dims):
    """The random coreps of a corep, unitarize or multiplier run, one
    instance at a time.

    Generator ``cfg.seed + stream`` first draws the dimension, 1 to 4, of
    each of cfg.trials coreps (the corep catalog holds the trivial corep,
    so sums of its entries reach every d); then ``shared(rng, dims)`` makes
    the draws that no instance changes, and the stream state after them is
    saved.  Each dimension d drawn makes one ``similarity_draw`` of its
    trials' corep seeds cfg.seed * 1000 * (stream + 1) + trial, before the
    instance loop, since the draws do not depend on the instance.

    Per instance, yields (G, recorder, rng, shared's result, groups): rng
    is the generator at the saved state, and groups yields (d, trials, V,
    V0) per dimension d, trials an index array and V, V0 the stack of
    ``random_invertible_corep`` over them, on which the suite runs each of
    its checks once.
    """
    rng = np.random.default_rng(cfg.seed + stream)
    dims = [int(rng.integers(0, 4)) + 1 for _ in range(cfg.trials)]
    drawn = shared(rng, dims)
    state = rng.bit_generator.state
    salt = cfg.seed * 1000 * (stream + 1)
    draws = []
    for d in sorted(set(dims)):
        trials = np.flatnonzero(np.equal(dims, d))
        draws.append((d, trials, similarity_draw(d, [salt + int(t) for t in trials])))
    for label, G in cfg.instances:
        rec = _Recorder(report, "%s/%s" % (suite, label),
                        _digest(label, cfg.seed, cfg.trials))
        rng = np.random.default_rng(cfg.seed + stream)
        rng.bit_generator.state = state
        yield G, rec, rng, drawn, ((d, trials, *random_invertible_corep(G, draw))
                                   for d, trials, draw in draws)


def _stacked(draws, trials, key):
    """The draws named ``key`` of the given trials, as one array."""
    return np.stack([draws[t][key] for t in trials])


# ---------------------------------------------------------------------------
# Individual suites


def run_validate(cfg, report):
    tol = cfg.tolerance("validate")
    for label, G in cfg.instances:
        rec = _Recorder(report, "validate/%s" % label, _digest(label))
        rep = validate(G, tol=tol)
        rec.check("axioms", "Hopf *-algebra, Kac and Haar axioms", tol,
                  rep.max_violation)


def run_duality(cfg, report):
    for label, G in cfg.instances:
        rec = _Recorder(report, "duality/%s" % label, _digest(label))
        rng = np.random.default_rng(cfg.seed)
        Wd = build_w(G)
        # the pentagon bound reads the coproduct residuals, so checking these
        # first charges each record its own work
        rec.check("coproduct", "Delta(x) = W*(1 (x) x)W",
                  cfg.tolerance("pentagon"), Wd.coproduct_residual)
        rec.check("pentagon", "W12 W13 W23 = W23 W12",
                  cfg.tolerance("pentagon"), Wd.pentagon_residual)
        # one read in the order of eight draws of n: an (8, 2, n) read, each
        # functional's real part and then its imaginary part
        w = Functional(G, np.stack(_complex_normals(rng, *[G.dim] * 8)))
        rec.note("lambda-sharp", np.linalg.norm(
            Wd.lambda_of(sharp(w)) - adjoints(Wd.lambda_of(w)), 2, axis=(-2, -1)))
        rec.check("lambda-sharp", "lambda(omega#) = lambda(omega)*",
                  cfg.tolerance("lambda_sharp"))
        dual = build_dual(G)
        rec.check("dual-axioms", "extracted dual instance satisfies all axioms",
                  cfg.tolerance("dual"),
                  max(dual.validation.max_violation, dual.extraction_residual))
        haar_inv = max(v for axiom, v in dual.validation.checks
                       if axiom in HAAR_INVARIANCE)
        rec.check("dual-haar", "dual Haar state is bi-invariant",
                  cfg.tolerance("dual"), haar_inv)
        bid = biduality(G)
        rec.check("biduality", "double dual is canonically *-isomorphic to G",
                  cfg.tolerance("biduality"), bid["max_violation"])
        zrank = np.linalg.matrix_rank(dual.Z.reshape(G.dim, -1), tol=1e-9)
        rec.check("regularity", "slices of W span A and the dual image",
                  0.5, 0.0 if zrank == G.dim else 1.0)


def run_corep(cfg, report):
    tol8 = cfg.tolerance("corep")
    iso_tol = cfg.tolerance("isometry")
    for G, rec, rng, dims, groups in _trial_plan(cfg, report, "corep", 0):
        draws = []
        for trial, d in enumerate(dims):
            frame = [(d + 1, d + 1)] if trial % 5 == 0 else []
            draw = dict(zip(("w", "alpha", "beta", "w1", "w2", "frame"),
                            _complex_normals(rng, G.dim, d, d, G.dim, G.dim, *frame)))
            if frame:
                draw["spread"] = rng.random(d + 1)
            if trial % 7 == 0:
                draw["noise"] = _complex_normals(rng, (d, d, G.dim))[0]
            draws.append(draw)
        for d, trials, V, V0 in groups:
            chk = is_corep(V)
            rec.note("multiplicativity", chk.violation, chk.pair_defect)
            # generator identity: pi~ is generated by V*
            w = Functional(G, _stacked(draws, trials, "w"))
            gen_diff = pi_of(corep_adjoint(V), w) - pi_tilde(V, w)
            rec.note("antipode-coefficient", antipode_coeff_check(
                V, _stacked(draws, trials, "alpha"), _stacked(draws, trials, "beta")))
            rec.note("inverse", inverse_corep(V)[1])
            w1 = Functional(G, _stacked(draws, trials, "w1"))
            w2 = Functional(G, _stacked(draws, trials, "w2"))
            anti_diff = (pi_check(V, convolve(w1, w2))
                         - pi_check(V, w2) @ pi_check(V, w1))
            gen_norm, anti_norm = _spectral_norms(gen_diff, anti_diff)
            rec.note("generators", gen_norm)
            rec.note("anti-homomorphism", anti_norm)
            # isometry => unitary regression on the unitarized form
            iso, unit = unitarity_defects(V0)
            rec.note("isometry-unitary", unit[iso <= iso_tol])
            # degenerate block sum, twisted
            deg = trials % 5 == 0
            if deg.any():
                Vdeg = corep_direct_sum(Corepresentation(G, V0.tensor[deg]),
                                        zero_corep(G, 1))
                Uq, _, Vq = np.linalg.svd(_stacked(draws, trials[deg], "frame"))
                spread = 0.2 + 0.8 * _stacked(draws, trials[deg], "spread")
                Tw = Uq @ diagonal_matrices(spread) @ Vq
                Vtw = conjugate_corep(Vdeg, Tw, np.linalg.inv(Tw))
                ed = essential_data(Vtw)
                # pi(e_i) is the slice Vtw.tensor[..., i]
                piw = np.moveaxis(Vtw.tensor, -1, -3)
                carried = piw @ ed.Q[..., None, :, :] - piw
                rec.note("degenerate", ed.idempotent_violation,
                         ed.commute_violation, abs(ed.dimension - d),
                         np.max(np.linalg.norm(carried, axis=(-2, -1)), axis=-1))
            # dichotomy: corrupted tensors must break multiplicativity
            broken = trials % 7 == 0
            if broken.any():
                bad = Corepresentation(G, V.tensor[broken] + 0.3 * _stacked(
                    draws, trials[broken], "noise"))
                chk = is_corep(bad)
                seen = np.where(chk.pair_defect > 1e-6, 0.0, 1.0)
                rec.note("dichotomy", seen[~chk.is_corep])
        rec.check("multiplicativity", "pi(w1 w2) = pi(w1) pi(w2) iff corep identity",
                  1e-9)
        rec.check("dichotomy", "broken corep identity breaks multiplicativity",
                  0.5)
        rec.check("generators", "V_tilde = V*, V_star = V_check*",
                  cfg.tolerance("generators"))
        rec.check("antipode-coefficient", "S(T*[a,b])* = T[b,a]", tol8)
        rec.check("inverse", "(S (x) id)V is a two-sided inverse", tol8)
        rec.check("anti-homomorphism", "pi-check reverses convolution products",
                  1e-9)
        rec.check("isometry-unitary", "V*V = 1 implies VV* = 1", iso_tol)
        rec.check("degenerate", "P = V(S (x) id)V idempotent; Q carries pi", tol8)


def run_unitarize(cfg, report):
    tol8 = cfg.tolerance("unitarize")
    for G, rec, rng, dims, groups in _trial_plan(cfg, report, "unitarize", 1):
        # one (trials, 2, n) read: each trial's w, real part then imaginary
        w_table = np.stack(_complex_normals(rng, *[G.dim] * len(dims)))
        for _, trials, V, _ in groups:
            T, Vp, smin = unitarize(V)
            rec.note("unitary", *unitarity_defects(Vp))
            rec.note("corep", is_corep(Vp).violation)
            w = Functional(G, w_table[trials])
            rec.note("star-property", np.linalg.norm(
                pi_of(Vp, sharp(w)) - adjoints(pi_of(Vp, w)), 2, axis=(-2, -1)))
            # 1 / ||V^-1||^2 is the squared smallest singular value of V,
            # squared by Python's float power as a single trial squares it
            rec.note("positivity-floor", np.min(np.linalg.eigvalsh(T), axis=-1)
                     - np.array([s ** 2 for s in smin.tolist()]))
        rec.check("unitary", "V' = (1 (x) T^1/2) V (1 (x) T^-1/2) is unitary",
                  tol8)
        rec.check("corep", "V' satisfies the corepresentation identity", tol8)
        rec.check("star-property", "pi'(omega#) = pi'(omega)*", tol8)
        rec.lower("positivity-floor", "averaged T >= 1/||V^-1||^2", 0.0, tol8)


def _multiplier_draws(rng, dims):
    """Each trial's alpha and beta, and every tenth trial's random frame:
    no draw before the pairing samples depends on the instance."""
    draws = []
    for trial, d in enumerate(dims):
        frame = [(d, d)] if trial % 10 == 0 else []
        draw = dict(zip(("alpha", "beta", "frame"),
                        _complex_normals(rng, d, d, *frame)))
        if frame:
            draw["frame"], _ = np.linalg.qr(draw["frame"])
        draws.append(draw)
    return draws


def run_multiplier(cfg, report):
    tol8 = cfg.tolerance("multiplier")
    bound_tol = cfg.tolerance("multiplier_bound")
    for G, rec, rng, draws, groups in _trial_plan(cfg, report, "multiplier", 2,
                                                  _multiplier_draws):
        for d, trials, V, _ in groups:
            # one stack: every trial in the standard frame, then the framed
            # trials again in their random frame
            framed = np.flatnonzero(trials % 10 == 0)
            rows = np.concatenate([np.arange(len(trials)), framed])
            frames = np.stack([np.eye(d, dtype=complex)] * len(trials)
                              + [draws[t]["frame"] for t in trials[framed]])
            md = multiplier_from_coefficient(
                Corepresentation(G, V.tensor[rows]),
                _stacked(draws, trials, "alpha")[rows],
                _stacked(draws, trials, "beta")[rows], basis=frames)
            z = len(trials)
            rec.note("action", md.residual_action[:z])
            rec.note("w-identity", md.residual_w[:z])
            rec.note("norm-bound", md.norm_bound[:z] - md.cb_bound[:z])
            rec.note("factorization", md.factorization_norm[:z] - md.cb_bound[:z])
            rec.note("basis-independence", np.max(
                np.abs(md.Lmat[rows[z:]] - md.Lmat[z:]), axis=(-2, -1)))
        rec.check("action", "lambda-hat(L omega) = x lambda-hat(omega)", tol8)
        rec.check("w-identity", "(L* (x) id)(W-hat) = (1 (x) x) W-hat", tol8)
        rec.check("norm-bound", "row-column bound <= cb bound product", bound_tol)
        rec.check("factorization", "measured factorization norm <= cb bound",
                  bound_tol)
        rec.check("basis-independence", "L does not depend on the chosen frame",
                  tol8)
        # one (2 trials, 3, 2, n) read: per sample x, w1, w2, each real part
        # then imaginary part
        samples = _complex_normals(rng, *[G.dim] * (3 * max(1, 2 * cfg.trials)))
        x, w1, w2 = (np.stack(samples[j::3]) for j in range(3))
        rec.note("pairing", pairing_identity_check(
            G, G.element(x), Functional(G, w1), Functional(G, w2)))
        rec.check("pairing", "GNS pairing of the two transforms matches", tol8)


def run_khintchine(cfg, report):
    # the Fock layer (and scipy) loads on the first Fock run, not with the suite
    from .fock import (NonCbRep, build_fock, column_norm, compression_norm,
                       free_action, khintchine_check, matrix_factor,
                       norm_equivalence, vacuum_state, z2_factor, z2_symmetry)
    rec = _Recorder(report, "khintchine", _digest(cfg.seed))
    rng = np.random.default_rng(cfg.seed + 3)
    u = z2_symmetry()
    # the Fock depth and the Khintchine grid's copies the suite computes at
    depth, copies = min(cfg.length, 4), max(2, min(cfg.copies, 16))
    F0 = build_fock([z2_factor()] * 3, depth, dim_cap=cfg.dim_cap)
    ops = [free_action(F0, i, u) for i in range(3)]
    for pattern in [(0, 1), (0, 1, 0), (1, 0, 2, 0), (0, 2, 1, 2)]:
        if len(pattern) > F0.max_len:
            continue
        rec.note("freeness", abs(vacuum_state(F0, [ops[i] for i in pattern])))
    rec.check("freeness", "alternating centred products have zero vacuum mean",
              cfg.tolerance("freeness"))
    # column norms over the exact zone
    for N in (4, 9, 16):
        F = build_fock([z2_factor()] * N, 2, dim_cap=cfg.dim_cap)
        col = column_norm(NonCbRep(F), seed=cfg.seed)
        rec.note("column-norm", abs(col - np.sqrt(N)))
    rec.check("column-norm", "|| sum_i u_i (x) e_i0 || = sqrt(N)",
              cfg.tolerance("column"))
    # certified Khintchine direction over the configured grid
    checks = []
    for N in sorted({2, 4, copies}):
        F = build_fock([z2_factor()] * N, depth, dim_cap=cfg.dim_cap)
        checks.append(khintchine_check([1.0] * N, [(i, u) for i in range(N)], F,
                                       seed=cfg.seed))
    for N in (2, 4, 6):
        F = build_fock([matrix_factor(2)] * N,
                       3 if N < 6 else depth, dim_cap=cfg.dim_cap)
        a_fam, x_fam = [], []
        draws = _complex_normals(rng, *[(2, 2), 4] * N)
        for i in range(N):
            a_fam.append(draws[2 * i])
            x = draws[2 * i + 1]
            f = F.factors[i]
            x = x - f.phi(x) * f.unit
            x_fam.append((i, x))
        checks.append(khintchine_check(a_fam, x_fam, F, seed=cfg.seed))
    margin = max(r["lhs_cert"] - KHINTCHINE_CONSTANT * r["rhs_max"] for r in checks)
    rec.check("certified-upper", "LHS_cert <= %g max{||a (x) x||, row, column}"
              % KHINTCHINE_CONSTANT,
              cfg.tolerance("khintchine"), margin,
              digest=_digest(cfg.seed, copies, depth))
    # monotonicity of the compressed norm in the domain length
    N = 4
    F = build_fock([z2_factor()] * N, min(cfg.length + 2, 6), dim_cap=cfg.dim_cap)
    total = sum(free_action(F, i, u).matrix for i in range(N))
    vals = [compression_norm(total, F, domain_len=L, seed=cfg.seed)
            for L in range(F.max_len)]
    mono = max([a - b for a, b in zip(vals, vals[1:])] + [0.0])
    rec.check("monotone", "compressed norms are nondecreasing in the domain",
              1e-8, mono)
    envelope = max(vals) - 2.0 * np.sqrt(N - 1)
    rec.check("envelope", "compressed norms stay under 2 sqrt(N-1)",
              1e-8, envelope)
    # norm equivalence on the one-dimensional coefficient span
    F = build_fock([z2_factor()] * 4, depth, dim_cap=cfg.dim_cap)
    ne = norm_equivalence(F, [u], sample_count=min(100, 4 * cfg.trials),
                          seed=cfg.seed)
    rec.check("norm-equivalence",
              "||x|| <= %g max{C1, C2} ||x Omega|| on the span" % KHINTCHINE_CONSTANT,
              1e-6, ne["max_ratio"] - KHINTCHINE_CONSTANT * max(ne["C1"], ne["C2"]))
    report.extra["khintchine"] = {
        "ratios": [float(r["ratio"]) for r in checks],
        "analytic_bounds": {"khintchine_constant": KHINTCHINE_CONSTANT},
        "certified_lower": float(vals[-1]),
    }


def _cb_bracket(N, cb_lower):
    """[lo, hi] around ||V||: V*V = 1 (x) [[N, 1^T], [1, I_N]] for unitary
    symmetries, whose top eigenvalue is N + 1, so ||V|| = sqrt(N + 1) on the
    untruncated space.  A dense solve of a small zone can land an ulp above
    it, so lo is the smaller of the two certified bounds."""
    hi = float(np.sqrt(N + 1))
    return [min(float(cb_lower), hi), hi]


def _pi_bracket(pi_lower):
    """[lo, hi] around ||pi||: lo is the certified lower bound of
    ``pi_norm_search``; hi = sqrt(10) holds at every N.  Write
    a_i = omega(u_i), s = sum_i |a_i|^2 and m = max_i |a_i|^2.  pi(omega)
    maps x = (x_0, y) to the vector with entries a_i (x_0 + y_i), so
    ||pi(omega) x|| <= sqrt(s) |x_0| + sqrt(m) ||y|| and
    ||pi(omega)|| <= sqrt(s + m).  m <= 1 because ||omega|| <= 1, and
    sqrt(s) = sup over unit c of |omega(sum_i c_i u_i)|, at most
    ||sum_i c_i u_i|| <= 3 max{max_i |c_i|, ||c||_2} = 3 by the free
    Khintchine inequality, constant ``KHINTCHINE_CONSTANT`` = 3, so s <= 3^2."""
    return [float(pi_lower), float(np.sqrt(KHINTCHINE_CONSTANT ** 2 + 1.0))]


def run_noncb(cfg, report):
    from .fock import build_fock, cb_vs_bounded_probe, z2_factor
    rec = _Recorder(report, "noncb", "")     # each record gives its digest
    results, floors = {}, {}
    for N in sorted({4, cfg.copies}):
        F = build_fock([z2_factor()] * N, min(cfg.length, 4), dim_cap=cfg.dim_cap)
        probe = cb_vs_bounded_probe(F, seed=cfg.seed)
        results[N] = probe
        floors[str(N)] = float(np.sqrt(N)) - CB_FLOOR_SHIFT
        rec.lower("cb-lower-%d" % N, "certified ||V|| >= sqrt(N) - %g" % CB_FLOOR_SHIFT,
                  floors[str(N)], 1e-6, probe["cb_lower"],
                  digest=_digest(cfg.seed, N))
        rec.check("pi-bounded-%d" % N, "searched ||pi|| stays under %g" % PI_BOUND,
                  1e-6, probe["pi_lower_search"], bound=PI_BOUND,
                  digest=_digest(cfg.seed, N))
    if len(results) > 1:
        a, b = sorted(results)
        # both grow like sqrt(N): the coefficient sums N entries of 1/sqrt(N)
        growth = np.sqrt(b) - np.sqrt(a)
        rec.lower("column-growth", "column norms grow by sqrt(N2) - sqrt(N1)",
                  growth, 1e-6,
                  results[b]["column_norm"] - results[a]["column_norm"],
                  digest=_digest(cfg.seed, a, b))
        rec.lower("multiplier-growth",
                  "dual-side l1 norm of the coefficient grows by sqrt(N2) - sqrt(N1)",
                  growth, 1e-9,
                  results[b]["multiplier_l1_lower"]
                  - results[a]["multiplier_l1_lower"],
                  digest=_digest(cfg.seed, a, b))

    report.extra["noncb"] = {
        "certified_lower": {str(N): float(p["cb_lower"])
                            for N, p in results.items()},
        "cb_bracket": {str(N): _cb_bracket(N, p["cb_lower"])
                       for N, p in results.items()},
        "pi_bracket": {str(N): _pi_bracket(p["pi_lower_search"])
                       for N, p in results.items()},
        "analytic_bounds": {"bounded_upper": PI_BOUND, "cb_floor": floors},
        "ratios": {str(N): float(p["cb_lower"] / PI_BOUND)
                   for N, p in results.items()},
        "measured": {str(N): {k: float(v) for k, v in p.items()}
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
            name, anchor = (t.replace("|", "\\|") for t in (r.name, r.anchor))
            lines.append("| %s | %s | %.3e%s | %.1e | %s |"
                         % (name, anchor, r.value, bound, r.tol, status))
        lines.append("")
        lines.append("aggregate: %s" % ("PASS" if report.passed else "FAIL"))
        return "\n".join(lines) + "\n"
    raise StructuralError("unknown report format %r" % fmt)


def load_config_instances(builtin=None, paths=None):
    """(label, instance) for the named builtins, then the instance files;
    every builtin when neither is given."""
    if not builtin and not paths:
        builtin = builders.BUILTIN_NAMES
    instances = [(name, builders.builtin_instance(name)) for name in builtin or []]
    for p in paths or []:
        label = os.path.splitext(os.path.basename(p))[0]
        instances.append((label, load_instance(p)))
    return instances
