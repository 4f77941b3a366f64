"""Finite quantum groups as structure tensors, with validation, GNS data and
Wedderburn block decomposition, on a core shared with the free factors of
``fock``: a finite-dimensional C*-algebra with a faithful state.

An instance stores a basis e_0..e_{n-1} of a finite-dimensional Hopf *-algebra
together with:

    mult[i,j,k]      e_i e_j = sum_k mult[i,j,k] e_k
    unit[i]          coefficients of 1
    coproduct[i,j,k] Delta(e_i) = sum_{j,k} coproduct[i,j,k] e_j (x) e_k
    counit[i]        eps(e_i)
    antipode[i,j]    S(e_i) = sum_j antipode[i,j] e_j
    star[i,j]        (sum_i a_i e_i)* = sum_{i,j} conj(a_i) star[i,j] e_j
    haar[i]          h(e_i), the state of the algebra core

All semantics are relative to the stored basis; no canonical form is assumed.
Every finite quantum group is of Kac type, so the validator requires S^2 = id
and a tracial Haar state, which pins the modular operator to 1 and the unitary
antipode to S for everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegeneracyError,
    InvalidInstanceError,
    OwnerMismatchError,
    StructuralError,
)

STRUCT_TOL = 1e-10
NORM_RTOL = 1e-8


def _c(x):
    return np.asarray(x, dtype=complex)


_RANKS = {"mult": 3, "unit": 1, "star": 2, "state": 1,
          "coproduct": 3, "counit": 1, "antipode": 2}


class StarAlgebra:
    """A finite-dimensional C*-algebra with a faithful state, on a stored basis.

    Holds the (mult, unit, star, state) tensors read-only, the coefficient
    maps, the GNS construction of the state, and one cache of derived data
    keyed by stage and arguments.  Keyword tensors in ``more`` (the coalgebra
    of a quantum group) get the same shape, finiteness and read-only checks.
    """

    def __init__(self, name, mult, unit, star, state, basis_labels=None,
                 **more):
        self.name = str(name)
        unit = _c(unit)
        n = unit.shape[0] if unit.ndim == 1 else -1
        if n <= 0:
            raise StructuralError("unit must be a nonempty vector")
        self.dim = n
        for key, arr in dict(mult=mult, unit=unit, star=star, state=state,
                             **more).items():
            arr = _c(arr)
            want = (n,) * _RANKS[key]
            if arr.shape != want:
                raise StructuralError(
                    "field %r has shape %s, expected %s" % (key, arr.shape, want))
            if not np.all(np.isfinite(arr.view(float))):
                raise StructuralError("structure tensors contain non-finite entries")
            arr.setflags(write=False)
            setattr(self, key, arr)
        if basis_labels is None:
            basis_labels = ["e%d" % i for i in range(n)]
        if len(basis_labels) != n:
            raise StructuralError("basis_labels length %d != dim %d"
                                  % (len(basis_labels), n))
        self.basis_labels = [str(b) for b in basis_labels]
        self._cache = {}

    def cached(self, stage, build, *args):
        """build(self, *args), computed once per (stage, args); a build that
        raises stores nothing."""
        key = (stage,) + args
        if key not in self._cache:
            self._cache[key] = build(self, *args)
        return self._cache[key]

    # -- elements ---------------------------------------------------------

    def element(self, coeffs):
        return AlgebraElement(self, coeffs)

    def basis_element(self, i):
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return AlgebraElement(self, v)

    def one(self):
        return AlgebraElement(self, self.unit)

    def zero(self):
        return AlgebraElement(self, np.zeros(self.dim, dtype=complex))

    # -- tensor-level maps on coefficient vectors --------------------------

    def mult_coeffs(self, a, b):
        return np.einsum("ijk,i,j->k", self.mult, a, b)

    def star_coeffs(self, a):
        return np.einsum("i,ij->j", np.conj(a), self.star)

    def is_commutative(self, tol=STRUCT_TOL):
        return np.max(np.abs(self.mult - self.mult.transpose(1, 0, 2))) <= tol

    def gns(self):
        return self.cached("gns", _build_gns)

    def cstar_norm(self, coeffs) -> float:
        """C*-norm of the element with these coefficients: the largest
        singular value of its left regular image."""
        return float(np.linalg.norm(self.gns().left_action(self.element(coeffs)), 2))


class FiniteQuantumGroup(StarAlgebra):
    """Immutable container for the structure tensors of a finite quantum group;
    the Haar state is the state of its algebra core."""

    def __init__(self, name, mult, unit, coproduct, counit, antipode, star, haar,
                 basis_labels=None):
        super().__init__(name, mult, unit, star, haar, basis_labels,
                         coproduct=coproduct, counit=counit, antipode=antipode)

    @property
    def haar(self):
        return self.state

    def __repr__(self):
        return "FiniteQuantumGroup(%r, dim=%d)" % (self.name, self.dim)

    def antipode_coeffs(self, a):
        return np.einsum("i,ij->j", a, self.antipode)

    def coproduct_coeffs(self, a):
        """Delta(a) as an (n, n) coefficient array over e_j (x) e_k."""
        return np.einsum("i,ijk->jk", a, self.coproduct)

    def is_cocommutative(self, tol=STRUCT_TOL):
        return np.max(np.abs(self.coproduct - self.coproduct.transpose(0, 2, 1))) <= tol

    # -- cached constructions ----------------------------------------------

    # Bound in this class body as well, where perfbench/tracer.py wraps it.
    gns = StarAlgebra.gns

    def block_decomposition(self, tol=NORM_RTOL, seed=7):
        return self.cached("block_decomposition", _block_decompose, tol, seed)


class AlgebraElement:
    """An element of the algebra, stored as a coefficient vector over the owner basis."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner, coeffs):
        self.owner = owner
        c = _c(coeffs)
        if c.shape != (owner.dim,):
            raise StructuralError("coefficient vector has shape %s, expected (%d,)"
                                  % (c.shape, owner.dim))
        self.coeffs = c

    def _check_owner(self, other):
        if self.owner is not other.owner:
            raise OwnerMismatchError("elements belong to different instances")

    def __add__(self, other):
        self._check_owner(other)
        return AlgebraElement(self.owner, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_owner(other)
        return AlgebraElement(self.owner, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.owner, self.coeffs * complex(other))

    def __rmul__(self, scalar):
        return AlgebraElement(self.owner, self.coeffs * complex(scalar))

    def __neg__(self):
        return AlgebraElement(self.owner, -self.coeffs)

    def __repr__(self):
        return "AlgebraElement(%r, %s)" % (self.owner.name, self.coeffs)

    def norm(self):
        return operator_norm(self)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_owner(b)
    return AlgebraElement(a.owner, a.owner.mult_coeffs(a.coeffs, b.coeffs))


def adjoint(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.owner, a.owner.star_coeffs(a.coeffs))


def apply_antipode(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.owner, a.owner.antipode_coeffs(a.coeffs))


def apply_coproduct(a: AlgebraElement) -> np.ndarray:
    """Delta(a) as an n^2 coefficient vector (row-major over e_j (x) e_k)."""
    return a.owner.coproduct_coeffs(a.coeffs).reshape(-1)


def apply_counit(a: AlgebraElement) -> complex:
    return complex(np.dot(a.coeffs, a.owner.counit))


def apply_haar(a: AlgebraElement) -> complex:
    return complex(np.dot(a.coeffs, a.owner.haar))


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    name: str
    tol: float
    checks: list = field(default_factory=list)  # (axiom name, max violation)

    def record(self, axiom, violation):
        self.checks.append((axiom, float(violation)))

    @property
    def max_violation(self):
        return max((v for _, v in self.checks), default=0.0)

    @property
    def passed(self):
        return all(v <= self.tol for _, v in self.checks)

    def failures(self):
        return [(a, v) for a, v in self.checks if v > self.tol]

    def __str__(self):
        lines = ["validate(%s): %s (tol %.1e)" % (
            self.name, "PASS" if self.passed else "FAIL", self.tol)]
        for a, v in self.checks:
            lines.append("  %-42s %.3e" % (a, v))
        return "\n".join(lines)


def validate(G: FiniteQuantumGroup, tol: float = STRUCT_TOL) -> ValidationReport:
    """Check every Hopf *-algebra / Kac / Haar axiom; report the max violation of each."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    M, D = G.mult, G.coproduct
    u, eps, S, C, h = G.unit, G.counit, G.antipode, G.star, G.haar
    n = G.dim
    eye = np.eye(n)
    rep = ValidationReport(G.name, tol)

    def mx(x):
        return float(np.max(np.abs(x))) if np.size(x) else 0.0

    rep.record("mult associative",
               mx(np.einsum("ijm,mkl->ijkl", M, M) - np.einsum("jkm,iml->ijkl", M, M)))
    rep.record("unit is two-sided identity",
               max(mx(np.einsum("i,ijk->jk", u, M) - eye),
                   mx(np.einsum("j,ijk->ik", u, M) - eye)))
    rep.record("counit is an algebra homomorphism",
               max(mx(np.einsum("ijk,k->ij", M, eps) - np.outer(eps, eps)),
                   abs(np.dot(u, eps) - 1.0)))
    rep.record("coproduct coassociative",
               mx(np.einsum("ijc,jab->iabc", D, D) - np.einsum("iak,kbc->iabc", D, D)))
    rep.record("counit law (eps x id)Delta = id = (id x eps)Delta",
               max(mx(np.einsum("ijk,j->ik", D, eps) - eye),
                   mx(np.einsum("ijk,k->ij", D, eps) - eye)))
    rep.record("coproduct is an algebra homomorphism",
               mx(np.einsum("ijk,kab->ijab", M, D)
                  - np.einsum("ipq,jrs,pra,qsb->ijab", D, D, M, M, optimize=True)))
    rep.record("coproduct unital",
               mx(np.einsum("i,iab->ab", u, D) - np.outer(u, u)))
    rep.record("coproduct is a *-map",
               mx(np.einsum("ij,jab->iab", C, D)
                  - np.einsum("ijk,ja,kb->iab", np.conj(D), C, C, optimize=True)))
    rep.record("antipode law m(S x id)Delta = unit.eps",
               mx(np.einsum("ijk,jp,pkl->il", D, S, M, optimize=True) - np.outer(eps, u)))
    rep.record("antipode law m(id x S)Delta = unit.eps",
               mx(np.einsum("ijk,kq,jql->il", D, S, M, optimize=True) - np.outer(eps, u)))
    rep.record("star involutive", mx(np.conj(C) @ C - eye))
    rep.record("star anti-multiplicative",
               mx(np.einsum("ijk,kl->ijl", np.conj(M), C)
                  - np.einsum("jp,iq,pql->ijl", C, C, M, optimize=True)))
    rep.record("S.*.S.* = id", mx(np.conj(C @ S) @ (C @ S) - eye))
    # Kac conditions: required, not optional.
    rep.record("antipode involutive (Kac)", mx(S @ S - eye))
    rep.record("haar antipode-invariant", mx(S @ h - h))
    rep.record("haar normalized h(1)=1", abs(np.dot(u, h) - 1.0))
    rep.record("haar tracial",
               mx(np.einsum("ijk,k->ij", M, h) - np.einsum("jik,k->ij", M, h)))
    rep.record("haar hermitian h(x*) = conj h(x)", mx(C @ h - np.conj(h)))
    gram = np.einsum("ip,pjq,q->ij", C, M, h, optimize=True)  # h(e_i* e_j)
    rep.record("haar positive (Gram hermitian PSD)",
               max(mx(gram - gram.conj().T),
                   max(0.0, -float(np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2))))))
    rep.record("haar faithful (Gram nonsingular)",
               0.0 if np.linalg.matrix_rank(gram, tol=tol) == n else 1.0)
    rep.record("haar left invariant (h x id)Delta = h(.)1",
               mx(np.einsum("ijk,j->ik", D, h) - np.outer(h, u)))
    rep.record("haar right invariant (id x h)Delta = h(.)1",
               mx(np.einsum("ijk,k->ij", D, h) - np.outer(h, u)))
    return rep


# ---------------------------------------------------------------------------
# GNS construction


class SpanningFamily:
    """Least-squares expansion in a family of matrices b_0..b_{k-1}, given as
    one (k, p, q) stack, through the pseudo-inverse of the family formed once.

    ``expand(X)`` takes one p x q matrix or any stack of them and returns the
    coefficients c, shape (..., k), with X ~ sum_m c[..., m] b_m, and the
    residual ||sum_m c_m b_m - X|| (Frobenius) of each matrix, shape (...).
    """

    def __init__(self, family):
        self.family = family
        self.matrix = family.reshape(len(family), -1).T     # columns vec(b_m)
        self.pinv = np.linalg.pinv(self.matrix)

    def expand(self, X):
        X = np.asarray(X)
        batch = X.shape[:-2]
        B = X.reshape(-1, self.matrix.shape[0])             # rows vec(X)
        C = B @ self.pinv.T
        resid = np.linalg.norm(C @ self.matrix.T - B, axis=1)
        return C.reshape(batch + (-1,)), resid.reshape(batch)


class GnsData:
    """GNS space of the state: Lambda, the modular conjugation, and the left
    regular images lambda(e_m) of the basis, built once as one stack.

    For a quantum group the state is the tracial Haar state, so the modular
    operator is the identity and J Lambda(x) = Lambda(x*) realizes the
    Tomita conjugation exactly.
    """

    def __init__(self, owner, lam, lam_inv, gram):
        self.owner = owner
        self.lambda_map = lam          # coefficients -> H_h  (Lambda)
        self.lambda_inv = lam_inv
        self.gram = gram               # gram[i,j] = h(e_i* e_j)
        # conjugate-linear J: v -> Jmat conj(v)
        self.modular_conj = lam @ owner.star.T @ np.conj(lam_inv)
        # images[m] = lambda(e_m) = Lambda L_m Lambda^-1 with L_m the matrix
        # of y -> e_m y on coefficients, L_m[k, j] = mult[m, j, k]
        self.images = lam @ owner.mult.transpose(0, 2, 1) @ lam_inv
        self.images.setflags(write=False)

    def Lambda(self, a: AlgebraElement) -> np.ndarray:
        return self.lambda_map @ a.coeffs

    def left_action(self, a: AlgebraElement) -> np.ndarray:
        """lambda_h(a) acting on H_h: Lambda(y) -> Lambda(a y)."""
        return np.tensordot(a.coeffs, self.images, 1)

    @cached_property
    def span(self) -> SpanningFamily:
        """The images as a spanning family, for lambda_h(a) -> a."""
        return SpanningFamily(self.images)

    def left_action_inv(self, m: np.ndarray, rtol=1e-9):
        """Solve lambda_h(a) = m for a by least squares; the residual must
        stay below rtol * max(1, ||m||)."""
        coeffs, resid = self.span.expand(m)
        if resid > rtol * max(1.0, np.linalg.norm(m)):
            raise InvalidInstanceError(
                "matrix is not in the image of the left regular representation "
                "(residual %.3e)" % resid)
        return AlgebraElement(self.owner, coeffs)


def _build_gns(A: StarAlgebra) -> GnsData:
    gram = np.einsum("ip,pjq,q->ij", A.star, A.mult, A.state)
    gram = (gram + gram.conj().T) / 2
    w, V = np.linalg.eigh(gram)
    if np.min(w) <= A.dim * 1e-13 * max(1.0, np.max(w)):
        raise InvalidInstanceError(
            "state is not faithful: Gram matrix h(e_i* e_j) has smallest "
            "eigenvalue %.3e" % float(np.min(w)))
    lam = V @ np.diag(np.sqrt(w)) @ V.conj().T
    lam_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    return GnsData(A, lam, lam_inv, gram)


def gns(G: FiniteQuantumGroup) -> GnsData:
    return G.gns()


def operator_norm(a: AlgebraElement) -> float:
    """C*-norm of a: largest singular value of its left regular image."""
    return a.owner.cstar_norm(a.coeffs)


# ---------------------------------------------------------------------------
# Wedderburn block decomposition


class BlockDecomposition:
    """Isometric *-isomorphism of the algebra onto a direct sum of matrix blocks."""

    def __init__(self, owner, isometries):
        self.owner = owner
        self.isometries = isometries              # one n x n_k frame per block
        self.sizes = [P.shape[1] for P in isometries]
        images = owner.gns().images
        self.forward_matrix = np.concatenate(          # coeffs -> stacked blocks
            [(P.conj().T @ images @ P).reshape(owner.dim, -1) for P in isometries],
            axis=1).T
        self.backward_matrix = np.linalg.inv(self.forward_matrix)

    def forward(self, a: AlgebraElement):
        flat = self.forward_matrix @ a.coeffs
        return self._split(flat)

    def backward(self, blocks) -> AlgebraElement:
        flat = np.concatenate([np.asarray(b, dtype=complex).reshape(-1)
                               for b in blocks])
        return AlgebraElement(self.owner, self.backward_matrix @ flat)

    def _split(self, flat):
        out, pos = [], 0
        for nk in self.sizes:
            out.append(flat[pos:pos + nk * nk].reshape(nk, nk))
            pos += nk * nk
        return out

    def pairing_blocks(self, functional_values):
        """Trace-pairing matrices W_k with omega(x) = sum_k tr(W_k x_k)."""
        p = self.backward_matrix.T @ np.asarray(functional_values, dtype=complex)
        return [b.T for b in self._split(p)]


def _commutant_basis(mats):
    n = mats[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(m, eye) - np.kron(eye, m.T) for m in mats]
    A = np.concatenate(rows, axis=0)
    _, s, Vh = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null = Vh[np.sum(s > tol):].conj()
    return [v.reshape(n, n) for v in null]


def _block_decompose(G, tol=NORM_RTOL, seed=7, max_attempts=25):
    n = G.dim
    mats = G.gns().images
    comm = _commutant_basis(mats)
    rng = np.random.default_rng(seed)
    last_gap = None
    for _ in range(max_attempts):
        Y = sum(rng.standard_normal() * B + 1j * rng.standard_normal() * B
                for B in comm)
        Y = Y + Y.conj().T
        w, U = np.linalg.eigh(Y)
        scale = max(1.0, float(np.max(np.abs(w))))
        gaps = np.diff(w)
        split_tol = 1e-7 * scale
        # cluster eigenvalues; remember the smallest gap we treated as a split
        idx_groups, start = [], 0
        for i, g in enumerate(gaps):
            if g > split_tol:
                idx_groups.append(range(start, i + 1))
                start = i + 1
        idx_groups.append(range(start, n))
        near = [g for g in gaps if split_tol / 10 < g <= split_tol]
        if near:
            last_gap = float(min(near))
            continue
        frames = [U[:, list(g)] for g in idx_groups]
        ok = all(
            np.max(np.linalg.norm(mats @ P - P @ (P.conj().T @ mats @ P), axis=(1, 2)))
            < 1e-8 * scale for P in frames)
        if not ok:
            last_gap = float(np.min(gaps)) if len(gaps) else 0.0
            continue
        chars = [np.trace(P.conj().T @ mats @ P, axis1=1, axis2=2) for P in frames]
        classes = []
        for j, chi in enumerate(chars):
            for cls in classes:
                if (frames[j].shape[1] == frames[cls[0]].shape[1]
                        and np.linalg.norm(chi - chars[cls[0]]) < 1e-6 * n):
                    cls.append(j)
                    break
            else:
                classes.append([j])
        sizes = [frames[cls[0]].shape[1] for cls in classes]
        if any(len(cls) != sz for cls, sz in zip(classes, sizes)):
            continue
        if sum(sz * sz for sz in sizes) != n:
            continue
        order = sorted(range(len(classes)), key=lambda k: (
            sizes[k], tuple(np.round(chars[classes[k][0]].real, 6)),
            tuple(np.round(chars[classes[k][0]].imag, 6))))
        isometries = [frames[classes[k][0]] for k in order]
        bd = BlockDecomposition(G, isometries)
        resid = _homomorphism_residual(bd)
        if resid < tol:
            return bd
        last_gap = resid
    raise DegeneracyError(
        "failed to separate blocks after %d attempts (offending gap %s)"
        % (max_attempts, last_gap), gap=last_gap)


def _homomorphism_residual(bd):
    G = bd.owner
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(6):
        a = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        b = G.element(rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        fa, fb, fab = bd.forward(a), bd.forward(b), bd.forward(multiply(a, b))
        worst = max(worst, max(
            np.linalg.norm(x @ y - z) for x, y, z in zip(fa, fb, fab)))
        fs = bd.forward(adjoint(a))
        worst = max(worst, max(
            np.linalg.norm(x.conj().T - y) for x, y in zip(fa, fs)))
    return worst


def block_decompose(G: FiniteQuantumGroup, tol=NORM_RTOL, seed=7) -> BlockDecomposition:
    return G.block_decomposition(tol=tol, seed=seed)
