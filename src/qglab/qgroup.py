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

import numpy as np

from .errors import (
    DegeneracyError,
    InvalidInstanceError,
    OwnerMismatchError,
    StructuralError,
)

STRUCT_TOL = 1e-10
NORM_RTOL = 1e-8
BLOCK_ATTEMPTS = 25     # random commutant draws before block separation gives up
# validate's Haar-invariance axioms, whose labels the duality suite reads
HAAR_INVARIANCE = ("haar left invariant (h x id)Delta = h(.)1",
                   "haar right invariant (id x h)Delta = h(.)1")
# validate's einsum paths, the ones numpy's greedy search picks at every n
# from 2 to 42, fixed so that no call searches; _PATH_ij contracts i, j first
_PATH_01 = ["einsum_path", (0, 1), (0, 1)]
_PATH_02 = ["einsum_path", (0, 2), (0, 1)]
_PATH_12 = ["einsum_path", (1, 2), (0, 1)]
_PATH_HOMOMORPHISM = ["einsum_path", (0, 2), (0, 1), (0, 1)]


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

    # -- tensor-level maps on coefficient vectors --------------------------

    def mult_coeffs(self, a, b):
        return np.einsum("ijk,i,j->k", self.mult, a, b)

    def star_coeffs(self, a):
        return np.einsum("...i,ij->...j", np.conj(a), self.star)

    def is_commutative(self):
        return np.max(np.abs(self.mult - self.mult.transpose(1, 0, 2))) <= STRUCT_TOL

    def gns(self):
        return self.cached("gns", _build_gns)

    def block_decomposition(self, tol=NORM_RTOL, seed=7):
        return self.cached("block_decomposition", _block_decompose, tol, seed)

    def cstar_norm(self, coeffs):
        """C*-norm of the element with these coefficients, (..., n): the
        largest singular value over its Wedderburn blocks."""
        return singular_extremes(self.block_decomposition().images(coeffs))[0]


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
        return np.einsum("...i,ij->...j", a, self.antipode)

    def is_cocommutative(self):
        return (np.max(np.abs(self.coproduct - self.coproduct.transpose(0, 2, 1)))
                <= STRUCT_TOL)

    # -- cached constructions ----------------------------------------------

    # Bound in this class body as well, where perfbench/tracer.py wraps them.
    gns = StarAlgebra.gns
    block_decomposition = StarAlgebra.block_decomposition


class CoefficientVector:
    """A coefficient vector over the owner basis with its linear structure:
    the base of algebra elements and of the functionals of ``convolution``.
    Sums and differences need one owner; a subclass adds its own product.
    The coefficients may carry leading axes, shape (..., n): a stack of
    vectors, on which the involutions, the convolution product, the module
    action and the C*-norm act slice by slice."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner, coeffs):
        self.owner = owner
        c = _c(coeffs)
        if c.shape[-1:] != (owner.dim,):
            raise StructuralError("coefficient vector has shape %s, expected (..., %d)"
                                  % (c.shape, owner.dim))
        self.coeffs = c

    def _check_owner(self, other):
        if self.owner is not other.owner:
            raise OwnerMismatchError("%s operands belong to different instances"
                                     % type(self).__name__)

    def __add__(self, other):
        self._check_owner(other)
        return type(self)(self.owner, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_owner(other)
        return type(self)(self.owner, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return type(self)(self.owner, self.coeffs * complex(scalar))

    def __rmul__(self, scalar):
        return type(self)(self.owner, self.coeffs * complex(scalar))

    def __neg__(self):
        return type(self)(self.owner, -self.coeffs)

    def __repr__(self):
        return "%s(%r, %s)" % (type(self).__name__, self.owner.name, self.coeffs)


class AlgebraElement(CoefficientVector):
    """An element of the algebra; the product of two elements is ``multiply``."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return super().__mul__(other)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_owner(b)
    return AlgebraElement(a.owner, a.owner.mult_coeffs(a.coeffs, b.coeffs))


def adjoint(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.owner, a.owner.star_coeffs(a.coeffs))


def apply_antipode(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.owner, a.owner.antipode_coeffs(a.coeffs))


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

    # two-operand contractions run in BLAS (tensordot), transposed to the
    # index order of the other side; the n^4 differences are formed in place
    assoc = np.tensordot(M, M, 1)
    assoc -= np.tensordot(M, M, ([2], [1])).transpose(2, 0, 1, 3)
    rep.record("mult associative", mx(assoc))
    del assoc
    rep.record("unit is two-sided identity",
               max(mx(np.einsum("i,ijk->jk", u, M) - eye),
                   mx(np.einsum("j,ijk->ik", u, M) - eye)))
    rep.record("counit is an algebra homomorphism",
               max(mx(np.einsum("ijk,k->ij", M, eps) - np.outer(eps, eps)),
                   abs(np.dot(u, eps) - 1.0)))
    rep.record("coproduct coassociative",
               mx(np.tensordot(D, D, ([1], [0])).transpose(0, 2, 3, 1)
                  - np.tensordot(D, D, 1)))
    rep.record("counit law (eps x id)Delta = id = (id x eps)Delta",
               max(mx(np.einsum("ijk,j->ik", D, eps) - eye),
                   mx(np.einsum("ijk,k->ij", D, eps) - eye)))
    rhs = np.einsum("ipq,jrs,pra,qsb->ijab", D, D, M, M,
                    optimize=_PATH_HOMOMORPHISM)
    rep.record("coproduct is an algebra homomorphism",
               mx(np.subtract(np.tensordot(M, D, 1), rhs, out=rhs)))
    del rhs
    rep.record("coproduct unital",
               mx(np.einsum("i,iab->ab", u, D) - np.outer(u, u)))
    rep.record("coproduct is a *-map",
               mx(np.einsum("ij,jab->iab", C, D)
                  - np.einsum("ijk,ja,kb->iab", np.conj(D), C, C, optimize=_PATH_01)))
    rep.record("antipode law m(S x id)Delta = unit.eps",
               mx(np.einsum("ijk,jp,pkl->il", D, S, M, optimize=_PATH_01) - np.outer(eps, u)))
    rep.record("antipode law m(id x S)Delta = unit.eps",
               mx(np.einsum("ijk,kq,jql->il", D, S, M, optimize=_PATH_01) - np.outer(eps, u)))
    rep.record("star involutive", mx(np.conj(C) @ C - eye))
    rep.record("star anti-multiplicative",
               mx(np.einsum("ijk,kl->ijl", np.conj(M), C)
                  - np.einsum("jp,iq,pql->ijl", C, C, M, optimize=_PATH_02)))
    rep.record("S.*.S.* = id", mx(np.conj(C @ S) @ (C @ S) - eye))
    # Kac conditions: required, not optional.
    rep.record("antipode involutive (Kac)", mx(S @ S - eye))
    rep.record("haar antipode-invariant", mx(S @ h - h))
    rep.record("haar normalized h(1)=1", abs(np.dot(u, h) - 1.0))
    rep.record("haar tracial",
               mx(np.einsum("ijk,k->ij", M, h) - np.einsum("jik,k->ij", M, h)))
    rep.record("haar hermitian h(x*) = conj h(x)", mx(C @ h - np.conj(h)))
    gram = np.einsum("ip,pjq,q->ij", C, M, h, optimize=_PATH_12)  # h(e_i* e_j)
    rep.record("haar positive (Gram hermitian PSD)",
               max(mx(gram - gram.conj().T),
                   max(0.0, -float(np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2))))))
    rep.record("haar faithful (Gram nonsingular)",
               0.0 if np.linalg.matrix_rank(gram, tol=tol) == n else 1.0)
    left, right = HAAR_INVARIANCE
    rep.record(left, mx(np.einsum("ijk,j->ik", D, h) - np.outer(h, u)))
    rep.record(right, mx(np.einsum("ijk,k->ij", D, h) - np.outer(h, u)))
    return rep


# ---------------------------------------------------------------------------
# GNS construction


class GnsData:
    """GNS space of the state: Lambda and the left regular images
    lambda(e_m) of the basis, built once as one stack."""

    def __init__(self, owner, lam, lam_inv):
        self.owner = owner
        self.lambda_map = lam          # coefficients -> H_h  (Lambda)
        self.lambda_inv = lam_inv
        # images[m] = lambda(e_m) = Lambda L_m Lambda^-1 with L_m the matrix
        # of y -> e_m y on coefficients, L_m[k, j] = mult[m, j, k]
        self.images = lam @ owner.mult.transpose(0, 2, 1) @ lam_inv
        self.images.setflags(write=False)

    def left_action(self, a: AlgebraElement) -> np.ndarray:
        """lambda_h(a) acting on H_h: Lambda(y) -> Lambda(a y)."""
        return np.tensordot(a.coeffs, self.images, 1)


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
    return GnsData(A, lam, lam_inv)


def vector_norms(x):
    """The Euclidean norm of each vector of a complex stack (..., k), formed
    as ``np.linalg.norm`` forms one vector's: a BLAS dot of the real parts
    plus one of the imaginary parts, so a stack gives each vector's own
    bits."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-2, -1))[..., 0, 0]
                   + (im @ im.swapaxes(-2, -1))[..., 0, 0])


def singular_extremes(blocks):
    """(largest, smallest) singular value over the square blocks, a list of
    stacks (..., p_k, p_k) of one stack shape, per stacked item: the extreme
    singular values of any direct sum of the blocks, each repeated any number
    of times.  The blocks are zero-padded to one size and share one batched
    SVD, whatever their number and sizes; the padding adds zeros, which sort
    after the p_k singular values of block k, and each matrix of the stack
    gets the bits it gets alone."""
    size = max(b.shape[-1] for b in blocks)
    padded = np.zeros(blocks[0].shape[:-2] + (len(blocks), size, size),
                      dtype=complex)
    for k, b in enumerate(blocks):
        padded[..., k, :b.shape[-1], :b.shape[-1]] = b
    s = np.linalg.svd(padded, compute_uv=False)
    last = [b.shape[-1] - 1 for b in blocks]
    return (np.max(s[..., 0], axis=-1),
            np.min(s[..., range(len(blocks)), last], axis=-1))


def operator_norm(a: AlgebraElement):
    """C*-norm of a (of each element of a stack): largest singular value of
    its left regular image, read block by block."""
    return a.owner.cstar_norm(a.coeffs)


# ---------------------------------------------------------------------------
# Wedderburn block decomposition


class BlockDecomposition:
    """Isometric *-isomorphism of the algebra onto a direct sum of matrix blocks.

    Block k of a is pi_k(a) = P_k* lambda(a) P_k, P_k an isometry onto one
    copy of the k-th irreducible subspace of the GNS space.  lambda(a) is
    unitarily equivalent to the direct sum of the pi_k(a), pi_k(a) repeated
    n_k times, so every singular value of lambda(a) is one of a block: its
    norms are read block by block, in matrices of size n_k instead of n.
    """

    def __init__(self, owner, isometries):
        self.owner = owner
        self.sizes = [P.shape[1] for P in isometries]
        images = owner.gns().images
        self.forward_matrix = np.concatenate(          # coeffs -> stacked blocks
            [(P.conj().T @ images @ P).reshape(owner.dim, -1) for P in isometries],
            axis=1).T

    def images(self, coeffs):
        """The blocks of the elements with coefficients (..., n): one stack
        (..., n_k, n_k) per block.  Each coefficient vector is mapped by a
        product of its own, (1, n) by (n, n), so a stack gives each element
        the bits it gets alone."""
        rows = np.asarray(coeffs, dtype=complex)[..., None, :]
        flat = (rows @ self.forward_matrix.T)[..., 0, :]
        out, pos = [], 0
        for nk in self.sizes:
            out.append(flat[..., pos:pos + nk * nk].reshape(
                flat.shape[:-1] + (nk, nk)))
            pos += nk * nk
        return out


def _block_decompose(G, tol, seed):
    """Split the GNS space into the algebra's matrix blocks by the eigenspaces
    of a random self-adjoint element Y of the commutant of lambda(A).

    That commutant is rho(A), the right multiplications: a linear map T on A
    that commutes with every left multiplication satisfies
    T(a) = T(a 1) = a T(1), so T is right multiplication by T(1).  In GNS
    coordinates rho(e_m) = Lambda R_m Lambda^-1 with R_m[k, j] = mult[j, m, k],
    one batched product and no null-space solve."""
    n = G.dim
    gd = G.gns()
    mats = gd.images
    comm = gd.lambda_map @ G.mult.transpose(1, 2, 0) @ gd.lambda_inv
    rng = np.random.default_rng(seed)
    last_gap = None
    for _ in range(BLOCK_ATTEMPTS):
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
        % (BLOCK_ATTEMPTS, last_gap), gap=last_gap)


def _homomorphism_residual(bd):
    """The largest Frobenius defect of pi_k(ab) = pi_k(a) pi_k(b) and
    pi_k(a*) = pi_k(a)* over the blocks, at six seeded random pairs (a, b),
    drawn in one read: per pair a, then b, each real part then imaginary."""
    G = bd.owner
    r = np.random.default_rng(12345).standard_normal((6, 2, 2, G.dim))
    a, b = r[:, 0, 0] + 1j * r[:, 0, 1], r[:, 1, 0] + 1j * r[:, 1, 1]
    ab = np.einsum("ijk,...i,...j->...k", G.mult, a, b)
    worst = 0.0
    for x, y, z, s in zip(*(bd.images(c) for c in (a, b, ab, G.star_coeffs(a)))):
        worst = max(worst, float(np.max(np.linalg.norm(x @ y - z, axis=(-2, -1)))),
                    float(np.max(np.linalg.norm(x.conj().swapaxes(-2, -1) - s,
                                                axis=(-2, -1)))))
    return worst
