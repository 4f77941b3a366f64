"""Truncated reduced free products: Fock space over alternating words of
centred GNS vectors, sparse free actions, certified norm lower bounds, and
the bounded-but-not-completely-bounded representation built from free
symmetries.

Words are integer arrays, not tuples: word k is its first factor, the slot
of its first letter and the index of the word without that letter, laid out
layer by layer so that the words starting with one factor are contiguous.
The per-factor index maps that assemble each free action are slices and
reshapes of these arrays.  The free symmetries of the non-cb representation
are kept as one sparse matrix, vstack(u_1, ..., u_N) less its empty rows,
so one matvec gives every u_i xi and one adjoint matvec gives
sum_i u_i* eta_i.

Truncation semantics: operators are stored as P pi(a) P for the orthogonal
projection P onto words of length <= max_len.  On the subspace of words of
length <= max_len - 1 every single action is exact, so norms of compressions
to that zone are certified lower bounds for the true norms; no upper bounds
are ever claimed from truncated data.

Zone first: words are stored layer by layer, so the K words of length
<= max_len - 1 are the first K indices, and the compression of
sum_i op_i (x) a_i to them is sum_i op_i[:K, :K] (x) a_i.  ``amplified_sum``
is the one amplification path: it slices each single action to the exact
zone before amplifying it, so the Khintchine probe, the non-cb generator and
its creation column never form an amplified operator on the top layer,
which they do not read (at N=16, L=4 that layer holds 54,000 of the 57,857
words).  The slices are the same CSR matrices as the compressions of the
full operators, so every norm is unchanged bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BudgetError, ConvergenceError, StructuralError
from .qgroup import StarAlgebra

DEFAULT_DIM_CAP = 200_000


# ---------------------------------------------------------------------------
# Free factors


class FreeFactor(StarAlgebra):
    """A finite-dimensional C*-algebra with a faithful state, GNS-represented.

    The algebra core (coefficient maps, GNS data and the C*-norm) comes from
    ``qgroup.StarAlgebra``; the factor adds the unit vector xi = Lambda(1),
    an orthonormal frame for its complement, and the (scalar, create-column,
    contract-row, replace-matrix) data that drive the word-level free action.
    """

    def __init__(self, mult, unit, star, state, name="factor"):
        super().__init__(name, mult, unit, star, state)
        self.xi = self.gns().lambda_map @ self.unit
        nrm = np.linalg.norm(self.xi)
        if abs(nrm - 1.0) > 1e-10:
            raise StructuralError("state is not normalized (||xi|| = %.6f)" % nrm)
        # orthonormal basis of xi-perp
        M = np.concatenate([self.xi[:, None], np.eye(self.dim, dtype=complex)], axis=1)
        Q, _ = np.linalg.qr(M)
        phase = np.vdot(Q[:, 0], self.xi)
        Q[:, 0] *= phase / abs(phase)
        self.P0 = Q[:, 1:]
        self.dim0 = self.dim - 1

    def phi(self, coeffs) -> complex:
        return complex(np.dot(self.state, np.asarray(coeffs, dtype=complex)))

    def action_data(self, coeffs):
        m = self.gns().left_action(self.element(coeffs))
        create = self.P0.conj().T @ (m @ self.xi)
        annihilate = (self.xi.conj() @ m) @ self.P0
        replace = self.P0.conj().T @ m @ self.P0
        return self.phi(coeffs), create, annihilate, replace


def matrix_factor(m, density=None, name=None) -> FreeFactor:
    """M_m with state tr(rho .); default rho = I/m (the normalized trace)."""
    if density is None:
        density = np.eye(m) / m
    rho = np.asarray(density, dtype=complex)
    n = m * m
    mult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for a in range(m):
        for b in range(m):
            star[a * m + b, b * m + a] = 1.0
            for c in range(m):
                mult[a * m + b, b * m + c, a * m + c] = 1.0
    unit = np.zeros(n, dtype=complex)
    for a in range(m):
        unit[a * m + a] = 1.0
    state = np.array([rho[b, a] for a in range(m) for b in range(m)])
    return FreeFactor(mult, unit, star, state, name=name or "M%d" % m)


def z2_factor() -> FreeFactor:
    """C(Z2) with the uniform state; the centred symmetry is (1, -1)."""
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[1, 1, 1] = 1.0
    unit = np.ones(2, dtype=complex)
    star = np.eye(2, dtype=complex)
    state = np.array([0.5, 0.5], dtype=complex)
    return FreeFactor(mult, unit, star, state, name="c_z2")


def z2_symmetry() -> np.ndarray:
    return np.array([1.0, -1.0], dtype=complex)


def factor_from_quantum_group(G) -> FreeFactor:
    """The full algebra of a finite quantum group with its Haar state."""
    return FreeFactor(G.mult, G.unit, G.star, G.haar, name=G.name)


# ---------------------------------------------------------------------------
# Fock space over alternating words


def fock_dimension(dims0, max_len) -> int:
    N = len(dims0)
    total = 1
    layer = {i: dims0[i] for i in range(N)}
    for _ in range(max_len):
        total += sum(layer.values())
        layer = {i: dims0[i] * sum(v for j, v in layer.items() if j != i)
                 for i in range(N)}
    return total


class FockSpace:
    """Word basis of the truncated free product and per-factor index maps.

    Word k is stored as integers: ``first[k]`` (its first factor, -1 for the
    vacuum), ``slot[k]`` (the slot of its first letter in that factor's
    frame) and ``rest[k]`` (the index of the word without its first letter).
    Layer L + 1 lists, for each factor i in turn, the layer-L words that do
    not start with i, each followed by every slot, so the words that start
    with i are contiguous within a layer, one row of slots per rest.
    ``words`` and ``index`` give the same basis as tuples; they are built on
    first use, and nothing in qglab reads them.
    """

    def __init__(self, factors, max_len, dim_cap=DEFAULT_DIM_CAP):
        if max_len < 1:
            raise StructuralError("max_len must be >= 1")
        self.factors = list(factors)
        self.max_len = int(max_len)
        dims0 = [f.dim0 for f in self.factors]
        dim = fock_dimension(dims0, max_len)
        if dim > dim_cap:
            raise BudgetError("Fock dimension %d exceeds the cap %d"
                              % (dim, dim_cap))
        N = len(self.factors)
        self.dim = dim
        self.first = np.empty(dim, dtype=int)
        self.slot = np.empty(dim, dtype=int)
        self.rest = np.empty(dim, dtype=int)
        self.first[0] = self.slot[0] = self.rest[0] = -1
        sizes = [1]
        lo, hi = 0, 1
        for _ in range(max_len):
            at = hi
            for i in range(N):
                parents = lo + np.nonzero(self.first[lo:hi] != i)[0]
                d = dims0[i]
                end = at + len(parents) * d
                self.first[at:end] = i
                self.slot[at:end] = np.tile(np.arange(d), len(parents))
                self.rest[at:end] = np.repeat(parents, d)
                at = end
            lo, hi = hi, at
            sizes.append(hi - lo)
        self.lengths = np.repeat(np.arange(max_len + 1), sizes)
        # per-factor index arrays driving the sparse assembly
        self._prepend = []
        self._first = []
        for i, d in enumerate(dims0):
            kids = np.nonzero(self.first == i)[0]
            src = np.nonzero((self.first != i) & (self.lengths < max_len))[0]
            self._prepend.append((src, kids.reshape(len(src), d)))
            fslot = self.slot[kids]
            frepl = (kids - fslot)[:, None] + np.arange(d)
            self._first.append((kids, fslot, self.rest[kids], frepl))

    @cached_property
    def words(self):
        """The basis as tuples ((factor, slot), ...), the vacuum being ()."""
        words = [()]
        for f, s, r in zip(self.first[1:].tolist(), self.slot[1:].tolist(),
                           self.rest[1:].tolist()):
            words.append(((f, s),) + words[r])
        return words

    @cached_property
    def index(self):
        """word tuple -> basis index."""
        return {w: k for k, w in enumerate(self.words)}

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def zone_size(self, domain_len=None) -> int:
        """K_D, the number of words of length <= domain_len (default: the
        exact action zone max_len - 1); they are the first K_D indices."""
        if domain_len is None:
            domain_len = self.max_len - 1
        if domain_len > self.max_len - 1:
            raise StructuralError("domain_len %d exceeds the exact action zone %d"
                                  % (domain_len, self.max_len - 1))
        return int(np.searchsorted(self.lengths, domain_len, side="right"))


@dataclass
class FreeOperator:
    """P pi_i(a) P on a FockSpace."""

    # one field, but kept as a wrapper: callers (perfbench too) read .matrix
    matrix: sp.csr_matrix


def free_action(F: FockSpace, i: int, coeffs) -> FreeOperator:
    """The truncated free-product action of element `coeffs` of factor i."""
    if not 0 <= i < len(F.factors):
        raise StructuralError("factor index %d out of range" % i)
    f = F.factors[i]
    coeffs = np.asarray(coeffs, dtype=complex)
    phi, create, annihilate, replace = f.action_data(coeffs)
    rows, cols, vals = [], [], []
    # identity-component on the vacuum and on words starting elsewhere
    other = np.nonzero(F.first != i)[0]
    if abs(phi) > 0:
        rows.append(other)
        cols.append(other)
        vals.append(np.full(len(other), phi, dtype=complex))
    src, dst = F._prepend[i]
    for p in range(f.dim0):
        if len(src) and abs(create[p]) > 0:
            rows.append(dst[:, p])
            cols.append(src)
            vals.append(np.full(len(src), create[p], dtype=complex))
    fsrc, fslot, frest, frepl = F._first[i]
    if len(fsrc):
        for p in range(f.dim0):
            vv = replace[p, fslot]
            rows.append(frepl[:, p])
            cols.append(fsrc)
            vals.append(vv)
        rows.append(frest)
        cols.append(fsrc)
        vals.append(annihilate[fslot])
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:
        rows = cols = np.zeros(0, dtype=int)
        vals = np.zeros(0, dtype=complex)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(F.dim, F.dim)).tocsr()
    return FreeOperator(m)


def build_fock(factors, max_len, dim_cap=DEFAULT_DIM_CAP) -> FockSpace:
    return FockSpace(factors, max_len, dim_cap=dim_cap)


def vacuum_state(F: FockSpace, operators):
    """<Omega | (op_1 ... op_m) Omega>; exact when m <= max_len.

    Returns (value, exact): products longer than the truncation depth are
    flagged approximate rather than rejected.
    """
    operators = list(operators)
    v = F.vacuum()
    for op in reversed(operators):
        v = op.matrix @ v
    exact = len(operators) <= F.max_len
    return complex(v[0]), exact


# ---------------------------------------------------------------------------
# Certified norms of compressions


def compression_norm(m, F: FockSpace, domain_len=None, tol=1e-8,
                     seed=0) -> float:
    """Norm of the compression of the operator m on F to words of length
    <= domain_len (default: the exact zone), by power iteration on m*m;
    every reported value is a certified lower bound on the true operator
    norm because the compressed action zone is exact."""
    if m.shape != (F.dim, F.dim):
        raise StructuralError("operator shape %s is not (%d, %d)"
                              % (m.shape, F.dim, F.dim))
    K = F.zone_size(domain_len)
    return _largest_singular_value(m.tocsr()[:K, :K], tol=tol, seed=seed)


def _largest_singular_value(sub, tol=1e-8, max_iter=2000, seed=0) -> float:
    n = sub.shape[0]
    if n == 0:
        return 0.0
    if n <= 200:
        return float(np.linalg.norm(sub.toarray(), 2))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    subH = sub.conj().T.tocsr()
    best = 0.0
    prev = 0.0
    converged = False
    for it in range(max_iter):
        w = sub @ v
        sigma = float(np.linalg.norm(w))
        best = max(best, sigma)
        v = subH @ w
        nv = np.linalg.norm(v)
        if nv == 0:
            return best
        v /= nv
        if it > 4 and abs(sigma - prev) <= tol * max(1.0, sigma):
            converged = True
            break
        prev = sigma
    lanczos_error = None
    if not converged:
        try:
            gram = spla.LinearOperator(
                (n, n), matvec=lambda y: subH @ (sub @ y), dtype=complex)
            vals = spla.eigsh(gram, k=1, which="LA",
                              v0=np.ascontiguousarray(v), return_eigenvectors=False,
                              maxiter=300, tol=1e-10)
            best = max(best, float(np.sqrt(max(vals[0].real, 0.0))))
            converged = True
        except spla.ArpackError as exc:    # ArpackNoConvergence included
            lanczos_error = str(exc)
    if not converged:
        raise ConvergenceError(
            "power iteration did not converge",
            diagnostics={"iterations": max_iter, "last": prev, "best": best,
                         "tol": tol, "lanczos_error": lanczos_error})
    return best


def amplified_sum(pairs, F: FockSpace):
    """The compression of sum_i op_i (x) a_i to the exact zone, amplified
    from the single actions sliced to it, with the amplification dimension;
    the a_i are matrix coefficients (scalars allowed)."""
    K = F.zone_size()
    total = None
    amp = None
    for op, a in pairs:
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        if amp is None:
            amp = a.shape[0]
        elif a.shape[0] != amp:
            raise StructuralError("inconsistent amplification dimensions")
        term = sp.kron(op.matrix[:K, :K], sp.csr_matrix(a), format="csr")
        total = term if total is None else total + term
    return total, amp


# ---------------------------------------------------------------------------
# Khintchine inequality checks


def khintchine_check(a_family, x_family, F: FockSpace, seed=0,
                     tol=1e-8) -> dict:
    """Certified two-sided probe of the free Khintchine inequality.

    LHS_cert = compressed norm of sum_i a_i (x) x_i (a lower bound on the
    true norm); RHS_max = the unconditional maximum of the three terms.  The
    inequality LHS_cert <= 3 RHS_max is fully certified; the reverse
    direction RHS_max <= LHS_cert + slack is reported, not asserted.
    """
    if len(a_family) != len(x_family):
        raise StructuralError("family lengths differ")
    for i, coeffs in x_family:
        if abs(F.factors[i].phi(coeffs)) > 1e-10:
            raise StructuralError("element of factor %d is not centred" % i)
    # one full free action at a time: each is sliced, then dropped
    ops = (free_action(F, i, coeffs) for i, coeffs in x_family)
    amp, k = amplified_sum(zip(ops, a_family), F)
    lhs = _largest_singular_value(amp, seed=seed, tol=tol)
    term1 = 0.0
    s_col = np.zeros((k, k), dtype=complex)
    s_row = np.zeros((k, k), dtype=complex)
    for a, (i, coeffs) in zip(a_family, x_family):
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        f = F.factors[i]
        term1 = max(term1, float(np.linalg.norm(a, 2)) * f.cstar_norm(coeffs))
        xs = f.star_coeffs(coeffs)
        s_col += a.conj().T @ a * f.phi(f.mult_coeffs(xs, coeffs))
        s_row += a @ a.conj().T * f.phi(f.mult_coeffs(coeffs, xs))
    term2 = float(np.sqrt(np.linalg.norm(s_col, 2)))
    term3 = float(np.sqrt(np.linalg.norm(s_row, 2)))
    rhs = max(term1, term2, term3)
    return {
        "lhs_cert": lhs,
        "rhs_max": rhs,
        "terms": [term1, term2, term3],
        "upper_certified": lhs <= 3.0 * rhs + 1e-8,
        "lower_slack": max(0.0, rhs - lhs),
        "ratio": lhs / rhs if rhs > 0 else float("nan"),
    }


# ---------------------------------------------------------------------------
# Norm equivalence on single-irrep coefficient spans


def norm_equivalence(F: FockSpace, coeff_basis, sample_count=100, seed=0,
                     tol=1e-8) -> dict:
    """Compare the ambient norm with the vacuum-vector norm on the span of
    one irreducible coefficient space copied across the factors.

    coeff_basis: list of coefficient vectors (in the common factor's basis)
    spanning the coefficient space; every factor must carry the same algebra.
    C2 is exact (a ratio of two quadratic forms); C1 is the maximal ratio of
    the C*-norm to the vacuum norm over the space.  C1 is exact when the
    space is one-dimensional.  Otherwise ``C1_bracket`` = (lower, upper):
    the lower end is the best of 64 seeded samples, the upper end the
    certified row/column bound min(||sum_t l(b_t)* l(b_t)||, ||sum_t l(b_t)
    l(b_t)*||)^(1/2) over a basis b_t whose vacuum vectors are orthonormal,
    and ``C1`` and ``bound`` use the upper end.
    """
    f0 = F.factors[0]
    B = np.stack([np.asarray(b, dtype=complex) for b in coeff_basis], axis=1)
    for b in coeff_basis:
        if abs(f0.phi(b)) > 1e-10:
            raise StructuralError("coefficient space is not centred")
    # Gram forms of Lambda(x) and Lambda(x*)
    lam = f0.gns().lambda_map
    V1 = lam @ B                         # columns Lambda(b_t)
    G1 = V1.conj().T @ V1
    Bs = np.stack([f0.star_coeffs(B[:, t]) for t in range(B.shape[1])], axis=1)
    V2 = lam @ Bs
    G2 = V2.conj().T @ V2
    import scipy.linalg as sla
    C2 = float(np.sqrt(max(sla.eigh(G2, G1, eigvals_only=True))))
    dim_space = B.shape[1]
    rng = np.random.default_rng(seed)
    if dim_space == 1:
        C1 = f0.cstar_norm(B[:, 0]) / float(np.linalg.norm(V1[:, 0]))
        C1_lower = C1
    else:
        C1_lower = 0.0
        G1_isqrt = sla.fractional_matrix_power(G1, -0.5)
        for _ in range(64):
            y = rng.standard_normal(dim_space) + 1j * rng.standard_normal(dim_space)
            y /= np.linalg.norm(y)
            c = G1_isqrt @ y
            C1_lower = max(C1_lower, f0.cstar_norm(B @ c))
        # ||sum_t c_t l(b_t)|| <= ||c|| ||column||, and likewise for the row
        lams = [f0.gns().left_action(f0.element(b)) for b in (B @ G1_isqrt).T]
        col = sum(m.conj().T @ m for m in lams)
        row = sum(m @ m.conj().T for m in lams)
        C1 = float(np.sqrt(min(np.linalg.norm(col, 2), np.linalg.norm(row, 2))))
    bound = 3.0 * max(C1, C2)
    N = len(F.factors)
    ratios = []
    for _ in range(sample_count):
        coeffs = rng.standard_normal((N, dim_space)) \
            + 1j * rng.standard_normal((N, dim_space))
        ops = [free_action(F, i, B @ coeffs[i]) for i in range(N)]
        total = sum(op.matrix for op in ops)
        xomega = total @ F.vacuum()
        nv = float(np.linalg.norm(xomega))
        if nv < 1e-12:
            continue
        cert = compression_norm(total, F, seed=seed, tol=tol)
        ratios.append(cert / nv)
    return {
        "C1": C1,
        "C1_bracket": (C1_lower, C1),
        "C2": C2,
        "bound": bound,
        "max_ratio": max(ratios) if ratios else 0.0,
        "ratios_ok": all(r <= bound + 1e-6 for r in ratios),
        "samples": len(ratios),
    }


# ---------------------------------------------------------------------------
# The bounded-but-not-completely-bounded representation


class NonCbRep:
    """pi(omega) = sum_i omega(u_i) (e_ii + e_i0) over N free symmetries.

    The generator V = sum_i u_i (x) (e_ii + e_i0) exists as a concrete
    operator because N is finite; its norm grows like sqrt(N) while the
    representation norm stays below the constant 6 = ||theta|| * 3 coming
    from the Khintchine bound with both coefficient constants equal to one.
    ``generator()`` is V compressed to the exact zone, which the norms read.
    """

    def __init__(self, F: FockSpace):
        self.space = F
        self.N = len(F.factors)
        u = z2_symmetry()
        for f in F.factors:
            if f.dim != u.shape[0]:
                raise StructuralError("symmetry coefficients do not fit the factor")
            if abs(f.phi(u)) > 1e-12:
                raise StructuralError("symmetry must be centred")
        self.u_ops = [free_action(F, i, u) for i in range(self.N)]
        # the family stacked without its empty rows: row k of `stack` is row
        # word[k] of u_{owner[k]}, so one matvec gives every u_i xi and one
        # adjoint matvec sums the u_i* eta_i; by_owner and by_word sum the
        # live rows per operator and per word
        rows = [np.flatnonzero(np.diff(op.matrix.indptr)) for op in self.u_ops]
        self.stack = sp.vstack([op.matrix[r] for op, r in zip(self.u_ops, rows)],
                               format="csr")
        self.owner = np.repeat(np.arange(self.N), [len(r) for r in rows])
        self.word = np.concatenate(rows)
        self.stack_h = self.stack.conj().T.tocsr()
        live = len(self.word)
        ones = np.ones(live, dtype=complex)
        cols = np.arange(live)
        self.by_owner = sp.csr_matrix((ones, (self.owner, cols)),
                                      shape=(self.N, live))
        self.by_word = sp.csr_matrix((ones, (self.word, cols)),
                                     shape=(F.dim, live))
        self.theta_units = [self._theta_unit(i) for i in range(1, self.N + 1)]

    def generator(self) -> sp.csr_matrix:
        """V compressed to the exact zone, on C^K (x) C^(N+1)."""
        return amplified_sum(zip(self.u_ops, self.theta_units), self.space)[0]

    def _theta_unit(self, i):
        m = np.zeros((self.N + 1, self.N + 1), dtype=complex)
        m[i, i] = 1.0
        m[i, 0] = 1.0
        return m

    def phi_map(self, xi, eta) -> np.ndarray:
        """(omega(u_i))_i for the vector functional omega = omega_{xi,eta}."""
        return self.by_owner @ ((self.stack @ xi) * np.conj(eta)[self.word])

    def theta0(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        return sum(a[i] * self.theta_units[i] for i in range(self.N))

    def pi_rep(self, xi, eta) -> np.ndarray:
        return self.theta0(self.phi_map(xi, eta))

    def coefficient_expansion(self, alpha, beta) -> np.ndarray:
        """The free-symmetry coefficients c_i of T^{pi~}_{alpha,beta}:
        the generator of pi~ is V* with entries (V*)_{ii} = u_i and
        (V*)_{0j} = u_j, so c_i = alpha_i (conj beta_i + conj beta_0)."""
        a = np.asarray(alpha, dtype=complex)
        b = np.asarray(beta, dtype=complex)
        return a[1:] * (np.conj(b[1:]) + np.conj(b[0]))


def pi_norm_search(rep: NonCbRep, seed=0, tol=1e-8) -> float:
    """Certified lower bound on ||pi|| by ascent over vector functionals:
    6 random starts of at most 25 steps each.

    Vector functionals at unit vectors of the truncated space have dual norm
    at most one and their values on the symmetries are exact, so every
    evaluated candidate is a true lower bound.
    """
    F = rep.space
    rng = np.random.default_rng(seed)
    best = 0.0
    K = F.zone_size()
    for _ in range(6):
        xi = np.zeros(F.dim, dtype=complex)
        eta = np.zeros(F.dim, dtype=complex)
        xi[:K] = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        eta[:K] = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        prev = 0.0
        for _ in range(25):
            images = rep.stack @ xi           # every u_i xi on its live rows
            piw = rep.theta0(rep.by_owner @ (images * np.conj(eta)[rep.word]))
            val = float(np.linalg.norm(piw, 2))
            best = max(best, val)
            U, _, Vh = np.linalg.svd(piw)
            ell, r = U[:, 0], Vh[0].conj()
            weights = np.array([np.vdot(ell, m @ r) for m in rep.theta_units])
            # M = sum_i conj(w_i) u_i: M xi from the images, M* eta from
            # one adjoint matvec
            w = rep.by_word @ (np.conj(weights)[rep.owner] * images)
            nw = np.linalg.norm(w)
            if nw < 1e-14:
                break
            eta = w / nw
            w2 = rep.stack_h @ (weights[rep.owner] * eta[rep.word])
            nw2 = np.linalg.norm(w2)
            if nw2 < 1e-14:
                break
            xi = w2 / nw2
            if abs(val - prev) < tol:
                break
            prev = val
    return best


def column_norm(rep: NonCbRep, seed=0, tol=1e-10) -> float:
    """Certified norm of the creation column sum_i u_i (x) e_{i0}; exactly sqrt(N)."""
    mats = []
    for i in range(1, rep.N + 1):
        m = np.zeros((rep.N + 1, rep.N + 1), dtype=complex)
        m[i, 0] = 1.0
        mats.append(m)
    col, _ = amplified_sum(zip(rep.u_ops, mats), rep.space)
    return _largest_singular_value(col, seed=seed, tol=tol)


def cb_vs_bounded_probe(F: FockSpace, seed=0, tol=1e-8) -> dict:
    """Quantify the gap: cb norm grows like sqrt(N), plain norm stays <= 6."""
    rep = NonCbRep(F)
    N = rep.N
    cb_lower = _largest_singular_value(rep.generator(), seed=seed, tol=tol)
    col = column_norm(rep, seed=seed)
    floor = float(np.sqrt(N)) - 1.0
    pi_lower = pi_norm_search(rep, seed=seed, tol=tol)
    alpha = np.zeros(N + 1)
    alpha[1:] = 1.0 / np.sqrt(N)
    beta = np.zeros(N + 1)
    beta[0] = 1.0
    fourier_l1 = float(np.sum(np.abs(rep.coefficient_expansion(alpha, beta))))
    return {
        "copies": N,
        "cb_lower": cb_lower,
        "cb_floor": floor,
        "column_norm": col,
        "bounded_upper": 6.0,
        "pi_lower_search": pi_lower,
        "multiplier_l1_lower": fourier_l1,
        "rep": rep,
    }
