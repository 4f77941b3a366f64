"""Truncated reduced free products: Fock space over alternating words of
centred GNS vectors, sparse free actions, certified norm lower bounds, and
the bounded-but-not-completely-bounded representation built from free
symmetries.

Truncation semantics: operators are stored as P pi(a) P for the orthogonal
projection P onto words of length <= max_len.  On the subspace of words of
length <= max_len - 1 every single action is exact, so norms of compressions
to that zone are certified lower bounds for the true norms; no upper bounds
are ever claimed from truncated data.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The algebra core (coefficient maps and GNS data) comes from
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

    def _gns_matrix(self, coeffs):
        return self.gns().left_action(self.element(coeffs))

    def phi(self, coeffs) -> complex:
        return complex(np.dot(self.state, np.asarray(coeffs, dtype=complex)))

    def cstar_norm(self, coeffs) -> float:
        return float(np.linalg.norm(self._gns_matrix(coeffs), 2))

    def action_data(self, coeffs):
        m = self._gns_matrix(coeffs)
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
    """Word basis of the truncated free product and per-factor index maps."""

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
        words = [()]
        by_len = [[()]]
        for _ in range(max_len):
            layer = []
            for i in range(N):
                for w in by_len[-1]:
                    if w and w[0][0] == i:
                        continue
                    for p in range(dims0[i]):
                        layer.append(((i, p),) + w)
            by_len.append(layer)
            words.extend(layer)
        self.words = words
        self.index = {w: k for k, w in enumerate(words)}
        self.dim = len(words)
        self.lengths = np.array([len(w) for w in words], dtype=int)
        # per-factor index arrays driving the sparse assembly
        self._prepend = []
        self._first = []
        idx = self.index
        for i in range(N):
            src, dst = [], []
            for k, w in enumerate(words):
                if (w and w[0][0] == i) or len(w) >= max_len:
                    continue
                src.append(k)
                dst.append([idx[((i, p),) + w] for p in range(dims0[i])])
            self._prepend.append((np.array(src, dtype=int),
                                  np.array(dst, dtype=int).reshape(len(src), dims0[i])))
            fsrc, fslot, frest, frepl = [], [], [], []
            for k, w in enumerate(words):
                if not w or w[0][0] != i:
                    continue
                fsrc.append(k)
                fslot.append(w[0][1])
                rest = w[1:]
                frest.append(idx[rest])
                frepl.append([idx[((i, p),) + rest] for p in range(dims0[i])])
            self._first.append((np.array(fsrc, dtype=int),
                                np.array(fslot, dtype=int),
                                np.array(frest, dtype=int),
                                np.array(frepl, dtype=int).reshape(len(fsrc), dims0[i])))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def length_mask(self, max_word_len) -> np.ndarray:
        return self.lengths <= max_word_len


@dataclass
class FreeOperator:
    """P pi_i(a) P on a FockSpace, with the data needed for norm bookkeeping."""

    space: FockSpace
    factor_index: int
    coeffs: np.ndarray
    matrix: sp.csr_matrix
    phi: complex
    cstar_norm: float

    def __matmul__(self, v):
        return self.matrix @ v

    def adjoint(self):
        f = self.space.factors[self.factor_index]
        return free_action(self.space, self.factor_index, f.star_coeffs(self.coeffs))


def free_action(F: FockSpace, i: int, coeffs) -> FreeOperator:
    """The truncated free-product action of element `coeffs` of factor i."""
    if not 0 <= i < len(F.factors):
        raise StructuralError("factor index %d out of range" % i)
    f = F.factors[i]
    coeffs = np.asarray(coeffs, dtype=complex)
    phi, create, annihilate, replace = f.action_data(coeffs)
    rows, cols, vals = [], [], []
    # identity-component on the vacuum and on words starting elsewhere
    other = np.nonzero([not w or w[0][0] != i for w in F.words])[0]
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
    return FreeOperator(F, i, coeffs, m, phi, f.cstar_norm(coeffs))


def build_fock(factors, max_len, dim_cap=DEFAULT_DIM_CAP) -> FockSpace:
    return FockSpace(factors, max_len, dim_cap=dim_cap)


def vacuum_state(F: FockSpace, operators):
    """<Omega | (op_1 ... op_m) Omega>; exact when m <= max_len.

    Returns (value, exact): products longer than the truncation depth are
    flagged approximate rather than rejected.
    """
    v = F.vacuum()
    for op in reversed(list(operators)):
        v = op.matrix @ v
    exact = len(list(operators)) <= F.max_len
    return complex(v[0]), exact


# ---------------------------------------------------------------------------
# Certified norms of compressions


def _as_matrix(x):
    return x.matrix if isinstance(x, FreeOperator) else x


def compression_norm(x, F: FockSpace = None, domain_len=None, amp_dim=None,
                     tol=1e-8, max_iter=2000, seed=0) -> float:
    """Norm of the compression of x to words of length <= domain_len, by power
    iteration on x*x; every reported value is a certified lower bound on the
    true operator norm because the compressed action zone is exact."""
    m = _as_matrix(x)
    if F is None and isinstance(x, FreeOperator):
        F = x.space
    if F is None:
        raise StructuralError("compression_norm needs the Fock space")
    if domain_len is None:
        domain_len = F.max_len - 1
    if domain_len > F.max_len - 1:
        raise StructuralError("domain_len %d exceeds the exact action zone %d"
                              % (domain_len, F.max_len - 1))
    if amp_dim is None:
        amp_dim = m.shape[0] // F.dim
    if m.shape[0] != F.dim * amp_dim:
        raise StructuralError("operator size %d is not dim*amp" % m.shape[0])
    mask = np.repeat(F.length_mask(domain_len), amp_dim)
    keep = np.nonzero(mask)[0]
    sub = m.tocsr()[keep][:, keep]
    return _largest_singular_value(sub, tol=tol, max_iter=max_iter, seed=seed)


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
    """sum_i kron(op_i, a_i) for matrix coefficients a_i (scalars allowed)."""
    total = None
    amp = None
    for op, a in pairs:
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        if amp is None:
            amp = a.shape[0]
        elif a.shape[0] != amp:
            raise StructuralError("inconsistent amplification dimensions")
        term = sp.kron(_as_matrix(op), sp.csr_matrix(a), format="csr")
        total = term if total is None else total + term
    return total, amp


# ---------------------------------------------------------------------------
# Khintchine inequality checks


def khintchine_check(a_family, x_family, F: FockSpace, domain_len=None,
                     seed=0, tol=1e-8) -> dict:
    """Certified two-sided probe of the free Khintchine inequality.

    LHS_cert = compressed norm of sum_i a_i (x) x_i (a lower bound on the
    true norm); RHS_max = the unconditional maximum of the three terms.  The
    inequality LHS_cert <= 3 RHS_max is fully certified; the reverse
    direction RHS_max <= LHS_cert + slack is reported, not asserted.
    """
    if len(a_family) != len(x_family):
        raise StructuralError("family lengths differ")
    ops = []
    for i, coeffs in x_family:
        f = F.factors[i]
        if abs(f.phi(coeffs)) > 1e-10:
            raise StructuralError("element of factor %d is not centred" % i)
        ops.append(free_action(F, i, coeffs))
    amp, k = amplified_sum(list(zip(ops, a_family)), F)
    lhs = compression_norm(amp, F, domain_len=domain_len, amp_dim=k, seed=seed,
                           tol=tol)
    term1 = 0.0
    s_col = np.zeros((k, k), dtype=complex)
    s_row = np.zeros((k, k), dtype=complex)
    for a, op, (i, coeffs) in zip(a_family, ops, x_family):
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        f = F.factors[i]
        term1 = max(term1, float(np.linalg.norm(a, 2)) * op.cstar_norm)
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
    the C*-norm to the vacuum norm over the space, exact when the space is
    one-dimensional and otherwise estimated by seeded ascent.
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
    else:
        C1 = 0.0
        G1_isqrt = sla.fractional_matrix_power(G1, -0.5)
        for _ in range(64):
            y = rng.standard_normal(dim_space) + 1j * rng.standard_normal(dim_space)
            y /= np.linalg.norm(y)
            c = G1_isqrt @ y
            C1 = max(C1, f0.cstar_norm(B @ c))
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
    """

    def __init__(self, F: FockSpace, u_coeffs=None):
        self.space = F
        self.N = len(F.factors)
        u = z2_symmetry() if u_coeffs is None else np.asarray(u_coeffs, complex)
        for f in F.factors:
            if f.dim != u.shape[0]:
                raise StructuralError("symmetry coefficients do not fit the factor")
            if abs(f.phi(u)) > 1e-12:
                raise StructuralError("symmetry must be centred")
        self.u_coeffs = u
        self.u_ops = [free_action(F, i, u) for i in range(self.N)]
        self.theta_units = [self._theta_unit(i) for i in range(1, self.N + 1)]
        pairs = [(self.u_ops[i], self.theta_units[i]) for i in range(self.N)]
        self.V_tensor, self.amp_dim = amplified_sum(pairs, F)

    def _theta_unit(self, i):
        m = np.zeros((self.N + 1, self.N + 1), dtype=complex)
        m[i, i] = 1.0
        m[i, 0] = 1.0
        return m

    def phi_map(self, xi, eta) -> np.ndarray:
        """(omega(u_i))_i for the vector functional omega = omega_{xi,eta}."""
        return np.array([np.vdot(eta, op.matrix @ xi) for op in self.u_ops])

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


def build_non_cb_rep(N, F: FockSpace) -> NonCbRep:
    if len(F.factors) != N:
        raise StructuralError("Fock space has %d factors, expected %d"
                              % (len(F.factors), N))
    return NonCbRep(F)


def pi_norm_search(rep: NonCbRep, restarts=6, inner=25, seed=0, tol=1e-8) -> float:
    """Certified lower bound on ||pi|| by ascent over vector functionals.

    Vector functionals at unit vectors of the truncated space have dual norm
    at most one and their values on the symmetries are exact, so every
    evaluated candidate is a true lower bound.
    """
    F = rep.space
    rng = np.random.default_rng(seed)
    best = 0.0
    keep = np.nonzero(F.length_mask(F.max_len - 1))[0]
    for _ in range(restarts):
        xi = np.zeros(F.dim, dtype=complex)
        eta = np.zeros(F.dim, dtype=complex)
        xi[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        eta[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        prev = 0.0
        for _ in range(inner):
            piw = rep.pi_rep(xi, eta)
            val = float(np.linalg.norm(piw, 2))
            best = max(best, val)
            U, _, Vh = np.linalg.svd(piw)
            ell, r = U[:, 0], Vh[0].conj()
            weights = np.array([np.vdot(ell, m @ r) for m in rep.theta_units])
            M = sum(np.conj(weights[i]) * rep.u_ops[i].matrix
                    for i in range(rep.N))
            w = M @ xi
            if np.linalg.norm(w) < 1e-14:
                break
            eta = w / np.linalg.norm(w)
            w2 = M.conj().T @ eta
            if np.linalg.norm(w2) < 1e-14:
                break
            xi = w2 / np.linalg.norm(w2)
            if abs(val - prev) < tol:
                break
            prev = val
    return best


def column_norm(rep: NonCbRep, seed=0, tol=1e-10) -> float:
    """Certified norm of the creation column sum_i u_i (x) e_{i0}; exactly sqrt(N)."""
    F = rep.space
    mats = []
    for i in range(1, rep.N + 1):
        m = np.zeros((rep.N + 1, rep.N + 1), dtype=complex)
        m[i, 0] = 1.0
        mats.append(m)
    col, k = amplified_sum(list(zip(rep.u_ops, mats)), F)
    return compression_norm(col, F, amp_dim=k, seed=seed, tol=tol)


def cb_vs_bounded_probe(N, F: FockSpace, seed=0, tol=1e-8) -> dict:
    """Quantify the gap: cb norm grows like sqrt(N), plain norm stays <= 6."""
    rep = build_non_cb_rep(N, F)
    cb_lower = compression_norm(rep.V_tensor, F, amp_dim=rep.amp_dim,
                                seed=seed, tol=tol)
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
