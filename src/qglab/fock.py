"""Truncated reduced free products: Fock space over alternating words of
centred GNS vectors, sparse free actions, certified norm lower bounds, and
the bounded-but-not-completely-bounded representation built from free
symmetries.

Words are integer arrays, not tuples, laid out layer by layer so that the
words starting with one factor are contiguous: the table of first factors,
the lengths and, per factor, the words that do not start with it beside
the words made by prepending each slot, all int32 below 2^31 words.  The
slot and the remainder of a word are read from its place in those maps, so
they hold no table of their own.  ``pi_norm_search`` builds the free
symmetries of the non-cb representation on the whole space, once each, and
applies the Kesten sum sum_i u_i to the layer sums of the words one action
at a time: its top eigenvector, a combination of them, gives the symmetric
vector functional behind the certified lower bound on ||pi||.  Their
exact-zone corners, from ``_zone_actions``, give the generator and the
creation column.
``ascent.rank_one_ascent`` searches a coefficient span for the lower end of
the C1 bracket.

Truncation semantics: operators are stored as P pi(a) P for the orthogonal
projection P onto words of length <= max_len.  On the subspace of words of
length <= max_len - 1 every single action is exact, so norms of compressions
to that zone are certified lower bounds for the true norms; no upper bounds
are ever claimed from truncated data.

Zone first: words are stored layer by layer, so the K words of length
<= max_len - 1 are the first K indices, and the compression of
sum_i op_i (x) a_i to them is sum_i op_i[:K, :K] (x) a_i.  ``amplified_sum``
is the one amplification path: it slices each single action to the exact
zone and places every amplified term once into their union pattern, so the
Khintchine probe, the non-cb generator and its creation column never form
an amplified operator on the top layer, which they do not read (at N=16,
L=4 that layer holds 54,000 of the 57,857 words).  ``_zone_actions`` is the
one source of zone operators: it builds actions on the depth-(max_len - 1)
space, whose words are the zone's, so the Khintchine probe,
``norm_equivalence`` and the non-cb generator and column never assemble that
layer.  ``pi_norm_search`` builds whole-space actions as well, because the
Kesten sum behind the ||pi|| bound acts on the whole space.  All of these
are the same CSR matrices as the compressions of the full operators, so
every norm is unchanged bit for bit.

Arithmetic: a free action is stored real when every value it places is
real, as for the free symmetries, and complex otherwise; an amplified sum
is stored complex.  The real parts are the bits the complex entries would
hold, and every solve reads them as before: a norm of more than
``DENSE_ROWS`` rows comes from a plain two-pass Lanczos solve on m*m, in
real arithmetic when every stored imaginary part is exactly 0 (the free
symmetries, their sums and the non-cb generator); the first pass keeps only
the tridiagonal, the second reruns the recurrence to sum the Ritz vector,
and m* is applied through the transpose view of m's CSR arrays, so memory
stays O(n) beside m itself.  The dense SVD of an operator of at most
``DENSE_ROWS`` rows runs in complex arithmetic, real operators cast.  The
Kesten sum needs no solve: its top eigenvector lies in the span of the
layer sums, where S is an (L + 1) x (L + 1) matrix.
``norm_equivalence`` builds the action of each basis element in each factor
once and takes each sample as their linear combination, formed and solved
one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .ascent import OperatorStack, rank_one_ascent
from .builders import builtin_instance
from .errors import DEFAULT_DIM_CAP, BudgetError, ConvergenceError, StructuralError
from .qgroup import StarAlgebra

# operators of up to this many rows are solved densely, larger ones by Lanczos
DENSE_ROWS = 200
# a Lanczos pass stops after this many steps, far above the 45 that the
# slowest solve of `qglab all` takes, and tests for convergence every
# LANCZOS_CHECK steps
LANCZOS_STEPS = 1500
LANCZOS_CHECK = 5
_EPS23 = np.finfo(float).eps ** (2 / 3)
# ``amplified_sum`` merges the zone rows in runs of about this many entries
AMPLIFY_CHUNK = 1 << 13


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


def matrix_factor(m) -> FreeFactor:
    """M_m with the normalized trace as its state."""
    n = m * m
    mult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for a in range(m):
        for b in range(m):
            star[a * m + b, b * m + a] = 1.0
            for c in range(m):
                mult[a * m + b, b * m + c, a * m + c] = 1.0
    unit = np.eye(m, dtype=complex).reshape(-1)
    return FreeFactor(mult, unit, star, unit / m, name="M%d" % m)


# The builtin C(Z2), built once when the Fock layer loads, so that a Z2
# factor costs no quantum-group build and a Fock pass calls no builder.
_C_Z2 = builtin_instance("c_z2")


def z2_factor() -> FreeFactor:
    """The free factor of the builtin C(Z2): the uniform Haar state, and
    the centred symmetry (1, -1)."""
    return factor_from_quantum_group(_C_Z2)


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

    ``first[k]`` is the first factor of word k (-1 for the vacuum) and
    ``lengths[k]`` its length.  Layer L + 1 lists, for each factor i in
    turn, the layer-L words that do not start with i, each followed by every
    slot of i's frame, so the words that start with i are contiguous within
    a layer, one row of slots per parent.  ``_prepend[i]`` = (src, dst)
    holds that row structure: src lists the words of length < max_len that
    do not start with i, and row j of dst the words (i, p) src[j], p = 0,
    1, ..., for every slot p.  Every row of dst is a run of consecutive
    indices, and dst lists every word that starts with i, so the slot and
    the remainder of such a word are read from its position in dst: the
    free actions need no other table.  Every table is int32 below 2^31
    words (int64 from there), 4 bytes per word for ``first`` and for
    ``lengths``, and about 4 bytes more for the (src, dst) pairs."""

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
        index = np.int32 if dim < 2 ** 31 else np.int64
        self.dim = dim
        self.first = np.empty(dim, dtype=index)
        self.first[0] = -1
        sizes = [1]
        lo, hi = 0, 1
        for _ in range(max_len):
            at = hi
            for i in range(N):
                parents = int(np.count_nonzero(self.first[lo:hi] != i))
                end = at + parents * dims0[i]
                self.first[at:end] = i
                at = end
            lo, hi = hi, at
            sizes.append(hi - lo)
        self.lengths = np.repeat(np.arange(max_len + 1, dtype=index), sizes)
        K = dim - sizes[-1]
        self._prepend = []
        for i, d in enumerate(dims0):
            src = np.flatnonzero(self.first[:K] != i).astype(index)
            dst = np.flatnonzero(self.first == i).astype(index)
            self._prepend.append((src, dst.reshape(len(src), d)))

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
    """The truncated free-product action of element `coeffs` of factor i,
    stored real when every value it places is real, else complex."""
    if not 0 <= i < len(F.factors):
        raise StructuralError("factor index %d out of range" % i)
    data = F.factors[i].action_data(np.asarray(coeffs, dtype=complex))
    if not any(np.any(np.imag(x)) for x in data):
        data = [np.real(x) for x in data]
    phi, create, annihilate, replace = data
    src, dst = F._prepend[i]
    n, d = dst.shape
    kids = dst.ravel()
    rows, cols, vals = [], [], []
    # identity-component on the vacuum and on words starting elsewhere
    if abs(phi) > 0:
        other = np.flatnonzero(F.first != i).astype(F.first.dtype)
        rows.append(other)
        cols.append(other)
        vals.append(np.full(len(other), phi))
    for p in range(d):
        if abs(create[p]) > 0:
            rows.append(dst[:, p])
            cols.append(src)
            vals.append(np.full(n, create[p]))
    # a word (i, q) w, the kids[j d + q], has remainder w = src[j] and slot q
    for p in range(d):
        rows.append(np.repeat(dst[:, p], d))
        cols.append(kids)
        vals.append(np.tile(replace[p], n))
    rows.append(np.repeat(src, d))
    cols.append(kids)
    vals.append(np.tile(annihilate, n))
    m = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(F.dim, F.dim)).tocsr()
    return FreeOperator(m)


def build_fock(factors, max_len, dim_cap=DEFAULT_DIM_CAP) -> FockSpace:
    return FockSpace(factors, max_len, dim_cap=dim_cap)


def vacuum_state(F: FockSpace, operators) -> complex:
    """<Omega | (op_1 ... op_m) Omega>, exact when m <= max_len; a longer
    product is evaluated on the truncated space, not rejected."""
    v = F.vacuum()
    for op in reversed(list(operators)):
        v = op.matrix @ v
    return complex(v[0])


# ---------------------------------------------------------------------------
# Certified norms of compressions


def compression_norm(m, F: FockSpace, domain_len=None, seed=0) -> float:
    """Norm of the compression of the operator m on F to words of length
    <= domain_len (default: the exact zone), by ``_largest_singular_value``:
    a dense SVD up to ``DENSE_ROWS`` rows, beyond that one seeded two-pass
    Lanczos solve on m*m evaluated at its Ritz vector.  Every reported value
    is ||m v|| at a unit vector v of the zone, a certified lower bound on
    the true operator norm because the compressed action zone is exact."""
    if m.shape != (F.dim, F.dim):
        raise StructuralError("operator shape %s is not (%d, %d)"
                              % (m.shape, F.dim, F.dim))
    K = F.zone_size(domain_len)
    return _largest_singular_value(m.tocsr()[:K, :K], seed=seed)


def _largest_singular_value(sub, seed=0) -> float:
    """Largest singular value of the square operator sub, by
    ``_largest_singular_values``."""
    if sub.shape[0] == 0:
        return 0.0
    return float(_largest_singular_values([sub], sub.shape[0], seed)[0])


def _largest_singular_values(subs, n, seed) -> np.ndarray:
    """Largest singular value of each n x n operator of the iterable subs
    (n >= 1), one operator at a time: up to ``DENSE_ROWS`` rows from a dense
    complex SVD (the bits of one batched SVD of them all, which would hold
    every dense operator at once); beyond, ||sub x|| / ||x|| at the Ritz
    vector x of the two-pass Lanczos solve ``_top_ritz_vector`` on sub* sub,
    to relative tolerance 1e-10, in real arithmetic when every stored entry
    of sub is real.  The Ritz value itself is never reported, so every value
    is a norm attained at a concrete vector."""
    if n <= DENSE_ROWS:
        return np.array([np.linalg.svd(sub.toarray().astype(complex),
                                       compute_uv=False)[0] for sub in subs])
    norms = []
    for sub in subs:
        sub = _real_if_exact(sub)
        x = _top_ritz_vector(_gram_matvec(sub), n, seed, 1e-10, sub.dtype)
        norms.append(np.linalg.norm(sub @ x) / np.linalg.norm(x))
    return np.array(norms)


def _gram_matvec(sub):
    """y -> sub* sub y, with sub* applied through the transpose view of sub's
    CSR arrays: csc_matvec adds each output entry's terms in the order of
    the rows of sub, which is the order of the CSR copy of sub*, so no copy
    is made (a complex sub conjugates the vectors, not the entries)."""
    subT = sub.T
    if np.iscomplexobj(sub.data):
        return lambda y: (subT @ (sub @ y).conj()).conj()
    return lambda y: subT @ (sub @ y)


def _real_if_exact(m):
    """The sparse matrix m as a real one when every stored imaginary part is
    exactly zero (the same entries, so the same operator); else m itself."""
    if np.iscomplexobj(m.data) and not m.data.imag.any():
        return m.real
    return m


def _top_ritz_vector(matvec, n, seed, tol, dtype) -> np.ndarray:
    """The Ritz vector of the largest eigenvalue of the symmetric (dtype
    real) or Hermitian (dtype complex) operator A: y -> matvec(y) on R^n or
    C^n, by a plain Lanczos recurrence run twice from one seeded random unit
    vector, whose real part is drawn first (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 13).

    The first pass keeps only the tridiagonal T_k: the alpha_j and beta_j of
    A v_j = beta_j v_(j-1) + alpha_j v_j + beta_(j+1) v_(j+1).  Every
    ``LANCZOS_CHECK`` steps, and at once on a zero beta, it takes the top
    eigenpair (theta, s) of T_k and stops when beta_(k+1) |s_k| <=
    tol max(|theta|, eps^(2/3)), ARPACK's convergence test.  The second pass
    reruns the same recurrence from the kept alpha_j and beta_j, bit for
    bit, and sums x = sum_j s_j v_j, so a few vectors of length n are held
    whatever the step count.  No step reorthogonalizes: the pair is taken
    when it first converges, and the caller evaluates its norm at x, never
    theta.  After ``LANCZOS_STEPS`` steps without convergence a
    ``ConvergenceError`` carries the steps taken and the last residual
    beta_(k+1) |s_k|."""
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(n)
    if np.issubdtype(dtype, np.complexfloating):
        start = start + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    # alphas[j] = alpha_j, betas[j] = beta_j (beta_0 = 0)
    alphas, betas = [], [0.0]
    v_prev, v = 0.0, start
    for step in range(1, LANCZOS_STEPS + 1):
        w = matvec(v)
        alphas.append(np.vdot(v, w).real)
        w = _lanczos_residual(w, v, v_prev, alphas[-1], betas[-1])
        betas.append(float(np.sqrt(np.vdot(w, w).real)))
        if betas[-1] == 0 or step % LANCZOS_CHECK == 0 or step == LANCZOS_STEPS:
            theta, s = _top_tridiagonal_pair(alphas, betas[1:-1])
            residual = betas[-1] * abs(s[-1])
            if residual <= tol * max(abs(theta), _EPS23):
                break
        v_prev, v = v, w * (1.0 / betas[-1])
    else:
        raise ConvergenceError(
            "the Lanczos solve did not converge in %d steps" % LANCZOS_STEPS,
            diagnostics={"lanczos_steps": LANCZOS_STEPS,
                         "lanczos_residual": float(residual)})
    # the second pass: v_1, ..., v_(k-1) again, from the kept coefficients
    x = s[0] * start
    v_prev, v = 0.0, start
    for j in range(1, len(s)):
        w = _lanczos_residual(matvec(v), v, v_prev, alphas[j - 1], betas[j - 1])
        v_prev, v = v, w * (1.0 / betas[j])
        x += s[j] * v
    return x


def _lanczos_residual(w, v, v_prev, alpha, beta):
    """w - alpha v - beta v_prev, for w = A v, formed in w: one expression
    for both passes, so the second rebuilds the first's vectors bit for
    bit."""
    w -= alpha * v
    w -= beta * v_prev
    return w


def _top_tridiagonal_pair(alphas, betas):
    """The largest eigenvalue of the real symmetric tridiagonal matrix with
    diagonal alphas and off-diagonal betas, and a unit eigenvector."""
    k = len(alphas)
    theta, s = sla.eigh_tridiagonal(np.array(alphas), np.array(betas),
                                    select="i", select_range=(k - 1, k - 1))
    return float(theta[0]), s[:, 0]


def _zone_actions(F: FockSpace, elements):
    """The actions of the elements (i, coeffs) on the depth-(L - 1) space
    of F (depth 1 when L = 1), one at a time.  Its first K words are the
    exact zone of F, in the same order, so the [:K, :K] corners are the
    compressions of F's actions, the same CSR arrays bit for bit, and its
    words of length <= 1 carry every vacuum image.  The top layer of F,
    which no zone reads, is never assembled."""
    Z = F if F.max_len == 1 else FockSpace(F.factors, F.max_len - 1,
                                           dim_cap=F.dim)
    return (free_action(Z, i, coeffs).matrix for i, coeffs in elements)


def amplified_sum(pairs, F: FockSpace):
    """The compression of sum_i m_i (x) a_i to the exact zone, amplified from
    the CSR operators m_i on F (or on its zone) sliced to it, with the
    amplification dimension; the a_i are matrix coefficients (or scalars).

    The entries of every kron(m_i[:K, :K], a_i) are placed once into their
    union pattern and added there in term order: the same CSR arrays, bit
    for bit, as adding the CSR terms one after another, which keeps the
    first term's explicit zeros when it is the only one, adds +0 where a
    term has no entry and drops each exact zero it makes.  The zone rows
    are merged in runs of about ``AMPLIFY_CHUNK`` entries over all terms,
    so the working arrays stay that size whatever the zone."""
    K = F.zone_size()
    terms, amp = [], None
    for m, a in pairs:
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        if amp is None:
            amp = a.shape[0]
        elif a.shape[0] != amp:
            raise StructuralError("inconsistent amplification dimensions")
        p, q = np.nonzero(a)
        terms.append((m, p, q, a[p, q]))
    if not terms:
        return None, amp
    n = K * amp
    # runs of zone rows, cut where the running count of entries (those
    # outside the zone's columns too) passes a multiple of AMPLIFY_CHUNK
    load = np.cumsum(sum(np.diff(m.indptr[:K + 1]) * len(p)
                         for m, p, _, _ in terms))
    cuts = np.searchsorted(load, np.arange(AMPLIFY_CHUNK, load[-1], AMPLIFY_CHUNK))
    edges = np.unique(np.r_[0, cuts, K])
    runs = [_merge_rows(terms, lo, hi, K, amp)
            for lo, hi in zip(edges[:-1], edges[1:])]
    if not any(placed for placed, _, _, _ in runs):
        return sp.csr_matrix((n, n)), amp     # as a kron without entries
    indptr = np.r_[0, np.cumsum(np.concatenate([c for _, c, _, _ in runs]))]
    cols = np.concatenate([c for _, _, c, _ in runs])
    total = np.concatenate([t for _, _, _, t in runs])
    return sp.csr_matrix((total, cols, indptr), shape=(n, n)), amp


def _merge_rows(terms, lo, hi, K, amp):
    """Zone rows lo..hi - 1 of ``amplified_sum``: the number of amplified
    entries placed, and the entry count per amplified row, the columns and
    the values of their merged CSR rows."""
    n = K * amp
    keys, vals = [], []
    for m, p, q, c in terms:
        # the entries of m's zone rows in CSR order, each times those of a
        start, end = m.indptr[lo], m.indptr[hi]
        inside = m.indices[start:end] < K
        rows = np.repeat(np.arange(hi - lo), np.diff(m.indptr[lo:hi + 1]))
        rows = rows[inside]
        cols = m.indices[start:end][inside].astype(np.int64)
        keys.append(((rows[:, None] * amp + p) * n
                     + cols[:, None] * amp + q).ravel())
        vals.append((m.data[start:end][inside][:, None] * c).ravel())
    key = np.concatenate(keys)
    # a stable sort gives runs of equal keys, each listing the entries at
    # one position in term order
    order = np.argsort(key, kind="stable")
    key, val = key[order], np.concatenate(vals)[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(first, append=len(key))
    total = val[first]
    live, r = np.flatnonzero(count > 1), 1
    while len(live):
        step = total[live] + val[first[live] + r]
        step[step == 0] = 0         # dropped: the next term adds to +0
        total[live] = step
        r += 1
        live = live[count[live] > r]
    if len(terms) > 1:
        # a term without an entry at a position adds +0 there, which turns
        # a -0 part into +0
        total[count < len(terms)] += 0
        first, total = first[total != 0], total[total != 0]
    rows, cols = np.divmod(key[first], n)
    counts = np.bincount(rows, minlength=(hi - lo) * amp)
    index = np.int32 if n < 2 ** 31 else np.int64
    return len(key), counts, cols.astype(index), total


# ---------------------------------------------------------------------------
# Khintchine inequality checks


def khintchine_check(a_family, x_family, F: FockSpace, seed=0) -> dict:
    """The two sides of the free Khintchine inequality, measured.

    ``lhs_cert`` = compressed norm of sum_i a_i (x) x_i (a lower bound on
    the true norm), ``rhs_max`` = the largest of the three terms (row,
    column and max_i ||a_i|| ||x_i||), and ``ratio`` = lhs_cert / rhs_max.
    """
    if len(a_family) != len(x_family):
        raise StructuralError("family lengths differ")
    for i, coeffs in x_family:
        if abs(F.factors[i].phi(coeffs)) > 1e-10:
            raise StructuralError("element of factor %d is not centred" % i)
    ops = _zone_actions(F, x_family)
    amp, k = amplified_sum(zip(ops, a_family), F)
    lhs = _largest_singular_value(amp, seed=seed)
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
    rhs = max(term1, *(float(np.sqrt(np.linalg.norm(s, 2))) for s in (s_col, s_row)))
    return {
        "lhs_cert": lhs,
        "rhs_max": rhs,
        "ratio": lhs / rhs if rhs > 0 else float("nan"),
    }


# ---------------------------------------------------------------------------
# Norm equivalence on single-irrep coefficient spans


def norm_equivalence(F: FockSpace, coeff_basis, sample_count=100, seed=0) -> dict:
    """Compare the ambient norm with the vacuum-vector norm on the span of
    one irreducible coefficient space copied across the factors.

    coeff_basis: list of coefficient vectors (in the common factor's basis)
    spanning the coefficient space; every factor must carry the same algebra.
    C2 is exact (a ratio of two quadratic forms); C1 is the maximal ratio of
    the C*-norm to the vacuum norm over the space.  Over a basis b_t whose
    vacuum vectors are orthonormal, ``C1_bracket`` = (lower, upper): the
    ``rank_one_ascent`` with A_t = l(b_t) and theta_t = e_0t (its value at
    omega is the l2 norm of the omega(l(b_t))), capped at the upper end, and
    the certified row/column bound
    min(||sum_t l(b_t)* l(b_t)||, ||sum_t l(b_t) l(b_t)*||)^(1/2),
    exact on a one-dimensional space.  ``C1`` is the upper end.

    ``max_ratio`` is the largest ratio of the certified zone norm of a
    random x = sum_i x_i, x_i in the span in factor i, to ||x Omega||.  The
    action A_{i,t} of b_t in factor i is built once on the depth-(L - 1)
    space, and each sample is the combination sum_{i,t} c_{i,t} A_{i,t} of
    its coefficients, drawn sample by sample; ``_largest_singular_values``
    takes the norms, one dense SVD each when the zone has at most
    ``DENSE_ROWS`` words.
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
    C2 = float(np.sqrt(max(sla.eigh(G2, G1, eigvals_only=True))))
    dim_space = B.shape[1]
    rng = np.random.default_rng(seed)
    G1_isqrt = sla.fractional_matrix_power(G1, -0.5)
    lams = [f0.gns().left_action(f0.element(b)) for b in (B @ G1_isqrt).T]
    theta = np.eye(dim_space, dtype=complex)[:, None, :]   # rows e_0t
    C1_lower = rank_one_ascent(OperatorStack(lams, f0.dim), theta, f0.dim,
                               seed=seed)
    # ||sum_t c_t l(b_t)|| <= ||c|| ||column||, and likewise for the row
    col = sum(m.conj().T @ m for m in lams)
    row = sum(m @ m.conj().T for m in lams)
    C1 = float(np.sqrt(min(np.linalg.norm(col, 2), np.linalg.norm(row, 2))))
    N = len(F.factors)
    K = F.zone_size()
    draws = [rng.standard_normal((N, dim_space))
             + 1j * rng.standard_normal((N, dim_space))
             for _ in range(sample_count)]
    C = np.reshape(draws, (sample_count, N * dim_space))
    # a sample's operator is sum_{i,t} C[s, (i, t)] A_{i,t}, for A_{i,t} the
    # action of b_t in factor i: one sparse matrix maps the coefficients to
    # the entries of the union pattern of the A_{i,t}
    actions = [m.tocoo() for m in
               _zone_actions(F, [(i, b) for i in range(N) for b in B.T])]
    D = actions[0].shape[0]
    union, entry = np.unique(
        np.concatenate([a.row.astype(np.int64) * D + a.col for a in actions]),
        return_inverse=True)
    owner = np.repeat(np.arange(len(actions)), [a.nnz for a in actions])
    entries = sp.csr_matrix(
        (np.concatenate([a.data for a in actions]), (entry, owner)),
        shape=(len(union), len(actions)))
    rows, cols = np.divmod(union, D)
    # ||x Omega||: column 0, whose words have length <= 1
    nv = np.linalg.norm(entries[cols == 0] @ C.T, axis=0)
    kept = nv >= 1e-12
    zone = (rows < K) & (cols < K)
    zone_entries = entries[zone]
    indptr = np.searchsorted(rows[zone], np.arange(K + 1))
    subs = (sp.csr_matrix((zone_entries @ c, cols[zone], indptr), shape=(K, K))
            for c in C[kept])
    ratios = (_largest_singular_values(subs, K, seed) / nv[kept]).tolist()
    return {
        "C1": C1,
        # the min of a certified lower and upper bound is a lower bound, and
        # it keeps rounding from leaving the lower end above the upper one
        "C1_bracket": (min(C1_lower, C1), C1),
        "C2": C2,
        "max_ratio": max(ratios) if ratios else 0.0,
        "samples": len(ratios),
    }


# ---------------------------------------------------------------------------
# The bounded-but-not-completely-bounded representation


class NonCbRep:
    """pi(omega) = sum_i omega(u_i) (e_ii + e_i0) over N free symmetries.

    The generator V = sum_i u_i (x) (e_ii + e_i0) exists as a concrete
    operator because N is finite; its norm grows like sqrt(N) while the
    representation norm stays bounded in N, by the free Khintchine
    inequality (``qglab.suite`` states the bound and checks it).
    The exact-zone corners of the symmetries are held in ``zone``, from
    ``_zone_actions``; ``theta`` stacks the e_ii + e_i0.  ``generator()`` is
    V compressed to the exact zone, amplified from ``zone``; the cb norms
    read it.  ``pi_norm_search`` bounds ||pi|| from below at one symmetric
    functional: the vector state of the top eigenvector of sum_i u_i on the
    whole space, a combination of the layer sums found without a Lanczos
    solve, which takes the same value on every u_i.
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
        self.zone = list(_zone_actions(F, [(i, u) for i in range(self.N)]))
        i = np.arange(self.N)
        self.theta = np.zeros((self.N, self.N + 1, self.N + 1), dtype=complex)
        self.theta[i, i + 1, i + 1] = self.theta[i, i + 1, 0] = 1.0

    def generator(self) -> sp.csr_matrix:
        """V compressed to the exact zone, on C^K (x) C^(N+1)."""
        return amplified_sum(zip(self.zone, self.theta), self.space)[0]

    def theta0(self, a) -> np.ndarray:
        return np.tensordot(np.asarray(a, dtype=complex), self.theta, 1)

    def coefficient_expansion(self, alpha, beta) -> np.ndarray:
        """The free-symmetry coefficients c_i of T^{pi~}_{alpha,beta}:
        the generator of pi~ is V* with entries (V*)_{ii} = u_i and
        (V*)_{0j} = u_j, so c_i = alpha_i (conj beta_i + conj beta_0)."""
        a = np.asarray(alpha, dtype=complex)
        b = np.asarray(beta, dtype=complex)
        return a[1:] * (np.conj(b[1:]) + np.conj(b[0]))


def pi_norm_search(rep: NonCbRep) -> float:
    """Certified lower bound on ||pi||: ||pi(omega)|| at the vector functional
    omega = (. xi | xi), for xi the top eigenvector of the Kesten sum
    S = sum_i u_i on the whole truncated space, taken from the layer sums.

    Let R have the normalised indicators r_0, ..., r_L of the words of each
    length as columns.  J = R^T S R is (L + 1) x (L + 1), and xi = R c for
    c the top eigenvector of J.  This xi is the top eigenvector of S.  Each
    free symmetry acts on a word w as sigma times the sum of the
    word i w and the word w with a leading i removed, sigma = +-1 the
    creation coefficient of the centred symmetry, plus a diagonal that is
    zero but for rounding and depends only on which factor a word starts
    with; every factor carries the same one.  So S = sigma A + D, A the
    adjacency matrix of the tree of alternating words cut at depth L, which
    is spherically symmetric (the root has N children, every other vertex
    above depth L has N - 1), and D depends only on word length.  Every
    tree automorphism commutes with S and acts transitively on each layer,
    so the span of the layer sums is invariant under S, and J is its
    restriction there, the Kesten-Jacobi matrix with off-diagonals
    sqrt(N), sqrt(N - 1), ... (Kesten, Trans. AMS 92, 1959).  The top
    eigenvector of sigma A is simple: the Perron vector of the connected
    graph, multiplied by (-1)^length when sigma = -1 (the tree is bipartite).
    A simple eigenvector is fixed up to a scalar by every automorphism, and
    the Perron vector, positive everywhere, is fixed outright, so it is
    radial: it is R c.

    The N free symmetries are built once each and held as a list; S R is
    summed from the u_i R, S is never formed, and J is solved in complex
    arithmetic.  Each omega(u_i) is summed over the rows of u_i that store
    an entry, in row order, one term after another: the bits of the row sums
    of the N actions stacked into one matrix, which is not built.

    The value is certified whatever xi is: xi lies in the truncated space,
    so (P u_i P xi | xi) = (u_i xi | xi) and every omega(u_i) is the exact
    value of a vector functional of norm at most one.  At the top
    eigenvector omega(u_i) = kappa/N for every i, kappa the top eigenvalue
    of S, so the value is (kappa/N) sqrt(N + 1)."""
    F = rep.space
    u = z2_symmetry()
    actions = [free_action(F, i, u).matrix for i in range(rep.N)]
    counts = np.bincount(F.lengths)
    R = sp.csr_matrix((1.0 / np.sqrt(counts[F.lengths]),
                       (np.arange(F.dim), F.lengths)),
                      shape=(F.dim, F.max_len + 1))
    SR = actions[0] @ R
    for m in actions[1:]:
        SR = SR + m @ R
    J = (R.T @ SR).toarray().astype(complex)
    xi = R @ np.linalg.eigh(J)[1][:, -1]
    values = np.array([_row_sum(m, xi) for m in actions])
    return float(np.linalg.norm(rep.theta0(values), 2))


def _row_sum(m, xi) -> complex:
    """(m xi | xi), summed over the rows of m that store an entry, in row
    order, one term after another."""
    live = np.flatnonzero(np.diff(m.indptr))
    return np.cumsum((m @ xi)[live] * np.conj(xi[live]))[-1]


def column_norm(rep: NonCbRep, seed=0) -> float:
    """Certified norm of the creation column sum_i u_i (x) e_{i0}; exactly sqrt(N)."""
    units = rep.theta.copy()
    units[:, 1:, 1:] = 0.0              # e_ii + e_i0 -> e_i0
    col, _ = amplified_sum(zip(rep.zone, units), rep.space)
    return _largest_singular_value(col, seed=seed)


def cb_vs_bounded_probe(F: FockSpace, seed=0) -> dict:
    """Measure the gap: certified lower bounds on ||V||, which grows like
    sqrt(N), and on ||pi||, the column norm and a coefficient's l1 norm."""
    rep = NonCbRep(F)
    N = rep.N
    cb_lower = _largest_singular_value(rep.generator(), seed=seed)
    col = column_norm(rep, seed=seed)
    pi_lower = pi_norm_search(rep)
    alpha = np.r_[0.0, np.full(N, 1.0 / np.sqrt(N))]
    beta = np.eye(N + 1)[0]
    fourier_l1 = float(np.sum(np.abs(rep.coefficient_expansion(alpha, beta))))
    return {
        "cb_lower": cb_lower,
        "column_norm": col,
        "pi_lower_search": pi_lower,
        "multiplier_l1_lower": fourier_l1,
    }
