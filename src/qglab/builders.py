"""Builders for the shipped instances: function algebras C(G) and group
algebras C[G] of small finite groups, and the eight-dimensional
Kac-Paljutkin quantum group.

A group is passed around as a multiplication table ``table[i][j] = k`` with
element 0 the identity.  The Kac-Paljutkin instance is realized as the
cocycle extension of C(Z2 x Z2) by Z2: the crossed product for the swap
action, with the generator's coproduct twisted by the nondegenerate cocycle
tau((a,b),(c,d)) = (-1)^(bc) and u^2 = theta, theta(a,b) = (-1)^(ab).  The
antipode and Haar state are obtained by solving their defining linear
systems, and the result is run through the full validator on construction;
dimension 8 with block pattern 1,1,1,1,2 and neither commutativity nor
cocommutativity pins the instance.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import StructuralError
from .qgroup import FiniteQuantumGroup, validate


# ---------------------------------------------------------------------------
# Group tables


def check_group_table(table):
    t = np.asarray(table, dtype=int)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise StructuralError("group table must be square")
    n = t.shape[0]
    if np.any(t < 0) or np.any(t >= n):
        raise StructuralError("group table entries out of range")
    if np.any(t[0, :] != np.arange(n)) or np.any(t[:, 0] != np.arange(n)):
        raise StructuralError("element 0 is not a two-sided identity")
    for i in range(n):
        if set(t[i, :]) != set(range(n)) or set(t[:, i]) != set(range(n)):
            raise StructuralError("table rows/columns are not permutations")
    for i, j, k in itertools.product(range(n), repeat=3):
        if t[t[i, j], k] != t[i, t[j, k]]:
            raise StructuralError("table is not associative at (%d,%d,%d)" % (i, j, k))
    return t


def group_inverses(table):
    n = table.shape[0]
    inv = np.zeros(n, dtype=int)
    for i in range(n):
        js = np.where(table[i, :] == 0)[0]
        if len(js) != 1 or table[js[0], i] != 0:
            raise StructuralError("element %d has no two-sided inverse" % i)
        inv[i] = js[0]
    return inv


def cyclic_table(k):
    return np.fromfunction(lambda i, j: (i + j) % k, (k, k), dtype=int)


def product_table(t1, t2):
    n1, n2 = t1.shape[0], t2.shape[0]
    n = n1 * n2
    t = np.zeros((n, n), dtype=int)
    for (a, b), (c, d) in itertools.product(
            itertools.product(range(n1), range(n2)), repeat=2):
        t[a * n2 + b, c * n2 + d] = t1[a, c] * n2 + t2[b, d]
    return t


def _perm_table(perms):
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    t = np.zeros((n, n), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            t[i, j] = index[tuple(p[q[x]] for x in range(len(p)))]
    return t


def symmetric_table(m):
    perms = sorted(itertools.permutations(range(m)))
    perms.insert(0, perms.pop(perms.index(tuple(range(m)))))
    return _perm_table(perms)


GROUP_TABLES = {
    "z2": lambda: cyclic_table(2),
    "z3": lambda: cyclic_table(3),
    "z4": lambda: cyclic_table(4),
    "z2xz2": lambda: product_table(cyclic_table(2), cyclic_table(2)),
    "s3": lambda: symmetric_table(3),
}


# ---------------------------------------------------------------------------
# The two classical families


def from_function_algebra(table, name=None) -> FiniteQuantumGroup:
    """C(G): pointwise multiplication of delta functions, Delta dual to the group law."""
    t = check_group_table(table)
    n = t.shape[0]
    inv = group_inverses(t)
    mult = np.zeros((n, n, n), dtype=complex)
    cop = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mult[g, g, g] = 1.0
        for a in range(n):
            for b in range(n):
                if t[a, b] == g:
                    cop[g, a, b] = 1.0
    unit = np.ones(n, dtype=complex)
    counit = np.zeros(n, dtype=complex)
    counit[0] = 1.0
    antipode = np.zeros((n, n), dtype=complex)
    for g in range(n):
        antipode[g, inv[g]] = 1.0
    star = np.eye(n, dtype=complex)
    haar = np.full(n, 1.0 / n, dtype=complex)
    return FiniteQuantumGroup(name or "function_algebra", mult, unit, cop,
                              counit, antipode, star, haar,
                              basis_labels=["d%d" % g for g in range(n)])


def from_group_algebra(table, name=None) -> FiniteQuantumGroup:
    """C[G]: convolution of group elements, group-like coproduct, Haar = trace at e."""
    t = check_group_table(table)
    n = t.shape[0]
    inv = group_inverses(t)
    mult = np.zeros((n, n, n), dtype=complex)
    cop = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    for g in range(n):
        cop[g, g, g] = 1.0
        star[g, inv[g]] = 1.0
        antipode[g, inv[g]] = 1.0
        for h in range(n):
            mult[g, h, t[g, h]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    counit = np.ones(n, dtype=complex)
    haar = np.zeros(n, dtype=complex)
    haar[0] = 1.0
    return FiniteQuantumGroup(name or "group_algebra", mult, unit, cop,
                              counit, antipode, star, haar,
                              basis_labels=["L%d" % g for g in range(n)])


# ---------------------------------------------------------------------------
# Linear solves for the remaining structure maps


def _solve_haar(mult, unit, cop):
    """Bi-invariant normalized functional from the linear invariance system."""
    n = unit.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            e_i = np.zeros(n, dtype=complex)
            e_i[i] = unit[j]
            rows.append(cop[i, j, :] - e_i)
            rhs.append(0.0)
            rows.append(cop[i, :, j] - e_i)
            rhs.append(0.0)
    rows.append(unit.astype(complex))
    rhs.append(1.0)
    h, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs, dtype=complex), rcond=None)
    return h


def _solve_antipode(mult, unit, cop, counit):
    """The unique convolution inverse of the identity, from both antipode laws."""
    n = unit.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for l in range(n):
            rows.append(np.einsum("jk,pk->jp", cop[i], mult[:, :, l]).reshape(-1))
            rhs.append(counit[i] * unit[l])
            rows.append(np.einsum("jk,kq->qj", cop[i], mult[:, :, l].T).reshape(-1))
            rhs.append(counit[i] * unit[l])
    A = np.array(rows)
    b = np.array(rhs, dtype=complex)
    s, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.linalg.norm(A @ s - b) > 1e-10:
        raise StructuralError("antipode system has no exact solution")
    return s.reshape(n, n)


# ---------------------------------------------------------------------------
# Kac-Paljutkin


def kac_paljutkin() -> FiniteQuantumGroup:
    """The eight-dimensional quantum group that is neither commutative nor
    cocommutative, as a cocycle extension of C(Z2 x Z2) by Z2."""
    n = 8

    def xi(a, b):
        return 2 * (a % 2) + (b % 2)

    def idx(a, b, eps):
        return eps * 4 + xi(a, b)

    def tau(a, b, c, d):
        return (-1.0) ** (b * c)

    def theta(a, b):
        return (-1.0) ** (a * b)

    pairs = list(itertools.product(range(2), range(2)))
    mult = np.zeros((n, n, n), dtype=complex)
    for (a, b), al, (c, d), be in itertools.product(pairs, range(2), pairs, range(2)):
        sy = (d, c) if al else (c, d)
        if (a, b) != sy:
            continue
        if al + be <= 1:
            mult[idx(a, b, al), idx(c, d, be), idx(a, b, al + be)] += 1.0
        else:
            mult[idx(a, b, 1), idx(c, d, 1), idx(a, b, 0)] += theta(a, b)
    unit = np.zeros(n, dtype=complex)
    for a, b in pairs:
        unit[idx(a, b, 0)] = 1.0
    counit = np.zeros(n, dtype=complex)
    counit[idx(0, 0, 0)] = 1.0
    counit[idx(0, 0, 1)] = 1.0
    cop = np.zeros((n, n, n), dtype=complex)
    for (a, b), (c, d) in itertools.product(pairs, pairs):
        e, f = (a + c) % 2, (b + d) % 2
        cop[idx(e, f, 0), idx(a, b, 0), idx(c, d, 0)] += 1.0
        cop[idx(e, f, 1), idx(a, b, 1), idx(c, d, 1)] += tau(a, b, c, d)
    star = np.zeros((n, n), dtype=complex)
    for a, b in pairs:
        star[idx(a, b, 0), idx(a, b, 0)] = 1.0
        star[idx(a, b, 1), idx(b, a, 1)] = 1.0 / theta(b, a)

    antipode = _solve_antipode(mult, unit, cop, counit)
    haar = _solve_haar(mult, unit, cop)
    labels = ["d%d%d" % p for p in pairs] + ["u%d%d" % p for p in pairs]
    G = FiniteQuantumGroup("kac_paljutkin", mult, unit, cop, counit,
                           antipode, star, haar, basis_labels=labels)
    rep = validate(G)
    if not rep.passed:
        raise StructuralError("kac_paljutkin construction failed validation:\n%s" % rep)
    if G.is_commutative() or G.is_cocommutative():
        raise StructuralError("kac_paljutkin construction degenerated")
    return G


# ---------------------------------------------------------------------------
# Builtin corpus


def _builtin_builders():
    out = {}
    for gname, tab in GROUP_TABLES.items():
        out["c_%s" % gname] = (lambda t=tab, nm=gname:
                               from_function_algebra(t(), name="c_%s" % nm))
        out["cg_%s" % gname] = (lambda t=tab, nm=gname:
                                from_group_algebra(t(), name="cg_%s" % nm))
    out["kac_paljutkin"] = kac_paljutkin
    return out


_BUILTINS = _builtin_builders()
BUILTIN_NAMES = sorted(_BUILTINS)


def builtin_instance(name) -> FiniteQuantumGroup:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise StructuralError("unknown builtin %r (have: %s)"
                              % (name, ", ".join(BUILTIN_NAMES))) from None
