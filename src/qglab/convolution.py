"""The convolution algebra of functionals dual to a finite quantum group.

A functional omega is stored by its values on the basis; the product is dual
to the coproduct, the unit is the counit, and two involutions matter:

    omega*      <x, omega*>  = conj <x*, omega>        (conjugate-linear homomorphism)
    omega#      <x, omega#>  = conj <S(x)*, omega>     (the *-algebra involution)

The antipode is everywhere defined here, so the sharp involution is total.
Products, involutions and the module action take stacks of functionals,
coefficients (..., n), slice by slice.
"""

from __future__ import annotations

import numpy as np

from .errors import OwnerMismatchError
from .qgroup import AlgebraElement, CoefficientVector, FiniteQuantumGroup


class Functional(CoefficientVector):
    """Element of the convolution algebra, stored as values on the owner
    basis; the product of two functionals is ``convolve``."""

    __slots__ = ()

    def __call__(self, x) -> complex:
        if isinstance(x, AlgebraElement):
            if self.owner is not x.owner:
                raise OwnerMismatchError("functional applied to a foreign element")
            return complex(np.dot(self.coeffs, x.coeffs))
        return complex(np.dot(self.coeffs, np.asarray(x, dtype=complex)))

    def __mul__(self, other):
        if isinstance(other, Functional):
            return convolve(self, other)
        return super().__mul__(other)


def counit_functional(G: FiniteQuantumGroup) -> Functional:
    return Functional(G, G.counit)


def convolve(w1: Functional, w2: Functional) -> Functional:
    """(w1 w2)(x) = (w1 (x) w2)(Delta x)."""
    w1._check_owner(w2)
    G = w1.owner
    return Functional(G, np.einsum("ijk,...j,...k->...i", G.coproduct,
                                   w1.coeffs, w2.coeffs))


def star_l1(w: Functional) -> Functional:
    """omega* with <x, omega*> = conj <x*, omega>."""
    G = w.owner
    return Functional(G, np.conj(w.coeffs @ G.star.T))


def sharp(w: Functional) -> Functional:
    """omega# with <x, omega#> = conj <S(x)*, omega>."""
    G = w.owner
    return Functional(G, np.conj(w.coeffs @ G.star.T) @ G.antipode.T)


def module_action(x: AlgebraElement, w: Functional) -> Functional:
    """The left module action (x.omega)(y) = omega(y x)."""
    if x.owner is not w.owner:
        raise OwnerMismatchError("module action across instances")
    G = x.owner
    # (x w)_i = w(e_i x) = sum_{j,k} M[i,j,k] x_j w_k
    return Functional(G, np.einsum("ijk,...j,...k->...i", G.mult, x.coeffs,
                                   w.coeffs))

