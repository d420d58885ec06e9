"""Invariants of the 2-class field tower over Q(sqrt(2*p1*p2), i), p1 = p2 = 5 (mod 8).

Computes the classification symbols and exponents of a prime pair, realizes
the Galois group of the second Hilbert 2-class field as a concrete finite
2-group, and cross-validates the predicted class-group types and capitulation
kernels of all fourteen unramified extensions three ways: decision tables,
first-principles symbol computations, and transfer kernels in the group model.

Every name is imported from its module (classtower.classify, classtower.gengroup, ...);
importing the package itself loads none of them.
"""

__version__ = "0.1.0"
