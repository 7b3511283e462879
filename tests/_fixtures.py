"""Shared hand-checked instances used across test modules, and the one
view of spectral records as mpmath numbers.

The matrices are regular representations of realized tables: ``(M_j)[i][k]``
is the coefficient of ``b_i`` in ``b_j b_k``.  They are kept verbatim as
independent test inputs; nothing here is computed by the package.
"""

from dataclasses import replace

from mpmath import mp
from mpmath.libmp import from_man_exp

from sitawim.spectra import GRID_BITS


def grid_mp(value):
    """An int on the spectral grid 2^-GRID_BITS as the exact mpf, and an
    (re, im) pair of them as an mpf when im is 0, else the exact mpc."""
    if isinstance(value, int):
        return mp.make_mpf(from_man_exp(value, -GRID_BITS))
    re, im = value
    if not im:
        return grid_mp(re)
    return mp.make_mpc((from_man_exp(re, -GRID_BITS), from_man_exp(im, -GRID_BITS)))


def mp_view(sd):
    """The spectral record ``sd`` with P, Q, krein and eps as exact mpmath
    numbers (:func:`grid_mp`), every other field as it is."""

    def table(rows):
        return None if rows is None else tuple(tuple(map(grid_mp, row)) for row in rows)

    krein = None if sd.krein is None else tuple(map(table, sd.krein))
    return replace(sd, eps=grid_mp(sd.eps), P=table(sd.P), Q=table(sd.Q), krein=krein)


IDENTITY5 = [[1 if i == j else 0 for j in range(5)] for i in range(5)]

# Symmetric rank 5, order 35, degrees (1, 4, 6, 12, 12).
N35_MATRICES = [
    IDENTITY5,
    [[0, 4, 0, 0, 0], [1, 0, 0, 0, 3], [0, 0, 0, 2, 2], [0, 0, 1, 2, 1], [0, 1, 1, 1, 1]],
    [[0, 0, 6, 0, 0], [0, 0, 0, 3, 3], [1, 0, 5, 0, 0], [0, 1, 0, 2, 3], [0, 1, 0, 3, 2]],
    [[0, 0, 0, 12, 0], [0, 0, 3, 6, 3], [0, 2, 0, 4, 6], [1, 2, 2, 4, 3], [0, 1, 3, 3, 5]],
    [[0, 0, 0, 0, 12], [0, 3, 3, 3, 3], [0, 2, 0, 6, 4], [0, 1, 3, 3, 5], [1, 1, 2, 5, 3]],
]

# Symmetric rank 5, order 249, homogeneous degree 62.
N249_MATRICES = [
    IDENTITY5,
    [[0, 62, 0, 0, 0], [1, 15, 14, 12, 20], [0, 14, 16, 17, 15], [0, 12, 17, 18, 15], [0, 20, 15, 15, 12]],
    [[0, 0, 62, 0, 0], [0, 14, 16, 17, 15], [1, 16, 18, 16, 11], [0, 17, 16, 11, 18], [0, 15, 11, 18, 18]],
    [[0, 0, 0, 62, 0], [0, 12, 17, 18, 15], [0, 17, 16, 11, 18], [1, 18, 11, 18, 14], [0, 15, 18, 14, 15]],
    [[0, 0, 0, 0, 62], [0, 20, 15, 15, 12], [0, 15, 11, 18, 18], [0, 15, 18, 14, 15], [1, 12, 18, 15, 16]],
]

# Rank 4 with one asymmetric pair (b2* = b3), order 16, degrees (1, 5, 5, 5):
# the realized point (x5, k1) = (1, 5) of the one-asymmetric-pair family.
A1_16_MATRICES = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 5, 0, 0], [1, 0, 2, 2], [0, 2, 2, 1], [0, 2, 1, 2]],
    [[0, 0, 0, 5], [0, 2, 1, 2], [1, 2, 1, 1], [0, 1, 3, 1]],
    [[0, 0, 5, 0], [0, 2, 2, 1], [0, 1, 1, 3], [1, 2, 1, 1]],
]

# Symmetric rank 4, order 49, degrees (1, 16, 16, 16): a 4S pseudocyclic
# entry whose three integer character rows tie on their b_1 value, so only
# the later entries order them.
S49_MATRICES = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 16, 0, 0], [1, 3, 6, 6], [0, 6, 6, 4], [0, 6, 4, 6]],
    [[0, 0, 16, 0], [0, 6, 6, 4], [1, 6, 3, 6], [0, 4, 6, 6]],
    [[0, 0, 0, 16], [0, 6, 4, 6], [0, 4, 6, 6], [1, 6, 6, 3]],
]

# Rank 5 with two asymmetric pairs (b1* = b2, b3* = b4), order 13, degrees
# (1, 3, 3, 3, 3): the generator's nontrivial factor is a D4 quartic with
# four nonreal roots, and the standard multiplicities (about 1.5448 twice
# and 4.4552 twice) are irrational and differ inside that Galois orbit.
A2_13_MATRICES = [
    IDENTITY5,
    [[0, 0, 3, 0, 0], [1, 0, 0, 1, 1], [0, 1, 0, 0, 2], [0, 2, 1, 0, 0], [0, 0, 1, 2, 0]],
    [[0, 3, 0, 0, 0], [0, 0, 1, 2, 0], [1, 0, 0, 1, 1], [0, 1, 0, 0, 2], [0, 1, 2, 0, 0]],
    [[0, 0, 0, 0, 3], [0, 1, 2, 0, 0], [0, 0, 1, 2, 0], [1, 0, 0, 1, 1], [0, 2, 0, 0, 1]],
    [[0, 0, 0, 3, 0], [0, 1, 0, 0, 2], [0, 2, 1, 0, 0], [0, 0, 2, 1, 0], [1, 0, 0, 1, 1]],
]
