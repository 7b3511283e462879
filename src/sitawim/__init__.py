"""sitawim: exact structure-constant algebra for low-rank integral table algebras.

The package follows the pipeline of a structure-constant analysis:

- :mod:`sitawim.exactpoly` — exact polynomial arithmetic, Groebner bases,
  and chained linear elimination over Q.
- :mod:`sitawim.varietygen` — symbolic templates for each involution type,
  structure-constant identities, trace constraints, and rationalized
  character tables.
- :mod:`sitawim.solver` — specialization to integer points, zero-dimensional
  solving, and deterministic parallel grid searches.
- :mod:`sitawim.intpoly` — dense integer polynomials in one variable:
  characteristic polynomials, factorization, Galois classification and
  integer roots.
- :mod:`sitawim.structcheck` — exact invariants of a realized table: the
  axiom check, cyclotomy, and standard-module multiplicities.
- :mod:`sitawim.spectra` — certified high-precision eigendata, eigenmatrices,
  and dual intersection numbers.
- :mod:`sitawim.feasibility` — counting, quotient, positivity, and
  sphere-packing screens on proposed parameter sets.
"""

__version__ = "0.1.0"
