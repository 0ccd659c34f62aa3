"""Exact toolkit for distance-biregular graphs.

Submodules:

* :mod:`dbrg.params` -- intersection arrays, strongly regular parameters,
  field orders and the perp-system parameter rules (no numpy; NamedTuple
  records, so it imports no dataclasses).
* :mod:`dbrg.gfint` -- finite fields GF(p^t), vectors, canonical subspaces,
  subspace families, and vector sets as Python-int bitsets (no numpy).
* :mod:`dbrg.gfcore` -- the stacked kernels over GF(p^t) that the coset and
  inclusion graphs run on: echelon bases, vector ids, cosets and maps of
  ids as numpy arrays.
* :mod:`dbrg.geometry` -- hyperovals, maximal arcs, dualities, quadric cones
  (no numpy).
* :mod:`dbrg.perpsys` -- perp systems: verification, files, search, duals,
  two-intersection sets (no numpy).
* :mod:`dbrg.bigraph` -- bipartite graph engine and biregularity checks.
* :mod:`dbrg.constructions` -- graph builders with predicted arrays.
* :mod:`dbrg.feasibility` -- intersection-array feasibility and enumeration
  (integer work on :mod:`dbrg.params`, no numpy, no dataclasses).
* :mod:`dbrg.cli` -- command-line front end; each command imports only the
  layers it calls, and ``feas enumerate``, ``catalog``, ``perp verify``,
  ``perp search`` and the perp ``roundtrip`` import no numpy.
"""

__version__ = "0.1.0"
