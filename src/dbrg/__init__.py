"""Exact toolkit for distance-biregular graphs.

Submodules:

* :mod:`dbrg.params` -- intersection arrays, strongly regular parameters,
  field orders and the perp-system parameter rules (no numpy; NamedTuple
  records, so it imports no dataclasses).
* :mod:`dbrg.gfcore` -- finite fields GF(p^t) and exact linear algebra.
* :mod:`dbrg.geometry` -- hyperovals, maximal arcs, dualities, quadric cones.
* :mod:`dbrg.perpsys` -- perp systems: verification, duals, search, files.
* :mod:`dbrg.bigraph` -- bipartite graph engine and biregularity checks.
* :mod:`dbrg.constructions` -- graph builders with predicted arrays.
* :mod:`dbrg.feasibility` -- intersection-array feasibility and enumeration
  (integer work on :mod:`dbrg.params`, no numpy, no dataclasses).
* :mod:`dbrg.cli` -- command-line front end; each command imports only the
  layers it calls.
"""

__version__ = "0.1.0"
