"""Finite conditions, their amalgamations, and the topologies they induce.

The package miniaturizes a transfinite construction to a finite carrier:
pair functions and good pairs (:mod:`scatterlab.universe`), the poset of
finite conditions with its extension lemmas (:mod:`scatterlab.poset`), twin
detection and amalgamation (:mod:`scatterlab.amalgam`), filter sampling and
the assembled right-separated space (:mod:`scatterlab.generic`), seeded
generators (:mod:`scatterlab.sampling`), property suites
(:mod:`scatterlab.suites`), the file formats (:mod:`scatterlab.formats`),
the error classes (:mod:`scatterlab.errors`) and a CLI
(:mod:`scatterlab.cli`).

The package itself exports nothing: import each name from its module.
"""
