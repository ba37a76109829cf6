"""Vectorized hot loops: the one production path for the pricing stack.

The three hottest loops of the reproduction run as batched numpy
kernels over packed-bitset subsets:

* :mod:`repro.kernels.subgraph` — connected-subgraph and csg–cmp-pair
  enumeration (behind :mod:`repro.query.subgraphs`);
* :mod:`repro.kernels.oracle` — the truth oracle's level-batched
  semi-join materialisation (behind
  :class:`~repro.cardinality.truth.TrueCardinalities`);
* :mod:`repro.kernels.dp` — one union-size level of DP candidates
  priced per call (behind :class:`~repro.enumeration.dp.DPEnumerator`).

The pure-python loops they replaced live in ``tests/reference/`` as the
differential oracle: ``tests/test_kernels.py``,
``tests/test_truth_differential.py`` and ``tests/test_dp.py`` pin the
kernels to them element for element — same subset lists, same counts,
same plans, same cost floats.
"""
