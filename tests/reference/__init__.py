"""Pure-python reference implementations of the kernel-backed loops.

Production runs one path: the numpy kernels in :mod:`repro.kernels`,
and the deep fold for the deep paper figures.  The loops they replaced
live here, unchanged in semantics, as the differential oracle — they
are the most direct statement of what each kernel or fold must
compute:

* :mod:`reference.subgraphs` — recursive ``EnumerateCsg`` /
  ``EnumerateCmp``, per-pair ``edges_between`` and the bit-scan
  expansion parent;
* :mod:`reference.truth` — the per-subset oracle join over
  :func:`~repro.util.joinkeys.equi_join_indices`;
* :mod:`reference.analytic` — the uncached analytic closed form;
* :mod:`reference.dp` — the candidate-at-a-time DP loop
  (``optimize_scalar``) the batched pricer must match bit for bit;
* :mod:`reference.topdown` — memoised top-down partitioning
  (``TopDownEnumerator``), the same plan space searched in another
  order.
* :mod:`reference.experiments` — the live per-query loops of Figures
  3, 5, 6 (with the Section 4.1 table), 7 and 8, which the stored-row
  deep fold must render byte for byte.

Nothing under ``src/`` imports this package
(``tests/test_knobs.py`` enforces it).
"""
