"""Pure-python reference implementations of the kernel-backed loops.

Production runs one path: the numpy kernels in :mod:`repro.kernels`.
The loops they replaced live here, unchanged in semantics, as the
differential oracle — they are the most direct statement of what each
kernel must compute:

* :mod:`reference.subgraphs` — recursive ``EnumerateCsg`` /
  ``EnumerateCmp``, per-pair ``edges_between`` and the bit-scan
  expansion parent;
* :mod:`reference.truth` — the per-subset oracle join over
  :func:`~repro.util.joinkeys.equi_join_indices`;
* :mod:`reference.analytic` — the uncached analytic closed form.

Nothing under ``src/`` imports this package.
"""
