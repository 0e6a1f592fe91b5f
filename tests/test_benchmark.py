"""The benchmark's own smoke check, run inside the test suite.

``benchmark/check_smoke.py`` drives every workload at tiny sizes, so an
API change that would break a benchmark run fails here first.  The
benchmark pins these names and signatures of the package:

* traced by name (``benchmark/spans.py`` ``TARGETS``), on the module
  listed: ``pipeline.run_pipeline``, ``merge_levels``,
  ``multiset_subtract``, ``emit_report``, ``rootsets_from_report``;
  ``baesolver.solve_sector``, ``nw_constants``; ``energy.energy_regular``,
  ``energy_nw``, ``energy_logderiv`` and energy's own binding of
  ``transfer_eigenvalue``; ``abba.regularization_sweep``,
  ``regularized_nw_vector``, ``apply_monodromy``; ``hilbert.hamiltonian``,
  ``eig_hermitian``, ``sector_hamiltonian``,
  ``spectrum_with_multiplicities``; ``rigged.enumerate_rcs``,
  ``rc_count``, ``heuristic_real_pairing``; ``plots.plot_roots``;
  ``cli.main``;
* bound by parameter name in the tracing hooks: ``solve_sector``'s
  ``ell`` and ``cfg``, ``regularized_nw_vector``'s ``rootset`` and
  ``params`` (with ``params.epsilon``), ``hamiltonian``'s ``n``,
  ``emit_report``'s ``path``, ``regularization_sweep``'s result
  ``.converged``;
* ``SolverConfig(seed=...)`` with ``n_random_starts`` and
  ``seed_strategies``, passed as ``run_pipeline(n, cfg=...)`` and
  ``solve_sector(n, ell, cfg)``, and ``dataclasses.asdict`` of it;
* the calls ``emit_report(report, path)``, ``bae_residual(roots, n)``,
  ``classify(RootSet(n, roots, residual=...))``, ``nw_constants(rs)``,
  ``regularization_sweep(rs, c, ladder=...)``, ``energy_logderiv(rs)``,
  ``energy_nw(rs).energy``, ``sector_hamiltonian(n, ell)``,
  ``spectrum_with_multiplicities(eigs)``, ``rigged.rc_count(n, ell)``
  and ``cli.main(["diag", "--n", ...])`` with its printed level lines;
* the constants ``REGULAR``, ``PHYSICAL_SINGULAR``,
  ``NONPHYSICAL_SINGULAR``, ``STRANGE`` and
  ``pipeline.SPECTRAL_CLOSURE_TOL``, and the report's ``sectors``,
  ``solutions``, ``rootset``, ``energy``, ``rc_count``, ``audit`` and
  ``diag_spectrum``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "benchmark/check_smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
