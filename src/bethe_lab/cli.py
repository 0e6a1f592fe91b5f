"""Command line interface.

Subcommands map onto the module boundaries: ``run`` drives the full
diagonalize / solve / classify / energize / audit pipeline, ``diag``
prints the exact spectrum, ``solve`` one sector's root sets, ``rc`` the
rigged-configuration census, and ``plot`` renders root scatters from a
report file.  ``diag`` and ``run`` check the chain with the one
``hilbert.check_chain`` and share one exact diagonalization: the
highest-weight blocks W_q^H H_q W_q of each (magnon number, momentum)
block (``hilbert.highest_weight_sector``), at most a few dozen states
wide at n = 14, each eigenvalue counted for its SU(2) multiplet.
Neither builds the dense 2^n x 2^n Hamiltonian nor a whole magnon
sector, and ``run`` solves each sector on the blocks its exact
diagonalization built.  ``run`` exits 0 when every audit passes, 2 on
a solver count shortfall, and 3 on a spectral-closure failure.  Bad
input (a chain length outside the cap, a magnon number above n/2, a
malformed ``BETHE_LAB_MAX_N``, a magnon sector larger than
``hilbert.SECTOR_DIM_CAP``, a ``plot --in`` file that cannot be read or
is not a report, a single ``.svg`` output for several sectors, an
output path that cannot be written) prints one ``bethe-lab: error:``
line and exits 1; ``diag`` and ``run`` print the same line for the
same bad chain.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import baesolver, energy, hilbert, pipeline, plots, rigged


EXIT_BAD_INPUT = 1


def _cmd_run(args) -> int:
    report = pipeline.run_pipeline(args.n)
    data = pipeline.emit_report(report, args.out, fmt="json")
    if args.csv:
        pipeline.emit_report(report, args.csv, fmt="csv")
    print(f"wrote {args.out}")
    for sec in report.sectors:
        print(f"  ell={sec.ell}: {len(sec.solutions)}/{sec.rc_count} states")
    for label, key in (("missing after regular Bethe", "missing_levels"),
                       ("recovered by singular states", "recovered_by_nw")):
        print(f"  {label}: {[(lv['energy'], lv['multiplicity']) for lv in data[key]]}")
    print(f"  audit: {data['audit']}")
    return report.exit_code


def _cmd_diag(args) -> int:
    entries = hilbert.exact_spectrum(args.n)
    print(f"exact spectrum of the n={args.n} chain (units of J):")
    for e in entries:
        print(f"  {e.energy:+.10f}  x{e.multiplicity}")
    print(f"  total states: {sum(e.multiplicity for e in entries)}")
    return 0


def _cmd_solve(args) -> int:
    sols = baesolver.solve_sector(args.n, args.ell)
    target = rigged.rc_count(args.n, args.ell)
    for rs in sols:
        roots = ", ".join(f"{z.real:+.9f}{z.imag:+.9f}i" for z in rs.roots)
        print(
            f"  [{rs.classification}] {{{roots}}}"
            f"  E = {energy.energy_of(rs).energy:+.9f} J"
        )
    print(f"found {len(sols)}/{target} expected states for n={args.n}, ell={args.ell}")
    return 0 if len(sols) == target else pipeline.EXIT_COUNT_SHORTFALL


def _cmd_rc(args) -> int:
    hilbert._check_n(args.n)
    ells = [args.ell] if args.ell is not None else list(range(args.n // 2 + 1))
    for ell in ells:
        print(f"n={args.n} ell={ell}: {rigged.rc_count(args.n, ell)} rigged configurations")
        if args.verbose:
            for rc in rigged.enumerate_rcs(args.n, ell):
                print(f"  nu={rc.nu} riggings={rc.riggings}")
    return 0


def _cmd_plot(args) -> int:
    try:
        with open(args.infile) as fh:
            data = json.load(fh)
        rootsets = pipeline.rootsets_from_report(data)
    except OSError as exc:
        raise ValueError(f"cannot read {args.infile}: {exc.strerror}") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{args.infile} is not a bethe-lab report: {exc}") from exc
    written = plots.plot_roots(rootsets, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bethe-lab",
        description="Eigenstate bookkeeping for the periodic spin-1/2 XXX chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline with report")
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--out", default="report.json")
    p_run.add_argument("--csv", default=None, help="also write a CSV solution table")
    p_run.set_defaults(func=_cmd_run)

    p_diag = sub.add_parser("diag", help="exact diagonalization spectrum (units of J)")
    p_diag.add_argument("--n", type=int, required=True)
    p_diag.set_defaults(func=_cmd_diag)

    p_solve = sub.add_parser("solve", help="solve one magnon sector")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--ell", type=int, required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_rc = sub.add_parser("rc", help="rigged configuration census")
    p_rc.add_argument("--n", type=int, required=True)
    p_rc.add_argument("--ell", type=int, default=None)
    p_rc.add_argument("--verbose", action="store_true")
    p_rc.set_defaults(func=_cmd_rc)

    p_plot = sub.add_parser("plot", help="SVG root scatters from a report")
    p_plot.add_argument("--in", dest="infile", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"bethe-lab: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
