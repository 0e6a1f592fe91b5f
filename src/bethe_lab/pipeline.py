"""End-to-end bookkeeping: solve, classify, energize, diagonalize, audit.

The pipeline solves every magnon sector of a chain, attaches energies
(closed regular formula, singular-state formula, and the log-derivative
cross-checks), diagonalizes the Hamiltonian sector by sector, and
reconciles the two spectra: regular Bethe states carry multiplicity
n - 2 ell + 1, the levels they miss must be covered exactly by the
physical singular states.  All energies are stored in units of J.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import abba, baesolver, energy, hilbert, rigged

SPECTRAL_CLOSURE_TOL = 1e-5
SCHEMA_VERSION = "bethe-lab/2"

EXIT_OK = 0
EXIT_COUNT_SHORTFALL = 2
EXIT_CLOSURE_FAILURE = 3


@dataclass
class SolutionRecord:
    rootset: baesolver.RootSet
    energy: energy.EnergyResult
    multiplicity: int
    nw_details: dict | None = None


@dataclass
class SectorReport:
    ell: int
    rc_count: int
    solutions: list[SolutionRecord]
    rc_pairing: list[tuple[int, int]] | None = None  # heuristic, ell <= 2 only


@dataclass
class RunReport:
    n: int
    sectors: list[SectorReport]
    diag_spectrum: list[hilbert.SpectrumEntry]
    bethe_spectrum: list[tuple[float, int]]
    missing_levels: list[tuple[float, int]]
    recovered_by_nw: list[tuple[float, int]]
    audit: dict

    @property
    def exit_code(self) -> int:
        if not self.audit["count_check"]:
            return EXIT_COUNT_SHORTFALL
        if not self.audit["spectral_closure"]:
            return EXIT_CLOSURE_FAILURE
        return EXIT_OK


def merge_levels(entries: list[tuple[float, int]], tol: float) -> list[tuple[float, int]]:
    """Combine (energy, multiplicity) pairs whose energies agree within tol."""
    out: list[list] = []
    for e, m in sorted(entries):
        if out and abs(e - out[-1][0]) <= tol:
            total = out[-1][1] + m
            out[-1][0] = (out[-1][0] * out[-1][1] + e * m) / total
            out[-1][1] = total
        else:
            out.append([e, m])
    return [(e, m) for e, m in out]


def multiset_subtract(
    a: list[tuple[float, int]], b: list[tuple[float, int]], tol: float
) -> list[tuple[float, int]]:
    """Level multiset a minus b; negative remainders are clipped at zero.

    Each level of b comes off the nearest level of a within ``tol``, so
    two distinct levels closer than ``tol`` are each matched to their own.
    """
    remaining = [list(x) for x in a]
    for e, m in b:
        near = [entry for entry in remaining if abs(entry[0] - e) <= tol]
        if near:
            min(near, key=lambda entry: abs(entry[0] - e))[1] -= m
    return [(e, m) for e, m in remaining if m > 0]


def _nw_details(rootset: baesolver.RootSet) -> dict:
    c1, c2 = baesolver.nw_constants(rootset)
    details = {
        "c1": complex(c1),
        "c2": complex(c2),
        "energy_logderiv_c1": energy.energy_logderiv(rootset, scheme=abba.C1_SCHEME).energy,
        # the naive (c = 0) regularization is reported for comparison
        # only; it is known to corrupt the eigenvectors
        "energy_logderiv_naive": energy.energy_logderiv(
            rootset, scheme=abba.NAIVE_SCHEME
        ).energy,
    }
    return details


def _sector_report(n: int, ell: int) -> SectorReport:
    mult = n - 2 * ell + 1
    records: list[SolutionRecord] = []
    for rs in baesolver.solve_sector(n, ell):
        if rs.classification == baesolver.REGULAR:
            records.append(SolutionRecord(rs, energy.energy_regular(rs), mult))
        else:
            records.append(
                SolutionRecord(rs, energy.energy_nw(rs), mult, _nw_details(rs))
            )
    rcs = rigged.enumerate_rcs(n, ell)
    pairing = None
    if 1 <= ell <= 2:
        real_regular = [
            (i, tuple(z.real for z in rec.rootset.roots))
            for i, rec in enumerate(records)
            if rec.rootset.classification == baesolver.REGULAR
            and all(abs(z.imag) < 1e-9 for z in rec.rootset.roots)
        ]
        pairs = rigged.heuristic_real_pairing([r for _, r in real_regular], rcs)
        if pairs is not None:
            pairing = [(real_regular[si][0], ri) for si, ri in pairs]
    return SectorReport(ell, len(rcs), records, pairing)


# ``cfg`` is unused; kept because benchmark/workloads.py passes cfg=SolverConfig(...)
def run_pipeline(n: int, cfg: baesolver.SolverConfig | None = None) -> RunReport:
    """Solve all sectors, diagonalize, and reconcile the spectra."""
    if not 2 <= n <= hilbert.max_chain_length():
        raise ValueError(f"n={n} outside [2, {hilbert.max_chain_length()}]")

    sectors = [_sector_report(n, ell) for ell in range(n // 2 + 1)]

    # exact diagonalization, sector by sector (energies in units of J)
    all_eigs = np.sort(
        np.concatenate(
            [np.linalg.eigvalsh(hilbert.sector_hamiltonian(n, ell)) for ell in range(n + 1)]
        )
    )
    diag_spectrum = hilbert.spectrum_with_multiplicities(all_eigs)

    bethe_levels: list[tuple[float, int]] = []
    nw_levels: list[tuple[float, int]] = []
    for sec in sectors:
        for rec in sec.solutions:
            if rec.rootset.classification == baesolver.REGULAR:
                bethe_levels.append((rec.energy.energy, rec.multiplicity))
            else:
                nw_levels.append((rec.energy.energy, rec.multiplicity))
    bethe_spectrum = merge_levels(bethe_levels, 1e-8)
    recovered_by_nw = merge_levels(nw_levels, 1e-8)

    diag_levels = [(e.energy, e.multiplicity) for e in diag_spectrum]
    missing = multiset_subtract(diag_levels, bethe_spectrum, SPECTRAL_CLOSURE_TOL)
    closure_ok = (
        multiset_subtract(missing, recovered_by_nw, SPECTRAL_CLOSURE_TOL) == []
        and multiset_subtract(recovered_by_nw, missing, SPECTRAL_CLOSURE_TOL) == []
    )

    shortfalls = {}
    for sec in sectors:
        found = len(sec.solutions)
        if found != sec.rc_count:
            # string keys so the audit survives a JSON round trip
            shortfalls[str(sec.ell)] = {"found": found, "expected": sec.rc_count}
    audit = {
        "count_check": not shortfalls,
        "count_shortfalls": shortfalls,
        "spectral_closure": bool(closure_ok),
        "dimension_check": sum(m for _, m in diag_levels) == 2**n,
    }
    return RunReport(
        n, sectors, diag_spectrum, bethe_spectrum, missing, recovered_by_nw, audit
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _sig12(x: float) -> float:
    if not np.isfinite(x):
        return x
    return float(f"{x:.12g}") + 0.0  # 12 significant digits, no negative zero


def _cnum(z: complex) -> dict:
    return {"re": _sig12(z.real), "im": _sig12(z.imag)}


def _levels_json(levels) -> list[dict]:
    return [{"energy": _sig12(e), "multiplicity": int(m)} for e, m in levels]


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready dict with stable field order (schema bethe-lab/2)."""
    sectors = []
    for sec in report.sectors:
        sols = []
        for rec in sec.solutions:
            rs = rec.rootset
            item = {
                "roots": [_cnum(z) for z in rs.roots],
                "classification": rs.classification,
                "residual": _sig12(rs.residual) if np.isfinite(rs.residual) else None,
                "multiplicity": rec.multiplicity,
                "energy": _sig12(rec.energy.energy),
                "energy_method": rec.energy.method,
            }
            if rec.nw_details is not None:
                item["nw"] = {
                    "c1": _cnum(rec.nw_details["c1"]),
                    "c2": _cnum(rec.nw_details["c2"]),
                    "energy_logderiv_c1": _sig12(rec.nw_details["energy_logderiv_c1"]),
                    "energy_logderiv_naive": _sig12(
                        rec.nw_details["energy_logderiv_naive"]
                    ),
                }
            sols.append(item)
        entry = {"ell": sec.ell, "rc_count": sec.rc_count, "solutions": sols}
        if sec.rc_pairing is not None:
            entry["rc_pairing"] = {
                "heuristic": True,
                "pairs": [
                    {"solution": si, "rc_index": ri} for si, ri in sec.rc_pairing
                ],
            }
        sectors.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "n": report.n,
        "sectors": sectors,
        "diag_spectrum": _levels_json(
            [(e.energy, e.multiplicity) for e in report.diag_spectrum]
        ),
        "bethe_spectrum": _levels_json(report.bethe_spectrum),
        "missing_levels": _levels_json(report.missing_levels),
        "recovered_by_nw": _levels_json(report.recovered_by_nw),
        "rc_counts": {str(sec.ell): sec.rc_count for sec in report.sectors},
        "audit": report.audit,
    }


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(report: RunReport, path: str, fmt: str = "json") -> dict:
    """Write the report as JSON or CSV; returns the JSON-ready dict."""
    data = report_to_dict(report)
    if fmt == "json":
        _atomic_write(path, json.dumps(data, indent=2) + "\n")
    elif fmt == "csv":
        rows = []
        for sec in data["sectors"]:
            for sol in sec["solutions"]:
                rows.append(
                    {
                        "n": data["n"],
                        "ell": sec["ell"],
                        "classification": sol["classification"],
                        "roots": ";".join(
                            f"{r['re']}{r['im']:+}i" for r in sol["roots"]
                        ),
                        "energy": sol["energy"],
                        "multiplicity": sol["multiplicity"],
                        "residual": sol["residual"] if sol["residual"] is not None else "",
                    }
                )
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=[
                "n",
                "ell",
                "classification",
                "roots",
                "energy",
                "multiplicity",
                "residual",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
        _atomic_write(path, buf.getvalue())
    else:
        raise ValueError(f"unsupported report format {fmt!r}")
    return data


def rootsets_from_report(data: dict) -> list[baesolver.RootSet]:
    """Rebuild RootSet objects from a parsed JSON report."""
    out = []
    for sec in data["sectors"]:
        for sol in sec["solutions"]:
            roots = tuple(complex(r["re"], r["im"]) for r in sol["roots"])
            residual = sol["residual"] if sol["residual"] is not None else float("nan")
            out.append(
                baesolver.RootSet(data["n"], roots, sol["classification"], residual)
            )
    return out
