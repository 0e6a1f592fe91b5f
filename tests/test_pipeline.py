import json
import re
from pathlib import Path

import pytest

from bethe_lab import baesolver as bs, hilbert, pipeline

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def report4():
    return pipeline.run_pipeline(4)


def test_two_site_run_has_no_singular_sector():
    rep = pipeline.run_pipeline(2)
    assert rep.exit_code == pipeline.EXIT_OK
    assert [(round(e, 9), m) for e, m in rep.bethe_spectrum] == [(-2.0, 1), (0.0, 3)]
    assert rep.missing_levels == []
    assert rep.recovered_by_nw == []
    assert all(
        rec.rootset.classification != bs.PHYSICAL_SINGULAR
        for sec in rep.sectors
        for rec in sec.solutions
    )


def test_four_site_missing_level_recovered(report4):
    assert report4.exit_code == pipeline.EXIT_OK
    assert len(report4.missing_levels) == 1
    e, m = report4.missing_levels[0]
    assert abs(e + 1.0) < 1e-9 and m == 1
    e, m = report4.recovered_by_nw[0]
    assert abs(e + 1.0) < 1e-9 and m == 1


def test_four_site_diag_dimension(report4):
    assert sum(e.multiplicity for e in report4.diag_spectrum) == 16
    assert report4.audit["dimension_check"]


def test_four_site_zero_level_is_exact(report4):
    data = pipeline.report_to_dict(report4)
    (zero,) = [lv for lv in data["diag_spectrum"] if lv["multiplicity"] == 5]
    assert json.dumps(zero) == '{"energy": 0.0, "multiplicity": 5}'


def test_report_round_trip(report4, tmp_path):
    path = tmp_path / "report.json"
    emitted = pipeline.emit_report(report4, str(path))
    parsed = json.loads(path.read_text())
    assert parsed == emitted
    assert parsed["schema"] == "bethe-lab/4"
    # root sets survive the round trip
    rootsets = pipeline.rootsets_from_report(parsed)
    originals = [rec.rootset for sec in report4.sectors for rec in sec.solutions]
    assert len(rootsets) == len(originals)
    for rebuilt, orig in zip(rootsets, originals):
        assert rebuilt.classification == orig.classification
        assert all(abs(a - b) < 1e-9 for a, b in zip(rebuilt.roots, orig.roots))


def test_reports_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    pipeline.emit_report(pipeline.run_pipeline(4), str(p1))
    pipeline.emit_report(pipeline.run_pipeline(4), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_solution_table_rows(tmp_path):
    rep = pipeline.run_pipeline(6)
    path = tmp_path / "report.csv"
    pipeline.emit_report(rep, str(path), fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("n,ell,classification")
    ell2_rows = [ln for ln in lines[1:] if ln.startswith("6,2,")]
    # eight regular + one singular
    counted = [
        ln
        for ln in ell2_rows
        if ln.split(",")[2] in ("regular", "physical_singular")
    ]
    assert len(counted) == 9


def test_unknown_format_rejected(report4, tmp_path):
    with pytest.raises(ValueError):
        pipeline.emit_report(report4, str(tmp_path / "x.bin"), fmt="xml")


def test_six_site_narrative():
    rep = pipeline.run_pipeline(6)
    assert rep.exit_code == pipeline.EXIT_OK
    missing = sorted((round(e, 9), m) for e, m in rep.missing_levels)
    assert missing == [(-3.0, 1), (-1.0, 3)]
    recovered = sorted((round(e, 9), m) for e, m in rep.recovered_by_nw)
    assert recovered == [(-3.0, 1), (-1.0, 3)]
    assert rep.audit["count_check"] and rep.audit["spectral_closure"]
    # heuristic pairing is attached to the low sectors and labelled
    data = pipeline.report_to_dict(rep)
    assert data["sectors"][1]["rc_pairing"]["heuristic"] is True
    assert len(data["sectors"][1]["rc_pairing"]["pairs"]) == 5


def test_exit_code_on_count_shortfall(tmp_path, monkeypatch):
    # the solver is complete, so drop one of its sets to provoke a shortfall
    solve = bs.solve_sector
    monkeypatch.setattr(bs, "solve_sector", lambda *a, **k: solve(*a, **k)[1:])
    rep = pipeline.run_pipeline(6)
    assert not rep.audit["count_check"]
    assert rep.exit_code == pipeline.EXIT_COUNT_SHORTFALL
    assert rep.audit["count_shortfalls"]
    # shortfall reports must round-trip too
    path = tmp_path / "short.json"
    emitted = pipeline.emit_report(rep, str(path))
    assert json.loads(path.read_text()) == emitted


@pytest.mark.parametrize("n", [6, 9, 10])
def test_run_builds_each_sector_once(n, monkeypatch):
    # one highest_weight_blocks and one hamiltonian_blocks call per sector,
    # shared by the exact diagonalization and the solver
    calls = {"highest_weight_blocks": [], "hamiltonian_blocks": []}
    for name, seen in calls.items():

        def spy(n, ell, build=getattr(hilbert, name), seen=seen):
            seen.append(ell)
            return build(n, ell)

        monkeypatch.setattr(hilbert, name, spy)
    report = pipeline.run_pipeline(n)
    assert calls == {name: list(range(n // 2 + 1)) for name in calls}
    monkeypatch.undo()
    assert report.diag_spectrum == hilbert.exact_spectrum(n)


def test_audit_catches_a_wrong_ker_s_plus(monkeypatch):
    # the exact diagonalization runs on the W_q too, so a ker S^+ basis
    # that misses one state fails both the dimension and the count audit
    build = hilbert.highest_weight_blocks

    def short(n, ell):
        kernels = build(n, ell)
        if (n, ell) == (8, 3):
            kernels[0] = kernels[0][:, 1:]
        return kernels

    monkeypatch.setattr(hilbert, "highest_weight_blocks", short)
    audit = pipeline.run_pipeline(8).audit
    assert audit["dimension_check"] is False
    assert audit["count_check"] is False


def test_pipeline_merges_levels_with_the_hilbert_rule():
    assert pipeline.merge_levels is hilbert.merge_levels


def test_merge_and_subtract_helpers():
    merged = pipeline.merge_levels([(1.0, 2), (1.0 + 1e-12, 3), (2.0, 1)], 1e-8)
    # weighted mean (2 * 1 + 3 * (1 + 1e-12)) / 5 = 1 + 6e-13
    assert len(merged) == 2
    assert abs(merged[0][0] - (1.0 + 6e-13)) <= 1e-15 and merged[0][1] == 5
    assert merged[1] == (2.0, 1)
    left = pipeline.multiset_subtract([(1.0, 5), (2.0, 1)], [(1.0, 2)], 1e-8)
    assert left == [(1.0, 3), (2.0, 1)]
    assert pipeline.multiset_subtract([(1.0, 2)], [(1.0, 2)], 1e-8) == []
    # two distinct levels closer than tol, as ED has at n=12: each level
    # comes off the nearest one
    a = [(1.0, 10), (1.000001, 18)]
    assert pipeline.multiset_subtract(a, [(1.000001, 18), (1.0, 10)], 1e-5) == []
    assert pipeline.multiset_subtract(a, [(1.000001, 18)], 1e-5) == [(1.0, 10)]
    # a level of b midway between two of a comes off the lower one
    assert pipeline.multiset_subtract([(1.0, 1), (1.5, 1)], [(1.25, 1)], 0.5) == [(1.5, 1)]


@pytest.mark.parametrize("n", range(2, 13))
def test_run_passes_every_audit(n):
    rep = pipeline.run_pipeline(n)
    assert rep.audit["count_check"] and rep.audit["spectral_closure"], rep.audit
    assert rep.audit["dimension_check"]
    assert rep.exit_code == pipeline.EXIT_OK


@pytest.mark.parametrize("n", range(4, 11))
def test_nw_logderiv_equals_reported_energy(n):
    # the exact log-derivative of Lambda and the closed singular-state
    # formula are two routes to one number
    records = [
        rec
        for sec in pipeline.run_pipeline(n).sectors
        for rec in sec.solutions
        if rec.nw_details is not None
    ]
    for rec in records:
        e = rec.energy.energy
        assert abs(rec.nw_details["energy_logderiv"] - e) <= 1e-12 * max(1.0, abs(e))


def test_readme_schema_matches_package():
    text = README.read_text()
    heading = re.findall(r"^## Report schema \(`([^`]+)`\)$", text, re.M)
    line = re.findall(r'^schema\s+"([^"]+)"$', text, re.M)
    assert heading == line == [pipeline.SCHEMA_VERSION]


def test_spectral_closure_multiset():
    for n in (4, 6, 8):
        rep = pipeline.run_pipeline(n)
        total = pipeline.merge_levels(
            list(rep.bethe_spectrum) + list(rep.recovered_by_nw), 1e-5
        )
        diag = [(e.energy, e.multiplicity) for e in rep.diag_spectrum]
        assert pipeline.multiset_subtract(diag, total, 1e-5) == []
        assert pipeline.multiset_subtract(total, diag, 1e-5) == []


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _close_levels(got: list[dict], want: list[dict]) -> bool:
    return len(got) == len(want) and all(
        g["multiplicity"] == w["multiplicity"] and _close(g["energy"], w["energy"], 1e-9)
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("n", [7, 8, 10, 12])
def test_report_matches_reference(n):
    # the stored reports were written by an earlier version of the
    # package; a refactor that keeps results must keep this one passing
    with open(DATA / f"report_n{n}.json") as fh:
        want = json.load(fh)
    got = pipeline.report_to_dict(pipeline.run_pipeline(n))
    for key in ("schema", "n", "rc_counts", "audit"):
        assert got[key] == want[key], key
    for key in ("diag_spectrum", "bethe_spectrum", "missing_levels", "recovered_by_nw"):
        assert _close_levels(got[key], want[key]), key
    assert len(got["sectors"]) == len(want["sectors"])
    for gs, ws in zip(got["sectors"], want["sectors"]):
        assert (gs["ell"], gs["rc_count"]) == (ws["ell"], ws["rc_count"])
        assert gs.get("rc_pairing") == ws.get("rc_pairing")
        assert len(gs["solutions"]) == len(ws["solutions"])
        for g, w in zip(gs["solutions"], ws["solutions"]):
            for key in ("classification", "multiplicity", "energy_method"):
                assert g[key] == w[key], key
            assert len(g["roots"]) == len(w["roots"])
            for gz, wz in zip(g["roots"], w["roots"]):
                assert abs(complex(gz["re"], gz["im"]) - complex(wz["re"], wz["im"])) <= 1e-10
            assert _close(g["energy"], w["energy"], 1e-9)
            assert g["residual"] <= bs.TQ_TOL
            assert ("nw" in g) == ("nw" in w)
            if "nw" in w:
                for key in ("c1", "c2"):
                    for part in ("re", "im"):
                        assert _close(g["nw"][key][part], w["nw"][key][part], 1e-9)
                assert _close(g["nw"]["energy_logderiv"], w["nw"]["energy_logderiv"], 1e-9)
