import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bethe_lab import abba, baesolver as bs, cli, hilbert, pipeline, plots, rigged

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_run_subcommand_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = cli.main(["run", "--n", "4", "--out", str(out), "--csv", str(csv_out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4 and data["schema"] == "bethe-lab/4"
    assert csv_out.exists()
    assert "audit" in capsys.readouterr().out


def test_run_prints_levels_as_the_report_stores_them(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run", "--n", "8", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lines = capsys.readouterr().out.splitlines()
    for label, key in (
        ("missing after regular Bethe", "missing_levels"),
        ("recovered by singular states", "recovered_by_nw"),
    ):
        levels = [(lv["energy"], lv["multiplicity"]) for lv in data[key]]
        assert f"  {label}: {levels}" in lines
    # the exact level -3 reads the same on both lines, not as last-bit roundoff
    assert sum("(-3.0, 3)" in line for line in lines) == 2


def test_diag_subcommand(capsys):
    assert cli.main(["diag", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "total states: 16" in out


@pytest.mark.parametrize("n", [8, 10])
def test_diag_prints_zero_level_exactly(n, capsys):
    # the ferromagnetic multiplet, spin n/2, holds n + 1 states at E = 0
    assert cli.main(["diag", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert f"  +0.0000000000  x{n + 1}\n" in out
    assert "-0.0000000000" not in out


def test_diag_never_builds_the_dense_hamiltonian(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("diag built the dense 2^n x 2^n Hamiltonian")

    monkeypatch.setattr(hilbert, "hamiltonian", forbidden)
    assert cli.main(["diag", "--n", "8"]) == 0
    assert "total states: 256" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["diag", "run"])
def test_diag_rejects_oversized_sector_before_any_eigensolve(
    command, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("BETHE_LAB_MAX_N", "16")

    def forbidden(*args, **kwargs):
        raise AssertionError("a sector was built, diagonalized or solved for an oversized chain")

    monkeypatch.setattr(hilbert, "sector_hamiltonian", forbidden)
    monkeypatch.setattr(hilbert, "eig_hermitian", forbidden)
    monkeypatch.setattr(abba, "apply_monodromy", forbidden)
    argv = [command, "--n", "16"]
    if command == "run":
        argv += ["--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bethe-lab: error: "), captured.err
    assert "sector dimension 12870 (n=16, ell=8)" in lines[0]  # C(16, 8) > SECTOR_DIM_CAP


@pytest.mark.parametrize("n", [0, 1, 15])
def test_diag_and_run_refuse_a_bad_chain_with_the_same_line(n, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # run would write report.json here
    monkeypatch.delenv("BETHE_LAB_MAX_N", raising=False)
    errors = []
    for command in ("diag", "run"):
        assert cli.main([command, "--n", str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0] == (
        f"bethe-lab: error: chain length n={n} outside [2, 14]; "
        "set BETHE_LAB_MAX_N to change the cap\n"
    )


def test_solve_and_rc_accept_a_one_site_chain(capsys):
    assert cli.main(["solve", "--n", "1", "--ell", "0"]) == 0
    assert cli.main(["rc", "--n", "1"]) == 0
    assert "found 1/1" in capsys.readouterr().out


def _diag_peak_rss_mib(n, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with open(tmp_path / "out.txt", "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bethe_lab.cli", "diag", "--n", str(n)], stdout=out, env=env
        )
    # wait4 reports this child's own resource usage; ru_maxrss is in KiB on Linux
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert f"total states: {2**n}" in (tmp_path / "out.txt").read_text()
    return usage.ru_maxrss / 1024


def test_diag_n13_peak_rss_below_dense_matrix(tmp_path):
    # the dense float64 H alone would take 8 * 4**13 bytes = 512 MiB
    assert _diag_peak_rss_mib(13, tmp_path) <= 400


def test_diag_n14_peak_rss_below_quarter_of_dense_matrix(tmp_path):
    # the dense float64 H alone would take 8 * 4**14 bytes = 2 GiB, and
    # the widest sector block (ell = 7, 3432 states) 94 MB; the momentum
    # blocks are at most 246 wide
    assert _diag_peak_rss_mib(14, tmp_path) <= 256


def test_solve_subcommand(capsys):
    assert cli.main(["solve", "--n", "4", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "found 2/2" in out


def test_solve_subcommand_reports_shortfall(capsys, monkeypatch):
    # the solver is complete, so drop one of its sets to provoke a shortfall
    solve = bs.solve_sector
    monkeypatch.setattr(bs, "solve_sector", lambda *a, **k: solve(*a, **k)[1:])
    code = cli.main(["solve", "--n", "6", "--ell", "2"])
    assert code == pipeline.EXIT_COUNT_SHORTFALL


# the one-state sector ell = 1 of the n = 2 chain, as a report holds it
_REPORT_N2 = {
    "n": 2,
    "sectors": [
        {
            "ell": 1,
            "solutions": [
                {"roots": [{"re": 0.0, "im": 0.0}], "classification": "regular", "residual": 0.0}
            ],
        }
    ],
}


@pytest.mark.parametrize(
    "env, argv",
    [
        ({"BETHE_LAB_MAX_N": "abc"}, ["run", "--n", "4"]),
        ({}, ["diag", "--n", "40"]),
        ({}, ["solve", "--n", "6", "--ell", "4"]),
        ({}, ["plot", "--in", "missing.json", "--out", "roots"]),
        ({}, ["plot", "--in", "no_sectors.json", "--out", "roots"]),
        # output paths below a regular file
        ({}, ["run", "--n", "2", "--out", "no_sectors.json/r.json"]),
        ({}, ["run", "--n", "2", "--out", "r.json", "--csv", "no_sectors.json/r.csv"]),
        ({}, ["plot", "--in", "report_n2.json", "--out", "no_sectors.json/x"]),
        # rc checks the chain-length cap before it enumerates anything
        ({}, ["rc", "--n", "15", "--ell", "7"]),
        ({}, ["rc", "--n", "-4"]),
    ],
)
def test_bad_input_is_one_line_error(env, argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # run would write report.json here
    (tmp_path / "no_sectors.json").write_text('{"n": 4}')  # JSON, but not a report
    (tmp_path / "report_n2.json").write_text(json.dumps(_REPORT_N2))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bethe-lab: error: "), captured.err


def test_rc_subcommand(capsys):
    assert cli.main(["rc", "--n", "8", "--ell", "3"]) == 0
    assert "28 rigged configurations" in capsys.readouterr().out


def test_rc_subcommand_enumerates_each_sector_once(capsys, monkeypatch):
    calls = []
    enumerate_rcs = rigged.enumerate_rcs

    def spy(n, ell):
        calls.append((n, ell))
        return enumerate_rcs(n, ell)

    monkeypatch.setattr(rigged, "enumerate_rcs", spy)
    assert cli.main(["rc", "--n", "8"]) == 0
    assert calls == [(8, ell) for ell in range(5)]
    assert "n=8 ell=4: 14 rigged configurations" in capsys.readouterr().out


def test_plot_subcommand(tmp_path, capsys):
    report = tmp_path / "report.json"
    cli.main(["run", "--n", "4", "--out", str(report)])
    outdir = tmp_path / "roots"
    assert cli.main(["plot", "--in", str(report), "--out", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["n4_ell1.svg", "n4_ell2.svg"]
    svg = (outdir / "n4_ell2.svg").read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert "stroke-dasharray" in svg  # dotted gridlines
    assert "<rect" in svg  # singular markers for the +/- i/2 pair


def test_plot_svg_path_with_several_sectors_is_bad_input(tmp_path, capsys):
    report = tmp_path / "report.json"
    cli.main(["run", "--n", "4", "--out", str(report)])
    capsys.readouterr()
    target = tmp_path / "roots.svg"
    assert cli.main(["plot", "--in", str(report), "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bethe-lab: error: ") and "2 sectors" in err, err
    assert not os.path.lexists(target)


def test_plot_orders_labels_by_leading_root(tmp_path):
    sols = [
        bs.RootSet(6, (0.1,), bs.REGULAR, 0.0),
        bs.RootSet(6, (0.9,), bs.REGULAR, 0.0),
        bs.RootSet(6, (-0.4,), bs.REGULAR, 0.0),
    ]
    svg = plots.render_sector_svg(sols, "test")
    # label 1 must sit next to the largest rapidity 0.9
    one = svg.index(">1</text>")
    two = svg.index(">2</text>")
    three = svg.index(">3</text>")
    assert one < two < three
    x_of = lambda idx: float(svg[: idx + 1].rsplit('<text x="', 1)[1].split('"')[0])
    assert x_of(one) > x_of(two) > x_of(three)


def test_plot_empty_input_warns(tmp_path):
    with pytest.warns(UserWarning):
        written = plots.plot_roots([], str(tmp_path / "roots"))
    assert written == []
    with pytest.warns(UserWarning):
        written = plots.plot_roots(
            [bs.RootSet(4, (), bs.REGULAR, 0.0)], str(tmp_path / "roots")
        )
    assert written == []


def test_single_sector_single_file(tmp_path):
    target = tmp_path / "sector.svg"
    written = plots.plot_roots(
        [bs.RootSet(6, (0.5j, -0.5j), bs.PHYSICAL_SINGULAR, 0.0)], str(target)
    )
    assert written == [str(target)]
    assert target.exists()
