import json

import pytest

from bethe_lab import baesolver as bs, cli, pipeline, plots


def test_run_subcommand_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = cli.main(["run", "--n", "4", "--out", str(out), "--csv", str(csv_out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4 and data["schema"] == "bethe-lab/2"
    assert csv_out.exists()
    assert "audit" in capsys.readouterr().out


def test_diag_subcommand(capsys):
    assert cli.main(["diag", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "total states: 16" in out


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


@pytest.mark.parametrize(
    "env, argv",
    [
        ({"BETHE_LAB_MAX_N": "abc"}, ["run", "--n", "4"]),
        ({}, ["diag", "--n", "40"]),
        ({}, ["solve", "--n", "6", "--ell", "4"]),
    ],
)
def test_bad_input_is_one_line_error(env, argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # run would write report.json here
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
