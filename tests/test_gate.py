import copy
import json
from pathlib import Path

import gate
from bethe_lab import pipeline

ROOT = Path(__file__).resolve().parent.parent


def test_gate_reads_identical_for_a_tree_against_itself(capsys):
    assert gate.compare(str(ROOT), str(ROOT), [2, 3])
    assert capsys.readouterr().out.splitlines()[-1] == "identical"


def test_gate_reports_root_energy_and_state_changes():
    old = json.loads(json.dumps(pipeline.report_to_dict(pipeline.run_pipeline(4))))
    new = copy.deepcopy(old)
    sol = new["sectors"][1]["solutions"][0]
    sol["roots"][0]["re"] += 3e-11
    sol["energy"] += 2e-10
    assert gate._moves(old, old) == (0.0, 0.0, [])
    roots, energies, changes = gate._moves(old, new)
    assert abs(roots - 3e-11) < 1e-15 and abs(energies - 2e-10) < 1e-15 and changes == []
    new["sectors"][2]["solutions"][0]["classification"] = "strange"
    new["audit"]["count_check"] = False
    assert len(gate._moves(old, new)[2]) == 2
