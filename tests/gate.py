"""Compare what two bethe-lab trees print and report, chain by chain.

Usage:

    python tests/gate.py OLD_TREE NEW_TREE [N ...]

For each chain length N (default 2..14) it runs ``bethe-lab run --n N``
and ``bethe-lab diag --n N`` from each tree's ``src`` directory, with
BLAS pinned to one thread, and prints one line per N: whether the JSON
report and the ``diag`` output are byte-identical, and otherwise the
largest root and energy moves and any change in the state count per
classification, in the exit code or in the audit.  A root set of one
tree is matched to the nearest set of the same classification in the
other, as unordered roots, so a move across a 9-digit rounding boundary
of the canonical order is not counted as a change.  The last line reads
``identical`` when every output was byte-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _outputs(tree: str, n: int, workdir: Path) -> tuple[bytes, int, bytes, int]:
    """The report bytes and exit code of ``run``, and the stdout and exit code of ``diag``."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(Path(tree, "src").resolve())}
    cli = [sys.executable, "-m", "bethe_lab.cli"]
    out = workdir / f"report_n{n}.json"
    out.unlink(missing_ok=True)
    run = subprocess.run(
        [*cli, "run", "--n", str(n), "--out", str(out)], env=env, capture_output=True
    )
    diag = subprocess.run([*cli, "diag", "--n", str(n)], env=env, capture_output=True)
    report = out.read_bytes() if out.exists() else b""
    return report, run.returncode, diag.stdout, diag.returncode


def _set_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hausdorff distance between the root set ``a`` and each row of ``b``."""
    if not a.size:
        return np.zeros(len(b))
    d = abs(a[None, :, None] - b[:, None, :])  # (sets, roots of a, roots of b)
    return np.maximum(d.min(axis=2).max(axis=1), d.min(axis=1).max(axis=1))


def _moves(old: dict, new: dict) -> tuple[float, float, list[str]]:
    """The largest root and energy moves between two reports, and what else changed."""
    root_move = energy_move = 0.0
    changes = [f"audit {old['audit']} -> {new['audit']}"] if old["audit"] != new["audit"] else []
    for so, sn in zip(old["sectors"], new["sectors"], strict=True):
        count_old = Counter(s["classification"] for s in so["solutions"])
        count_new = Counter(s["classification"] for s in sn["solutions"])
        if count_old != count_new:
            changes.append(f"ell={so['ell']} states {dict(count_old)} -> {dict(count_new)}")
            continue
        for tag in count_old:
            pick = [[s for s in sec["solutions"] if s["classification"] == tag] for sec in (so, sn)]
            roots = [
                np.array([[complex(r["re"], r["im"]) for r in s["roots"]] for s in sols])
                for sols in pick
            ]
            for k, row in enumerate(roots[0]):
                dist = _set_distance(row, roots[1])
                j = int(dist.argmin())
                root_move = max(root_move, float(dist[j]))
                energy_move = max(energy_move, abs(pick[0][k]["energy"] - pick[1][j]["energy"]))
    for key in ("diag_spectrum", "bethe_spectrum", "missing_levels", "recovered_by_nw"):
        lo, ln = old[key], new[key]
        if [lv["multiplicity"] for lv in lo] != [lv["multiplicity"] for lv in ln]:
            changes.append(f"{key} levels changed")
            continue
        for a, b in zip(lo, ln):
            energy_move = max(energy_move, abs(a["energy"] - b["energy"]))
    return root_move, energy_move, changes


def compare(old_tree: str, new_tree: str, ns) -> bool:
    """Print one line per chain length; True when every output is byte-identical."""
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp, side) for side in ("old", "new")]
        for d in dirs:
            d.mkdir()
        for n in ns:
            (r_old, x_old, d_old, y_old), (r_new, x_new, d_new, y_new) = (
                _outputs(tree, n, d) for tree, d in zip((old_tree, new_tree), dirs)
            )
            diag = "identical" if (d_old, y_old) == (d_new, y_new) else "DIFFERS"
            if r_old == r_new and x_old == x_new:
                line = "run identical"
            else:
                line = f"run differs (exit {x_old} -> {x_new})" if x_old != x_new else "run differs"
                if r_old and r_new:
                    roots, energies, changes = _moves(json.loads(r_old), json.loads(r_new))
                    line += f", roots moved <= {roots:.2g}, energies <= {energies:.2g}"
                    line += "".join(f"; {c}" for c in changes) or ", same states, classes and audit"
                else:
                    line += ", a report is missing"
            identical &= line == "run identical" and diag == "identical"
            print(f"n={n:2d}: {line}; diag {diag}", flush=True)
    print("identical" if identical else "not identical")
    return identical


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    ns = [int(a) for a in argv[2:]] or range(2, 15)
    return 0 if compare(argv[0], argv[1], ns) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
