"""Write the singular root sets that the nw-sweep workload sweeps.

    python3 benchmark/make_nw_inputs.py --n 8 --seed 42
    python3 benchmark/make_nw_inputs.py --n 4 --seed 42    # smoke-mode input

Solves every sector of the n-site chain with ``SolverConfig(seed=...)``,
keeps the physical and non-physical singular root sets, and writes them,
with the solver seed and settings, to
``benchmark/data/nw_sweep_n<n>.json``.  The workload re-checks every set
with ``bae_residual`` and ``classify`` when it loads the file, so a file
that no longer matches the package fails loudly; run this script again
to regenerate it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from bethe_lab import baesolver  # noqa: E402

SINGULAR = (baesolver.PHYSICAL_SINGULAR, baesolver.NONPHYSICAL_SINGULAR)


def singular_rootsets(n: int, cfg: baesolver.SolverConfig) -> list[baesolver.RootSet]:
    return [
        rs
        for ell in range(2, n // 2 + 1)
        for rs in baesolver.solve_sector(n, ell, cfg)
        if rs.classification in SINGULAR
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args(argv)

    cfg = baesolver.SolverConfig(seed=args.seed)
    settings = {
        k: sorted(v) if isinstance(v, frozenset) else v
        for k, v in dataclasses.asdict(cfg).items()
    }
    data = {
        "generator": f"python3 benchmark/make_nw_inputs.py --n {args.n} --seed {args.seed}",
        "n": args.n,
        "solver_seed": args.seed,
        "solver_settings": settings,
        "rootsets": [
            {
                "roots": [[z.real, z.imag] for z in rs.roots],
                "classification": rs.classification,
                "residual": rs.residual,
            }
            for rs in singular_rootsets(args.n, cfg)
        ],
    }
    out = BENCH_DIR / "data" / f"nw_sweep_n{args.n}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    counts = {c: sum(r["classification"] == c for r in data["rootsets"]) for c in SINGULAR}
    print(f"wrote {out}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
