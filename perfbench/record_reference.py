"""Record the reference values the workload checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: eval_u of the Scherk solution at 64 pinned
points, the traizet reports of the meshes checked against a recorded value
(resolutions below 128), the sharp energy of the hairpin minimize run, and
the hairpin Weiss energy, each at the full and the smoke-test sizes.  Rerun
it only on a commit whose outputs are trusted, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import worker


def _cli(argv, out: Path, report: str) -> dict:
    import onephase.cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = onephase.cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {rc}")
    return json.loads((out / report).read_text())


def main() -> int:
    worker.import_onephase()
    import numpy as np
    import onephase
    import workloads

    pts = np.random.default_rng(20190201).uniform(-2.0, 2.0, (64, 2))
    ref = {"commit": subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                    capture_output=True, text=True,
                                    cwd=worker.ROOT).stdout.strip(),
           "scherk_eval": {"points": pts.tolist(),
                           "u": onephase.Scherk(0.5, 1.0).eval_u(pts)
                           .tolist()},
           "traizet": {}, "minimize_hairpin_energy": {}, "weiss_hairpin": {}}
    worker.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.RUNS) as tmp:
        out = Path(tmp)
        for sizes in (workloads.FULL, workloads.TINY):
            for family, res in (("scherk", sizes.scherk_mesh),
                                ("hairpin", sizes.hairpin_mesh)):
                if res >= 128:
                    continue
                rep = _cli(["traizet", "--family", family, "--resolution",
                            str(res)], out, f"traizet_{family}_report.json")
                ref["traizet"][f"{family}.{res}"] = {
                    k: rep[k] for k in ("n_vertices", "max_interior_abs_H",
                                        "max_orthogonality_defect")}
            res = sizes.minimize_resolution
            rep = _cli(["minimize", "--family", "hairpin", "--param",
                        "a=0.25", "--resolution", str(res)], out,
                       "minimize_report.json")
            ref["minimize_hairpin_energy"][str(res)] = rep["energy"]
            ref["weiss_hairpin"][workloads.weiss_key(sizes)] = \
                onephase.weiss_energy(onephase.Hairpin(1.0),
                                      sizes.weiss_center, 0.5)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
