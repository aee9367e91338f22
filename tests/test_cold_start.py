"""``import nsvol`` and the paths that never optimize or test normality
load neither ``scipy.optimize`` nor ``scipy.stats``.

Each costs about 20 MB of resident memory and a tenth to a third of a
second at start-up, so both are imported at their one call site.  The
check runs in a fresh interpreter, since this test process has long
loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from nsvol.models import state_dependent
from nsvol.scheme import poisson_grid, save_grid_json
from nsvol.sde import observe, simulate_path, write_sample_csv

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys

HEAVY = ("scipy.optimize", "scipy.stats")


def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)


import nsvol
seen = {"import": loaded()}

from nsvol import cli, information, models, scheme
status = cli.main(["estimate", "--grid", sys.argv[1], "--sample", sys.argv[2],
                   "--model", "statedep", "--bayes-adaptive",
                   "--out", sys.argv[3]])
seen["estimate"] = loaded()

grid = scheme.poisson_grid(1.0, 2.0, 1.0, bn=200, seed=[4, 0])
scheme.check_a2(grid)
scheme.theta_length_sums(grid, 2)
dens = information.trace_densities([grid], z_values=(0.5,), bins=16)
information.information_matrix(models.get_model("corr"), [1.0, 0.5], dens)
seen["scheme-info"] = loaded()
print(json.dumps({"status": status, "seen": seen}))
"""


def test_heavy_scipy_subpackages_stay_unloaded(tmp_path):
    model = state_dependent()
    grid = poisson_grid(1.0, 2.0, 1.0, bn=60, seed=[3, 0])
    sample = observe(simulate_path(model, [1.0, 1.5], grid, seed=[3, 1]), grid)
    paths = [tmp_path / name for name in ("g.json", "s.csv", "est.json")]
    save_grid_json(grid, paths[0])
    write_sample_csv(sample, paths[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, paths)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["status"] == 0
    assert doc["seen"] == {"import": [], "estimate": [], "scheme-info": []}
    assert "sigma_tilde" in json.loads(paths[2].read_text())
