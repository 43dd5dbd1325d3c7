"""Each process loads only what it runs.

Every check starts a fresh interpreter, runs one import, and reads
``sys.modules``: the CLI module alone loads nothing of the package,
building its parser loads no simulator module and no sweep pool, and
configs, results and the result cache (:mod:`repro.core.experiment`)
load without the simulator, the sweep pool or the run store's
database.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Simulator packages and modules that only a simulated cell needs.
SIMULATOR_PACKAGES = ("repro.kernel", "repro.net", "repro.sim",
                      "repro.apps", "repro.prof")
SIMULATOR_MODULES = ("repro.cpu.core", "repro.cpu.compiled",
                     "repro.mem.system", "repro.core.cell")


def loaded_after(code):
    """Module names in ``sys.modules`` after running ``code`` in a
    fresh interpreter."""
    script = "import json, sys\n%s\nprint(json.dumps(sorted(sys.modules)))" \
        % code
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def simulator_modules(modules):
    return sorted(
        name for name in modules
        if name in SIMULATOR_MODULES
        or any(name == pkg or name.startswith(pkg + ".")
               for pkg in SIMULATOR_PACKAGES)
    )


def test_cli_module_loads_nothing_of_the_package():
    modules = loaded_after("import repro.cli")
    assert sorted(m for m in modules
                  if m.startswith("repro")) == ["repro", "repro.cli"]


def test_cli_parser_loads_no_simulator():
    modules = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert simulator_modules(modules) == []


def test_cli_parser_loads_no_sweep_pool():
    modules = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert sorted(modules & {"repro.core.parallel", "multiprocessing"}) == []


def test_experiment_loads_no_simulator_pool_or_database():
    modules = loaded_after("import repro.core.experiment")
    assert simulator_modules(modules) == []
    assert sorted(modules & {"repro.core.parallel", "concurrent.futures",
                             "multiprocessing", "sqlite3"}) == []
