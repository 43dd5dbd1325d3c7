"""One-command full regeneration of every artefact.

    python tools/run_all.py [--fresh] [--jobs N]

Runs the unit/integration test suite, then the benchmark suite, whose
tests rewrite the artefacts they own in ``results/``.  ``--fresh``
first clears the result cache, which keys payloads by config alone:
after a model change only a cold cache renders the new model.
``--jobs N`` fans the sweeps out over N worker processes (exported as
``REPRO_JOBS`` for the benchmark fixtures; default one per CPU).
"""

import os
import shutil
import subprocess
import sys


def run(cmd):
    print("+ %s" % " ".join(cmd), flush=True)
    return subprocess.call(cmd)


def main(argv):
    argv = list(argv)
    if "--jobs" in argv:
        i = argv.index("--jobs")
        try:
            jobs = int(argv[i + 1])
        except (IndexError, ValueError):
            print("--jobs requires an integer", file=sys.stderr)
            return 2
        del argv[i:i + 2]
        os.environ["REPRO_JOBS"] = str(max(1, jobs))
        print("sweeps will use %d worker process(es)" % max(1, jobs))

    if "--fresh" in argv:
        from repro.core.experiment import ResultCache

        shutil.rmtree(ResultCache().directory, ignore_errors=True)
        print("cleared the result cache")

    failures = run([sys.executable, "-m", "pytest", "tests/", "-q"])
    failures += run([
        sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
        "-q",
    ])
    if failures:
        print("\nFAILURES above", file=sys.stderr)
        return 1
    print("\nall artefacts regenerated; see results/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
