"""Record the payload digests the benchmark checks its outputs against.

    python3 perfbench/record_expected.py

Runs every cell of every workload at the workload's default seed and
at :data:`HELD_OUT_SEED`, once under each charging engine, requires
the two engines to produce identical digests, and writes
``expected.json``.  Run it again only after a change that is meant to
alter simulated results, and say so in that change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

#: A seed no workload uses by default: a claimed gain can be checked
#: on inputs no one tuned against.
HELD_OUT_SEED = 11

ENGINES = ("compiled", "pure")


def digests(name, spec, seed, env):
    """The cell digests of one pass, identical under both engines."""
    by_engine = {}
    for engine in ENGINES:
        os.environ["REPRO_ENGINE"] = engine
        spec_engine = dict(spec, engine=engine)
        if spec["kind"] == "paper":
            result = run.paper_pass(spec_engine, seed)
        else:
            result = run.scale_pass(spec_engine, seed, env)
        if result.failed:
            raise SystemExit("%s seed %d on %s: %s"
                             % (name, seed, engine, result.failed[:3]))
        by_engine[engine] = result.hashes
        run.log("%s seed %d %s: %d digests"
                % (name, seed, engine, len(result.hashes)))
    first, second = (by_engine[e] for e in ENGINES)
    if first != second:
        differ = sorted(k for k in set(first) | set(second)
                        if first.get(k) != second.get(k))
        raise SystemExit("%s seed %d: the engines disagree on %s"
                         % (name, seed, differ[:5]))
    return first


def main():
    table = {}
    for name, spec in sorted(run.WORKLOADS.items()):
        env = run.Env(spec["engine"])
        try:
            table[name] = {
                str(seed): digests(name, spec, seed, env)
                for seed in (spec["seed"], HELD_OUT_SEED)
            }
        finally:
            env.close()
    with open(run.EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    run.log("wrote %s" % run.EXPECTED_PATH)


if __name__ == "__main__":
    main()
