"""Regenerate the stored reference payloads of the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs rounds 0 and 1 of each workload at the default seed, refuses to store
a payload that fails its checks, and writes `perfbench/reference/<workload>.json`.
Benchmark runs at the default seed compare their payloads against these.
"""

import json
import sys

import run

REFERENCE_ROUNDS = 2


def main(names):
    run.load_program()
    import workloads

    run.REFERENCE.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        oracles = workloads.oracles(workload)
        rounds = {}
        for r in range(REFERENCE_ROUNDS):
            rounds[str(r)] = {}
            for task in workloads.build(workload, run.DEFAULT_SEED, r, oracles):
                _, payload, error = run.execute(task)
                problems = [error] if error else run.verify(task, payload, None)
                if problems:
                    raise SystemExit(f"{workload} round {r} {task.slot}: {problems}")
                rounds[str(r)][task.slot] = run.comparable(json.loads(payload))
        path = run.REFERENCE / f"{workload}.json"
        path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "rounds": rounds},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
