#!/usr/bin/env python3
"""Write bench/reference.json: every op of every workload run once at this commit.

    python3 bench/make_reference.py

Run from the repository root, and only at a commit whose numbers are trusted:
the gate in bench/run.py compares every later run against this file.
"""

import json

import harness
import run


def main() -> int:
    reference = {}
    for name in harness.WORKLOAD_NAMES:
        scenarios, ops = run.prepare(name)
        reference[name] = {}
        for op in ops:
            result = harness.run_op(op, lambda o: run.execute(scenarios, o))
            reference[name][op.label] = harness.reference_entry(result)
            print(f"{name} {op.label}: {result.error or 'ok'} ({result.seconds:.2f} s)", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
