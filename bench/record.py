#!/usr/bin/env python3
"""Record the reference results the benchmark checks against.

For every instance seed ``0 .. CATALOG - 1`` and size profile, run one pass
of each workload, keep the values a later run must reproduce (brute-force
minima, fitted edge losses), and confirm that the pass meets every other
check. A seed whose pass fails a check at the recording commit is left out
of the catalog and listed under ``excluded`` with the failure, so runs use
only instances on which the checks' premises hold. Writes
``bench/references.json``.

    python3 bench/record.py [--profile full|smoke] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--profile", action="append", choices=("full", "smoke"))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    run.configure_blas_threads()
    from workloads import CATALOG, Checker, WORKLOADS

    for profile in args.profile or ("smoke", "full"):
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            size = workload.sizes[profile]
            table, excluded = {}, {}
            base = run.OUT / f"record-{profile}-{name}-{os.getpid()}"
            for seed in range(CATALOG):
                _wall_s, _ref_s, main_fn, inputs = run.setup(
                    workload, base / "inputs", seed, size)
                out = base / "out"
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                elapsed, calls = run.run_pass(main_fn, workload.commands(inputs, out, seed, size))
                reference = workload.reference(out, calls, size)
                checker = Checker()
                workload.check(checker, out, calls, reference, size)
                if checker.failed:
                    excluded[str(seed)] = "; ".join(checker.messages[:3])
                else:
                    table[str(seed)] = reference
                status = "ok" if checker.failed == 0 else f"EXCLUDED {checker.messages[:3]}"
                print(f"{profile} {name} seed={seed} pass_s={elapsed:.3f} {status}", flush=True)
            shutil.rmtree(base, ignore_errors=True)
            # Re-read before writing, so recordings of other workloads made
            # meanwhile are kept.
            current = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
            current.setdefault(profile, {})[name] = table
            current.setdefault("excluded", {}).setdefault(profile, {})[name] = excluded
            run.REFERENCES.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
