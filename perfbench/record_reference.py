"""Record the reference losses that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once at the reference seed of ``expected.json`` and
writes the per-epoch training losses of every ``train()`` call back into it.
Record only when a workload's definition changes, never to make a run pass.
"""

import json
import sys

import run  # sets the BLAS thread count before numpy loads
import workloads


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT_DIR.mkdir(exist_ok=True)
    expected = json.loads(run.EXPECTED.read_text())
    for name, workload in workloads.WORKLOADS.items():
        rep = run.run_rep(workload, expected["reference_seed"], False,
                          run.OUT_DIR / "work-reference")
        if rep.problems:
            raise SystemExit(f"{name}: {rep.problems}")
        expected["losses"][name] = rep.outcome.losses
        print(name, rep.outcome.losses)
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
