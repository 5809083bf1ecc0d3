"""Record the trace digest of every workload for seeds 0..31 in pins.json.

Run from the repository root after a change that alters the simulator's
behaviour on purpose:

    python3 benchmarks/pin.py

The digests come from the simulator's own `run_scenario`, so `run.py`'s
event-by-event loop is checked against it on every pinned run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_SEEDS = range(32)


def main() -> int:
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    from flexichain.netsim import ScenarioConfig, run_scenario

    import run

    pins = {}
    for workload in run.WORKLOADS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            config = ScenarioConfig.from_dict(run.scenario_for(workload, seed))
            pins[workload][str(seed)] = run_scenario(config).trace_digest.hex()
        print(f"{workload}: {len(PINNED_SEEDS)} seeds pinned", flush=True)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
