"""Generate the pinned crash-recovery oracle fixture.

Writes ``recovery_oracle.json``: the ``deterministic_view`` (config
block dropped) of two armed chaos serves from
``tests/test_service_recovery.py`` (``checkpoint_interval=64``,
failover, breakers), keyed by campaign name:

- ``crash_campaign`` — the scripted crash/watchdog/crash campaign;
- ``edge_campaign`` — a crash on the very first pump after the first
  lease, then a watchdog trip on the next pumped cycle.

The committed output was produced on the tree *before* service epochs
were deferred to the start of the next pump.  The recovery tests
compare live serves on both schedulers against it, so a change to when
epochs are taken that shifts every run the same way still fails.  Do
not regenerate it to make a failing comparison pass.

Run from the repository root::

    PYTHONPATH=src python -m tests.fixtures.gen_recovery_oracle
"""

from __future__ import annotations

import json
import os

from repro.analysis.tenants import deterministic_view
from tests.test_service_recovery import ORACLE_CAMPAIGNS, _ARMED, _serve

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "recovery_oracle.json")


def main() -> None:
    oracle = {
        name: deterministic_view(
            _serve(chaos=campaign(), **_ARMED), ignore_config=True
        )
        for name, campaign in sorted(ORACLE_CAMPAIGNS.items())
    }
    with open(ORACLE_PATH, "w") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, view in oracle.items():
        print(f"{name}: recovery={view['recovery']['crashes']} crashes, "
              f"{view['recovery']['recoveries']} recoveries")


if __name__ == "__main__":
    main()
