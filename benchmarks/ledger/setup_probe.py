"""One fresh-interpreter set-up of a workload, for ``setup_s``.

``run.py`` launches this several times and times each launch from the
outside (process start to exit), so interpreter start-up, the imports
and every cell's preparation are all inside the number: pin, import
``repro.harness``, then build, compile, lay out and construct every
cell of the workload and compute its numpy reference.  No simulation.
Prints the import share for ``harness.import_s``.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    import ledger_protocol
    ledger_protocol.pin()
    ledger_protocol.use_source_tree()
    import ledger_workloads
    import_s = perf_counter() - t0
    ledger_workloads.set_up(ledger_workloads.WORKLOADS[sys.argv[1]])
    print(json.dumps({"import_s": import_s,
                      "prepare_s": perf_counter() - t0 - import_s}))


if __name__ == "__main__":
    main()
