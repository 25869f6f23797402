"""Time one program set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_child.py <workload>

Prints the seconds taken to import maskquorum and its CLI, build the
workload's handles and warm lazy module state.  A fresh interpreter is used
so that the imports of numpy and scipy count as they do for a user.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import maskquorum
    import maskquorum.cli  # noqa: F401

    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]]().setup(maskquorum)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
