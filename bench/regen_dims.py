#!/usr/bin/env python3
"""Regenerate bench/cohomology_dims.json, the reference dimensions of
Z2_sc, Z3 and B3 on the cohomology ladder, from the library at this
checkout:

    python3 bench/regen_dims.py

The dimensions are not pinned down by any property the oracle can check
on its own, so the cohomology workload compares them with this file.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    dims = workloads.cohomology_dims(run.import_library())
    workloads.DIMS_FILE.write_text(json.dumps(dims, indent=1) + "\n")
    print(json.dumps(dims, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
