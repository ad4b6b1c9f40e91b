"""One cold set-up of a workload, timed: import quambo, then build what the workload uses.

Usage: python3 bench/setup_probe.py <workload>
Prints one JSON object: {"import_s": ..., "build_s": ..., "objects": ...}.
The benchmark runs this in a fresh interpreter several times and reports the
median, so every repeat pays the import again.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import quambo.cli  # noqa: E402,F401  (imports every quambo module, numpy and scipy)

imported = time.perf_counter()
from studies import WORKLOADS, build_all  # noqa: E402

objects = build_all(WORKLOADS[sys.argv[1]])
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported, "objects": objects}))
