"""Time a cold start of ``umda-lab`` in this fresh interpreter.

Imports ``umda_lab.cli``, then parses and resolves the workload's experiment
config, which every ``umda-lab`` call pays before it does any work.  Prints
one JSON object: the import time and the whole set-up time, in seconds.

    python3 perfbench/setup_probe.py '<config json>'
"""

import json
import sys
import time

start = time.perf_counter()
import umda_lab.cli  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()
from umda_lab.experiments import parse_config, resolve_params  # noqa: E402

resolve_params(parse_config(json.loads(sys.argv[1])))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
