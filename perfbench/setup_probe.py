"""Set-up work of one swarmbo invocation, run in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG.yaml

Imports `swarmbo.cli`, loads the config and builds its search space, then
prints one JSON line with the time each step took. The parent process times
the whole interpreter from start to exit as `setup_s`.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(config_path):
    t0 = time.perf_counter()
    from swarmbo import bench, cli

    t1 = time.perf_counter()
    raw = cli.load_config(config_path)
    t2 = time.perf_counter()
    bench.default_space(bench.ObjectiveSpec(**raw["objective"]))
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1, "space_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1])
