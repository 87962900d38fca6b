"""What the tools that run the library of two source trees side by side share.

Children import `legendrian_lab` from <tree>/src, one BLAS/OpenMP thread
each; CHILD_IMPORT, their preamble, exits 3 on a library from another tree.
"""

import importlib.util
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CHILD_IMPORT = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import legendrian_lab
if Path(legendrian_lab.__file__).resolve().parents[1] != Path(sys.argv[1]).resolve():
    print(f"legendrian_lab imported from {legendrian_lab.__file__}", file=sys.stderr)
    sys.exit(3)
"""


def load_workloads():
    """perfbench/workloads.py of this tree, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_env():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return env | dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def library_sources(parser, trees):
    """<tree>/src of each tree; a usage error (exit 2) unless each holds the library."""
    srcs = [tree.resolve() / "src" for tree in trees]
    for src in srcs:
        if not (src / "legendrian_lab" / "cli.py").is_file():
            parser.error(f"no library source at {src}")
    return srcs
