"""One program process: install probes, run one `downcast` command, record.

Usage: python3 bench/child.py --record FILE [--trace] -- <downcast arguments>

`downcast` is imported from PYTHONPATH, which `run.py` points at the
checkout's `src/`. The record (JSON) holds the command's exit code, its wall
time, the process's peak RSS, the environment and the probe's measurements.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

import probes
from downcast import cli, training


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    libs = sorted({
        field for field in Path("/proc/self/maps").read_text().split()
        if "openblas" in field and ".so" in field
    })
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    probe = probes.Tracer() if args.trace else probes.Timeline()
    probe.install()
    probe.run_start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - probe.run_start
    record = {
        "code": code,
        "run_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if code == 0 and (args.trace or argv[0] == "run"):
        record.update(probe.record())
    if code == 0 and argv[0] == "run":
        # The program's own last-value baseline on the same test windows and
        # masks; the benchmark reports test MAE relative to it.
        horizon = probe.model.config.horizon
        record["persistence_mae"] = training.persistence_metrics(probe.bundle, "test", horizon).mae
    Path(args.record).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
