"""Child processes the benchmark starts, one mode each.

    python3 perfbench/child.py setup <command> <config>
        Import gffpin.cli, validate the config and load the kernel, then
        exit: the CLI's set-up before any layer does work.
    python3 perfbench/child.py env
        Print the environment record as JSON.
    python3 perfbench/child.py trace <spans.json> <gffpin CLI args...>
        Run the CLI with every layer entry point wrapped in spans, and
        write the spans at exit.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(command, config_path):
    from gffpin import cli, walk

    with open(config_path) as fh:
        raw = cli.parse_config_text(fh.read())
    violations = cli.validate(command, raw)
    if violations:
        print("\n".join(violations), file=sys.stderr)
        return 2
    cfg = cli.parse_command_config(command, raw)
    if "kernel_file" in cfg:
        walk.kernel_from_file(cfg["kernel_file"])
    return 0


def _openblas_runtime(package_dir):
    """Config string and thread count of an OpenBLAS bundled in a wheel."""
    out = []
    for lib_path in sorted(glob.glob(os.path.join(
            package_dir + ".libs", "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        entry = {"library": os.path.basename(lib_path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def env():
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_runtime": {
            "numpy": _openblas_runtime(os.path.dirname(numpy.__file__)),
            "scipy": _openblas_runtime(os.path.dirname(scipy.__file__)),
        },
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(record))
    return 0


def trace(spans_path, argv):
    import tracing
    from gffpin import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 3:
        return setup(argv[1], argv[2])
    if mode == "env" and len(argv) == 1:
        return env()
    if mode == "trace" and len(argv) >= 3:
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
