"""Process plumbing shared by run.py and record_reference.py.

Every gffpin process is started alone and reaped with wait4, which gives
its own wall time, CPU time and peak RSS. Children get PYTHONPATH=src and
one BLAS thread, whatever the caller's environment says, so both sides of
a comparison run under the same BLAS threading; child.py env records it.
OpenBLAS's default of one thread per core oversubscribes the 2 cores of
the reference box when `--jobs 2` runs two chains at once (mass-pinned took
7.1-8.8 s against 2.9-3.9 s with one thread) and makes timings too noisy to
gate.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def ensure_work_root() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return WORK_ROOT


def sources_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "gffpin", "cli.py"))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update((name, "1") for name in BLAS_ENV)
    return env


@dataclass
class Proc:
    exit_code: int  # negative signal number if killed
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool
    stderr: str


def spawn(argv, cwd, timeout, env=None, stdout_path=None) -> Proc:
    """Run argv to completion (killed after `timeout` seconds), timed from
    spawn to exit; stderr is kept for failure reports."""
    err_path = os.path.join(cwd, "stderr.txt")
    out_path = stdout_path or os.devnull
    with open(err_path, "wb") as err, open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env or child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
            if not ready:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        except BaseException:
            # interrupted before the child was reaped: stop it, then reap it
            try:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(proc.pid, 0)
            raise
        finally:
            os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()[-2000:]
    return Proc(exit_code=proc.returncode, wall_s=t1 - t0,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0, timed_out=not ready,
                stderr=stderr)


def environment_record(cwd, timeout=60.0) -> dict:
    out_path = os.path.join(cwd, "env.json")
    proc = spawn([sys.executable, CHILD, "env"], cwd, timeout,
                 stdout_path=out_path)
    if proc.exit_code != 0:
        raise RuntimeError(f"environment probe failed: {proc.stderr}")
    with open(out_path) as fh:
        return json.load(fh)


def write_inputs(workload, cli_seed, rep_dir):
    """Write the kernel and config of one repetition; returns the config path."""
    os.makedirs(rep_dir, exist_ok=True)
    kernel_path = None
    if workload.kernel is not None:
        kernel_path = os.path.join(rep_dir, "kernel.txt")
        with open(kernel_path, "w") as fh:
            fh.write(workload.kernel)
    config_path = os.path.join(rep_dir, "config.txt")
    with open(config_path, "w") as fh:
        fh.write(workload.config_text(cli_seed, kernel_path))
    return config_path


def run_setup(workload, config_path, rep_dir, timeout) -> Proc:
    return spawn([sys.executable, CHILD, "setup", workload.command,
                  config_path], rep_dir, timeout)


def run_cli(workload, config_path, out_dir, rep_dir, timeout,
            spans_path=None) -> Proc:
    """One fresh CLI process; traced through child.py when spans_path is set."""
    args = [workload.command, config_path, "--jobs", str(workload.jobs),
            "--output-dir", out_dir]
    if spans_path is None:
        argv = [sys.executable, "-m", "gffpin.cli", *args]
    else:
        argv = [sys.executable, CHILD, "trace", spans_path, *args]
    return spawn(argv, rep_dir, timeout)
