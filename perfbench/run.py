"""Benchmark launcher: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

Starts the driver (:mod:`perfbench.driver`) in a fresh interpreter,
pinned to one CPU and with single-threaded BLAS. With ``--trace 0`` it
first starts the driver four times in set-up-only mode and reports
``setup_s`` as the median of five set-ups, each timed from process start
to the first timed op and probe-adjusted with a probe taken just before
the process starts.

Prints one JSON object as the last line of stdout. Exits non-zero,
printing no result, when the program source is missing or a driver
fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.probe import MachineProbe  # noqa: E402

SETUP_SAMPLES = 5
#: Wall-clock budget for all driver processes of one invocation.
BUDGET_S = 170.0


class DriverError(RuntimeError):
    pass


def _running_in_group(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running (not a zombie)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, _, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            return True
    return False


def _stop_group(pgid: int) -> None:
    """Wait until every process of the driver's session has ended.

    The driver's helpers (multiprocessing's resource tracker, worker
    processes) exit with it; any still running after a second are killed.
    """
    deadline = time.monotonic() + 1.0
    while _running_in_group(pgid):
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.01)


def _driver(args, extra, env, probe: MachineProbe, deadline: float) -> dict:
    env = dict(env)
    env["PERFBENCH_PROBE_MS"] = repr(probe.measure_ms())
    cmd = [
        sys.executable, "-m", "perfbench.driver",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise DriverError("driver ran out of time") from None
    finally:
        _stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise DriverError(f"driver exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: program source src/repro not found", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    # One CPU for the whole process tree: the probe then measures the CPU
    # the workload runs on, and a worker process cannot land on the other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + BUDGET_S
    probe = MachineProbe()
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(
                    _driver(args, ["--setup-only"], env, probe, deadline)["setup_s"]
                )
        result = _driver(args, [], env, probe, deadline)
    except DriverError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result.pop("setup_s"))
    if args.trace == 0:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
