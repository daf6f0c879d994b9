"""Benchmark of the motzkin package: four seeded workloads, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each round of the workload runs in a fresh interpreter
(``worker.py``); another round starts while it would end closer to
``--seconds`` than stopping does (at least two untraced rounds, or one untraced/traced pair with
``--trace 1``), and set-up is timed in at least five fresh processes.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count the output checks of the first two worker
processes (rounds 0 and 1, or round 0 untraced and traced), which every run
makes on inputs fixed by the seed, so the counts do not grow with the
number of rounds a faster program fits in.  ``failed`` leaves out failures
of the known defects of ``worker.KNOWN_DEFECTS``; ``correct`` is true only
when no other check of any round failed.  With ``--trace 0`` the metrics are the end-to-end ones of
``metrics.END_TO_END``; with ``--trace 1`` each round runs twice on the same
inputs, untraced then traced, the metrics are the per-layer ones and the
spans go to ``.bench_out/trace-<workload>-seed<N>.json``.  Lines before the
last one are for people: every metric with its unit and sample count, the
share of failed checks (known defects included), the residual margin, the
failures, the known-defect failures and the interpreter, numpy/BLAS build, thread count and core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
from plan import WORKLOADS  # noqa: E402
from spans import self_times  # noqa: E402
from worker import KNOWN_DEFECTS, _exit_on_signal  # noqa: E402

# BLAS/OpenMP threads for the program.  One thread: on a shared two-core
# machine two threads made the same round vary by 10-15 % between runs,
# against about 1 % with one.
THREADS = 1
RUN_LIMIT_S = 170
MIN_UNTRACED_ROUNDS = 2
# Set-up is sampled at least this often per run; processes beyond the rounds
# do the set-up and exit.
SETUP_SAMPLES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Same start-up cost in every process, and nothing written to src/.
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS=str(THREADS),
        OPENBLAS_NUM_THREADS=str(THREADS),
        MKL_NUM_THREADS=str(THREADS),
    )
    return env


def run_round(args, index: int, traced: bool, env: dict, started: float,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(index), "--trace", str(int(traced))]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise RuntimeError("no time left for another round")
    spawned_at = time.monotonic()
    with subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            # SIGTERM first: the worker then stops the CLI process it is waiting on.
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"round {index} exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_rounds(args) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced rounds, with tracing the traced twin of each, and the
    set-up times of all untraced processes."""
    env = child_env()
    started = time.monotonic()
    untraced, traced, costs = [], [], []
    index = 0
    while True:
        enough = len(untraced) >= (1 if args.trace else MIN_UNTRACED_ROUNDS)
        elapsed = time.monotonic() - started
        # Start a round if it would end closer to --seconds than stopping now.
        if enough and elapsed + statistics.median(costs) / 2 > args.seconds:
            break
        t = time.monotonic()
        untraced.append(run_round(args, index, False, env, started))
        if args.trace:
            traced.append(run_round(args, index, True, env, started))
        costs.append(time.monotonic() - t)
        index += 1
    setups = [r["setup_s"] for r in untraced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_round(args, index, False, env, started, setup_only=True)["setup_s"])
        index += 1
    return untraced, traced, setups


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
    }
    try:
        import numpy

        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        env.update(numpy=numpy.__version__, blas=f"{blas['name']} {blas['version']}")
    except (ImportError, KeyError, AttributeError):
        env["numpy"] = "unknown"
    return env


def report(args, untraced, traced, setups, values, counts, failures, known):
    print(f"# bench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(untraced)}{f'+{len(traced)} traced' if traced else ''}")
    e2e = metrics.end_to_end(untraced, setups)
    for name, m in e2e.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {m['samples']})")
    attempted, failed, known_failed = counts
    print(f"check_fail_share = {failed / attempted:.6g} ratio ({failed} of {attempted} checks, "
          f"{known_failed} of them known defects)")
    margin = metrics.residual_margin_log10(untraced + traced)
    if margin is not None:
        print(f"residual_margin_log10 = {margin:.4f} log10 (median over rounds)")
    if traced:
        for name, m in values.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for label in failures[:30]:
        print(f"FAIL {label}")
    if len(failures) > 30:
        print(f"... {len(failures) - 30} more distinct failures")
    for defect in sorted({label.split(":")[0] for label in known}):
        print(f"KNOWN DEFECT {defect}: {KNOWN_DEFECTS[defect]}")
    for label in known[:30]:
        print(f"KNOWN {label}")
    if len(known) > 30:
        print(f"... {len(known) - 30} more distinct known-defect failures")
    print("# env " + json.dumps(environment(), sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)

    if not (ROOT / "src" / "motzkin" / "__init__.py").is_file():
        print(f"error: no motzkin sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        untraced, traced, setups = run_rounds(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    counted = untraced[:1] + traced[:1] if traced else untraced[:MIN_UNTRACED_ROUNDS]
    attempted, failed, known_failed = metrics.check_counts(counted)
    all_counts = metrics.check_counts(untraced + traced)
    failures = sorted({f for r in untraced + traced for f in r["checks"]["failures"]})
    known = sorted({f for r in untraced + traced for f in r["checks"]["known_failures"]})
    if traced:
        values = metrics.per_layer(traced, untraced)
        for r in traced:
            own = self_times(r["spans"])
            for span in r["spans"]:
                span["self_s"] = own[span["id"]]
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": environment(),
            "rounds": [{k: r[k] for k in ("round", "wall_s", "setup_s", "setup_parts",
                                          "peak_rss_mb", "spans")}
                       for r in traced],
            "untraced_wall_s": [r["wall_s"] for r in untraced],
        }))
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        values = {name: {"value": m["value"], "unit": m["unit"]}
                  for name, m in metrics.end_to_end(untraced, setups).items()}
    report(args, untraced, traced, setups, values, all_counts, failures, known)
    _, all_failed, all_known = all_counts
    print(json.dumps({"correct": all_failed == all_known, "attempted": attempted,
                      "failed": failed - known_failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
