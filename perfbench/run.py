"""The finq benchmark: four workloads, each in its own fresh process.

    python3 perfbench/run.py [--workload build|laws|cli|mn|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``. Workloads, one at a time, single-threaded:

  build  tight and bullet quantale construction (lattice, raney)
  laws   law checks, residuals, Frobenius, Chu, phase (quantale, nuclei)
  cli    the in-process command line: writes, reads and rejects (formats, cli)
  mn     the M_n census (diamonds)

End-to-end metrics (--trace 0), measured with tracing off:

  wall_s       median over the timed passes of a pass's summed job time,
               each job's time scaled by a fixed calibration kernel timed
               around it (worker.py's Calibration), so that the speed
               phases of a shared machine cancel; the pass count and the
               unscaled median are printed too
  setup_s      process start to inputs ready, scaled by the kernel timed
               right after it; median of several starts (SETUP_SAMPLES)
  peak_rss_mb  ru_maxrss of the workload process after its last pass

A result that differs from ``expected.json`` (or, for the rejected files,
from the benchmark's own law scan), or a job that raises, is a failure;
failed / attempted is the fail ratio. Any failure makes the exit status 1.
With --trace 1 the run reports the per-layer metrics of one extra traced
pass instead, and keeps its spans under ``.perfbench/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "laws", "cli", "mn")
# process starts per setup_s: more where a start is cheap, so that the
# median is steady, fewer where setup itself takes seconds
SETUP_SAMPLES = {"build": 9, "laws": 3, "cli": 5, "mn": 9}
DEFAULT_SEED = 1
WORKER_TIMEOUT_S = 170


def _child_env():
    # Fixed string hashing and one BLAS/OpenMP thread in every worker. glibc
    # raises its mmap and trim thresholds as large arrays are freed, so peak
    # RSS would depend on the seeded job order; fixing them at the values
    # that tuning ends at (32 MiB and 64 MiB) keeps the speed and removes
    # the order dependence.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(workload, seed, seconds, trace, *flags):
    """Start one worker process, wait for it, and return its JSON record."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), *flags]
    spawned_at = time.monotonic()
    proc = subprocess.run([*argv, "--spawned-at", repr(spawned_at)],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} worker exited with status "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Returns (attempted, failed, metrics) and prints a summary line."""
    record = _worker(workload, seed, seconds, trace)
    attempted, failed = record["attempted"], len(record["failures"])
    for failure in record["failures"][:20]:
        print(f"FAIL {workload}: {failure}", file=sys.stderr)
    fail_ratio = (f"fail_ratio={failed / attempted:g} 1 "
                  f"({failed}/{attempted} jobs)")
    passes = record["passes"]
    if trace:
        metrics = record["layers"]
        print(f"{workload}: spans of the traced pass in "
              f"{record['spans_file']}; trace.overhead_s="
              f"{metrics['trace.overhead_s']['value']:.4f} s {fail_ratio}")
        return attempted, failed, metrics
    setups = [record] + [
        _worker(workload, seed, seconds, 0, "--setup-only")
        for _ in range(SETUP_SAMPLES[workload] - 1)]
    metrics = {
        "wall_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                    "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
    }
    print(f"{workload}: wall_s={metrics['wall_s']['value']:.4f} s "
          f"(median of {len(passes)} timed passes after 1 warm-up; raw "
          f"{statistics.median(record['raw_passes']):.4f} s) "
          f"setup_s={metrics['setup_s']['value']:.4f} s "
          f"(median of {len(setups)}; raw "
          f"{statistics.median(s['raw_setup_s'] for s in setups):.4f} s) "
          f"peak_rss_mb={metrics['peak_rss_mb']['value']:.1f} MiB "
          f"{fail_ratio}")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "finq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no finq sources under {ROOT / 'src'}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
