"""One workload in one fresh process; started by run.py, not by hand.

Sets up the workload's inputs, runs an untimed warm-up pass, then timed
passes until --seconds have gone by, checking every job's result each time.
With --trace 1 it then installs the spans and runs one more pass, traced.
The last line of standard output is a JSON record for run.py.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def _import_finq():
    import finq
    if Path(finq.__file__).resolve().parent != ROOT / "src" / "finq":
        raise SystemExit(f"finq was imported from {finq.__file__}, "
                         f"not from {ROOT / 'src'}")


class Calibration:
    """A fixed kernel that shares no code with finq, timed between jobs.

    A shared virtual machine runs in speed phases that last seconds to
    minutes: on a 2-vCPU VM the same run's raw wall time moved by up to
    1.7x from one run to the next (see baseline.json). The kernel, a
    Python loop and numpy gathers like the library's own mix, slows with
    the machine. So each job's time is scaled by REFERENCE_S over the mean
    kernel time just before and just after it: a slower program still reads
    slower (checked by adding known work to the library), a slower machine
    much less so.
    Its table and each gather's temporary are 128 KiB of uint16, so that
    the kernel adds next to nothing to the workload's peak RSS.
    """

    REFERENCE_S = 0.02
    SAMPLES = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 256, size=(256, 256), dtype=np.uint16)
        self.rows = rng.integers(0, 256, size=(30, 256))

    def _once(self):
        start = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        for row in self.rows:
            self.table[row[:, None], row[None, :]].sum()
        return time.perf_counter() - start

    def __call__(self):
        """The kernel's median time over SAMPLES runs."""
        return float(np.median([self._once() for _ in range(self.SAMPLES)]))

    def scale(self, seconds, *kernels):
        """seconds at the reference speed, given kernel times around it."""
        return seconds * len(kernels) * self.REFERENCE_S / sum(kernels)


def run_pass(jobs, order, expected, failures, calibrate):
    """Run the jobs in the given order; returns the summed job time, raw
    and scaled to the calibration kernel's reference speed.

    Only the calls are timed. Checking a result happens after its clock
    stops, so the check never counts toward wall time.
    """
    total = scaled = 0.0
    kernel = calibrate()
    for i in order:
        job = jobs[i]
        elapsed = None
        start = time.perf_counter()
        try:
            out = job.call()
            elapsed = time.perf_counter() - start
            got = job.summarize(out)
            del out  # so that no result lives on into the next job's peak
        except Exception as exc:  # a raise is a failed job, not a crash
            got = f"raised {type(exc).__name__}: {exc}"
        if elapsed is None:
            elapsed = time.perf_counter() - start
        total += elapsed
        before, kernel = kernel, calibrate()
        scaled += calibrate.scale(elapsed, before, kernel)
        want = job.expected if job.expected is not None \
            else expected.get(job.name)
        if got != want:
            failures.append(f"{job.name}: got {got}, expected {want}")
    return total, scaled


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent when it started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_finq()
    import workloads

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=workdir, prefix=f"{args.workload}-")
    try:
        jobs = workloads.setup(args.workload, args.seed, tmpdir)
        raw_setup_s = time.monotonic() - args.spawned_at
        calibrate = Calibration()
        setup = {"raw_setup_s": raw_setup_s,
                 "setup_s": calibrate.scale(raw_setup_s, calibrate())}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        expected = json.loads(EXPECTED.read_text())[args.workload]

        rng = np.random.default_rng([args.seed, 0])
        failures = []
        attempted = 0

        def one_pass():
            nonlocal attempted
            attempted += len(jobs)
            return run_pass(jobs, rng.permutation(len(jobs)), expected,
                            failures, calibrate)

        one_pass()  # warm-up, untimed
        raw, passes = [], []
        while not raw or sum(raw) < args.seconds:
            total, scaled = one_pass()
            raw.append(total)
            passes.append(scaled)

        record = dict(setup, passes=passes, raw_passes=raw)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            for job in jobs:
                job.call = _tagged(tracer, job)
            traced = one_pass()[0]
            record["layers"] = tracing.layer_metrics(
                tracer.spans, traced - float(np.median(raw)))
            spans = workdir / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
        record.update(
            attempted=attempted, failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024)
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _tagged(tracer, job):
    call = job.call

    def tagged():
        tracer.job = job.name
        try:
            return call()
        finally:
            tracer.job = None
    return tagged


if __name__ == "__main__":
    sys.exit(main())
