"""The arrowcat benchmark: one workload, closed loop, one client, one thread.

    python3 bench/run.py --workload cli-check --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run builds its inputs from the seed, warms up, then runs
whole cycles of the workload's jobs until the jobs have taken ``--seconds``
and at least 100 have run.  Each job's verdict is checked outside the timed
region against a value known from how its input was built.  Set-up time is
counted from the first line of this file to the first timed job.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run wraps arrowcat's public
functions from outside (see ``tracer.py``), runs a fixed number of cycles
alternately untraced and traced, and reports per-layer metrics instead;
they cover the set-up and the traced cycles.  Spans are written to
``.bench_out/``.

``--tiny`` shrinks every input and ``--wrong-answer`` inverts one expected
verdict; ``selfcheck.py`` uses both to show that the checker catches errors.
"""
import time

_T0 = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile
SIDE_SLOTS = 7  # times a run stops for a set-up-only child and two cold CLI starts
TRACE_CYCLES = {"cli-check": 2, "decide": 6, "limits": 1}  # each run untraced and traced

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_cold_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-check", "decide", "limits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input")
    parser.add_argument("--wrong-answer", action="store_true",
                        help="invert the expected verdict of one job kind")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """Latencies and verdicts of the jobs run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def verdict(self, kind: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {detail or 'wrong verdict'}")


def run_job(job, tally: Tally, tracer=None, job_id=None, fresh_heap=False) -> float:
    """Time one job; check its verdict outside the timed region.

    With ``fresh_heap`` the cyclic garbage collector runs before the clock
    starts, so the job's own collections do not depend on what earlier jobs
    left behind.
    """
    if fresh_heap:
        gc.collect()
    if tracer is not None:
        tracer.begin_job(job_id)
    start = time.perf_counter()
    try:
        result = job.call()
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    if error is not None:
        tally.verdict(job.kind, False, error)
        return elapsed
    try:
        ok = bool(job.expect(result))
    except Exception:
        ok = False
    tally.verdict(job.kind, ok)
    return elapsed


def run_cycle(workload, rng: random.Random, tally: Tally, kinds: dict, tracer=None, label=""):
    """One pass over every job in a seeded order, yielding each job's time."""
    order = list(range(len(workload.cycle)))
    rng.shuffle(order)
    for k in order:
        job = workload.cycle[k]
        elapsed = run_job(job, tally, tracer, f"{label}{k}", workload.fresh_heap)
        tally.latencies.append(elapsed)
        kinds.setdefault(job.kind, []).append(elapsed)
        yield elapsed


def setup(args, workdir: Path):
    """Import the package, build the seeded inputs and warm up."""
    import workloads

    rng = random.Random(args.seed)
    workload = workloads.build(args.workload, rng, workdir, args.tiny)
    if args.wrong_answer:
        first = workload.cycle[0].kind
        workload.cycle = [
            job if job.kind != first else dataclasses.replace(job, expect=lambda r, e=job.expect: not e(r))
            for job in workload.cycle
        ]
    scratch = Tally()
    for job in workload.warmup_jobs():
        run_job(job, scratch, fresh_heap=workload.fresh_heap)
    return workload, rng


def setup_child(args) -> float:
    """Set-up time of a fresh process that stops before the first timed job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def cli_cold(one: Path, tally: Tally) -> float:
    """Wall time of a fresh ``python -m arrowcat.cli identities`` on a one-arrow file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "arrowcat.cli", "identities", str(one), "--cat", "One"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=one.parent, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    tally.verdict("cli_cold", proc.returncode == 0 and proc.stdout.split() == ["star"], proc.stderr.strip()[-200:])
    return elapsed


def check_oracles(workload, tally: Tally) -> None:
    for name, check in workload.oracles:
        try:
            ok = bool(check())
        except Exception:
            ok = False
        tally.verdict(f"oracle: {name}", ok)


def measure(args, workdir: Path) -> tuple[dict, Tally, dict]:
    workload, rng = setup(args, workdir)
    setup_s = [time.perf_counter() - _T0]
    one = workdir / "one.cat"
    one.write_text("objless One {\n  arrows: star;\n  compose: star . star = star;\n}\n", encoding="utf-8")
    tally, side, kinds, cold = Tally(), Tally(), {}, []
    slots = 1 if args.tiny else SIDE_SLOTS
    min_jobs = 1 if args.tiny else MIN_JOBS
    # The loop runs whole cycles until --seconds of job time have passed.  The
    # set-up and cold-start samples are spread over the run, between jobs, so
    # their medians do not all fall in one slow or fast stretch of the host.
    job_time = 0.0
    cycles = 0
    while cycles == 0 or job_time < args.seconds or len(tally.latencies) < min_jobs:
        for elapsed in run_cycle(workload, rng, tally, kinds):
            job_time += elapsed
            if len(cold) < 2 * slots and job_time >= args.seconds * len(cold) / (2 * slots):
                cold += [cli_cold(one, side), cli_cold(one, side)]
                if not args.tiny:
                    setup_s.append(setup_child(args))
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_oracles(workload, tally)

    lat = tally.latencies
    metrics = {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "cli_cold_ms": statistics.median(cold) * 1e3,
    }
    tally.attempted += side.attempted
    tally.failed += side.failed
    tally.errors += side.errors
    samples = {
        "jobs_per_s": f"{len(lat)} jobs in {cycles} cycles of {len(workload.cycle)}",
        "job_p50_ms": f"{len(lat)} jobs",
        "job_p90_ms": f"{len(lat)} jobs, {sum(x > metrics['job_p90_ms'] / 1e3 for x in lat)} beyond",
        "setup_s": f"{len(setup_s)} set-ups, {len(setup_s) - 1} in fresh processes",
        "peak_rss_mb": "1 process",
        "cli_cold_ms": f"{len(cold)} processes",
        "kinds": kinds,
    }
    return metrics, tally, samples


def measure_traced(args, workdir: Path) -> tuple[dict, Tally, dict]:
    from tracer import WASTE, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_job("setup")
    workload, rng = setup(args, workdir)
    tracer.job = None
    tally, kinds = Tally(), {}
    untraced = traced = 0.0
    cycles = 1 if args.tiny else TRACE_CYCLES[args.workload]
    for c in range(cycles):
        for on in ((False, True) if c % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                traced += sum(run_cycle(workload, rng, tally, kinds, tracer, f"c{c}."))
            else:
                tracer.uninstall()
                untraced += sum(run_cycle(workload, rng, Tally(), {}))
    tracer.uninstall()
    check_oracles(workload, tally)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    metrics = tracer.metrics(traced / untraced - 1)
    samples = {"spans": f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}",
               "cycles": f"{cycles} untraced and {cycles} traced cycles of {len(workload.cycle)}",
               "trace.overhead_frac": f"{traced:.3f} s traced over {untraced:.3f} s untraced",
               "kinds": kinds}
    for name, _, base in WASTE:
        if base is not None:
            samples[name] = f"{base} = {metrics[base]}"
    return metrics, tally, samples


def report(args, metrics: dict, units: dict, tally: Tally, samples: dict) -> None:
    print(f"# arrowcat benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', tiny' if args.tiny else ''}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, {platform.platform()}")
    for key, text in samples.items():
        if key not in metrics and key != "kinds":
            print(f"# {key}: {text}")
    for name, value in metrics.items():
        note = f"  (n = {samples[name]})" if name in samples else ""
        print(f"{name:48s} {value:14.6g} {units[name]}{note}")
    failed_frac = tally.failed / tally.attempted
    print(f"{'failed_frac':48s} {failed_frac:14.6g} ratio  (n = {tally.failed} of {tally.attempted} verdicts)")
    for kind, lat in sorted(samples["kinds"].items()):
        print(f"#   {kind:40s} median {statistics.median(lat) * 1e3:10.3f} ms  x{len(lat)}")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arrowcat" / "__init__.py").is_file():
        print(f"error: {SRC} holds no arrowcat package; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            setup(args, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        if args.trace:
            from tracer import per_layer_metrics
            metrics, tally, samples = measure_traced(args, workdir)
            units = dict(per_layer_metrics())
        else:
            metrics, tally, samples = measure(args, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, metrics, units, tally, samples)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
