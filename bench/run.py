"""The leafcat benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload census|graphs|algebra|cli --seed N \
        --seconds S --trace 0|1

Runs whole rounds of the workload for at least S seconds, checks every
output against independent computations, and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, measured with tracing off; with --trace 1 they are the
per-module ones, from a traced half of the run that follows an untraced one. The
program is taken from src/ of the checkout this file sits in. See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from meter import Meter, calibrate
from tracer import TARGETS, Tracer
from workloads import OUT_DIR, ROOT, WORKLOADS, Failed, run_cold

SRC = ROOT / "src"
PROBE_REPEATS = 3  # cold and in-process runs of each probe command
IMPORT_RUNS = 3  # `python -X importtime` runs for the import metrics

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
_COUNTED = ("subtrees.leaf_function_bruteforce",
            *(name for name in TARGETS if name.startswith(("catseq.", "words."))))
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in TARGETS if not name.startswith("verify.")},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "subtrees.induced_trees": "count",
    **{f"{name}.{key}": unit for name in TARGETS if name.startswith("verify.")
       for key, unit in (("self_s", "s"), ("instances", "count"))},
    "cli.import_ms": "ms",
    "cli.import_networkx_ms": "ms",
    "cli.invocation_ms_p50": "ms",
    "cli.main_ms_p50": "ms",
    "host.wall_s": "s",
    "host.slowdown": "ratio",
    "trace.overhead_s": "s",
}


def pick_cpu(cpus) -> None:
    """Pin this process, and the processes it starts, to the allowed CPU that
    runs a short fixed loop fastest right now.

    On a shared host each CPU is slowed on its own for seconds at a time,
    while another usually runs at full speed; measuring there keeps host
    contention out of the figures. Does nothing when only one CPU is allowed.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = calibrate()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class Tally:
    """Operations attempted and failed, and what the checks found wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, results: dict, errors: list[str]) -> None:
        self.attempted += len(results)
        self.failed += sum(isinstance(v, Failed) for v in results.values())
        self.errors += errors


class Rounds:
    """Per round: wall seconds, reference seconds (see meter.py) and the
    host's median slowdown during it."""

    def __init__(self):
        self.wall_s, self.ref_s, self.slowdown = [], [], []

    def add(self, meter) -> None:
        wall, ref = meter.stop()
        self.wall_s.append(wall)
        self.ref_s.append(ref)
        self.slowdown.append(median(meter.slowdowns))

    def __len__(self):
        return len(self.ref_s)


def timed_rounds(wl, seconds: float, first: int, tally: Tally, tracer=None,
                 between=None) -> Rounds:
    """Whole rounds until `seconds` have passed, each timed by `wl.meter`.

    `between` runs after each round, untimed but inside the window, so that
    probes are spread over the run. Outputs are checked after the loop.
    """
    rounds, done = Rounds(), []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    r = first
    while True:
        wl.prepare(r)
        pick_cpu(cpus)
        if tracer is not None:
            tracer.round = r
        wl.meter.start()
        results = wl.run_round(r)
        rounds.add(wl.meter)
        done.append((r, results))
        r += 1
        if between is not None:
            pick_cpu(cpus)
            between()
        if time.perf_counter() - start >= seconds:
            break
    os.sched_setaffinity(0, cpus)
    for r, results in done:
        try:
            errors = wl.check_round(r, results)
        except Exception as exc:  # a malformed output must fail the check, not the run
            errors = [f"round {r}: check raised {exc!r}"]
        tally.add(results, errors)
    wl.last_results = done[-1][1]
    return rounds


def setup_probe(args) -> float:
    """Time from interpreter start to the end of set-up, in a fresh process,
    in reference seconds (see meter.py)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    meter = Meter()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    meter.record(seconds)
    return meter.stop()[1]


def cold_probes(wl, tally: Tally) -> list[float]:
    """One cold run of each probe command; returns their times."""
    samples, results, errors = [], {}, []
    for j, cmd in enumerate(wl.probe_commands()):
        seconds, code, out, _ = run_cold(cmd)
        samples.append(seconds)
        err = cmd.check(code, out)
        results[j] = Failed(err) if code != cmd.code else (code, out)
        if err and code == cmd.code:
            errors.append(err)
    tally.add(results, errors)
    return samples


def import_ms() -> tuple[float, float]:
    """Cumulative import time of leafcat.cli and of networkx within it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    totals, nx_totals = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import leafcat.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        rows = []  # (indent, name, cumulative us)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
        ours = [row for row in rows if row[1].split(".")[0] == "leafcat"]
        top = min(indent for indent, _, _ in ours)
        totals.append(sum(us for indent, _, us in ours if indent == top) / 1000)
        nx_totals.append(sum(us for _, name, us in rows if name == "networkx") / 1000)
    return median(totals), median(nx_totals)


def main_ms_p50(wl) -> float:
    """Median in-process time of leafcat.cli.main over the workload's commands."""
    from leafcat.cli import main

    samples = []
    for _ in range(PROBE_REPEATS):
        for cmd in wl.probe_commands():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                main(cmd.argv)
                samples.append(time.perf_counter() - start)
    return median(samples) * 1000


def end_to_end(args, wl, tally: Tally) -> dict:
    setup = []
    rounds = timed_rounds(wl, args.seconds, 0, tally,
                          between=lambda: setup.append(setup_probe(args)))
    if wl.samples_from_rounds:  # cli: the largest of its leafcat processes
        peak_mb = wl.peak_rss_mb
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.errors += wl.check_once()
    return {"setup_s": median(setup), "wall_ref_s": median(rounds.ref_s), "peak_rss_mb": peak_mb}


def per_layer(args, wl, tally: Tally) -> dict:
    """Half the run untraced, half traced; the difference is the overhead."""
    untraced = timed_rounds(wl, args.seconds / 2, 0, tally)
    tally.errors += wl.check_once()
    if wl.samples_from_rounds:  # cli: its own untraced invocations
        invocation = wl.latency_s[:]
    else:
        invocation = [t for _ in range(PROBE_REPEATS) for t in cold_probes(wl, tally)]
    main_ms = main_ms_p50(wl)
    imports, imports_nx = import_ms()

    tracer = Tracer()
    first = len(untraced)
    wl.meter.sample_inside = False  # keep calibrations out of the traced spans
    if wl.samples_from_rounds:  # cli: trace inside each cold process
        wl.trace_dir = OUT_DIR / f"trace-{wl.name}-seed{args.seed}"
        wl.trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in wl.trace_dir.glob("*.json"):
            stale.unlink()
        traced = timed_rounds(wl, args.seconds / 2, first, tally)
        for path in sorted(wl.trace_dir.glob("*.json")):
            tracer.add_totals(json.loads(path.read_text()))
    else:
        tracer.install()
        try:
            traced = timed_rounds(wl, args.seconds / 2, first, tally, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json", workload=wl.name,
                     seed=args.seed, rounds=len(traced))

    n = len(traced)
    totals = tracer.totals()
    metrics = {}
    for name in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        if key == "self_s":
            metrics[name] = totals["self_s"].get(prefix, 0.0) / n
        elif key == "calls":
            metrics[name] = totals["calls"].get(prefix, 0) // n
    metrics["subtrees.induced_trees"] = totals["yielded"].get(
        "subtrees.enumerate_induced_subtrees", 0) // n
    instances = {suite: sum(r.instances for r in reports)
                 for suite, reports in wl.suite_reports(wl.last_results).items()
                 if not isinstance(reports, Failed)}
    for name in TARGETS:
        if name.startswith("verify."):
            metrics[f"{name}.instances"] = instances.get(name.split(".", 1)[1], 0)
    metrics.update({"cli.import_ms": imports, "cli.import_networkx_ms": imports_nx,
                    "cli.invocation_ms_p50": median(invocation) * 1000,
                    "cli.main_ms_p50": main_ms,
                    "host.wall_s": median(untraced.wall_s),
                    "host.slowdown": median(untraced.slowdown),
                    "trace.overhead_s": median(traced.ref_s) - median(untraced.ref_s)})
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "leafcat" / "__init__.py").is_file():
        print(f"error: no leafcat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    import leafcat

    if Path(leafcat.__file__).resolve().parent != (SRC / "leafcat").resolve():
        print(f"error: leafcat imported from {leafcat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        values, units = per_layer(args, wl, tally), PER_LAYER
    else:
        values, units = end_to_end(args, wl, tally), END_TO_END
    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
