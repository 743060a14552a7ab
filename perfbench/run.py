"""deploylab benchmark: time to a verified answer on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports deploylab from its
`src/`.  The workload's items are generated from the seed; a round answers
each of them at least once.  Rounds repeat until S seconds have passed,
always finishing the round in progress, so a run with long items
overshoots S; a traced run has at least one untraced and one traced round.
Each timed call is scaled to a reference machine speed (see speed.py).
In an untraced round an item is called again until its calls add up to
SHORT_S or it has had REPEATS calls, and the round's time for the item is
their median; an item's time is the median of its rounds' times.  Every answer is kept and, once the rounds and the peak RSS
reading are done, checked by the benchmark's own oracle.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the run's provenance and sample counts; perfbench/out/ keeps the full
result and, for traced runs, the spans.
"""

import os
import sys

# Pin before numpy is imported, here and in the set-up child processes.
PINS = {"DEPLOYLAB_WORKERS": "1", "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from functools import partial  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 15   # set-up child processes per run; setup_s is their median
# A set-up process slows down less than the speed kernel: its imports and
# file writes are not all CPU-bound.  Scaling by the kernel's factor to this
# power gave the steadiest setup_s over 5 to 8 runs of each workload (2-7%
# spread, against 2-13% at power 1 and 4-14% at 0.5) on a 2-vCPU Xeon.
SETUP_ELASTICITY = 0.75
REPEATS = 5       # most calls per item and untraced round
SHORT_S = 1.0     # calls stop once they add up to this, at the reference speed
TAIL_PERCENTILE = 90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name, seed, directory):
    """Imports, inputs and their files: everything before the first timed
    item."""
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    from deploylab import (cli, experiments, games, graphs,  # noqa: F401
                           hedge, mechanisms, symmetrization)
    import workloads
    workload = workloads.WORKLOADS[name]
    return workload, workload.make_items(seed, directory)


def run_round(workload, items, recorder, rnd, answers):
    """Answer every item; only the calls into deploylab are timed.  Each
    distinct answer is kept once in `answers`, keyed by (item id, text),
    and the item's record points at it (None for a call that raised)."""
    out = []
    for item in items:
        on_sample = None
        if recorder is not None:
            recorder.item = "r%d/%s" % (rnd, item["id"])
            on_sample = partial(recorder.record, "perfbench.speed_sample")
        record = {"id": item["id"], "answers": [], "raw_s": [],
                  "scaled_s": [], "kernel_s": []}
        while True:
            probe = speed.Probe(on_sample=on_sample)
            answer = None
            try:
                with probe:
                    result = workload.solve(item)
                key = (item["id"], workload.answer(item, result))
                answer = answers.setdefault(key, len(answers))
            except (Exception, SystemExit):
                print("%s: %s" % (item["id"],
                                  traceback.format_exc(limit=3)),
                      file=sys.stderr)
            record["answers"].append(answer)
            record["raw_s"].append(probe.raw_s)
            record["scaled_s"].append(probe.raw_s * probe.factor)
            record["kernel_s"].append(probe.samples)
            if recorder is not None or answer is None \
                    or sum(record["scaled_s"]) >= SHORT_S \
                    or len(record["answers"]) == REPEATS:
                break
        record["seconds"] = statistics.median(record["scaled_s"])
        out.append(record)
    return out


def grade(workload, items, rounds, answers):
    """Check each distinct answer with the oracle and give every item
    record its verdict; a call that raised is an error."""
    by_id = {item["id"]: item for item in items}
    verdicts = []
    for item_id, text in answers:
        try:
            verdict, why = workload.check(by_id[item_id], text)
        except (KeyError, TypeError, ValueError, OSError):
            verdict, why = "error", traceback.format_exc(limit=3)
        if verdict == "error":
            print("%s: %s" % (item_id, why), file=sys.stderr)
        verdicts.append(verdict)
    for rnd in rounds:
        for record in rnd["items"]:
            got = {"error" if index is None else verdicts[index]
                   for index in record["answers"]}
            record["verdict"] = next(v for v in ("error", "miss", "solved")
                                     if v in got)


def set_up_only(args, tmp):
    """The body of a set-up process: set up, with the speed kernel timed
    just before and just after, and print those kernel times."""
    kernel_s = speed.edge_samples()
    set_up(args.workload, args.seed, tmp)
    kernel_s += speed.edge_samples()
    print(json.dumps(kernel_s))


def measure_setup(args):
    """Wall times of fresh processes that only set up, at the reference
    speed.  Each is scaled by the kernel times taken inside it, on the core
    it ran on, to the power SETUP_ELASTICITY; those kernel runs are taken
    out of its time."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        kernel_s = json.loads(done.stdout)
        factor = speed.REF_S / statistics.mean(kernel_s)
        samples.append((wall - sum(kernel_s)) * factor ** SETUP_ELASTICITY)
    return samples


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "deploylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def item_times(rounds):
    """Median scaled time of each item over the given rounds."""
    return [statistics.median(times) for times in zip(
        *[[it["seconds"] for it in r["items"]] for r in rounds])]


def provenance(args, rounds, setup_samples):
    import numpy
    import scipy
    items = [it for r in rounds for it in r["items"]]
    plain = [r for r in rounds if not r["traced"]]
    count = {v: sum(1 for it in items if it["verdict"] == v)
             for v in ("solved", "miss", "error")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pins": PINS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r["traced"]),
        "items": len(items),
        "items_per_round": len(rounds[0]["items"]),
        "item_ids": [it["id"] for it in rounds[0]["items"]],
        "verdicts": count,
        "error_frac": count["error"] / len(items),
        "samples": {"items": len(rounds[0]["items"]),
                    "rounds_per_item": len(plain),
                    "timings_per_item": {
                        it["id"]: sum(len(r["items"][k]["scaled_s"])
                                      for r in plain)
                        for k, it in enumerate(rounds[0]["items"])},
                    "setup_s": len(setup_samples)},
        "tail_percentile": TAIL_PERCENTILE,
        "setup_s_samples": setup_samples,
    }


def end_to_end(rounds, setup_samples, peak_rss_mb):
    times = item_times(rounds)
    items = [it for r in rounds for it in r["items"]]
    tail = statistics.quantiles(times, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1] if len(times) > 1 else times[0]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(times),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_tail_ms": 1e3 * tail,
        "solved_frac": sum(1 for it in items if it["verdict"] == "solved")
        / len(items),
        "peak_rss_mb": peak_rss_mb,
    }
    return _with_units(values, "end_to_end")


def _with_units(values, section):
    """The metrics BENCHMARK.json lists in `section`, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def per_layer(rounds, spans_mod, recorder):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = spans_mod.layer_metrics(
        recorder.spans, len(traced), sum(len(r["items"]) for r in traced))
    values["trace.overhead_frac"] = (
        sum(item_times(traced)) / sum(item_times(plain)) - 1.0)
    return _with_units(values, "per_layer")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deploylab", "__init__.py")):
        print("error: %s/deploylab not found; run from the root of a "
              "deploylab source checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.setup_only:
            set_up_only(args, tmp)
            return 0
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp):
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload, items = set_up(args.workload, args.seed, tmp)

    import spans as spans_mod
    recorder = spans_mod.Recorder() if args.trace else None
    rounds, answers = [], {}
    start = time.perf_counter()
    while True:
        rnd = len(rounds)
        traced = bool(args.trace) and rnd % 2 == 1
        if traced:
            recorder.install()
        try:
            done = run_round(workload, items,
                             recorder if traced else None, rnd, answers)
        finally:
            if traced:
                recorder.uninstall()
        rounds.append({"traced": traced, "items": done})
        if len(rounds) > args.trace and \
                time.perf_counter() - start >= args.seconds:
            break

    # Peak RSS of the workload before the oracle (and scipy) is loaded.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    grade(workload, items, rounds, answers)
    setup_samples = measure_setup(args)
    prov = provenance(args, rounds, setup_samples)
    prov["peak_rss_mb"] = peak_rss_mb
    metrics = (per_layer(rounds, spans_mod, recorder) if args.trace
               else end_to_end(rounds, setup_samples, peak_rss_mb))
    failed = prov["verdicts"]["error"]
    result = {"correct": failed == 0, "attempted": prov["items"],
              "failed": failed, "metrics": metrics}
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump({"result": result, "provenance": prov, "rounds": rounds},
                  fh, indent=1)
    if recorder is not None:
        with open(os.path.join(OUT, name + ".spans.json"), "w") as fh:
            json.dump([s.as_dict() for s in recorder.spans], fh)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
