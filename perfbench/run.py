"""Time to a verdict for regulus on one seeded workload.

    python3 perfbench/run.py --workload language --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the benchmark imports `regulus` from its
`src/` and refuses to run without it.  The workloads (see manifest.json):

  language   10 `genus language` queries through `cli.main`
  genus      `genus_exact` on 11 graphs of known genus
  relations  the criterion-6 check on 300 small multidigraphs
  automata   7 unrolled automata parsed, minimized, covered and rebuilt

One process runs the instances one at a time in a closed loop, in whole
passes over the workload; `--seconds` buys round(seconds / PASS_S) passes,
so the sample count is the same on every machine.  Every answer is checked
against the benchmark's own reference code, and a wrong one ends the run
with exit code 1.

With `--trace 0` the last line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of one traced pass (see tracing.py) next
to one untraced pass, whose difference is the tracing overhead.  Spans are
written to .perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import WrongAnswer
from tracing import INSTANCE_SPAN, Tracer, check_spans, layer_metrics, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5
# seconds one untraced pass takes on the reference machine (2 cores, Python 3.11)
PASS_S = {"language": 10.5, "genus": 10.0, "relations": 6.5, "automata": 6.5}


def time_setup(workload: str, seed: int, work: Path) -> float:
    """Wall time of one set-up step in a fresh interpreter: import regulus,
    then generate and serialize the workload's inputs into work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, timeout=150)
    return time.perf_counter() - t0


def run_pass(instances: list, checked: dict, tracer=None, label: str = "") -> tuple[list[float], int, int]:
    """One pass over the instances: each one's time, the verdicts given and
    the calls that raised.  A wrong answer raises WrongAnswer.

    checked maps an instance id to a digest of its last checked result and
    its verdict; an equal result in a later pass keeps that verdict without a
    second check, and no result outlives its pass.
    """
    times, decided, failed = [], 0, 0
    for inst in instances:
        gc.collect()
        if tracer is not None:
            tracer.instance = f"{label}{inst.id}"
            token = tracer.begin(INSTANCE_SPAN, "bench")
        t0 = time.perf_counter()
        try:
            result = inst.run()
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(token, INSTANCE_SPAN, "bench")
        digest = hashlib.sha256(repr(result).encode()).digest()
        last = checked.get(inst.id)
        if last is None or last[0] != digest:
            last = checked[inst.id] = (digest, inst.check(result))
        decided += last[1]
    return times, decided, failed


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample with exactly ten samples above it (the smallest one when
    there are fewer than eleven), and its percentile."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * k / len(xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regulus" / "__init__.py").is_file():
        sys.stderr.write(f"no regulus sources at {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"{args.workload}-s{args.seed}"
    try:
        setups = [time_setup(args.workload, args.seed, work) for _ in range(SETUP_RUNS)]
        import regulus
        import instances

        if Path(regulus.__file__).resolve().parent != SRC / "regulus":
            sys.stderr.write(f"imported regulus from {regulus.__file__}, not {SRC}\n")
            return 2
        items = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        insts = instances.load(args.workload, items, args.seed, work)
        gc.freeze()  # so the collection before each instance skips the long-lived objects
        passes = 1 if args.trace else max(1, round(args.seconds / PASS_S[args.workload]))

        samples, walls, decided, failed = [], [], 0, 0
        checked: dict = {}
        tracer = None
        try:
            for _ in range(passes):
                times, d, f = run_pass(insts, checked)
                samples += times
                walls.append(sum(times))
                decided, failed = decided + d, failed + f
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    times, d, f = run_pass(insts, checked, tracer, "traced/")
                finally:
                    tracer.uninstall()
                samples += times
                decided, failed = decided + d, failed + f
                traced_wall = sum(times)
        except WrongAnswer as exc:
            sys.stderr.write(f"wrong answer: {exc}\n")
            print(json.dumps({"correct": False, "attempted": max(1, len(samples)),
                              "failed": failed, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(samples)
    if args.trace:
        spans = tracer.spans
        own = self_times(spans)
        worst = check_spans(spans, own)
        metrics = layer_metrics(spans, own)
        metrics["trace.overhead_s"] = (traced_wall - walls[0], "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz")
        print(f"{len(spans)} spans; per instance, self times sum to the traced time "
              f"within {worst:.3g} s")
    else:
        value, pct = tail(samples)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "item_p50_s": (statistics.median(samples), "s"),
            "item_tail_s": (value, "s"),
            "decided_share": (decided / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{args.workload}, seed {args.seed}: {passes} passes of {len(insts)} instances, "
              f"{attempted} samples; item_tail_s is p{pct:.1f}, 10 samples beyond it; "
              f"failed_share {attempted - decided}/{attempted} (refused or raised), "
              f"{failed} raised")
        if len(insts) <= 20:
            print("  median per instance: " + ", ".join(
                f"{inst.id} {statistics.median(samples[k::len(insts)]):.3g}s"
                for k, inst in enumerate(insts)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
