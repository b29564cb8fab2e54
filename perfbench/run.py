#!/usr/bin/env python3
"""Benchmark of designgate, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare-sets [--workload NAME ...]

Workloads (see perfbench/README.md): ``reproduce`` runs the seven theorem
drivers, ``deep_u`` gates every admissible weight of fifteen candidates in
one process, ``queries`` is a seeded stream of fifty short CLI calls.  Every
operation is a fresh process of the program built from ``src/`` of this
checkout.  A run repeats whole rounds of its workload for about S seconds;
each round starts from an empty gate store and output directory, and every
output is checked against perfbench/checker.py, which shares no code with
designgate.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each round also runs its operations under
perfbench/traced.py and the line reports the per-module metrics.
``--compare-sets`` runs two sets of ten runs of this checkout, alternating
between the sets, and prints for each workload and end-to-end metric both
medians, their quartiles and whether they agree within the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# What the installed `designgate` console script runs.
CLI_MAIN = "import sys; from designgate.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import designgate.cli; "
                "print(repr(time.perf_counter() - t))")
# Cold imports timed at the start of a run, and then one per second of the
# run between rounds, so that setup_s is a median over the same stretch of
# host speed as the other metrics.
SETUP_FIRST_SAMPLES = 5
SETUP_SAMPLES_PER_SECOND = 1.0
# --compare-sets: runs per set; the runs use seeds FIRST_SEED onwards.
RUNS = 10
FIRST_SEED = 1

class Failure(Exception):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> Sample:
    """Run one process to its end; wall time from spawn to reaped exit, and
    CPU time and peak RSS of the process and every descendant it reaped."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_CLOSE, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions, setpgroup=0)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)  # the process and any pool workers it started
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  os.waitstatus_to_exitcode(status))


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path):
        self.w = workload
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.passes = 0
        self.verified: dict[int, str] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.setup_samples: list[float] = []

    def launcher(self, kind: str, spans: Path | None) -> list[str]:
        py = sys.executable
        if spans is not None:
            return [py, str(HERE / "traced.py"), str(spans), kind]
        if kind == "cli":
            return [py, "-c", CLI_MAIN]
        return [py, str(HERE / "deep_u.py")]

    def sample_setup(self, count: int) -> None:
        """Time ``count`` cold imports of designgate.cli, each in a fresh
        interpreter.  The first call also makes one untimed start that
        compiles the bytecode."""
        out, err = self.work / "import.out", self.work / "import.err"
        for i in range(count + (not self.setup_samples)):
            s = spawn([sys.executable, "-c", IMPORT_PROBE], self.env, out, err)
            if s.code != 0:
                raise Failure(f"cannot import designgate.cli: {err.read_text().strip()}")
            if i or self.setup_samples:
                self.setup_samples.append(float(out.read_text()))

    def run_pass(self, traced: bool, jobs1: bool = False) -> list[tuple]:
        """Every operation of the workload once, from an empty store."""
        self.passes += 1
        d = self.work / f"pass{self.passes}"
        d.mkdir()
        env = dict(self.env, DESIGNGATE_STORE=str(d / "store"))
        done = []
        for i, op in enumerate(self.w.ops):
            out = d / f"{i}.out"
            args = [str(out) if a == "{out}" else a for a in op.args]
            if jobs1 and op.kind == "cli" and args[0] == "theorem":
                args += ["--jobs", "1"]
            spans = d / f"{i}.spans" if traced else None
            stdout = out if "{out}" not in op.args else d / f"{i}.stdout"
            sample = spawn(self.launcher(op.kind, spans) + args, env, stdout, d / f"{i}.err")
            done.append((op, sample, out, d / f"{i}.err", spans))
        return done

    def check_pass(self, done: list[tuple], untraced: list[tuple] | None = None) -> list[str | None]:
        """Check every output; returns each operation's output text, or
        None where it failed.  A traced pass must print what the untraced
        pass printed, byte for byte."""
        texts: list[str | None] = []
        for i, (op, sample, out, err, _) in enumerate(done):
            self.attempted += op.units
            text = out.read_text() if out.exists() else ""
            if sample.code != op.expected_code:
                self.failed += op.units
                self.note(f"{op.label}: exit {sample.code}, expected {op.expected_code}: "
                          + err.read_text()[-300:])
                texts.append(None)
                continue
            if untraced is not None and untraced[i] is not None:
                message = None if text == untraced[i] else "traced output differs from untraced"
            elif op.repeat_of is not None:
                message = None if text == texts[op.repeat_of] else "repeat prints other bytes"
            elif self.verified.get(i) == text:
                message = None
            else:
                message = op.check(text, err.read_text())
                if message is None:
                    self.verified[i] = text
            if message is not None:
                self.note(f"{op.label}: {message}")
                self.errors.append(message)
            texts.append(text)
        return texts

    def note(self, line: str) -> None:
        print(f"[{self.w.name}] {line}", file=sys.stderr)


def unit_times(done: list[tuple], texts: list[str | None]) -> dict[tuple[int, int], float]:
    """Wall time of each operation that did not fail, keyed by its place in
    the round: (process index, operation index within the process)."""
    out = {}
    for i, ((op, sample, _, err, _), text) in enumerate(zip(done, texts)):
        if text is not None:
            times = op.unit_times(err.read_text()) if op.unit_times else [sample.wall]
            out.update(((i, j), t) for j, t in enumerate(times))
    return out


# The traced names a per-module metric is made from, where they are not its
# name without the last part ("gleason.min_weight_count.s" is made from
# "gleason.min_weight_count").
SOURCES = {
    "gleason.lengths_computed": ("gleason.series_builds",),
    "families.lambda_at.distinct": ("families.lambda_at",),
    "gate.F_bits_mean": ("gate.offset_product_sum",),
    "report.render.bytes": ("report.render",),
    "store.get.hits": ("store.get",),
    "store.s": ("store.get", "store.put"),
    "store.records_loaded": ("store.load",),
    "combinat.calls": ("combinat.calls",),
}


def aggregate(spans_files: list[Path]) -> dict:
    """Per-module metrics summed over the operations' span files.  A metric
    made from a name that could not be traced, because the program no
    longer has it, is None rather than a 0 that would read as a gain."""
    calls, total, own = Counter(), Counter(), Counter()
    counts = Counter()
    distinct = lengths = 0
    bits: list[int] = []
    missing: set[str] = set()
    for path in spans_files:
        d = json.loads(path.read_text())
        spans = d["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            key = d["names"][name]
            calls[key] += 1
            total[key] += end - start
            own[key] += end - start - children[i]
        counts.update(d["counts"])
        distinct += d["lambda_distinct"]
        lengths += d["lengths_computed"]
        bits += d["f_bits"]
        missing.update(d["missing"])
    metrics = {
        "gleason.min_weight_count.calls": calls["gleason.min_weight_count"],
        "gleason.min_weight_count.s": total["gleason.min_weight_count"],
        "gleason.lengths_computed": lengths,
        "gleason.next_weight_count.calls": calls["gleason.next_weight_count"],
        "gleason.next_weight_count.s": total["gleason.next_weight_count"],
        "gleason.extremal_weight_enumerator.calls": calls["gleason.extremal_weight_enumerator"],
        "gleason.extremal_weight_enumerator.s": total["gleason.extremal_weight_enumerator"],
        "families.lambda_at.calls": calls["families.lambda_at"],
        "families.lambda_at.distinct": distinct,
        "families.lambda_at.self_s": own["families.lambda_at"],
        "families.admissible_scan.s": total["families.admissible_scan"],
        "gate.integrality_gate.calls": calls["gate.integrality_gate"],
        "gate.integrality_gate.self_s": own["gate.integrality_gate"],
        "gate.moment_vector.s": total["gate.moment_vector"],
        "gate.offset_product_sum.s": total["gate.offset_product_sum"],
        "gate.F_bits_mean": sum(bits) / len(bits) if bits else 0.0,
        "theorems.run_theorem.self_s": own["theorems.run_theorem"],
        "theorems.pools": calls["theorems.pool"],
        "theorems.pool_s": total["theorems.pool"],
        "report.render.calls": calls["report.render"],
        "report.render.s": total["report.render"],
        "report.render.bytes": counts["report.render.bytes"],
        "store.get.calls": calls["store.get"],
        "store.get.hits": counts["store.get.hits"],
        "store.put.calls": calls["store.put"],
        "store.s": total["store.get"] + total["store.put"],
        "store.records_loaded": counts["store.records_loaded"],
        "cli.main.self_s": own["cli.main"],
        "combinat.calls": counts["combinat.calls"],
    }
    for key in metrics:
        if missing.intersection(SOURCES.get(key, (key.rsplit(".", 1)[0],))):
            metrics[key] = None
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "designgate" / "cli.py").is_file():
        raise Failure(f"no designgate sources under {SRC}")
    work = WORK_ROOT / f"{os.getpid()}-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    bench = Bench(workloads.WORKLOADS[name](seed, SRC), work)
    bench.sample_setup(SETUP_FIRST_SAMPLES)
    walls, cpus, rss = [], [], []
    op_times: dict[tuple[int, int], list[float]] = {}
    layers: list[dict] = []
    round_seconds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        first_pass = bench.passes + 1
        done = bench.run_pass(traced=False)
        texts = bench.check_pass(done)
        walls.append(sum(s.wall for _, s, *_ in done))
        cpus.append(sum(s.cpu for _, s, *_ in done))
        rss.append(max(s.rss_mb for _, s, *_ in done))
        for key, t in unit_times(done, texts).items():
            op_times.setdefault(key, []).append(t)
        if trace:
            if name == "reproduce":
                pooled = bench.run_pass(traced=True)
                bench.check_pass(pooled, texts)
                traced = bench.run_pass(traced=True, jobs1=True)
                bench.check_pass(traced, texts)
            else:
                pooled = traced = bench.run_pass(traced=True)
                bench.check_pass(traced, texts)
            metrics = aggregate([p for *_, p in traced if p.exists()])
            pools = aggregate([p for *_, p in pooled if p.exists()])
            metrics["theorems.pools"] = pools["theorems.pools"]
            metrics["theorems.pool_s"] = pools["theorems.pool_s"]
            metrics["trace.wall_s"] = sum(s.wall for _, s, *_ in traced)
            metrics["trace.overhead_s"] = sum(s.wall for _, s, *_ in pooled) - walls[-1]
            layers.append(metrics)
        for p in range(first_pass, bench.passes + 1):
            shutil.rmtree(work / f"pass{p}", ignore_errors=True)
        round_seconds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if not trace:
            due = SETUP_FIRST_SAMPLES + int(SETUP_SAMPLES_PER_SECOND * elapsed)
            bench.sample_setup(max(0, due - len(bench.setup_samples)))
            elapsed = time.perf_counter() - start
        # Only whole rounds that fit, so that a run never outlasts --seconds.
        if elapsed + statistics.median(round_seconds) > seconds:
            break
    if trace:
        values = {key: None if any(m[key] is None for m in layers)
                  else statistics.median(m[key] for m in layers) for key in layers[0]}
        untraced = sorted(key for key, value in values.items() if value is None)
        if untraced:
            bench.note("not traced, the program lacks what they measure, so reported "
                       "as null: " + ", ".join(untraced))
    else:
        # Means over the run's rounds.  Other tenants of the host slow it
        # by up to a third for 10-60 s at a time; a mean weighs each such
        # stretch by its length, where the median of many short rounds
        # jumps with whichever speed held for half of the run.
        values = {"wall_s": statistics.fmean(walls), "cpu_s": statistics.fmean(cpus),
                  # Each operation's mean over the rounds, then the median
                  # over the operations.
                  "op_median_s": statistics.median(
                      [statistics.fmean(ts) for ts in op_times.values()] or [0.0]),
                  "peak_rss_mb": max(rss),
                  "setup_s": statistics.median(bench.setup_samples)}
    bench.note(f"{len(walls)} rounds in {time.perf_counter() - start:.1f} s, "
               f"{bench.attempted} operations, {bench.failed} failed")
    return {"correct": not bench.errors, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec_metrics(trace)}}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_metrics(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    return load_spec()["per_layer" if trace else "end_to_end"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_sets(names: list[str]) -> int:
    """Two sets of RUNS runs per workload, alternating which set runs
    first; each run has its own seed.  A metric agrees when each set's
    quartile spread is within its bound and the two medians differ by no
    more than the bound, in either direction: both sets measure the same
    checkout."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = names or [w["name"] for w in spec["workloads"]]
    summary = {}
    all_agree = True
    for name in names:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for i in range(RUNS):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = FIRST_SEED + s * RUNS + i
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
                try:
                    stdout, stderr = proc.communicate()
                except BaseException:
                    proc.terminate()  # lets the run stop its own child and clean up
                    proc.wait()
                    raise
                if proc.returncode != 0:
                    print(stderr, file=sys.stderr)
                    raise SystemExit(f"run of {name} with seed {seed} exited {proc.returncode}")
                result = json.loads(stdout.strip().splitlines()[-1])
                result["seed"] = seed
                sets[s].append(result)
                print(f"{name} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        shares = [{r["failed"] / r["attempted"] for r in rs} for rs in sets]
        rows = {"failed_share_equal": shares[0] == shares[1] and len(shares[0]) == 1,
                "correct": all(r["correct"] for rs in sets for r in rs)}
        print(f"\n{name}: failed share {sorted(shares[0] | shares[1])}, "
              f"all correct {rows['correct']}")
        print(f"{'metric':12} {'bound':>6}  {'set 1 median [q1, q3] spread':>38}  "
              f"{'set 2 median [q1, q3] spread':>38}  {'change':>7}  agree")
        agree_all = rows["failed_share_equal"] and rows["correct"]
        for metric, bound in bounds.items():
            stats = []
            for rs in sets:
                q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in rs])
                stats.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med})
            change = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            agree = abs(change) <= bound and all(st["spread"] <= bound for st in stats)
            agree_all &= agree
            rows[metric] = {"bound": bound, "set1": stats[0], "set2": stats[1],
                            "change": change, "agree": agree}
            cells = [f"{st['median']:.4f} [{st['q1']:.4f}, {st['q3']:.4f}] {st['spread']:6.1%}"
                     for st in stats]
            print(f"{metric:12} {bound:6.2f}  {cells[0]:>38}  {cells[1]:>38}  "
                  f"{change:+7.1%}  {'yes' if agree else 'NO'}")
        rows["runs"] = list(sets)
        summary[name] = rows
        all_agree &= agree_all
    print(json.dumps({"agree": all_agree, "workloads": summary}))
    return 0 if all_agree else 1


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare-sets", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.compare_sets:
            return compare_sets(args.workload or [])
        if not args.workload or len(args.workload) != 1:
            ap.error("give exactly one --workload")
        result = measure(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
