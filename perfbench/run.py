#!/usr/bin/env python3
"""Benchmark of the `helly` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One run:

1. times `setup_s`: fresh interpreters that `import helly.cli`;
2. writes the workload's seeded input files (see workloads.py);
3. closed loop, one client, one thread: runs passes over the workload's ops,
   each op an in-process `helly.cli.main(argv)` call on a freshly loaded
   file, each pass in a new seeded order, until `--seconds` is used up
   (at least three passes); every time is scaled to a nominal host speed
   by reference work timed around it (see reference.py);
4. with `--trace 1`, alternates untraced and traced passes and reports the
   per-layer metrics of tracing.py instead of the end-to-end ones;
5. checks every op's exit code and output (check.py), after timing.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  The lines before it are a readable report, and the full
result, with run metadata and raw per-op times, goes to
`perfbench/results/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (sibling modules)
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

MIN_PASSES = 3
SETUP_SPAWNS = 9

# end-to-end metrics, reported by every workload: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

# op-class totals and the failure ratio: printed in the report and written to
# the result file, but not to the last line, where every metric must be
# reported, and nonzero, by every workload
CLASS_TOTALS = {
    "check_helly_s": "check_helly",
    "check_non_helly_s": "check_non_helly",
    "hyp_s": "hyp",
    "hyper_check_s": "hyper_check",
    "fellow_all_s": "fellow_all",
    "fellow_sampled_s": "fellow_sampled",
}


def layer_metric_units():
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for prefix, _, _, _, fields in TARGETS:
        for f in fields:
            units[f"{prefix}.{f}"] = "s" if f == "self_s" else "count"
    units["hull.forms_per_s"] = "1/s"
    units["bicombing.imprint_per_tuple"] = "1"
    units["trace.overhead_ratio"] = "1"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# A set-up probe: a fresh interpreter that times reference blocks just before
# and just after `import helly.cli`, on the core it runs on.
SETUP_PROBE = """
import json, time, reference
before = reference.block(reference.chunks_for(0.15))
import helly.cli
after = reference.block(reference.chunks_for(0.15))
print(json.dumps([before, after]))
"""


def measure_setup():
    """Median time to start a fresh interpreter and import helly.cli, scaled
    to the nominal host speed by the probe's own reference blocks."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    cmd = [sys.executable, "-c", SETUP_PROBE]
    times, raw = [], []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, cwd=ROOT, text=True)
        dt = time.perf_counter() - t0
        before, after = json.loads(proc.stdout)
        dt -= before[0] + after[0]
        if i:  # the first spawn may compile bytecode
            times.append(reference.scale(dt, before, after))
            raw.append(dt)
    return statistics.median(times), raw


class Runner:
    """Runs ops in-process and records exit code, stdout and wall time."""

    def __init__(self, work, files):
        import helly.cli
        self.cli = helly.cli
        self.work = work
        self.files = files

    def argv(self, op):
        return [str(self.work / a) if a in self.files else a for a in op.argv]

    def run(self, op):
        argv = self.argv(op)
        saved = {k: os.environ.get(k) for k, _ in op.env}
        os.environ.update(op.env)
        out, err = io.StringIO(), io.StringIO()
        crash = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # an uncaught exception is a failed op
                    code, crash = 1, f"uncaught {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return dt, code, out.getvalue(), crash


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "helly").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(args):
    load_before = os.getloadavg()
    setup_s, setup_times = measure_setup()
    w = workloads.build(args.workload, args.seed)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, text in w.files.items():
            (work / name).write_text(text, encoding="utf-8")
        return measure(args, w, work, setup_s, setup_times, load_before)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, w, work, setup_s, setup_times, load_before):
    runner = Runner(work, w.files)
    tracer = None
    if args.trace:
        tracer = Tracer()
    # import lazily loaded modules before timing: run the op with the smallest
    # input of each class once
    size = lambda op: sum(len(w.files.get(a, "")) for a in op.argv)
    for cls in sorted({op.cls for op in w.ops}):
        runner.run(min((op for op in w.ops if op.cls == cls), key=size))

    order = random.Random(f"perfbench/order/{w.name}/{w.seed}")
    # per-op times: scaled to the nominal host speed (see reference.py), raw
    samples = {mode: {op.id: [] for op in w.ops} for mode in ("plain", "traced")}
    raw = {mode: {op.id: [] for op in w.ops} for mode in ("plain", "traced")}
    first = {}       # op id -> (code, stdout, crash) of its first run
    unstable = set()  # ops whose exit code or stdout changed between passes
    layer_passes = []
    # a traced run alternates untraced and traced passes, at least two of each
    min_passes = 4 if tracer else MIN_PASSES
    start = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > args.seconds:
            break
        traced = tracer is not None and passes % 2 == 1
        ops = list(w.ops)
        order.shuffle(ops)
        gc.collect()
        if traced:
            tracer.reset()
            tracer.record = len(layer_passes) == 0
            tracer.install()
        pass_raw = pass_scaled = 0.0
        try:
            before = reference.block(reference.chunks_for(0.0))
            for op in ops:
                if traced:
                    tracer.request = op.id
                dt, code, out, crash = runner.run(op)
                after = reference.block(reference.chunks_for(dt))
                mode = "traced" if traced else "plain"
                scaled = reference.scale(dt, before, after)
                samples[mode][op.id].append(scaled)
                raw[mode][op.id].append(dt)
                pass_raw += dt
                pass_scaled += scaled
                before = after
                seen = first.setdefault(op.id, (code, out, crash))
                if seen != (code, out, crash):
                    unstable.add(op.id)
        finally:
            if traced:
                tracer.uninstall()
                # layer times too are scaled to the nominal host speed
                layer_passes.append(tracer.snapshot(pass_scaled / pass_raw))
        passes += 1
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe_outcomes = []
    if tracer:
        tracer.reset()
        tracer.record = False
        tracer.install()
    try:
        for op in w.probes:
            _, code, out, crash = runner.run(op)
            probe_outcomes.append((op, code, out, crash))
    finally:
        if tracer:
            tracer.uninstall()
    probe_layers = tracer.snapshot() if tracer else None

    # checking, after timing
    from check import check_op
    failures = {}
    for op in w.ops:
        code, out, crash = first[op.id]
        reason = crash or check_op(op, w.files, code, out)
        if op.id in unstable:
            reason = reason or "output changed between passes"
        if reason:
            failures[op.id] = reason
    probes = []
    for op, code, out, crash in probe_outcomes:
        reason = crash or check_op(op, w.files, code, out)
        probes.append({"op": op.id, "expected_exit": op.expect_exit, "exit": code,
                       "failure": reason})

    digest = hashlib.sha256()
    for op in w.ops:
        digest.update(op.id.encode() + b"\0" + first[op.id][1].encode() + b"\0")

    # An op's latency is its median over the passes of its time scaled to
    # the nominal host speed.  Every pass repeats identical work on identical
    # inputs; the scaling removes the host's slow and fast states that last
    # longer than an op, and the median the ones that come and go within it.
    plain = samples["plain"]
    latency = {op.id: statistics.median(plain[op.id]) for op in w.ops}
    attempted = sum(len(ts) for ts in plain.values())
    failed = sum(len(plain[i]) for i in failures)
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(latency.values()),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": 1000.0 * statistics.median(latency.values()),
        "op_p90_ms": 1000.0 * quantile(list(latency.values()), 90),
    }
    totals = {}
    for name, cls in CLASS_TOTALS.items():
        chosen = [latency[op.id] for op in w.ops if op.cls == cls]
        if chosen:
            totals[name] = sum(chosen)
    totals["fail_ratio"] = failed / attempted

    result = {
        "workload": w.name,
        "seed": w.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "timed_s": timed_s,
        "ops": len(w.ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": e2e,
        "class_totals": totals,
        "malformed_probes": probes,
        "stdout_sha256": digest.hexdigest(),
        "setup_raw_times_s": setup_times,
        "meta": {
            "git_sha": git_sha(),
            "source_sha256": source_sha256(),
            "python": sys.version.split()[0],
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
        },
        "per_op_times_s": plain,
        "per_op_raw_times_s": raw["plain"],
    }
    if tracer:
        result["per_layer"] = layer_metrics(tracer, layer_passes, probe_layers,
                                            samples, w)
        result["missing"] = tracer.missing
        result["per_op_times_traced_s"] = samples["traced"]
        result["spans"] = tracer.spans
    return result


def layer_metrics(tracer, layer_passes, probe_layers, samples, w):
    """Per-layer metrics of one traced pass: counts from the first traced pass
    (they must repeat exactly in every traced pass), self times as medians
    over the traced passes."""
    units = layer_metric_units()
    counts = {}
    for snap in layer_passes:
        for prefix, st in snap.items():
            for field, value in st.items():
                if field not in ("self_s", "total_s"):
                    counts.setdefault(f"{prefix}.{field}", set()).add(value)
    unrepeated = sorted(k for k, v in counts.items() if len(v) > 1)
    metrics = {}
    for name in units:
        prefix, _, field = name.rpartition(".")
        if field == "self_s":
            metrics[name] = statistics.median(s[prefix]["self_s"] for s in layer_passes)
        elif prefix in layer_passes[0]:
            metrics[name] = layer_passes[0][prefix][field]
    # uncaught exceptions also count those of the malformed-input probes
    metrics["cli.main.uncaught"] += probe_layers["cli.main"]["uncaught"]
    forms = layer_passes[0]["hull.hellyfication"]["forms"]
    metrics["hull.forms_per_s"] = (forms / statistics.median(
        s["hull.hellyfication"]["total_s"] for s in layer_passes) if forms else 0.0)
    tuples = layer_passes[0]["bicombing.fellow_traveler_check"]["tuples"]
    metrics["bicombing.imprint_per_tuple"] = (
        layer_passes[0]["bicombing.imprint"]["calls"] / tuples if tuples else 0.0)
    wall = {mode: sum(statistics.median(ts) for ts in samples[mode].values())
            for mode in samples}
    metrics["trace.overhead_ratio"] = wall["traced"] / wall["plain"]
    return {"metrics": metrics, "unrepeated_counts": unrepeated}


def report(result):
    """Readable lines for the report; the caller prints the last line."""
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
             f"{result['passes']} passes of {result['ops']} ops in {result['timed_s']:.1f} s"]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<20} {result['end_to_end'][name]:12.4f} {unit}")
    for name, value in result["class_totals"].items():
        unit = "1" if name == "fail_ratio" else "s"
        lines.append(f"  {name:<20} {value:12.4f} {unit}")
    for op_id, reason in sorted(result["failures"].items()):
        lines.append(f"  FAILED {op_id}: {reason}")
    broken = [p for p in result["malformed_probes"] if p["failure"]]
    if result["malformed_probes"]:
        lines.append(f"  malformed-input probes: {len(broken)} of "
                     f"{len(result['malformed_probes'])} not refused as documented")
    for p in broken:
        lines.append(f"    {p['op']}: {p['failure']}")
    if "per_layer" in result:
        for name, value in result["per_layer"]["metrics"].items():
            if value:
                lines.append(f"  {name:<44} {value:14.6g}")
        for name in result["missing"]:
            lines.append(f"  MISSING {name}")
        for name in result["per_layer"]["unrepeated_counts"]:
            lines.append(f"  UNREPEATED {name}")
    lines.append(f"  stdout sha256 {result['stdout_sha256']}")
    meta = result["meta"]
    lines.append(f"  git {meta['git_sha']} source {meta['source_sha256'][:16]} "
                 f"python {meta['python']} numpy {meta['numpy']} nproc {meta['nproc']} "
                 f"cpu {meta['cpu_model']!r} load {meta['loadavg_before'][0]:.2f} -> "
                 f"{meta['loadavg_after'][0]:.2f}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "helly" / "cli.py").is_file():
        print(f"error: no helly sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    for line in report(result):
        print(line)
    print(f"  result file {out_file.relative_to(ROOT)}")
    if args.trace:
        units = layer_metric_units()
        values = result["per_layer"]["metrics"]
    else:
        units, values = END_TO_END, result["end_to_end"]
    correct = not result["failures"] and not result.get("per_layer", {}).get(
        "unrepeated_counts")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
