#!/usr/bin/env python3
"""Benchmark of paradecomp's public surface: end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload f2_r11 --seed 20260816 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke          # every workload, tiny sizes

One workload runs in this single-threaded process.  It sets up its inputs
three times (fresh import of paradecomp each time), then repeats the timed
section while another pass fits in --seconds.  A pass is one run of the
workload's operations through `paradecomp.cli.main` and
`rotations.assert_free`, with stdout captured in memory.  With --trace 1 it
runs one untraced pass and one traced pass instead and reports per-layer
metrics.  Every output is checked after the timed section; the last line of
stdout is the JSON result.  The other lines are a report: the run's
environment, per-command latencies, output digests and every metric with its
unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import design
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
# names of the per-command figures in the report, by op kind
KIND_FIGURES = {
    "demo": "demo_s",
    "forest": "forest_s",
    "assert_free": "assert_free_s",
    "f2action": "f2action_ms",
    "match": "match_plain_ms",
    "match-audit": "match_audit_ms",
    "all": "cmd_ms",
}


@dataclass
class Pass:
    """One run of every op: timings, exit statuses and output digests."""

    latencies: list  # seconds
    refs: list  # reference units: each latency over the loop time around it
    codes: list
    digests: list

    @property
    def solve_s(self) -> float:
        return sum(self.latencies)

    @property
    def solve_ref(self) -> float:
        return sum(self.refs)


# A shared host can change speed by up to ~1.5x over minutes, which moves
# every wall time alike.  A fixed loop, timed between the ops and every
# REF_INTERVAL seconds inside them (from a timer signal), measures that
# speed.  An op's latency, less the time spent in the loop, divided by the
# mean loop time before, during and after it is its latency in reference
# units, which stays steady across runs.  The loop allocates no container
# objects, so the program's garbage cannot trigger a collection inside it.
REF_LOOPS = 2_000
REF_BETWEEN = 10  # loop samples between two ops
REF_INTERVAL = 0.025


def reference_loop() -> float:
    d: dict = {}
    t0 = time.perf_counter()
    for i in range(REF_LOOPS):
        d[i % 1000] = d.get(i % 997, 0) + i
    return time.perf_counter() - t0


class ReferenceSampler:
    """Loop samples between ops and, from SIGALRM, inside them."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds the timer's samples took inside ops

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def between(self) -> None:
        for _ in range(REF_BETWEEN):
            self.samples.append(reference_loop())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def run_pass(ops, outputs: dict, tracer=None) -> Pass:
    gc.collect()
    latencies, results, refs = [], [], []
    clock = time.perf_counter
    with ReferenceSampler() as ref:
        ref.between()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            out = io.StringIO()
            first, spent = len(ref.samples) - REF_BETWEEN, ref.spent
            t0 = clock()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = op.call()
            except SystemExit as e:  # argparse usage errors
                code = e.code
            except Exception as e:  # a crashing op is a failed op, not a crashed run
                code = f"raised {type(e).__name__}: {e}"
            latency = clock() - t0 - (ref.spent - spent)
            ref.between()
            latencies.append(latency)
            refs.append(latency / statistics.mean(ref.samples[first:]))
            results.append((code, out.getvalue()))
    codes, digests = [], []
    for i, (code, text) in enumerate(results):
        digest = hashlib.sha256(text.encode()).hexdigest()
        outputs.setdefault((i, digest), text)
        codes.append(code)
        digests.append(digest)
    return Pass(latencies, refs, codes, digests)


def check_outputs(ops, passes, outputs):
    """Failed (pass, op, reason) triples; a digest unlike pass 0's fails."""
    failures = []
    for i, op in enumerate(ops):
        verdicts = {}
        for p, ps in enumerate(passes):
            key = (ps.codes[i], ps.digests[i])
            if key not in verdicts:
                try:
                    op.check(ps.codes[i], outputs[(i, ps.digests[i])])
                    verdicts[key] = None
                except Exception as e:  # every check failure counts, none crashes
                    verdicts[key] = f"{type(e).__name__}: {e}"
            reason = verdicts[key]
            if reason is None and ps.digests[i] != passes[0].digests[i]:
                reason = "stdout differs from the first pass"
            if reason is not None:
                failures.append((p, i, reason))
    return failures


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(args, sizes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": sizes,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def report(line: str) -> None:
    print(f"# {line}", flush=True)


def command_figures(ops, passes) -> dict:
    """Per op kind and over all ops: count, median and p98 latency."""
    by_kind: dict = {"all": []}
    for ps in passes:
        for op, lat in zip(ops, ps.latencies):
            by_kind.setdefault(op.kind, []).append(lat)
            by_kind["all"].append(lat)
    out = {}
    for kind, lats in by_kind.items():
        name = KIND_FIGURES[kind]
        scale = 1000 if name.endswith("_ms") else 1
        out[name] = {
            "n": len(lats),
            "p50": statistics.median(lats) * scale,
            "p98": percentile(lats, 98) * scale if len(lats) > 1 else lats[0] * scale,
        }
    return out


def digests(ops, ps: Pass) -> dict:
    """One digest over the whole pass and one per op kind."""
    out = {"all": hashlib.sha256()}
    for op, digest in zip(ops, ps.digests):
        out.setdefault(op.kind, hashlib.sha256()).update(digest.encode())
        out["all"].update(digest.encode())
    return {kind: h.hexdigest()[:16] for kind, h in out.items()}


def end_to_end(setups, passes, rss_mib, attempted, failed) -> dict:
    values = {
        "solve_ref": statistics.median(p.solve_ref for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_mib,
        "ok_frac": (attempted - failed) / attempted,
        "cmd_p50_ref": statistics.median(statistics.median(p.refs) for p in passes),
        "cmd_p90_ref": statistics.median(percentile(p.refs, 90) for p in passes),
    }
    return {n: {"value": values[n], "unit": u} for n, u, *_ in design.END_TO_END}


def per_layer(tracer, overhead_s) -> dict:
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = overhead_s

    def share(num, den):
        return values[num] / values[den] if values[den] else 0.0

    values["actions.interior_share"] = share("actions.interior_points", "actions.window_points")
    values["treedyn.action_coverage"] = share("treedyn.action_covered", "treedyn.action_eligible")
    values["layers.vertices_per_stage"] = share("layers.vertices", "layers.stages")
    return {n: {"value": values[n], "unit": u} for n, u, *_ in design.PER_LAYER}


def smoke_problems(failures, ops, passes, e2e, layers) -> list:
    """What the smoke run must show: only injected failures, every metric."""
    problems = []
    expected = {(p, i) for p in range(len(passes)) for i, op in enumerate(ops)
                if op.injected_failure}
    if {(p, i) for p, i, _ in failures} != expected:
        problems.append(f"failures {failures} differ from the injected ones {sorted(expected)}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    if declared != design.benchmark_json():
        problems.append("BENCHMARK.json differs from perfbench/design.py")
    names = [m["name"] for m in declared["end_to_end"]]
    if sorted(e2e) != sorted(names):
        problems.append(f"end-to-end metrics {sorted(e2e)} != declared {names}")
    names = [m["name"] for m in declared["per_layer"]]
    if sorted(layers) != sorted(names):
        problems.append(f"per-layer metrics {sorted(layers)} != declared {names}")
    return problems


def run_workload(args, work: Path) -> int:
    setup_fn, full_sizes, smoke_sizes = workloads.WORKLOADS[args.workload]
    sizes = smoke_sizes if args.smoke else full_sizes
    report("run " + json.dumps(run_meta(args, sizes), sort_keys=True))

    setups = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        prog = workloads.load_program()
        ops = setup_fn(prog, ROOT, work, args.seed, sizes)
        setups.append(time.perf_counter() - t0)

    outputs: dict = {}
    passes = []
    trace = args.trace == 1 or args.smoke
    # passes repeat while another one fits in --seconds, so a run's length
    # does not depend on where the deadline falls inside a pass
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, outputs))
        now = time.perf_counter()
        if args.trace or now + (now - t0) > deadline:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = list(passes)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            checked.append(run_pass(ops, outputs, tracer))
        finally:
            tracer.uninstall()

    failures = check_outputs(ops, checked, outputs)
    attempted = len(ops) * len(checked)
    failed = len(failures)
    e2e = end_to_end(setups, passes, rss_mib, attempted, failed)

    report(f"passes={len(passes)} traced_passes={len(checked) - len(passes)} "
           f"ops_per_pass={len(ops)} setups={SETUPS}")
    report(f"fail_frac={failed / attempted} (failed={failed} of ops={attempted})")
    for p, i, reason in failures[:10]:
        report(f"FAILED pass {p} op {i} [{ops[i].label}]: {reason}")
    report("digests " + json.dumps(digests(ops, passes[0]), sort_keys=True))
    for name, fig in command_figures(ops, passes).items():
        unit = "ms" if name.endswith("_ms") else "s"
        report(f"command {name}: median {fig['p50']:.6g} {unit}, "
               f"p98 {fig['p98']:.6g} {unit}, n={fig['n']}")
    solve_s = statistics.median(p.solve_s for p in passes)
    report(f"wall solve_s = {solve_s:.6g} s (median over passes), "
           f"so one ref = {solve_s / e2e['solve_ref']['value'] * 1000:.6g} ms")
    for name, m in e2e.items():
        report(f"end-to-end {name} = {m['value']:.6g} {m['unit']}")

    layers = {}
    if tracer is not None:
        layers = per_layer(tracer, checked[-1].solve_s - passes[0].solve_s)
        moves = {n: (mv, on) for n, _, _, mv, on in design.PER_LAYER}
        for name, m in layers.items():
            mv, on = moves[name]
            report(f"per-layer {name} = {m['value']:.6g} {m['unit']}"
                   f"  [moves {mv} on {','.join(on)}]")
        spans = ROOT / ".perfbench" / f"spans-{args.workload}.jsonl"
        tracer.write(spans)
        report(f"spans written to {spans.relative_to(ROOT)}")

    status = 0
    if args.smoke:
        problems = smoke_problems(failures, ops, checked, e2e, layers)
        for line in problems:
            report(f"SMOKE PROBLEM {line}")
        report("smoke " + ("FAILED" if problems else "ok: injected failures counted, "
                                                     "every metric present"))
        status = 1 if problems else 0

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers if args.trace else e2e,
    }), flush=True)
    return status


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status, results = 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }), flush=True)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=design.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=design.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes plus a malformed input; checks the harness")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    missing = [p for p in (ROOT / "src" / "paradecomp", ROOT / "tests" / "oracles.py")
               if not p.exists()]
    if missing:
        print(f"perfbench: program not found: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
