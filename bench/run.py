"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout (the package need not be installed)::

    python3 bench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed``, times whole rounds of
its operations until ``--seconds`` of measured time have passed, then checks
every distinct answer against the oracle.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds, reports the per-layer metrics and writes them, with the spans, under
``.bench_out/``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("solve-large", "sweep-small", "characterize", "cli")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed for ``setup_s``, after one discarded warm-up.
SETUP_SAMPLES = 15

#: Times importing the package and building the inputs in a fresh interpreter.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import fairalloc
imported = time.perf_counter()
import workloads
built = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))
print(imported - start + time.perf_counter() - built)
"""

IMPORT_PROBE = """
import time
start = time.perf_counter()
import fairalloc.cli
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_interpreter(code, *args, env):
    """Run ``code`` in a new interpreter and return the number it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return float(done.stdout.split()[-1])


def run_rounds(ops, seconds, on_round=None):
    """Run whole rounds until ``seconds`` of round time are measured.

    Returns the round walls, every operation time, the number of failed
    operations, and each distinct round of outputs.
    """
    walls, times, distinct, failed = [], [], [], 0
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        while not walls or sum(walls) < seconds:
            outputs = {}
            clock = time.perf_counter
            round_start = clock()
            for op in ops:
                start = clock()
                try:
                    outputs[op.name] = op.run(outputs)
                except Exception as exc:  # a failed operation is counted, not fatal
                    outputs[op.name] = _Failed(f"{type(exc).__name__}: {exc}")
                    failed += 1
                times.append(clock() - start)
            walls.append(clock() - round_start)
            if on_round is not None:
                on_round(outputs, times[-len(ops):])
            if outputs not in distinct:
                distinct.append(outputs)
    return walls, times, failed, distinct


@dataclass(frozen=True)
class _Failed:
    """Stands for the output of an operation that raised."""

    reason: str


def check_outputs(ops, distinct):
    import oracle

    problems = [f"oracle: {p}" for p in oracle.self_test()]
    for outputs in distinct:
        for op in ops:
            output = outputs[op.name]
            if isinstance(output, _Failed):
                print(f"{op.name}: failed: {output.reason}", file=sys.stderr)
                continue
            try:
                problems += [f"{op.name}: {p}" for p in op.check(output, outputs)]
            except Exception as exc:  # a check that cannot read the answer rejects it
                problems.append(f"{op.name}: unreadable answer ({type(exc).__name__}: {exc})")
    return problems


class CliTiming:
    """Traced ``cli`` rounds: replays each command in-process through click
    and times a fresh import of the CLI module."""

    def __init__(self, ops, env):
        self.ops, self.env = ops, env
        self.command_ms, self.startup_ms, self.import_ms = {}, [], []
        self.mismatches = []

    def __call__(self, outputs, op_times):
        for op, child_time in zip(self.ops, op_times):
            start = time.perf_counter()
            try:
                code = op.replay(outputs)
            except Exception as exc:  # reported with the checks, like a wrong answer
                self.mismatches.append(f"{op.name}: in-process run raised {type(exc).__name__}: {exc}")
                continue
            in_process = time.perf_counter() - start
            if code != outputs[op.name][0]:
                self.mismatches.append(f"{op.name}: in-process exit {code}, child exit {outputs[op.name][0]}")
            self.command_ms.setdefault(op.name.split("/")[-1], []).append(in_process * 1000)
            self.startup_ms.append((child_time - in_process) * 1000)
        self.import_ms.append(fresh_interpreter(IMPORT_PROBE, env=self.env) * 1000)

    def metrics(self):
        out = {f"cli.{name}.ms": statistics.median(v) for name, v in self.command_ms.items()}
        if self.startup_ms:
            out["cli.startup_ms"] = statistics.median(self.startup_ms)
            out["cli.import_ms"] = statistics.median(self.import_ms)
        return out


def run_all(args):
    """Run every workload in a fresh interpreter, one result line each."""
    correct = True
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True)
        line = done.stdout.strip().splitlines()[-1] if done.returncode == 0 else "{}"
        print(f"{name}: {line}", flush=True)
        sys.stderr.write(done.stderr)
        correct = correct and json.loads(line).get("correct", False)
    sys.exit(0 if correct else 1)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fairalloc" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no package at {SRC / 'fairalloc'}; run it from a checkout of the repository")
    if args.workload == "all":
        run_all(args)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))

    import workloads

    build, make_ops = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ctx = {"root": ROOT, "env": env, "workdir": workdir}
        ops = make_ops(build(args.seed), ctx)
        if args.trace:
            result = traced_run(args, build, ops, env)
        else:
            setup = [fresh_interpreter(SETUP_PROBE, args.workload, str(args.seed), env=env) for _ in range(SETUP_SAMPLES + 1)]
            setup = setup[1:]
            walls, times, failed, distinct = run_rounds(ops, args.seconds)
            if args.workload == "cli":
                peak_kb = ctx["child_rss_kb"]
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            problems = check_outputs(ops, distinct)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "op_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
                "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            }
            result = (problems, len(times), failed, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems, attempted, failed, metrics = result
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))


def traced_run(args, build, ops, env):
    """Alternate untraced and traced rounds until ``--seconds`` have passed,
    so that the overhead compares rounds run at the same time."""
    from tracing import Tracer

    tracer = Tracer()
    cli = CliTiming(ops, env) if args.workload == "cli" else None

    def after_round(outputs, op_times):
        # set-up work (parsing specs, building profiles) is traced once per round
        build(args.seed)
        if cli is not None:
            cli(outputs, op_times)

    plain_walls, walls, distinct, attempted, failed = [], [], [], 0, 0
    while sum(plain_walls) + sum(walls) < args.seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                round_walls, times, round_failed, outputs = run_rounds(ops, 0, after_round if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (walls if traced else plain_walls).extend(round_walls)
            attempted += len(times)
            failed += round_failed
            distinct += [d for d in outputs if d not in distinct]
    extra = cli.metrics() if cli else {}
    extra["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain_walls)
    metrics = tracer.metrics(len(walls), extra)
    problems = check_outputs(ops, distinct)
    if cli:
        problems += cli.mismatches
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds": len(walls),
        "traced_wall_s": statistics.median(walls),
        "untraced_wall_s": statistics.median(plain_walls),
    }
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", header, metrics)
    return problems, attempted, failed, metrics


if __name__ == "__main__":
    main()
