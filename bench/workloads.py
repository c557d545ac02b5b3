"""The benchmark's four workloads.

A workload builds its inputs from a seed (``build``) and lists the operations
of one round (``ops``).  Every round runs the same operations on the same
inputs, one after another, in one process (the ``cli`` workload starts one
child process per operation).  An operation is one solve, one check, one
search, one experiment row or one CLI command.

Each operation carries a check.  Checks run after the timed phase and compare
the program's answer with :mod:`oracle`, which imports nothing from the
program, or with a property the method must have: every MNW allocation is
EF1 and Pareto optimal (Caragiannis et al., EC 2016), every maximizer of an
increasing welfare function is Pareto optimal, and no EF1 counterexample
exists for a log-affine function.  No check compares with a stored copy of
an earlier output.
"""

import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Calls go through the module objects, so that traced runs see them.
from fairalloc import characterization, experiment, fairness, model, welfarist


@dataclass
class Op:
    """One timed call into the program.

    ``run(outputs)`` gets the outputs of the earlier operations of the same
    round; ``check(output, outputs)`` returns a list of problems.
    ``replay`` re-runs a CLI command in-process (traced runs only).
    """

    name: str
    run: Callable
    check: Callable
    replay: Callable | None = None


def _oracle():
    # imported at check time, after the timed phase, so that the oracle and
    # mpmath stay out of peak_rss_mb
    import oracle

    return oracle


def _table(profile):
    return _oracle().Table(profile.utilities)


# ---------------------------------------------------------------------------
# solve-large: full enumeration at the largest sizes a round can afford.
# ---------------------------------------------------------------------------

#: Shapes with full scans of similar cost, and more full scans than cheap
#: operations (branch-and-bound and the early-exit Pareto check, whose cost
#: depends on the seed), so that the median operation is a scan in the
#: middle of the scans.
LARGE_SHAPES = ((2, 13), (3, 9), (4, 7))
LARGE_EXPR = "expr:ln(x+1)"
LARGE_SPECS = ("log", "power:1/2", LARGE_EXPR, "affine:1,0", "power:2")
#: Branch-and-bound is run, and checked bit for bit against the scan, for these.
BNB_SPECS = ("affine:1,0", "power:1/2", "log")


def build_solve_large(seed):
    rng = random.Random(seed)
    profiles = []
    for n, m in LARGE_SHAPES:
        profiles.append(model.Profile([[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]))
    functions = {spec: welfarist.welfare_function_from_spec(spec) for spec in LARGE_SPECS}
    # each good to the agent that values it least: Pareto-dominated on these
    # inputs, so the PO scan stops at its first dominator
    worst = [
        model.Allocation(tuple(min(range(p.n), key=lambda i: (p.utilities[i][g], i)) for g in range(p.m)))
        for p in profiles
    ]
    return profiles, functions, worst


def _answer(result):
    return result.allocation.assignment, result.maximizer_set_size


def _check_scan(table, spec, result):
    """An exhaustive answer for ``spec`` against the oracle."""
    if spec == "affine:1,0":
        return _oracle().check_utilitarian(table, *_answer(result))
    if spec == "log":  # float log sums: any exact MNW tie may win
        return _oracle().check_mnw(table, *_answer(result), first=False)
    return _oracle().check_maximizer(table, spec, *_answer(result))


def ops_solve_large(inputs, ctx):
    profiles, functions, worst = inputs
    ops = []
    for k, profile in enumerate(profiles):
        table = functools.cache(lambda p=profile: _table(p))  # built when first checked
        tag = f"{profile.n}x{profile.m}"
        ops.append(Op(f"solve/log/{tag}", lambda out, p=profile: welfarist.solve(p, functions["log"]),
                      lambda r, out, t=table: _oracle().check_mnw(t(), *_answer(r))))
        for spec in ("power:1/2", LARGE_EXPR, "affine:1,0", "log"):
            ops.append(Op(
                f"exhaustive/{spec}/{tag}",
                lambda out, p=profile, f=functions[spec]: welfarist.maximize_welfare(p, f, method="exhaustive"),
                lambda r, out, t=table, s=spec: _check_scan(t(), s, r),
            ))
        for spec in BNB_SPECS:
            ops.append(Op(
                f"bnb/{spec}/{tag}",
                lambda out, p=profile, f=functions[spec]: welfarist.maximize_welfare(p, f, method="branch-and-bound"),
                lambda r, out, scan=f"exhaustive/{spec}/{tag}": (
                    [] if r == out[scan] else [f"branch-and-bound differs from {scan}"]),
            ))
        ops += [
            Op(f"maximizers/power:2/{tag}",
               lambda out, p=profile: welfarist.welfare_maximizers(p, functions["power:2"]),
               lambda r, out, t=table: _oracle().check_maximizer(t(), "power:2", *_answer(r[0]))
               + _oracle().check_maximizer_set(t(), "power:2", [a.assignment for a in r[1]])),
            Op(f"po/optimal/{tag}",
               lambda out, p=profile, s=f"solve/log/{tag}": (out[s].allocation, fairness.is_pareto_optimal(p, out[s].allocation)),
               lambda r, out, t=table: _check_pareto(t(), *r)),
            Op(f"po/dominated/{tag}",
               lambda out, p=profile, a=worst[k]: (a, fairness.is_pareto_optimal(p, a)),
               lambda r, out, t=table: _check_pareto(t(), *r)),
        ]
    return ops


def _check_pareto(table, allocation, verdict):
    dominator = verdict.dominator.assignment if verdict.dominator is not None else None
    return _oracle().check_pareto(table, allocation.assignment, verdict.optimal, dominator)


# ---------------------------------------------------------------------------
# sweep-small: hundreds of small experiment rows, where per-call costs show.
# ---------------------------------------------------------------------------

SWEEP_SHAPES = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5))
SWEEP_PROFILES = 240
SWEEP_SPECS = ("log", "affine:1,0", "power:1/2", "power:2", "expr:x^2+x")
MAX_UTILITY = 9


def build_sweep_small(seed):
    rng = random.Random(seed)
    functions = [welfarist.welfare_function_from_spec(spec) for spec in SWEEP_SPECS]
    configs = []
    for index in range(SWEEP_PROFILES):
        n, m = SWEEP_SHAPES[index % len(SWEEP_SHAPES)]
        profile_seed = rng.getrandbits(32)
        for spec, f in zip(SWEEP_SPECS, functions):
            config = experiment.ExperimentConfig(
                count=1, agents=n, goods=m, max_utility=MAX_UTILITY, functions=(f,), seed=profile_seed
            )
            configs.append((spec, config))
    return configs


def ops_sweep_small(configs, ctx):
    ops = []
    tables = {}
    for index, (spec, config) in enumerate(configs):
        key = (config.seed, config.agents, config.goods)
        if key not in tables:
            tables[key] = functools.cache(lambda c=config: _table(_experiment_profiles(c)[0]))
        ops.append(Op(
            f"row/{index}/{spec}",
            lambda out, c=config: experiment.run_experiment(c),
            lambda rows, out, s=spec, t=tables[key]: _check_rows(rows, [(t(), s)]),
        ))
    row_names = [op.name for op in ops]
    ops.append(Op(
        "experiment_csv",
        lambda out: experiment.experiment_csv([out[name][0] for name in row_names]),
        lambda text, out: _check_csv(text, [out[name][0] for name in row_names]),
    ))
    return ops


def _experiment_profiles(config):
    """The profiles ``run_experiment`` draws for ``config``, drawn again."""
    rng = random.Random(config.seed)
    profiles = [
        experiment.random_profile(rng, config.agents, config.goods, config.max_utility, config.min_utility)
        for _ in range(config.count)
    ]
    for p in profiles:
        values = [u for row in p.utilities for u in row]
        if (p.n, p.m) != (config.agents, config.goods) or not all(
            config.min_utility <= u <= config.max_utility and u.denominator == 1 for u in values
        ):
            raise ValueError(f"random_profile drew {p.utilities} outside the configured range")
    return profiles


def _check_rows(rows, expected):
    """Experiment rows against the oracle; ``expected`` pairs each row with
    its (table, spec)."""
    oracle = _oracle()
    if len(rows) != len(expected):
        return [f"{len(rows)} experiment rows, expected {len(expected)}"]
    problems = []
    for row, (table, spec) in zip(rows, expected):
        flags = {name: row[name] == "true" for name in ("ef1", "ef", "po")}
        welfare = str(row["welfare"])
        neg_inf = 0
        if welfare.startswith("-inf*"):
            count, _, welfare = welfare[len("-inf*"):].partition("+")
            neg_inf = int(count)
        finite = float(welfare)
        if spec == "log":
            (positive, product), _, first = table.mnw()
            candidates = [first]
            want_neg = table.n - positive
            want = math.log(product) - positive * math.log(table.scale) if positive else 0.0
        else:
            candidates = table.maximizers(spec)
            if spec in oracle.EXACT_FUNCTIONS:
                candidates = candidates[:1]
            want_neg = 0
            want = float(table.best(spec))
        if not any(not oracle.check_flags(table, a, **flags) for a in candidates):
            problems.append(f"{spec}: flags {flags} match no maximizer of {table.rows}")
        if neg_inf != want_neg or not math.isclose(finite, want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{spec}: welfare {row['welfare']}, expected {want_neg} -inf terms and {want}")
    return problems


def _check_csv(text, rows):
    parsed = list(csv.DictReader(io.StringIO(text)))
    header = text.split("\n", 1)[0]
    problems = []
    if header != "index,function,ef1,ef,po,welfare":
        problems.append(f"CSV header {header!r}")
    if parsed != [{k: str(v) for k, v in row.items()} for row in rows]:
        problems.append("CSV rows do not read back as the experiment rows")
    return problems


# ---------------------------------------------------------------------------
# characterize: the paper's result end to end.
# ---------------------------------------------------------------------------

NON_LOG_SPECS = ("affine:1,0", "power:2", "power:1/2", "expr:x^2+x", "expr:ln(x+1)")
#: Log-affine specs with their true slope and intercept.
LOG_SPECS = {"log": (1, 0), "log:1/2,-1": (0.5, -1), "log:3,2": (3, 2), "expr:3*ln(x)+2": (3, 2)}


def build_characterize(seed):
    """The paper's construction fixes every input here, so the seed is
    unused; a fixed order also keeps the small operations' times comparable
    between runs."""
    return [(spec, welfarist.welfare_function_from_spec(spec)) for spec in NON_LOG_SPECS + tuple(LOG_SPECS)]


def ops_characterize(functions, ctx):
    ops = []
    for spec, f in functions:
        if spec in LOG_SPECS:
            a, b = LOG_SPECS[spec]
            ops += [
                Op(f"search/{spec}", lambda out, f=f: characterization.find_ef1_counterexample(f),
                   lambda r, out, s=spec: [] if r is None else [f"{s}: log-affine search returned k={r.k}"]),
                Op(f"fit_log/{spec}", lambda out, f=f: characterization.fit_log(f),
                   lambda r, out, a=a, b=b: _oracle().check_log_fit(r.fit and (r.fit.a, r.fit.b), a, b)),
            ]
            continue
        search = f"search/{spec}"
        ops.append(Op(search, lambda out, f=f: characterization.find_ef1_counterexample(f),
                      lambda r, out, s=spec: _check_report(r, s)))
        # one operation solves both extensions: with the n=3 and n=4 solves
        # counted apart, the median operation would fall between the cheapest
        # of those solves and the log-affine fits, and jump between them
        ops.append(Op(
            f"solve-extended/{spec}",
            lambda out, f=f, src=search: [_solve_extended(out[src].profile, n, f) for n in (3, 4)],
            lambda results, out, s=spec: [
                problem
                for profile, result in results
                for problem in _oracle().check_counterexample(
                    _table(profile), s, result.allocation.assignment, result.maximizer_set_size)
            ],
        ))
        ops.append(Op(f"fit_log/{spec}", lambda out, f=f: characterization.fit_log(f),
                      lambda r, out, s=spec: [] if r.fit is None else [f"{s} fitted as log-affine"]))
    return ops


def _solve_extended(profile, n, f):
    extended = characterization.extend_profile(profile, n)
    return extended, welfarist.solve(extended, f)


def _check_report(report, spec):
    if report is None:
        return [f"{spec}: no counterexample found"]
    problems = _oracle().check_counterexample(
        _table(report.profile), spec, report.solve.allocation.assignment, report.solve.maximizer_set_size
    )
    if report.ef1.holds or not report.all_maximizers_violate:
        problems.append(f"{spec}: report does not claim an EF1 failure")
    return problems


# ---------------------------------------------------------------------------
# cli: a scripted session of CLI commands, one child process each.
# ---------------------------------------------------------------------------

CLI_EXPERIMENT = ("--count", "20", "--agents", "2", "--goods", "5")


def build_cli(seed):
    return seed


def ops_cli(seed, ctx):
    work = ctx["workdir"]
    profile, allocation, mnw = (os.path.join(work, name) for name in ("ce_profile.json", "ce_allocation.json", "mnw.json"))
    experiment_args = ("experiment", *CLI_EXPERIMENT, "--seed", str(seed), "--f", "log", "--f", "affine:1,0")
    session = [
        ("counterexample", ("counterexample", "--f", "power:2", "--profile-out", profile,
                            "--allocation-out", allocation, "--format", "json"), None,
         _check_counterexample_cli(profile, allocation)),
        ("check", ("check", "--profile", profile, "--allocation", allocation, "--format", "json"), None,
         _check_check_cli(1, profile, allocation)),
        ("solve", ("solve", "--profile", profile, "--f", "log", "--format", "json"), None,
         _check_solve_cli(profile)),
        ("check", ("check", "--profile", profile, "--allocation", mnw, "--ef1", "--po", "--format", "json"),
         _writes_mnw(mnw), _check_check_cli(0, profile, mnw)),
        ("lemma-check", ("lemma-check", "--f", "log", "--format", "json"), None, _check_lemma_cli(True)),
        ("lemma-check", ("lemma-check", "--f", "power:2", "--format", "json"), None, _check_lemma_cli(False)),
        ("experiment", experiment_args, None, _check_experiment_cli(seed)),
    ]
    ops = []
    for index, (command, args, before, check) in enumerate(session):
        ops.append(Op(
            f"cli/{index}/{command}",
            lambda out, a=args, b=before: _child(ctx, a, b, out),
            check,
            replay=lambda out, a=args, b=before: _in_process(a, b, out),
        ))
    return ops


def _child(ctx, args, before, outputs):
    """Run one CLI command in a child process; returns (exit code, stdout)."""
    if before is not None:
        before(outputs)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fairalloc.cli", *args],
        cwd=ctx["root"], env=ctx["env"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        text = proc.stdout.read().decode()
    # wait4 reports the child's own peak resident memory
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx["child_rss_kb"] = max(ctx.get("child_rss_kb", 0), usage.ru_maxrss)
    return proc.returncode, text


def _in_process(args, before, outputs):
    """Run one CLI command in this process through click; returns the exit code."""
    from click.testing import CliRunner

    from fairalloc.cli import main

    if before is not None:
        before(outputs)
    result = CliRunner().invoke(main, list(args))
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code


def _writes_mnw(path):
    def write(outputs):
        code, text = outputs["cli/2/solve"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"assignment": json.loads(text)["assignment"]}, handle)

    return write


def _read_profile(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return _oracle().Table([[Fraction(v) for v in row] for row in data["utilities"]])


def _read_assignment(path):
    with open(path, encoding="utf-8") as handle:
        return tuple(json.load(handle)["assignment"])


def _exit(code, want):
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _check_counterexample_cli(profile_path, allocation_path):
    def check(result, out):
        code, text = result
        if code != 0:
            return _exit(code, 0)
        report = json.loads(text)
        problems = _oracle().check_counterexample(
            _read_profile(profile_path), "power:2", _read_assignment(allocation_path),
            report["solver"]["maximizer_set_size"],
        )
        if report["ef1_holds"] or not report["all_maximizers_violate"]:
            problems.append("counterexample report does not claim an EF1 failure")
        return problems

    return check


def _check_check_cli(want, profile_path, allocation_path):
    def check(result, out):
        code, text = result
        problems = _exit(code, want)
        verdicts = json.loads(text)
        flags = {name: verdicts[name]["holds"] for name in ("ef1", "ef") if name in verdicts}
        flags["po"] = verdicts["po"]["optimal"]
        problems += _oracle().check_flags(_read_profile(profile_path), _read_assignment(allocation_path), **flags)
        if (code == 0) != all(flags.values()):
            problems.append(f"exit code {code} disagrees with the verdicts {flags}")
        return problems

    return check


def _check_solve_cli(profile_path):
    def check(result, out):
        code, text = result
        if code != 0:
            return _exit(code, 0)
        payload = json.loads(text)
        return _oracle().check_mnw(
            _read_profile(profile_path), payload["assignment"], payload["maximizer_set_size"]
        )

    return check


def _check_lemma_cli(log_affine):
    def check(result, out):
        code, text = result
        if code != 0:
            return _exit(code, 0)
        payload = json.loads(text)
        if not log_affine:
            return [] if not payload["log_affine"] else ["power:2 reported log-affine"]
        fit = payload.get("fit")
        return _oracle().check_log_fit(fit and (fit["a"], fit["b"]), 1.0, 0.0)

    return check


def _check_experiment_cli(seed):
    def check(result, out):
        code, text = result
        if code != 0:
            return _exit(code, 0)
        config = experiment.ExperimentConfig(
            count=int(CLI_EXPERIMENT[1]), agents=int(CLI_EXPERIMENT[3]), goods=int(CLI_EXPERIMENT[5]),
            max_utility=MAX_UTILITY, functions=tuple(map(welfarist.welfare_function_from_spec, ("log", "affine:1,0"))),
            seed=seed,
        )
        tables = [_oracle().Table(p.utilities) for p in _experiment_profiles(config)]
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = [(t, spec) for t in tables for spec in ("log", "affine:1,0")]
        return _check_rows(rows, expected)

    return check


WORKLOADS = {
    "solve-large": (build_solve_large, ops_solve_large),
    "sweep-small": (build_sweep_small, ops_sweep_small),
    "characterize": (build_characterize, ops_characterize),
    "cli": (build_cli, ops_cli),
}
