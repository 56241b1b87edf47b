"""lattice-spectra benchmark: how long the command line takes to reach a verdict.

Run from the root of a checkout (stdlib only, nothing to build)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Every command runs as a user runs it: one fresh ``python3 -m
lattice_spectra.cli`` per command, ``--jobs`` at most the number of usable
cores.  A run repeats whole passes over the workload's commands, at least one
and no more than fit in ``--seconds``, and reports medians over the passes.
Every output is checked (see ``judge``); a wrong answer makes the run exit 1.

Workloads (the seed orders the commands of ``corpus`` and ``scale-ladder``):

* ``corpus``: ``verify --catalog`` and ``verify --exhaustive 6``;
* ``random-sweep``: ``verify --random SEED*1000+k 1000`` in pass k;
* ``scale-ladder``: ``show``, ``spec --bitop``, ``spec --classical`` and
  ``verify FILE`` on each lattice of ``LADDER``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under ``tracer.py`` and prints the per-layer
metrics, including the tracing overhead.  The last line of standard output is
the result object; the line before it is the run record (machine, commit,
seed and raw per-pass samples), also written to ``.perfbench_work/record.json``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("corpus", "random-sweep", "scale-ladder")
# The 15 per-lattice suites and 4 corpus checks, in the order verify prints them.
CHECKS = (
    "lattice_axioms",
    "spectrum_map_laws",
    "distributive_iff_maps_equal",
    "specialization_orders",
    "transition_operators",
    "covering_witnesses",
    "prime_point_closures",
    "essential_family",
    "bounds_from_topology",
    "pairwise_axioms",
    "essential_comaximal_points",
    "space_roundtrip",
    "lattice_roundtrip",
    "distributive_equivalences",
    "classical_stone",
)
CORPUS_CHECKS = ("hom_classification", "functor_laws", "naturality_squares", "classical_bridge")
RANDOM_MAX_SIZE = 7  # the size bound verify --random uses
SIZES = {  # --size: the benchmark's own size, and a reduced one for the self-test
    "full": {"exhaustive": 6, "random": 1000, "ladder": None},
    "small": {"exhaustive": 4, "random": 40, "ladder": ("m5", "m6", "m4xc2")},
}
SETUP_REPEATS = 11
COMMAND_TIMEOUT_S = 60
LIMIT_TEXT = re.compile(r"CarrierTooLarge|stop at \d+ points|too large|limit", re.IGNORECASE)


# ---------------------------------------------------------------------------
# scale ladder: lattices written by the benchmark, with known spectrum sizes


def _chain(lib, k):
    names = [str(i) for i in range(k)]
    return lib.build_lattice(names, list(zip(names, names[1:])), name=f"chain{k}")


def _diamond(lib, k):
    """M_k: a bottom, k pairwise incomparable atoms and a top."""
    atoms = [f"a{i}" for i in range(1, k + 1)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return lib.build_lattice(["0", *atoms, "1"], covers, name=f"m{k}")


def _product(lib, name, *factors):
    return functools.reduce(
        lambda a, b: lib.product_lattice(a, b, name=name), factors[1:], factors[0]
    )


# entry -> (constructor, bitop points, classical points).  The counts are closed
# forms (M_k has k(k-1) comaximal pairs and no prime ideal, chain n has n-1 of
# each, a distributive lattice one of each per join-irreducible); None means
# no closed form, and the order-theoretic counts below stand in.
LADDER = {
    "m5": (lambda lib: _diamond(lib, 5), 5 * 4, 0),  # 7 elements
    "m6": (lambda lib: _diamond(lib, 6), 6 * 5, 0),  # past the 20-point wall
    "chain20": (lambda lib: _chain(lib, 20), 19, 19),
    "chain22": (lambda lib: _chain(lib, 22), 21, 21),  # past the wall
    "b5": (lambda lib: _product(lib, "b5", *[_chain(lib, 2)] * 5), 5, 5),  # 32 elements
    "c5xc5": (lambda lib: _product(lib, "c5xc5", _chain(lib, 5), _chain(lib, 5)), 4 + 4, 4 + 4),
    "m3xm3": (lambda lib: _product(lib, "m3xm3", _diamond(lib, 3), _diamond(lib, 3)), None, None),
    "m4xc2": (lambda lib: _product(lib, "m4xc2", _diamond(lib, 4), _chain(lib, 2)), None, None),
}
# entries whose spectrum is past the 20-point wall at the seed commit; their
# limits and failures count in pass_share instead of as wrong answers
KNOWN_FAILING = frozenset({"m6", "chain22"})


def _down_sets(up):
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in range(len(up)):
            if mask >> j & 1:
                down[j] |= 1 << i
    return down


def bitop_points(up) -> int:
    """Comaximal pairs counted from the order alone: pairs (a, b) with b not
    below a, a maximal outside up[b] and b minimal outside down[a]."""
    down = _down_sets(up)
    count = 0
    for a in range(len(up)):
        for b in range(len(up)):
            if up[b] >> a & 1:
                continue
            if up[a] & ~(1 << a) & ~up[b] or down[b] & ~(1 << b) & ~down[a]:
                continue
            count += 1
    return count


def prime_ideal_count(up) -> int:
    """Prime ideals are the principal ideals down[a] whose complement is a
    principal filter up[b]."""
    down = _down_sets(up)
    full = (1 << len(up)) - 1
    filters = set(up)
    return sum(1 for d in down if d != full and full & ~d in filters)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    key: str  # names the command in expected.json
    args: tuple[str, ...]
    kind: str  # "show" | "spec-bitop" | "spec-classical" | "verify"
    entry: str | None = None  # ladder entry
    expected_text: str | None = None  # exact stdout, where it follows from known answers


@dataclass
class Workload:
    commands: list[Command]  # every pass runs these, unless draw is set
    # points of every generated lattice by name, for frontier_points
    points: dict[str, int] = field(default_factory=dict)
    # ladder entry -> (bitop points, classical points)
    known: dict[str, tuple[int, int]] = field(default_factory=dict)
    draw: Callable[[int], list[Command]] | None = None  # the commands of pass k

    def pass_commands(self, k: int) -> list[Command]:
        return self.draw(k) if self.draw else self.commands


def _all_pass_text(names) -> str:
    lines = [f"PASS {name} {check}" for name in names for check in CHECKS]
    lines.append(f"lattices: {len(names)}  checks: {len(lines)}  failures: 0")
    return "\n".join(lines) + "\n"


def build_workload(name: str, seed: int, size: str, jobs: int, lib) -> Workload:
    sizes = SIZES[size]
    rng = random.Random(seed)
    jobs_args = ("--jobs", str(jobs))
    if name == "corpus":
        n = sizes["exhaustive"]
        generated = list(lib.enumerate_lattices(lib.GeneratorConfig("exhaustive", n)))
        commands = [
            Command("verify --catalog", ("verify", "--catalog", *jobs_args), "verify"),
            Command(f"verify --exhaustive {n}", ("verify", "--exhaustive", str(n), *jobs_args), "verify"),
        ]
        rng.shuffle(commands)
        return Workload(commands, {lat.name: bitop_points(lat.up) for lat in generated})
    if name == "random-sweep":
        # Pass k verifies a sample of its own, drawn with seed*1000+k: the
        # cost of one sample depends on which lattices it draws, and a
        # median over the passes' samples does not.
        count = sizes["random"]
        workload = Workload([])

        def draw(k: int) -> list[Command]:
            cli_seed = (seed * 1000 + k) % (1 << 31)
            config = lib.GeneratorConfig("random", RANDOM_MAX_SIZE, seed=cli_seed, count=count)
            generated = list(lib.enumerate_lattices(config))
            by_order: dict[tuple, int] = {}
            for lat in generated:
                workload.points[lat.name] = by_order.setdefault(lat.up, bitop_points(lat.up))
            text = _all_pass_text([lat.name for lat in generated])
            args = ("verify", "--random", str(cli_seed), str(count), *jobs_args)
            return [Command(f"verify --random {cli_seed} {count}", args, "verify", expected_text=text)]

        workload.draw = draw
        return workload
    if name == "scale-ladder":
        entries = sizes["ladder"] or tuple(LADDER)
        commands = []
        known = {}
        for entry in entries:
            build, bitop, classical = LADDER[entry]
            lat = build(lib)
            oracle = (bitop_points(lat.up), prime_ideal_count(lat.up))
            closed = (bitop, classical)
            if any(c is not None and c != o for c, o in zip(closed, oracle)):
                raise RuntimeError(f"closed form {closed} disagrees with order count {oracle} on {entry}")
            known[entry] = oracle
            path = WORK / f"{entry}.lat"
            path.write_text(lib.render_lattice(lat), encoding="utf-8")
            file = str(path)
            commands += [
                Command(f"show {entry}", ("show", file), "show", entry),
                Command(f"spec --bitop {entry}", ("spec", file, "--bitop"), "spec-bitop", entry),
                Command(f"spec --classical {entry}", ("spec", file, "--classical"), "spec-classical", entry),
                Command(f"verify {entry}", ("verify", file, *jobs_args), "verify", entry),
            ]
        rng.shuffle(commands)
        return Workload(commands, known=known)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running one command


@dataclass
class Outcome:
    """What ``judge`` makes of one command's output."""

    units: int = 1  # checks for verify, else the command itself
    limited: int = 0  # units that hit a size limit
    failed: int = 0  # units that failed a theorem check or raised
    points: int | None = None
    passed_lattices: tuple[str, ...] = ()
    wrong: str | None = None


def spawn(argv: list[str], env: dict) -> tuple[float, float, int, int, str, str]:
    """Run one process to completion: wall, cpu, max rss (KB), exit code, out, err."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out_text = out_path.read_text(encoding="utf-8", errors="replace")
    err_text = err_path.read_text(encoding="utf-8", errors="replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out_text, err_text


def judge(cmd: Command, code: int, out: str, err: str, expected: dict, workload: Workload, o: Outcome) -> None:
    """Check one command's answer and count its units into ``o``.

    A command must reproduce the stdout digest recorded for it at the seed
    commit, or the exact text that follows from the known answers.  On a
    known-failing ladder entry a different answer is accepted when it is
    well formed and agrees with the known spectrum sizes, so that lifting a
    limit shows as a higher pass_share, not as a wrong answer.
    """
    record = expected.get(cmd.key)
    digest = hashlib.sha256(out.encode()).hexdigest()
    matches = record is not None and record == {"sha256": digest, "exit": code}
    if cmd.expected_text is not None:
        matches = out == cmd.expected_text and code == 0
    lenient = cmd.entry in KNOWN_FAILING and cmd.kind != "show"
    if not matches and not lenient:
        o.wrong = "no recorded answer" if record is None and cmd.expected_text is None else "output differs"
        return
    if cmd.kind == "verify":
        _judge_verify(code, out, o, lenient)
    elif cmd.kind.startswith("spec"):
        known = workload.known[cmd.entry][0 if cmd.kind == "spec-bitop" else 1]
        if code == 0:
            found = re.search(r"^points: (\d+)$", out, re.MULTILINE)
            o.points = int(found.group(1)) if found else None
            if o.points != known:
                o.wrong = f"{o.points} points, expected {known}"
        elif code == 2 and err.startswith("error:"):
            if LIMIT_TEXT.search(err):
                o.limited = 1
            else:
                o.failed = 1
        else:
            o.wrong = f"exit {code}: {err.strip()[-200:]}"
    elif code != 0:
        o.wrong = f"exit {code}: {err.strip()[-200:]}"


def _judge_verify(code: int, out: str, o: Outcome, lenient: bool) -> None:
    lines = out.splitlines()
    summary = re.fullmatch(r"lattices: (\d+)\s+checks: (\d+)\s+failures: (\d+).*", lines[-1] if lines else "")
    if summary is None:
        o.wrong = "no summary line"
        return
    status: dict[str, list[bool]] = {}
    fails = 0
    for line in lines[:-1]:
        parts = line.split(" ", 3)
        if len(parts) < 3 or parts[0] not in ("PASS", "FAIL", "LIMIT"):
            o.wrong = f"unexpected line {line[:120]!r}"
            return
        verdict, lattice = parts[0], parts[1]
        ok = verdict == "PASS"
        if not ok and (verdict == "LIMIT" or LIMIT_TEXT.search(parts[3] if len(parts) > 3 else "")):
            o.limited += 1
        elif not ok:
            o.failed += 1
        fails += verdict == "FAIL"
        status.setdefault(lattice, []).append(ok)
    o.units = len(lines) - 1
    if int(summary.group(2)) != o.units or (code != 0) != (fails > 0):
        o.wrong = "summary or exit code disagrees with the check lines"
    elif lenient and [ln.split(" ", 3)[2] for ln in lines[:-1]] != list(CHECKS):
        o.wrong = "check lines out of order"
    elif not lenient and (o.limited or o.failed):
        o.wrong = "a check failed"
    o.passed_lattices = tuple(lat for lat, oks in status.items() if all(oks))


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall: float = 0.0
    keys: list[str] = field(default_factory=list)  # per command, in run order
    kinds: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    checks: int = 0
    units: int = 0
    limited: int = 0
    failed: int = 0
    rss_kb: int = 0
    frontier: int = 0
    wrong: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    def record(self) -> dict:
        keys = ("wall", "keys", "walls", "cpus", "checks", "units", "limited", "failed", "rss_kb", "frontier")
        return {k: getattr(self, k) for k in keys}


def run_pass(workload: Workload, commands: list[Command], env: dict, expected: dict, traced: bool = False) -> Pass:
    p = Pass()
    ladder_ok: dict[str, bool] = {}
    ladder_points: dict[str, int] = {}
    start = time.perf_counter()
    for k, cmd in enumerate(commands):
        if traced:
            trace_path = WORK / f"trace-{k:02d}.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(trace_path), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "lattice_spectra.cli", *cmd.args]
        wall, cpu, rss, code, out, err = spawn(argv, env)
        o = Outcome()
        judge(cmd, code, out, err, expected, workload, o)
        if traced and trace_path.exists():
            p.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        p.keys.append(cmd.key)
        p.kinds.append(cmd.kind)
        p.walls.append(wall)
        p.cpus.append(cpu)
        p.rss_kb = max(p.rss_kb, rss)
        p.units += o.units
        p.limited += o.limited
        p.failed += o.failed
        if o.wrong:
            p.wrong.append(f"{cmd.key}: {o.wrong}")
        if cmd.kind == "verify":
            p.checks += o.units
            for lattice in o.passed_lattices:
                p.frontier = max(p.frontier, workload.points.get(lattice, 0))
        if cmd.entry is not None:
            ladder_ok[cmd.entry] = ladder_ok.get(cmd.entry, True) and not (o.limited or o.failed or o.wrong)
            if o.points is not None and cmd.kind == "spec-bitop":
                ladder_points[cmd.entry] = o.points
    p.wall = time.perf_counter() - start
    for entry, ok in ladder_ok.items():
        if ok and entry in ladder_points:
            p.frontier = max(p.frontier, ladder_points[entry])
    return p


def measure_setup(env: dict) -> list[float]:
    """Interpreter start plus ``import lattice_spectra.cli``, no work."""
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, code, _, err = spawn([sys.executable, "-c", "import lattice_spectra.cli"], env)
        if code != 0:
            raise RuntimeError(f"importing the package failed: {err.strip()[-300:]}")
        samples.append(wall)
    return samples


# ---------------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


def end_to_end(setup: list[float], passes: list[Pass]) -> dict[str, float]:
    """Times are sums over the commands of each command's median over the
    passes, so that a stall in one command of one pass does not count."""
    median = statistics.median

    def typical(samples: str, kinds=None) -> float:
        return sum(
            median(getattr(p, samples)[i] for p in passes)
            for i, kind in enumerate(passes[0].kinds)
            if kinds is None or kind in kinds
        )

    return {
        "setup_s": median(setup),
        "wall_s": typical("walls"),
        "cpu_s": typical("cpus"),
        "checks_per_s": median(p.checks for p in passes) / typical("walls", ("verify",)),
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
        "pass_share": 1 - failed_share(passes),
    }


def failed_share(passes: list[Pass]) -> float:
    """FAIL or LIMIT units over units attempted, in the worst pass."""
    return max((p.limited + p.failed) / p.units for p in passes)


# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "catalog.enumerate_s": "catalog.enumerate",
    "catalog.canonical_form_s": "catalog.canonical_form",
    "lattices.build_s": "lattices.build",
    "lattices.is_distributive_s": "lattices.is_distributive",
    "lattices.all_homs_s": "lattices.all_homs",
    "spectra.comaximal_pairs_s": "spectra.comaximal_pairs",
    "spectra.build_bitop_s": "spectra.build_bitop",
    "spectra.build_classical_s": "spectra.build_classical",
    "spectra.witness_s": "spectra.witness",
    "topology.subbasis_s": "topology.subbasis",
    "topology.essential_subsets_s": "topology.essential_subsets",
    "topology.empty_fundamental_s": "topology.empty_fundamental",
    "topology.pairwise_bd_s": "topology.pairwise_bd",
    "duality.classify_hom_s": "duality.classify_hom",
    "duality.spec_b_s": "duality.spec_b",
    "duality.pbd_morphism_s": "duality.pbd_morphism",
    "duality.essential_lattice_s": "duality.essential_lattice",
    "duality.reconstruction_s": "duality.reconstruction",
    **{f"suites.{c}_s": f"suites.{c}" for c in CHECKS},
    **{f"suites.corpus.{c}_s": f"suites.corpus.{c}" for c in CORPUS_CHECKS},
}
CALLS = {
    "lattices.is_distributive_calls": "lattices.is_distributive",
    "topology.empty_fundamental_calls": "topology.empty_fundamental",
    "duality.classify_hom_calls": "duality.classify_hom",
}
COUNTS = ("catalog.lattices_generated", "spectra.points", "topology.opens_generated")
HIT_RATIOS = (
    "spectra.comaximal_pairs",
    "spectra.build_bitop_spectrum",
    "spectra.build_classical_spectrum",
    "topology.essential_subsets",
    "duality.essential_lattice",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in (*CALLS, *COUNTS)})
    units.update({f"{cache}.hit_ratio": "ratio" for cache in HIT_RATIOS})
    units.update(
        {
            "duality.quasi_proper_ratio": "ratio",
            "suites.pool_efficiency": "ratio",
            "suites.pool_idle_s": "s",
            "frontier_points": "points",
            "trace.wall_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    self_s, calls, counters, hits, misses = Counter(), Counter(), Counter(), Counter(), Counter()
    pool_cpu = pool_capacity = 0.0
    for t in traces:
        self_s.update(t["self_s"])
        calls.update(t["calls"])
        counters.update(t["counters"])
        for cache, (h, m) in t["caches"].items():
            hits[cache] += h
            misses[cache] += m
        pool_cpu += t["pool"]["cpu_s"]
        pool_capacity += t["pool"]["capacity_s"]
    out = {name: self_s[span] for name, span in SELF_TIMES.items()}
    out.update({name: calls[span] for name, span in CALLS.items()})
    out.update({name: counters[name] for name in COUNTS})
    for cache in HIT_RATIOS:
        total = hits[cache] + misses[cache]
        out[f"{cache}.hit_ratio"] = hits[cache] / total if total else 0.0
    classified = calls["duality.classify_hom"]
    out["duality.quasi_proper_ratio"] = counters["duality.quasi_proper"] / classified if classified else 0.0
    out["suites.pool_efficiency"] = pool_cpu / pool_capacity if pool_capacity else 0.0
    out["suites.pool_idle_s"] = pool_capacity - pool_cpu
    return out


# ---------------------------------------------------------------------------
# run record


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    """The caller's environment with the checkout's sources on the path; the
    job count comes from ``--jobs`` alone."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("LATTICE_SPECTRA_JOBS", None)
    return env


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="small: the self-test's reduced inputs")
    args = parser.parse_args(argv)

    if not (SRC / "lattice_spectra" / "cli.py").is_file():
        print(f"error: run from the root of a lattice-spectra checkout ({SRC} has no lattice_spectra)", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("lattice_spectra")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    env = child_env()
    jobs = min(4, usable_cores())  # the CLI's own default cap, never above the usable cores

    workload = build_workload(args.workload, args.seed, args.size, jobs, lib)
    setup = measure_setup(env)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:  # whole rounds, stopping before one would end past --seconds
        commands = workload.pass_commands(len(untraced))
        untraced.append(run_pass(workload, commands, env, expected))
        if args.trace:
            traced.append(run_pass(workload, commands, env, expected, traced=True))
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break
    passes = untraced + traced
    wrong = [w for p in passes for w in p.wrong]
    # the largest spectrum among lattices that passed everything; not an
    # end-to-end metric because on random-sweep it depends on the seed's sample
    frontier = min(p.frontier for p in passes)

    if args.trace:
        layers = [layer_metrics(p.traces) for p in traced]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        trace_wall = statistics.median(p.wall - sum(t["report_s"] for t in p.traces) for p in traced)
        values["trace.wall_s"] = trace_wall
        values["trace.overhead_ratio"] = trace_wall / statistics.median(p.wall for p in untraced) - 1
        values["frontier_points"] = frontier
        units = per_layer_units()
    else:
        values = end_to_end(setup, untraced)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": usable_cores(),
        "jobs": jobs,
        "commit": git_commit(),
        "setup_samples": setup,
        "passes": [p.record() for p in untraced],
        "traced_passes": [p.record() for p in traced],
        "failed_share": failed_share(passes),
        "frontier_points": frontier,
        "untraced_functions": sorted({f for p in traced for t in p.traces for f in t["untraced"]}),
        "wrong": wrong,
    }
    (WORK / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    result = {
        "correct": not wrong,
        "attempted": sum(len(p.keys) for p in passes),
        "failed": len(wrong),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    for w in wrong:
        print(f"wrong answer: {w}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
