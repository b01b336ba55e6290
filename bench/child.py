"""One workload in a fresh process: set up, run the client, check results.

The client calls `alontarsi.cli.main(argv)` with the argv a user would type,
one operation at a time, and never asks for `--jobs` > 1.  The measured
phase runs every operation at least once and repeats them while time is
left (see `measure`).  Every call is checked as it returns, and one JSON
record goes to stdout.

    python3 bench/child.py --workload atn-poly --seed 1 --seconds 20
    python3 bench/child.py --record     # rewrite verify-campaigns.expected.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "verify-campaigns.expected.json"


@dataclass(frozen=True)
class Rung:
    """One ladder graph: a named base graph, optionally passed through
    `alontarsi construct`, with its pinned Alon-Tarsi number."""

    label: str
    base: str
    construct: str | None
    atn: int
    # coefficient_of on the certificate; off where it takes tens of seconds
    recheck: bool = True

    @property
    def stem(self) -> str:
        return "".join(c if c.isalnum() else "_" for c in self.label)


# Labels stay as `construct` writes them: relabelling moves engine cost by
# up to 20x (L(K4,4): 2.3 s canonical, 14-43 s relabelled).
LADDERS = {
    "atn-poly": (
        "poly",
        (
            Rung("K8", "K8", None, 8),
            Rung("L(K5)", "K5", "line", 5),
            Rung("T(K4)", "K4", "total", 5),
            Rung("K5,5", "K5,5", None, 4),
            Rung("T(C5)", "C5", "total", 4),
            Rung("L(K4,4)", "K4,4", "line", 4, recheck=False),
            Rung("T(C7)", "C7", "total", 4),
        ),
    ),
    "atn-orient": (
        "orient",
        (
            Rung("K5", "K5", None, 5),
            Rung("K3,3", "K3,3", None, 3),
            Rung("Petersen", "petersen", None, 3),
            Rung("T(C5)", "C5", "total", 4),
            Rung("K6", "K6", None, 6),
        ),
    ),
}
CAMPAIGNS = (
    ("thm1",),
    ("thm2",),
    ("cor3",),
    ("thm4",),
    ("duality", "--max-edges", "9"),
    ("sandwich",),
)
WORKLOADS = (*LADDERS, "verify-campaigns")
VISIT_S = 1.0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # for a rung, argv[1] is the graph file
    rung: Rung | None = None  # None for a campaign


class LineClock:
    """Stands in for stdout during one call: keeps each line and the time
    its newline was written."""

    def __init__(self):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._pending: list[str] = []

    def write(self, text: str) -> int:
        if "\n" not in text:
            self._pending.append(text)
            return len(text)
        now = time.perf_counter()
        parts = ("".join(self._pending) + text).split("\n")
        self._pending = [parts.pop()]
        self.lines.extend(parts)
        self.times.extend([now] * len(parts))
        return len(text)

    def flush(self):
        pass


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Make the workload's inputs; ladder graphs are written to workdir."""
    from alontarsi import cli
    from alontarsi.graphs import named_graph, to_edge_list_text

    if workload == "verify-campaigns":
        return [
            Op(("verify", name, *extra, "--seed", str(seed), "--format", "json"))
            for name, *extra in CAMPAIGNS
        ]
    method, rungs = LADDERS[workload]
    rungs = list(rungs)
    random.Random(seed).shuffle(rungs)
    ops = []
    for rung in rungs:
        base = workdir / f"base_{rung.stem}.txt"
        base.write_text(to_edge_list_text(named_graph(rung.base)), encoding="utf-8")
        path = base
        if rung.construct:
            path = workdir / f"{rung.stem}.txt"
            rc = cli.main(["construct", rung.construct, str(base), "-o", str(path)])
            if rc != 0:
                raise SystemExit(f"construct {rung.construct} {rung.base} exited {rc}")
        ops.append(Op(("atn", str(path), "--method", method, "--format", "json"), rung))
    return ops


def call(argv, recorder=None, op_index=-1) -> tuple[int, LineClock, float, float]:
    from alontarsi import cli

    clock = LineClock()
    if recorder is not None:
        recorder.current_op = op_index
    saved = sys.stdout
    sys.stdout = clock
    try:
        started = time.perf_counter()
        rc = cli.main(list(argv))
        ended = time.perf_counter()
    finally:
        sys.stdout = saved
    return rc, clock, started, ended


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


class Checker:
    """Checks every call's output as it returns and counts operations: an
    `atn` call or a campaign report is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._rechecked: dict = {}
        self._expected = None

    def check(self, op: Op, rc: int, lines: list[str]):
        if op.rung is not None:
            self.attempted += 1
            problem = self._atn_problem(op, rc, lines)
            if problem:
                self.failed += 1
                self.failures.append(f"{op.rung.label}: {problem}")
        else:
            self._check_campaign(op.argv[1], rc, lines)

    def _atn_problem(self, op: Op, rc: int, lines: list[str]) -> str | None:
        from alontarsi.graphs import parse_edge_list_text
        from alontarsi.orientations import Orientation, eulerian_census
        from alontarsi.polynomials import coefficient_of

        rung = op.rung
        if rc != 0 or len(lines) != 1:
            return f"exit {rc}, {len(lines)} output lines"
        payload = json.loads(lines[0])
        if payload["atn"] != rung.atn:
            return f"atn {payload['atn']} != pinned {rung.atn}"
        (cert,) = payload["certificates"].values()
        if cert["atn"] != rung.atn:
            return "certificate atn differs"
        # the recheck is the costly part; identical certificates share it
        key = (op.argv[1], json.dumps(cert, sort_keys=True))
        if key in self._rechecked:
            return self._rechecked[key]
        with open(op.argv[1], encoding="utf-8") as fh:
            g = parse_edge_list_text(fh.read())
        problem = None
        if cert["kind"] == "monomial":
            exps = cert["exponents"]
            if len(exps) != g.n or sum(exps) != g.m or max(exps) != rung.atn - 1:
                problem = "monomial degrees are inconsistent"
            elif cert["coefficient"] == 0:
                problem = "monomial coefficient is zero"
            elif rung.recheck and coefficient_of(g, exps) != cert["coefficient"]:
                problem = "coefficient_of disagrees with the certificate"
        else:
            orient = Orientation.from_int(g, int(cert["bits"], 16))
            census = eulerian_census(orient)
            if [list(a) for a in orient.arcs()] != cert["arcs"]:
                problem = "arcs do not match bits"
            elif max(orient.outdegrees()) != rung.atn - 1:
                problem = "max outdegree is not atn - 1"
            elif not census.alon_tarsi:
                problem = "census is balanced"
            elif [census.even, census.odd] != [cert["census"]["even"], cert["census"]["odd"]]:
                problem = "eulerian_census disagrees with the certificate"
        self._rechecked[key] = problem
        return problem

    def _check_campaign(self, name: str, rc: int, lines: list[str]):
        """Instance ids and claims must equal the recorded ones; values are
        not compared, so a report may gain fields."""
        if self._expected is None:
            self._expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        want = self._expected["reports"][name]
        signatures = self._expected["claims"]
        bad = []
        for i in range(max(len(lines), len(want))):
            if i >= len(lines):
                bad.append(f"{name}: missing report {want[i]}")
                continue
            if i >= len(want):
                bad.append(f"{name}: unexpected report {lines[i][:80]}")
                continue
            iid, sig = want[i].rsplit(" ", 1)
            try:
                report = json.loads(lines[i])
            except ValueError:
                bad.append(f"{iid}: unreadable report")
                continue
            if report["instance"] != iid:
                bad.append(f"{name}: instance {report['instance']} != {iid}")
            elif report["claims"] != signatures[int(sig)] or report["pass"] is not True:
                bad.append(f"{iid}: claims {report['claims']}")
        if rc != 0 and not bad:
            bad.append(f"{name}: exit {rc} with every report as recorded")
        self.attempted += max(len(lines), len(want))
        self.failed += len(bad)
        self.failures.extend(bad)


def record_expected():
    """Run every campaign once and write the instance ids and claims."""
    sys.path.insert(0, str(SRC))
    signatures: list[dict] = []
    reports = {}
    for name, *extra in CAMPAIGNS:
        rc, clock, _, _ = call(("verify", name, *extra, "--seed", "0", "--format", "json"))
        if rc != 0:
            raise SystemExit(f"verify {name} exited {rc}; not recording")
        rows = []
        for line in clock.lines:
            report = json.loads(line)
            if report["claims"] not in signatures:
                signatures.append(report["claims"])
            rows.append(f"{report['instance']} {signatures.index(report['claims'])}")
        reports[name] = rows
    body = json.dumps({"claims": signatures, "reports": reports}, indent=0, sort_keys=True)
    EXPECTED.write_text(body + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(args) -> dict:
    if not (SRC / "alontarsi" / "__init__.py").is_file():
        raise SystemExit(f"no alontarsi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import alontarsi

    if Path(alontarsi.__file__).resolve().parent != SRC / "alontarsi":
        raise SystemExit(f"imported alontarsi from {alontarsi.__file__}, not {SRC}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = build_ops(args.workload, args.seed, workdir)
        setup = {"setup_raw_s": time.monotonic() - args.t0}
        # probes right after set-up stand for the host's speed during it
        setup["setup_s"] = setup["setup_raw_s"] * hostspeed.REF_S / hostspeed.probe_median(5)
        if args.setup_only:
            return setup
        return {**setup, **measure(args, ops)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, ops: list[Op]) -> dict:
    """Visit the operations in order, round after round, until `--seconds`
    are used.  The first round calls each operation once; later visits
    repeat an operation until it has run for VISIT_S, so short operations
    get samples from every part of the phase, not only from its tail.  An
    operation whose last call took longer than the time left is skipped,
    so with `--seconds 0` (the default) the phase is the first round alone.

    Each call is checked as soon as it returns, outside its timing and with
    tracing paused, so stored outputs do not inflate peak RSS.  Untraced,
    the host's speed is probed throughout (see hostspeed.py) and each timing
    comes both normalised (`op_s`, `instance_s`) and raw (`op_raw_s`,
    `instance_raw_s`, without the probes' own time); traced, only raw."""
    recorder = None
    if args.trace:
        sys.path.insert(0, str(BENCH))
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    speed = None if args.trace else hostspeed.HostSpeed()
    # per operation, per call: its (start, end), and the boundaries of the
    # instances it produced; a campaign's first report also waits for
    # instance enumeration, so its instances are the gaps between
    # consecutive reports
    calls: list[list[tuple[float, float]]] = [[] for _ in ops]
    stamps: list[list[list[float]]] = [[] for _ in ops]
    checker = Checker()
    phase_start = time.perf_counter()
    rounds = 0
    ran = True
    peak_rss_mb = None
    with speed or contextlib.nullcontext():
        while ran:
            if rounds == 1:
                # later rounds repeat the same calls, a number of times that
                # depends on speed; what they add to the high-water mark is
                # heap fragmentation
                peak_rss_mb = _peak_rss_mb()
            ran = False
            for k, op in enumerate(ops):
                visit_start = time.perf_counter()
                while not calls[k] or (calls[k][-1][1] - calls[k][-1][0]) <= (
                    args.seconds - (time.perf_counter() - phase_start)
                ):
                    rc, clock, started, ended = call(op.argv, recorder, sum(map(len, calls)))
                    calls[k].append((started, ended))
                    stamps[k].append(clock.times if op.rung is None else [started, ended])
                    if recorder is not None:
                        recorder.paused = True
                    checker.check(op, rc, clock.lines)
                    if recorder is not None:
                        recorder.paused = False
                    ran = True
                    if rounds == 0 or ended - visit_start >= VISIT_S:
                        break
            rounds += 1
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()
    layers = None
    if recorder is not None:
        recorder.uninstall()
        layers = recorder.aggregate()
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)
        recorder.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl.gz")

    out = {
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures[:20],
        "layers": layers,
    }
    timings = {"_raw": lambda a, b: b - a}
    if speed:
        timings = {"_raw": speed.net, "": speed.normalised}
    for suffix, timing in timings.items():
        out[f"op{suffix}_s"] = [[timing(*c) for c in per_op] for per_op in calls]
        out[f"instance{suffix}_s"] = instances = []
        for per_op in stamps:
            gaps = [[timing(a, b) for a, b in zip(s, s[1:])] for s in per_op]
            for i in range(max(map(len, gaps))):
                instances.append(statistics.median(g[i] for g in gaps if i < len(g)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=None, help="time.monotonic() at spawn")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        record_expected()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.t0 is None:
        args.t0 = time.monotonic()
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
