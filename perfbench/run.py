"""Benchmark of liaison: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every timed pass runs in a fresh
interpreter with ``PYTHONPATH=src``, so no process-global cache carries
over between passes.  Passes repeat until ``--seconds`` have gone by (at
least one).  Every output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced pass with ``--trace 1``.  The line before it is the provenance.

The end-to-end times are rescaled to a reference machine speed, which a
probe inside every timed child samples while it runs (see speed.py); the
provenance gives them as measured too.  Per-layer times are as measured.

Workloads (closed loop, one client, one child process at a time):
  semigroup-canonical  galleries semigroup-345, foxby-roundtrip and
                       adjoint-transfer in one interpreter; the seed is unused
  generic-links        one seeded link of a twisted cubic and one of a
                       degree-7 curve in P^3, thirteen ops each
  cli-small            the other seven galleries, each as its own
                       ``liaison gallery NAME`` process, in seeded order
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CLI_SAMPLED = os.path.join(HERE, "cli_entry.py")
CLI_ENTRY = "import sys; from liaison.cli import main; sys.exit(main())"
SETUP_SAMPLES = 15  # set-up-only interpreters per run, besides each pass's own
CHILD_TIMEOUT_S = 170
WORKLOADS = ("semigroup-canonical", "generic-links", "cli-small")


class BenchError(Exception):
    pass


def quartile_spread(values):
    """(Q3 - Q1) / median, or 0.0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Runner:
    def __init__(self, root, workload, seed, sample=True):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.sample = sample  # run the speed probe in untraced children
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.tally = checks.Tally()
        self.setups = []
        self.raw = {"setup_s": [], "wall_s": [], "speed_factor": []}
        self.out_dir = os.path.join(root, ".perfbench")
        if workload == "generic-links":
            self.cases = workloads.generic_links(seed)
            self.specs = [text for text, _ in self.cases]
            self.oracle = checks.GenericOracle(root)
        else:
            self.reference = checks.load_reference()
            self.schedule = workloads.cli_schedule(seed)
        self.first_reports = None
        self.last_reports = None  # digest of the latest pass's reports
        self.traced_calls = 0

    # -- children -----------------------------------------------------------

    def _start(self, argv):
        """(process, spawn time); the clock is read before the fork, so the
        interpreter's start counts toward set-up and verdict times."""
        spawned = time.monotonic()
        return subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE), spawned

    def _finish(self, started):
        """(stdout, stderr, exit code, spawn time, exit time) of one child."""
        proc, spawned = started
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child {proc.args[1:3]} timed out")
        return out.decode(), err.decode(), proc.returncode, spawned, time.monotonic()

    def start_child(self, job):
        job = dict(job, sample=self.sample and not job.get("trace"))
        if self.workload == "semigroup-canonical":
            job["galleries"] = list(workloads.SEMIGROUP_GALLERIES)
        elif self.workload == "generic-links":
            job["specs"] = self.specs
        return self._start([sys.executable, CHILD, json.dumps(job)])

    def finish_child(self, started):
        out, err, code, spawned, _ = self._finish(started)
        if code != 0:
            raise BenchError(f"child exited {code}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        if "ready" in result:
            self._setup_done(result["ready"] - spawned, result["speed"])
        return result

    def _setup_done(self, seconds, summary):
        self.raw["setup_s"].append(seconds)
        if summary is not None:
            self.raw["speed_factor"].append(summary["factor"])
            seconds = speed.from_outside(summary, seconds)
        self.setups.append(seconds)

    def child(self, job):
        return self.finish_child(self.start_child(job))

    def cli_call(self, name, trace=False):
        """(seconds from start to exit, exit code, report, trace summary);
        the seconds are at the reference speed when sampled."""
        if trace:
            self.traced_calls += 1
            result = self.child({"mode": "cli", "argv": ["gallery", name], "trace": True,
                                 "spans_out": self._spans_path(f"-{self.traced_calls}")})
            return None, result["codes"][0], result["reports"][0], result["trace"]
        entry = [CLI_SAMPLED] if self.sample else ["-c", CLI_ENTRY]
        out, err, code, spawned, exited = self._finish(
            self._start([sys.executable, *entry, "gallery", name]))
        try:
            report = json.loads(out)
        except ValueError:
            raise BenchError(f"gallery {name} printed no report (exit {code}): "
                             f"{err.strip()[-2000:]}")
        report.pop("timestamp", None)
        seconds = exited - spawned
        if self.sample:
            summary = json.loads(err.strip().splitlines()[-1])["perfbench_speed"]
            self.raw["speed_factor"].append(summary["factor"])
            seconds = speed.from_outside(summary, seconds)
        return seconds, code, report, None

    # -- passes ---------------------------------------------------------------

    def setup_only(self):
        self.child({"mode": "setup"})

    def one_pass(self, trace=False):
        """(wall seconds, verdict seconds, trace summary) of one checked pass."""
        if self.workload == "cli-small":
            return self._cli_pass(trace)
        return self._pass_result(self.child(self._pass_job(trace)))

    def traced_and_untraced(self):
        """((wall, verdicts, None), (wall, verdicts, summary)): an untraced and
        a traced pass.  In-process workloads run the two children at the same
        time, one per core, so both see the same machine speed; cli-small runs
        them one after the other."""
        if self.workload == "cli-small":
            return self.one_pass(), self.one_pass(trace=True)
        started = [self.start_child(self._pass_job(trace)) for trace in (False, True)]
        try:
            plain, traced = [self.finish_child(s) for s in started]
        finally:
            for proc, _ in started:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return self._pass_result(plain), self._pass_result(traced)

    def _pass_job(self, trace):
        job = {"mode": "pass", "trace": trace}
        if trace:
            job["spans_out"] = self._spans_path("")
        return job

    def _spans_path(self, suffix):
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir,
                            f"spans-{self.workload}-{self.seed}{suffix}.json")

    def _pass_result(self, result):
        self.last_reports = checks.digest(result["reports"])
        self._check_reports(result["reports"])
        self.raw["wall_s"].append(result["raw_wall"])
        return result["wall"], result["verdicts"], result.get("trace")

    def _cli_pass(self, trace):
        start = time.monotonic()
        calls = [(name,) + self.cli_call(name, trace) for name in self.schedule]
        elapsed = time.monotonic() - start
        self.raw["wall_s"].append(elapsed)
        summaries = []
        for name, _, code, report, summary in calls:
            if code != workloads.CLI_EXPECTED_EXIT[name]:
                self.tally.failed += 1
                self.tally.note(f"{name}: exit {code}")
            checks.check_gallery(self.tally, self.reference, name, report)
            summaries.append(summary)
        self.last_reports = checks.digest([c[3] for c in calls])
        if trace:
            return elapsed, None, layers.merge(summaries)
        verdicts = [secs for _, secs, _, _, _ in calls]
        # sampled, a pass is its 14 processes at the reference speed
        return sum(verdicts) if self.sample else elapsed, verdicts, None

    def _check_reports(self, reports):
        """Gallery reports (their exit code included) against the reference;
        generic-links reports against the theory."""
        if self.workload == "semigroup-canonical":
            for name, report in zip(workloads.SEMIGROUP_GALLERIES, reports):
                checks.check_gallery(self.tally, self.reference, name, report)
            return
        for (_, facts), report in zip(self.cases, reports):
            self.tally.ops(report, "generic-links")
            for problem in self.oracle.problems(facts, report):
                self.tally.wrong += 1
                self.tally.note(f"generic-links {facts['row_degrees']}: {problem}")
        # every pass of a run sees the same inputs, so gives the same reports
        if self.first_reports is None:
            self.first_reports = checks.digest(reports)
        elif checks.digest(reports) != self.first_reports:
            self.tally.wrong += 1
            self.tally.note("generic-links: reports differ between passes")


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "liaison")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(runner, seconds):
    for _ in range(SETUP_SAMPLES):
        runner.setup_only()
    walls, verdicts = [], []
    start = time.monotonic()
    while not walls or time.monotonic() - start < seconds:
        wall, v, _ = runner.one_pass()
        walls.append(wall)
        verdicts.extend(v)
    return walls, verdicts


def end_to_end(walls, setups, verdicts, rss_kb):
    """{name: (value, unit)} for every end-to-end metric of an untraced run."""
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s.p50": (statistics.median(verdicts), "s"),
        "verdict_s.p90": (p90(verdicts), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }


def measure_traced(runner):
    (wall, verdicts, _), (traced_wall, _, summary) = runner.traced_and_untraced()
    return [wall], verdicts, traced_wall, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in ("src/liaison/cli.py", "tests/oracle.py"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the root of a liaison "
                  "checkout", file=sys.stderr)
            return 2

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }
    try:
        runner = Runner(root, args.workload, args.seed, sample=not args.trace)
        if args.trace:
            walls, verdicts, traced_wall, summary = measure_traced(runner)
        else:
            walls, verdicts = measure(runner, args.seconds)
        provenance.update({
            "passes": len(walls), "pass_wall_s": walls,
            "verdict_samples": len(verdicts),
            "setup_samples": len(runner.setups),
            "spread_in_run": {"wall_s": quartile_spread(walls),
                              "setup_s": quartile_spread(runner.setups),
                              "verdict_s": quartile_spread(verdicts)},
            "as_measured": {"pass_wall_s": runner.raw["wall_s"],
                            "setup_s.median": statistics.median(runner.raw["setup_s"])
                            if runner.raw["setup_s"] else None},
            "speed_factor": {
                "median": statistics.median(runner.raw["speed_factor"])
                if runner.raw["speed_factor"] else None,
                "spread": quartile_spread(runner.raw["speed_factor"])},
        })
        if args.trace:
            metrics = layers.metrics(summary, traced_wall, walls[0])
            provenance["traced_wall_s"] = traced_wall
            provenance["spans"] = summary["spans"]
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = end_to_end(walls, runner.setups, verdicts, rss_kb)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    tally = runner.tally
    provenance.update({"outputs_wrong": tally.wrong, "ops_failed": tally.failed,
                       "problems": tally.notes})
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
