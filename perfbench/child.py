"""One fresh interpreter of the benchmark: set up, run one pass, report.

Takes a JSON job as its one argument and writes one JSON object on stdout.
The parent starts every child with ``PYTHONPATH=src`` from the checkout
root, so ``liaison`` is the checkout's own source.

Jobs:
  {"mode": "setup", "specs": [text, ...]} or {..., "galleries": [name, ...]}
      import liaison.cli and parse the specs, then report the moment set-up
      finished on the shared monotonic clock.
  {"mode": "pass", "specs": [...], "trace": bool, "spans_out": path}
      set up as above, then run every spec in order as ``liaison run`` does
      (cli.run plus the JSON dump), timing each operation.
  {"mode": "cli", "argv": [...], "trace": true, "spans_out": path}
      run ``liaison <argv>`` in-process under the tracer; used only for
      the traced pass of the cli-small workload.
An untraced job may carry "sample": true.  The child then runs the speed
probe of speed.py from start to end, and reports its times at the
reference speed.
"""

import io
import json
import sys
import time
import types

import speed


def _timing_handlers(cli, sink):
    def timed(fn):
        def handler(spec, *args):
            start = time.monotonic()
            try:
                return fn(spec, *args)
            finally:
                sink.append((start, time.monotonic()))
        return handler

    for op, fn in list(cli.HANDLERS.items()):
        cli.HANDLERS[op] = timed(fn)


def _dump(report, tracer):
    def dump():
        return json.dumps(report, indent=2, sort_keys=True)
    if tracer is None:
        return dump()
    return tracer.timed("cli.report", "cli", dump)


def _strip(report):
    return {k: v for k, v in report.items() if k != "timestamp"}


def run_job(job):
    from liaison import cli

    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.install()

    if job["mode"] == "cli":
        # cli.main prints its report; capture it, and time the JSON dump
        # through a stand-in for the json module seen by liaison.cli only.
        out = io.StringIO()
        real_stdout, sys.stdout = sys.stdout, out
        cli.json = types.SimpleNamespace(dumps=lambda *a, **k: tracer.timed(
            "cli.report", "cli", lambda: json.dumps(*a, **k)))
        try:
            code = cli.main(job["argv"])
        finally:
            sys.stdout = real_stdout
            cli.json = json
        report = json.loads(out.getvalue())
        tracer.dump_spans(job["spans_out"])
        return {"codes": [code], "reports": [_strip(report)],
                "trace": tracer.summary()}

    texts = job.get("specs") or [cli.GALLERIES[g] for g in job.get("galleries", ())]
    specs = [cli.parse_spec(text) for text in texts]
    ready = time.monotonic()
    if job["mode"] == "setup":
        return {"ready": ready}

    marks = []
    _timing_handlers(cli, marks)
    reports = []
    start = time.monotonic()
    for spec in specs:
        report, _ = cli.run(spec)
        _dump(report, tracer)
        reports.append(report)
    end = time.monotonic()
    result = {
        "ready": ready,
        "span": [start, end],
        "marks": marks,
        "reports": [_strip(r) for r in reports],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_out"):
            tracer.dump_spans(job["spans_out"])
    return result


def _rescale(result, sampler):
    """Turn the pass's clock marks into seconds: at the reference speed
    when sampled (see speed.py), as measured otherwise.  ``raw_wall`` is
    the pass as measured, less the probes run inside it."""
    ready = result.get("ready")
    if sampler is None:
        def duration(a, b):
            return b - a
        result["speed"] = None
    else:
        duration = sampler.scaled
        result["speed"] = sampler.summary(until=ready)
    if "span" in result:
        start, end = result.pop("span")
        result["wall"] = duration(start, end)
        result["verdicts"] = [duration(a, b) for a, b in result.pop("marks")]
        probes = 0.0 if sampler is None else sampler.handler_s(start, end)
        result["raw_wall"] = end - start - probes
    return result


def main():
    job = json.loads(sys.argv[1])
    sampler = None
    if job.get("sample"):
        sampler = speed.Sampler()
        sampler.start()
    result = run_job(job)
    if sampler is not None:
        sampler.stop()
    sys.stdout.write(json.dumps(_rescale(result, sampler)) + "\n")


if __name__ == "__main__":
    main()
