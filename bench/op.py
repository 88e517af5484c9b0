"""One benchmark operation: a single `twoscale` CLI run in a fresh interpreter.

    python bench/op.py SUBCOMMAND CONFIG OUT_DIR [SPANS_FILE]

Imports twoscale, parses CONFIG into a Scenario and builds its SystemSpec
(that point ends set-up), then calls twoscale.cli.main exactly as the
`twoscale` command does.  With SPANS_FILE the call is traced (see
tracer.py) and the spans are written there afterwards.

Writes OUT_DIR/op.json with:
  setup_done   time.monotonic() when set-up ended (the caller holds the
               start time, taken just before it started this process)
  run_s        wall time of cli.main
  exit_code    what cli.main returned
  cpu_s        user+sys CPU of this process and its reaped pool workers
  peak_rss_mb  peak resident set of this process or its largest worker
"""

import json
import resource
import sys
import time


def main(argv):
    command, config, out_dir = argv[:3]
    spans_file = argv[3] if len(argv) > 3 else None

    from twoscale import cli
    from twoscale.harness import Scenario

    with open(config) as fh:
        Scenario.from_config(json.load(fh)).build_spec()
    setup_done = time.monotonic()

    entry = cli.main
    tracer = None
    if spans_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    t0 = time.perf_counter()
    code = entry([command, "--config", config, "--out", out_dir])
    run_s = time.perf_counter() - t0

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump(spans_file)
    result = {
        "setup_done": setup_done,
        "run_s": run_s,
        "exit_code": code,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0,
    }
    with open(f"{out_dir}/op.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
