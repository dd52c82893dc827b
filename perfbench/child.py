"""One benchmark repetition: run the rfcond CLI once in this fresh process.

    python3 perfbench/child.py RESULT_JSON TRACE RUN_ID CLI_ARG...

Imports ``rfcond`` from the checkout's ``src/`` (never from an installed
copy), runs ``rfcond.cli.main`` on the CLI arguments, and writes RESULT_JSON
with monotonic-clock stamps of subcommand entry and exit, the process's peak
resident memory, the machine facts and, when TRACE is 1, the layer trace. The
exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    result_path, trace, run_id, cli_args = Path(argv[0]), argv[1] == "1", argv[2], argv[3:]
    sys.path.insert(0, str(SRC))
    import rfcond.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"rfcond imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    tracer = None
    missing: list[str] = []
    if trace:
        import layertrace

        tracer = layertrace.Tracer(run_id)
        missing = layertrace.install(tracer)

    stamps: dict[str, float] = {}
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        parse_args = parser.parse_args

        def timed_parse_args(args=None, namespace=None):
            ns = parse_args(args, namespace)
            command = ns.fn

            def timed_command(a):
                stamps["enter"] = time.monotonic()
                try:
                    return command(a)
                finally:
                    stamps["exit"] = time.monotonic()

            ns.fn = timed_command
            return ns

        parser.parse_args = timed_parse_args
        return parser

    cli.build_parser = timed_build_parser
    rc = cli.main(cli_args)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rc": rc, "stamps": stamps, "peak_rss_kb": peak_rss_kb,
              "facts": machine_facts()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["unwrapped"] = missing
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
