"""Run one pesinlab CLI invocation for the benchmark, in a fresh interpreter.

    python3 perfbench/child.py --stamp FILE [--trace FILE] [--probe] -- ARGS...

Writes ``{"import_done": <time.monotonic()>}`` to the stamp file as soon as
``pesinlab.cli`` is imported; the parent took its own ``time.monotonic()``
just before the exec, and both read the system-wide monotonic clock, so the
difference is the set-up time.  ``--probe`` stops there.  ``--trace`` wraps
the package's public functions (see tracing.py) and writes the call
statistics and spans to FILE when the CLI returns.  The exit status is the
CLI's.
"""

import json
import sys
import time


def main() -> int:
    # parsed by hand: importing argparse here would count toward setup_s
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    stamp = opts[opts.index("--stamp") + 1]
    trace_file = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import pesinlab.cli

    import_done = time.monotonic()
    with open(stamp, "w") as fh:
        json.dump({"import_done": import_done,
                   "package": pesinlab.cli.__file__}, fh)
    if "--probe" in opts:
        return 0
    if trace_file is None:
        return pesinlab.cli.main(cli_args)

    import tracing

    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
