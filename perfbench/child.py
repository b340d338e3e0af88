"""Run one billzeta CLI invocation in this process and write its spans as JSON.

    python3 perfbench/child.py OUT.json {setup|layers} CLI-ARG...

The CLI runs exactly as its console script would (`cli.main(argv)`, exit code
passed through).  Mode "setup" wraps only basis.build_sigma_table, which is
all the end-to-end set-up time needs; "layers" wraps every public function of
every layer module.  The import of billzeta.cli is recorded as the span
"cli.import".  Times are on the system-wide monotonic clock, so the parent can
subtract its own spawn time.
"""

import json
import sys

from tracer import SIGMA_TABLE, Tracer, now


def main() -> int:
    out_path, mode, *argv = sys.argv[1:]
    start = now()
    from billzeta import cli

    tracer = Tracer(None if mode == "layers" else {SIGMA_TABLE})
    tracer.spans.append(["cli.import", start, now(), None])
    tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "work_keys": tracer.work_keys,
                    "cache_hits": tracer.cache_hits,
                    "wrapped": tracer.wrapped,
                    "sites": tracer.sites,
                    "absent": tracer.absent,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
