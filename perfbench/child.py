"""One benchmark child process: set up, call kwslab.cli.main once, report.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by every process on the machine). The
spec names the CLI arguments, the config to load, whether to trace, and
where to write the result (and the spans, when tracing). Setup ends once
kwslab is imported and the config is loaded; the timed call is main() alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def load_inputs(spec: dict) -> None:
    """Parse and validate the config the CLI is about to read (part of setup)."""
    from kwslab.config import config_from_mapping, load_config

    if spec["command"] == "sweep":
        with open(spec["config"], encoding="utf-8") as fh:
            manifest = json.load(fh)
        for strategy in manifest["strategies"]:
            config_from_mapping({**manifest["base"], "strategy": strategy})
    else:
        load_config(spec["config"])


def main() -> int:
    spawn = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    import kwslab.cli

    load_inputs(spec)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
    ready = time.monotonic()
    result = {"setup_s": ready - spawn, "rc": None, "error": None}
    if not spec.get("setup_only"):
        if tracer is not None:
            tracer.install()
        t0 = time.monotonic()
        try:
            result["rc"] = kwslab.cli.main(spec["argv"])
        except Exception as exc:  # record and report the failure; the parent goes on
            traceback.print_exc()
            result["rc"] = 1
            result["error"] = type(exc).__name__
        result["wall_s"] = time.monotonic() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
