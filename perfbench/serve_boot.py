"""Start ``repro serve`` in this process, pinned, clocked and maybe traced.

    python3 perfbench/serve_boot.py --cpu N --clock FILE [--stats FILE] \
        -- serve --port 0 ...

The daemon is pinned to vCPU N and samples host speed with a
``hostclock.HostClock``; the samples go to the clock FILE once it has
drained and stopped.  With ``--stats`` the per-layer wrappers of
``layers.py`` are installed first and their totals go to that FILE too.
"""

import argparse
import json
import sys


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--clock", required=True)
    parser.add_argument("--stats", default=None)
    options = parser.parse_args(argv[:split])

    import layers
    from hostclock import HostClock, pin

    from repro import cli

    pin(options.cpu)
    clock = HostClock().start()
    recorder = layers.install(layers.Recorder()) if options.stats else None
    try:
        code = cli.main(argv[split + 1:])
    finally:
        clock.stop()
        clock.dump(options.clock)
        if recorder is not None:
            recorder.uninstall()
            with open(options.stats, "w") as stats:
                json.dump(recorder.totals(), stats)
    return code


if __name__ == "__main__":
    sys.exit(main())
