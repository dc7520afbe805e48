"""``liaison ARGS...`` with the speed probe of speed.py running throughout.

    python3 perfbench/cli_entry.py gallery NAME

The report goes to stdout as ``liaison`` writes it.  The last line of
stderr is the sampler's summary, ``{"perfbench_speed": {...}}``, from
which the parent rescales the process's time from start to exit.
"""

import json
import sys

import speed


def main():
    sampler = speed.Sampler()
    sampler.start()
    try:
        from liaison.cli import main as liaison_main
        return liaison_main(sys.argv[1:])
    finally:
        sampler.stop()
        sys.stdout.flush()
        sys.stderr.write("\n" + json.dumps({"perfbench_speed": sampler.summary()}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
