"""Capture the reference digests of the ten gallery reports.

Run from the root of a checkout whose program is the behaviour contract
(the commit before any change under test):

    python3 perfbench/make_reference.py

Each gallery runs as ``liaison gallery NAME`` in a fresh interpreter; the
report's ``timestamp`` is dropped and every op entry is digested.
"""

import json
import os
import subprocess
import sys

import checks

ENTRY = "import sys; from liaison.cli import main; sys.exit(main())"


def main():
    env = dict(os.environ, PYTHONPATH="src")
    names = subprocess.run([sys.executable, "-c", ENTRY, "list-galleries"], env=env,
                           capture_output=True, text=True, check=True).stdout.split()
    galleries = {}
    for name in names:
        proc = subprocess.run([sys.executable, "-c", ENTRY, "gallery", name], env=env,
                              capture_output=True, text=True)
        report = json.loads(proc.stdout)
        header, ops = checks.report_digests(report)
        galleries[name] = {"exit_code": proc.returncode, "header": header, "ops": ops}
        print(name, proc.returncode, len(ops), file=sys.stderr)
    os.makedirs(os.path.dirname(checks.REFERENCE), exist_ok=True)
    with open(checks.REFERENCE, "w") as fh:
        json.dump({"galleries": galleries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
