"""Peak RSS of one ``diagcx`` CLI run, measured from a small process.

A child's ru_maxrss starts at its parent's RSS, so a run started from a
large process, such as the test runner, reports at least that size.  This
script stays small and runs the CLI as its only child, with stdout
discarded.  It prints the child's peak RSS in MiB and exits with its code:

    python tests/peak_rss.py --format json forests enumerate --n 7
"""

import os
import subprocess
import sys


def main(argv):
    proc = subprocess.Popen([sys.executable, "-m", "diagcx.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    print(f"{usage.ru_maxrss / 1024:.1f}")  # Linux counts ru_maxrss in KiB
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
