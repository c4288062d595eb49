#!/usr/bin/env python3
"""ss3 benchmark: one workload, one seed, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk-large --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
untraced and then traced on the same inputs, runs the per-layer probes,
and prints the per-layer metrics. Both check every output, run the
checker self-test and the byte-identity gate, write the result and (when
traced) the spans under perfbench/out/, and print as the last line
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every check passed. See perfbench/README.md for what each workload
and metric means.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ss3" / "__init__.py").is_file():
        print(f"error: no ss3 package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ss3

    if Path(ss3.__file__).resolve().parent != (SRC / "ss3").resolve():
        print(f"error: imported ss3 from {ss3.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
