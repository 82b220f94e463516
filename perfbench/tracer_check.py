"""Tracer completeness check: exact span counts on three known jobs.

    python3 perfbench/tracer_check.py

Runs each job below on heisenberg n=2 under the tracer and compares the
counts of three spans, and the tensor evaluations per distinct bivector,
with the numbers the program makes at the commit that added this benchmark.
A count that is too low means the tracer missed an alias of a wrapped
function.  A change that computes a derived object fewer times (for example
one Yang-Baxter tensor per bivector) is expected to lower these counts; such
a change updates EXPECTED and says so.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv -> calls of (ybe.yang_baxter_tensor, liecore.ad_matrix, exact.rref),
# then tensor evaluations per distinct bivector
EXPECTED = {
    ("leaf", "-", "--r", "u1^w"): (3, 150, 33, 3.0),
    ("ybe", "-", "--r", "u1^w"): (1, 50, 17, 1.0),
    ("scan", "-"): (10, 500, 19, 1.0),
}
SPANS = ("ybe.yang_baxter_tensor", "liecore.ad_matrix", "exact.rref")


def main():
    sys.path.insert(0, str(SRC))
    from lieps import cli
    from tracer import Tracer

    code, text, err = cli.run_cli(["example", "heisenberg", "--n", "2"])
    if code != 0:
        print(err, file=sys.stderr)
        return 1
    ok = True
    for argv, want in EXPECTED.items():
        tracer = Tracer()
        leftover = tracer.install()
        try:
            code, _, err = cli.run_cli(list(argv), text)
        finally:
            tracer.uninstall()
        per_bivector = tracer.metrics(1)["ybe.yang_baxter_tensor.per_bivector"][0]
        got = tuple(tracer.calls[name] for name in SPANS) + (per_bivector,)
        good = code == 0 and got == want and not leftover
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {' '.join(argv):<22} "
              f"tensor/ad_matrix/rref/per_bivector = {'/'.join(map(str, got))} "
              f"(expected {'/'.join(map(str, want))})"
              + (f", unwrapped aliases {leftover}" if leftover else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
