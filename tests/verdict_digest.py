"""Print one sha256 digest over the verdicts of a fixed set of checks.

    PYTHONPATH=src python3 tests/verdict_digest.py

The checks are 200 mutant checks (``gen_program(14)`` seeds 2000-2039 under
each of the five seeded mutations, at ``SimConfig(fuel=4000, samples=2)``)
and 60 clean harness checks (``gen_program(20)`` seeds 1000-1059 at fuel
50,000).  The digest covers each verdict's status, reason, witness ``repr``
and ``describe_witness`` text, in that order, so two versions of the
library that print the same digest gave the same verdicts with the same
witnesses.  ``--list`` also prints one line per check.  The file is not a
test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys

from itrees.bisim import describe_witness
from itrees.compiler import MUTATIONS, SimConfig, check_equivalent, gen_program

MUTANT_CFG = SimConfig(fuel=4000, samples=2)
HARNESS_CFG = SimConfig(fuel=50_000)


def mutants():
    """(seed, program, mutation) for every mutant check, in digest order."""
    for s in range(2000, 2040):
        p = gen_program(14, "bounded", s)
        for m in sorted(MUTATIONS):
            yield s, p, m


def checks():
    """(label, thunk) for every check, in digest order."""
    for s, p, m in mutants():
        yield f"mutant {s} {m}", lambda p=p, s=s, m=m: check_equivalent(
            p, MUTANT_CFG, seed=s, mutation=m)
    for s in range(1000, 1060):
        p = gen_program(20, "bounded", s)
        yield f"harness {s}", lambda p=p, s=s: check_equivalent(p, HARNESS_CFG, seed=s)


def digest(listing=False):
    """The sha256 hex digest over every check's verdict; ``listing`` also
    prints one line per check."""
    h = hashlib.sha256()
    for name, run in checks():
        v = run()
        reason = v.reason.value if v.reason else ""
        text = describe_witness(v.witness)
        h.update(f"{v.status.value}\0{reason}\0{v.witness!r}\0{text}\n".encode())
        if listing:
            print(name, v.status.value, reason, len(v.witness))
    return h.hexdigest()


def main(argv):
    print(digest("--list" in argv))


if __name__ == "__main__":
    main(sys.argv[1:])
