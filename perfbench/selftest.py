"""Self-test: a wrong expected verdict or digest counts as a failure.

Usage: python3 perfbench/selftest.py

1. A cocycle check expected to fail, and a negative control expected to
   pass, both report ok=False.
2. A default-seed cli-oneshot round run against golden digests with one
   digest altered reports exactly that call as failed; with the recorded
   digests it reports none.
Exits 0 when both hold.
"""

import os
import random
import sys
from fractions import Fraction

import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(run.ROOT / "src"))
    import cliops
    import workloads
    from opetree import latticecft

    model = latticecft.NarainModel(Fraction(2))
    bd = latticecft.build_boundary(model, 1)
    control = bd.perturbed((1, 0), 2)
    verdicts = {
        "check expected to pass": workloads._bootstrap_op(model, bd, 2, True)()[0],
        "control expected to fail": workloads._bootstrap_op(model, control, 2, False)()[0],
        "check wrongly expected to fail": workloads._bootstrap_op(model, bd, 2, False)()[0],
        "control wrongly expected to pass": workloads._bootstrap_op(model, control, 2, True)()[0],
    }
    if list(verdicts.values()) != [True, True, False, False]:
        raise SystemExit(f"selftest failed: cocycle verdicts {verdicts}")

    recorded = cliops.load_golden()
    altered = [dict(entry) for entry in recorded]
    victim = random.Random(0).randrange(len(altered))
    altered[victim]["sha256"] = "0" * 64
    failed = {}
    for label, golden in (("recorded", recorded), ("altered", altered)):
        cliops.load_golden = lambda golden=golden: golden
        rep = run.cli_rep(cliops.DEFAULT_SEED, traced=False, index=0)
        failed[label] = [idx for idx, ok in enumerate(rep.ok) if not ok]
    if failed != {"recorded": [], "altered": [victim]}:
        raise SystemExit(f"selftest failed: failing cli calls {failed}, altered {victim}")
    print(f"selftest ok: wrong verdicts rejected {verdicts}; "
          f"altered digest of call {victim} counted as the only failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
