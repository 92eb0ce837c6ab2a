"""Record the golden stdout digests of the default-seed cli-oneshot round.

Usage: python3 perfbench/record_golden.py

Runs every call of the round once and writes perfbench/golden_cli.json.
Each call must pass its content check first.  Re-record only when the
CLI's output is meant to change; the CLI documents its JSON as
byte-identical across identical invocations.
"""

import json
import os
import random
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(run.ROOT / "src"))
    import cliops

    golden = []
    for kind, args in cliops.make_round(random.Random(cliops.DEFAULT_SEED)):
        child = run.Child([sys.executable, "-m", "opetree.cli", *args])
        ok, _ = cliops.check_call(kind, args, child.code, child.stdout, child.stderr)
        if not ok:
            raise SystemExit(f"call fails its check, not recorded: {args}")
        golden.append({"argv": args, "sha256": cliops.digest(child.stdout)})
    cliops.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(golden)} digests in {cliops.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
