"""Record the stdout digest and exit code of every fixed benchmark command.

Run from the root of a checkout whose answers are trusted::

    python3 perfbench/record.py

It runs each command of ``corpus`` and ``scale-ladder`` once, at both sizes,
checks the known answers (every verify check PASS outside the known-failing
entries, spectrum sizes equal to their closed forms), and writes
``perfbench/expected.json``.  ``random-sweep`` needs no record: its expected
output follows from the seed and the check names.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = importlib.import_module("lattice_spectra")
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    expected = {}
    wrong = []
    for size in run.SIZES:
        for name in ("corpus", "scale-ladder"):
            workload = run.build_workload(name, 0, size, 2, lib)
            for cmd in workload.pass_commands(0):
                argv = [sys.executable, "-m", "lattice_spectra.cli", *cmd.args]
                _, _, _, code, out, err = run.spawn(argv, env)
                entry = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "exit": code}
                outcome = run.Outcome()
                run.judge(cmd, code, out, err, {cmd.key: entry}, workload, outcome)
                if outcome.wrong:
                    wrong.append(f"{cmd.key}: {outcome.wrong}")
                expected[cmd.key] = entry
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(expected)} commands in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
