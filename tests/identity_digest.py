"""Digests of the command line's observable behaviour, to compare two checkouts byte for byte.

Run from the root of a checkout:

    python3 tests/identity_digest.py                   # the checkout's own src/
    python3 tests/identity_digest.py --src OTHER/src   # another checkout's package

It prints one sha256 per command group, then one over all groups.  Each group's digest
covers argv, exit code, stdout and stderr of every command in it, in order.  Two trees
behave identically on these commands when every line matches.  The commands run
in-process through ``classtower.cli.main``, one after the other; ``scan --jobs 2`` forks
as it does from a shell.  The pairs come from the benchmark's inputs under
``perfbench/data``, which are only read.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "perfbench" / "data"


def _pairs() -> dict[str, list[tuple[int, int]]]:
    with open(DATA / "large_pool.json", encoding="utf-8") as fh:
        pool = [(row["p1"], row["p2"]) for row in json.load(fh)]
    with open(DATA / "deep_profiles.json", encoding="utf-8") as fh:
        deep = [(row["p1"], row["p2"]) for entry in json.load(fh) for row in entry["pairs"]]
    return {"pool": pool, "deep": deep}


def command_groups() -> dict[str, list[list[str]]]:
    groups = {f"scan-1000-jobs{jobs}": [["scan", "--max", "1000", "--json", "--jobs", str(jobs)]]
              for jobs in (1, 2)}
    for name, pairs in _pairs().items():
        for fmt, flags in (("json", ["--json"]), ("text", [])):
            groups[f"classify-{name}-{fmt}"] = [
                ["classify", "--p1", str(p1), "--p2", str(p2), *flags] for p1, p2 in pairs]
    groups["group-json-force"] = [
        ["group", "--m", str(m), "--n", str(n), "--q", str(q), "--psi", psi, "--json", "--force"]
        for m in range(1, 6) for n in range(1, 4) for q in (1, 2) for psi in ("sigma", "tau-sigma")]
    groups["group-text-force"] = [
        ["group", "--m", str(m), "--n", str(n), "--q", str(q), "--psi", psi, "--force"]
        for m in range(1, 6) for n in range(1, 4) for q in (1, 2) for psi in ("sigma", "tau-sigma")]
    groups["group-text-symbols"] = [
        ["group", "--m", str(m), "--n", str(n), "--q", str(q), "--psi", psi,
         "--legendre", legendre, "--pi", pi, "--b", b]
        for m in range(2, 5) for n in range(1, 4) for q in (1, 2) for psi in ("sigma", "tau-sigma")
        for legendre in ("1", "-1") for pi in ("1", "-1") for b in ("1", "-1")]
    groups["scan-300-text"] = [["scan", "--max", "300"]]
    groups["exit-2"] = [  # one rejected input of each command
        ["classify", "--p1", "5", "--p2", "5"], ["classify", "--p1", "5", "--p2", "20000069"],
        ["scan", "--max", "5"], ["scan", "--max", "4000"], ["group", "--m", "1", "--n", "1", "--q", "1"],
        ["verify-fixtures", "--table", "99"]]
    groups["verify-fixtures"] = [["verify-fixtures", "--json", "--verbose"]]
    groups["help"] = [[*command, "--help"]
                      for command in ([], ["classify"], ["verify-fixtures"], ["group"], ["scan"])]
    return groups


def run(main, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory holding the classtower package (default: ./src)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from classtower.cli import main as cli_main

    overall = hashlib.sha256()
    for name, commands in command_groups().items():
        digest = hashlib.sha256()
        for argv in commands:
            digest.update(run(cli_main, argv))
        overall.update(f"{name} {digest.hexdigest()}\n".encode())
        print(f"{digest.hexdigest()}  {name} ({len(commands)} commands)", flush=True)
    print(f"{overall.hexdigest()}  all")


if __name__ == "__main__":
    main()
