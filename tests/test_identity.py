"""The frozen outputs: the digests that ``tests/identity_digest.py`` prints for its command groups
(the bench pools' classify --json, scan, verify-fixtures, every --help and the exit-2 inputs).
argparse formats the help and usage text to the terminal's width, so every group runs with
COLUMNS=80, the width at which these digests were taken.  A change that must alter one of these
outputs updates its digest here and says why."""

import hashlib

import pytest

from identity_digest import command_groups, run

from classtower.cli import main

FROZEN = {
    "scan-1000-jobs1": "f3bbf5a6b3cea334abe8752654ddae9c0e5298cbd7320e774c407e75a8676805",
    "scan-1000-jobs2": "6975a3801971482ee5da88f49bf98e369e08129e1dbbddf460bd69bb033b289d",
    "scan-300-text": "aa556c84f0138303473a8892013aaddad29c12a2331181abc6a28973381fda89",
    "classify-pool-json": "3594e9a94cf705ada852601db8f5458574e54ce97ccb2655a9e915f3d21042d4",
    "classify-deep-json": "311eae162b3d3045dba3f56546c5bc157d58cab0d528bc76e74cc6d2b811faec",
    "verify-fixtures": "1783065330b95fe009572b8f18a478ca0edf42454aa7800e57218d7c7f026f1b",
    "help": "dfc3192c60f26000ed361af585ecc86c44fe1eefdd1296ed8e385bd983a74f0b",
    "exit-2": "b330710baf9d313633cda79ae5373fc2fcbedbe61533a2daf0721aa39e141efd",
}

GROUPS = command_groups()


@pytest.mark.parametrize("group", FROZEN)
def test_frozen_output_digest(group, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in GROUPS[group]:
        digest.update(run(main, argv))
    assert digest.hexdigest() == FROZEN[group]
