"""One byte pin for every experiment, across hash seeds.

``python -m repro all --json`` runs every registered experiment and
writes one combined JSON document. This test runs it in fresh
interpreters under two ``PYTHONHASHSEED`` values and compares each
document's sha256 with a recorded digest, at the default scale with
seed 0 and at the quick scale with seed 1. Pool workers are forked
and inherit their parent's hash seed, so only fresh interpreters can
show an output that follows set or dict order of hashed strings.
``tests/experiments/test_output_pins.py`` stays: it names the
experiment that moved. A change that moves results on purpose
re-records these digests and says why.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: Python 3.12 made the builtin ``sum`` of floats compensated. At the
#: quick scale with seed 1 that moves the last bit of three of
#: threadcount's ``total_ipc`` values, so that document has one digest
#: before 3.12 (checked on 3.10 and 3.11) and one from 3.12 on (checked
#: on 3.12 and 3.13). The default-scale document is the same on all four.
COMPENSATED_SUM = sys.version_info >= (3, 12)

#: (scale, seed) -> sha256 of the ``--json`` document.
DIGESTS = {
    ("default", 0): "e8c1687da254bce25668bed9ddc06e1f550c89277b14a5cb116d18907e2b6e2d",
    ("quick", 1): (
        "55856ae1eaf994917afb09ffb9ddcc4d66c8e721f13405bd6a1c6b64cf8d0b75"
        if COMPENSATED_SUM
        else "a686a3405f8ac80c67aac4a886a80e54d40445144cdc53a250bdb4fb42df4ab9"
    ),
}

#: Two hash seeds: string hashes, and so set order, differ between them.
HASH_SEEDS = ("0", "12345")


@pytest.mark.parametrize(("scale", "seed"), sorted(DIGESTS), ids=str)
def test_all_experiments_json_is_pinned_across_hash_seeds(scale, seed, tmp_path):
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    runs = []
    # Both interpreters at once: each is one process, and the pair
    # takes the time of one.
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        target = tmp_path / f"all-{hash_seed}.json"
        command = [
            sys.executable, "-m", "repro", "all", "--scale", scale,
            "--seed", str(seed), "--no-cache", "--json", str(target),
        ]
        runs.append((hash_seed, target, subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )))
    for hash_seed, target, process in runs:
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr.decode()[-2000:]
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == DIGESTS[(scale, seed)], (
            f"repro all --scale {scale} --seed {seed} wrote different JSON "
            f"bytes under PYTHONHASHSEED={hash_seed}"
        )
