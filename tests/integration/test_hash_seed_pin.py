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

#: (scale, seed) -> sha256 of the ``--json`` document. Both digests
#: hold on Python 3.10 through 3.13: the one float total that 3.12's
#: compensated ``sum`` moved (``SoeRunResult.total_ipc``) sums in a loop.
DIGESTS = {
    ("default", 0): "e8c1687da254bce25668bed9ddc06e1f550c89277b14a5cb116d18907e2b6e2d",
    ("quick", 1): "a686a3405f8ac80c67aac4a886a80e54d40445144cdc53a250bdb4fb42df4ab9",
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
