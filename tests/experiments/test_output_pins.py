"""Byte pins of the non-grid experiments' JSON artefacts.

Each experiment runs at the default machine (``EvalConfig()``'s
latencies, quota and sample period) with short run lengths, and the
sha256 of the bytes :func:`repro.experiments.io.write_json` writes is
compared against a recorded digest. A refactor of how an experiment
assembles its machine, mechanism, workload or single-thread reference
must leave every digest unchanged; a deliberate change of results
re-records them and says why.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.common import EvalConfig
from repro.experiments.io import write_json
from repro.experiments.registry import get_experiment

#: (experiment id, stream seed) -> sha256 of the written JSON.
DIGESTS = {
    ("table2", 0): "4decedb22260fba27903de677a7b4185c19266de35cb438b1d334ee7c900a11b",
    ("timesharing", 0): "540be8f30c98aed1c421150abfe5110d22275cb05bdd8c5d2f73e653cd701a01",
    ("weighted", 0): "ab94537965ad374eaa8276cb8cbd443b95cdbc86cdfdc1f33ce81355838d08ec",
    ("threadcount", 0): "f6406f6cc1e704200785198993ff97c5e4ef56745b2f3bddaa4ef44adb5a04cf",
    ("events", 0): "d33873478613529a1559ff99420551deb821b8f4a4b87678aae39033d59f4047",
    ("sensitivity", 0): "5ba039bed6d7b52fef9c7f009d6c61a06a16b8229c581266864bc2c3b8258ff7",
    ("validation", 0): "6e4bb5602756374f6a19bd1a40dc35a158fc77482f53994ad5ee0d7d400938f5",
    ("ablations", 0): "d8f76212fc414fe3930bec61214e22a72a7a682d77cd5a1ee079f293737aeeb9",
    ("table2", 1): "4decedb22260fba27903de677a7b4185c19266de35cb438b1d334ee7c900a11b",
    ("timesharing", 1): "540be8f30c98aed1c421150abfe5110d22275cb05bdd8c5d2f73e653cd701a01",
    ("weighted", 1): "ab94537965ad374eaa8276cb8cbd443b95cdbc86cdfdc1f33ce81355838d08ec",
    ("threadcount", 1): "060e5b7cf45db31264b1aeed35c7825847edc53171831ab41cdee977285b0c42",
    ("events", 1): "eb27c58c29b92b89dfd6425f34aa65a74ede42a77cd86220b77f12ebeb3a7982",
    ("sensitivity", 1): "5ba039bed6d7b52fef9c7f009d6c61a06a16b8229c581266864bc2c3b8258ff7",
    ("validation", 1): "6e4bb5602756374f6a19bd1a40dc35a158fc77482f53994ad5ee0d7d400938f5",
    ("ablations", 1): "1014b6029578018ba4a23c276d480b8dbaab42c3d8637e132ddb55afd7ff1785",
}


@pytest.mark.parametrize(
    "experiment_id,seed", sorted(DIGESTS), ids=lambda value: str(value)
)
def test_json_artefact_is_pinned(experiment_id, seed, tmp_path):
    config = dataclasses.replace(
        EvalConfig(),
        min_instructions=800_000.0,
        warmup_instructions=400_000.0,
        st_min_instructions=400_000.0,
        seed=seed,
    )
    result = get_experiment(experiment_id).run(config=config)
    target = tmp_path / f"{experiment_id}.json"
    write_json(result, target)
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == DIGESTS[(experiment_id, seed)], (
        f"{experiment_id} (seed {seed}) wrote different JSON bytes at the "
        "default machine parameters"
    )
