"""Recordings pinned byte for byte: one sha256 per recording.

The recorder differential (``test_differential_oracle.py``) swaps only
the recorder; traced storage's address, bounds and value path is
shared by both of its sides, so a slip there is invisible to it.
These digests pin the recordings themselves.  They were taken from the
chunked-buffer recorder that slot-code recording replaced, and each
covers a recording's five columns (dtype and bytes), its
variable-name table and its phase markers:

* every suite workload at its default kwargs;
* the three paper-size Figure 5 gzip jobs;
* the three cases of the adaptive comparison.

A digest that changes means every recording of that workload changed:
regenerate only for an intended change of the workloads themselves,
never for a recorder change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

import pytest

from repro.experiments.adaptive import AdaptiveComparisonConfig
from repro.experiments.figure5 import Figure5Config
from repro.workloads.base import WorkloadRun
from repro.workloads.gzip_like import make_gzip_job
from repro.workloads.suite import available_workloads, make_workload

COLUMNS = ("addresses", "sizes", "writes", "gaps", "variable_ids")

#: Case id -> sha256 of its recording (see :func:`recording_digest`).
EXPECTED_DIGESTS = {
    "suite:dequant": (
        "496fe34c07b6814aac13a14748439acd9a80f1d58f79d3d0e99a223d303a184d"
    ),
    "suite:plus": (
        "212441e7ee75f7369a27c85dbc5292c6b6d0370f651f821fdcb2116af60f56eb"
    ),
    "suite:idct": (
        "47c8145e10c46e0302d90fd576daa731b8b5fbc6ca7d02c4f3cbab77b23ea440"
    ),
    "suite:mpeg_app": (
        "fb0b8e2de1ee7a202e586bcbaaf803f4be03fa688cce8aa1fee644b90a2e2021"
    ),
    "suite:gzip": (
        "e9bfe6b4b15dca970aadcccd3dd2ab520b7458e087a1e5964532df0c89cdcda9"
    ),
    "suite:fir": (
        "6e909a537059f339c435c579038e9f08ad19e0c3de01c70c175aa73bd797a047"
    ),
    "suite:matmul": (
        "386f395821775743ea8fdd62df1658b1a91601868e868e7bba8dfe2384985623"
    ),
    "suite:conv2d": (
        "aa8afd1ac2029a48344b20636098a6d8ff0d1ab5fed90acd1a3a49ac710571ab"
    ),
    "suite:histogram": (
        "101806edbfd76e06e502a1eb8b5d648880113833118ffb8a6ea56527ba6a9dfb"
    ),
    "suite:crc32": (
        "1c744c71cac4569032595e2e1e29bcd76d630f585bd31ea5a0abc4633d95d0ce"
    ),
    "suite:adpcm": (
        "cdab668615efcb679e0ff2d309e308b280af05d9e055bb872911711e58641c7c"
    ),
    "suite:iir": (
        "6f92604484c95e709e75587731317a489ffaeed589afa49621636732931bd737"
    ),
    "suite:packet": (
        "d570a70fb96005bb1c5c790d338b9ee0c52cece3d08cef112bc315ffad65125e"
    ),
    "suite:twopass": (
        "74061d4ce6a5f288cf974e02b792ab36b4c1654d0921ebdee6052917c95111e0"
    ),
    "suite:fft_phased": (
        "7671b75fff91a85faf1d8ab5b42207850a0c61183537f26f4d6005aa121833cd"
    ),
    "suite:scan": (
        "d5987f840afb4ae798cb861ed2a0f2800f109bd2a5f93955e238421284ca24fc"
    ),
    "figure5:gzipA": (
        "e7e7b5a20469ed96498ddf188b557c6d8488c236f274bb84c77abfdd917a62fc"
    ),
    "figure5:gzipB": (
        "b97a4fa8154bf3b99ed509cbe3352b3c47c85e44e219d5963401ef42f9feaa23"
    ),
    "figure5:gzipC": (
        "4cbcb0965b25f8d0fb15be938094e721b7a7acc8cd0b68928a045ff37849aa99"
    ),
    "adaptive:packet": (
        "d570a70fb96005bb1c5c790d338b9ee0c52cece3d08cef112bc315ffad65125e"
    ),
    "adaptive:twopass": (
        "74061d4ce6a5f288cf974e02b792ab36b4c1654d0921ebdee6052917c95111e0"
    ),
    "adaptive:fft_phased": (
        "7671b75fff91a85faf1d8ab5b42207850a0c61183537f26f4d6005aa121833cd"
    ),
}


def recording_digest(run: WorkloadRun) -> str:
    """sha256 over the five columns, the name table and the phases."""
    digest = hashlib.sha256()
    for column in COLUMNS:
        values = getattr(run.trace, column)
        digest.update(f"{column}:{values.dtype.str}:{len(values)}".encode())
        digest.update(values.tobytes())
    digest.update(json.dumps(run.trace.variable_names).encode())
    phases = [[phase.label, phase.start, phase.stop] for phase in run.phases]
    digest.update(json.dumps(phases).encode())
    return digest.hexdigest()


def recordings() -> dict[str, Callable[[], WorkloadRun]]:
    """Case id -> a thunk recording it."""
    cases: dict[str, Callable[[], WorkloadRun]] = {
        f"suite:{name}": (lambda name=name: make_workload(name).record())
        for name in available_workloads()
    }
    figure5 = Figure5Config()
    for job in figure5.job_names:
        cases[f"figure5:gzip{job}"] = lambda job=job: make_gzip_job(
            job,
            input_bytes=figure5.input_bytes,
            window_bits=figure5.window_bits,
            hash_bits=figure5.hash_bits,
        ).record()
    adaptive = AdaptiveComparisonConfig()
    for case in adaptive.cases:
        cases[f"adaptive:{case.workload}"] = lambda case=case: make_workload(
            case.workload, seed=adaptive.seed, **dict(case.kwargs)
        ).record()
    return cases


def test_every_recording_is_pinned():
    """A newly registered workload fails here until it is pinned."""
    assert sorted(recordings()) == sorted(EXPECTED_DIGESTS)


@pytest.mark.parametrize("case", sorted(EXPECTED_DIGESTS))
def test_recording_matches_pinned_digest(case):
    assert recording_digest(recordings()[case]()) == EXPECTED_DIGESTS[case]
