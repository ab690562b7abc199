"""Report-equality gate: fixed campaigns keep byte-identical reports.

Each digest is the SHA-256 of the JSON report with ``duration_seconds``
removed.  The configs cover the example26 algebra, a sweep over a ring
that is not *-reducing (gf:2, n = 3), a sweep over a *-reducing one
(gf:3, n = 2) and seeded random campaigns over Q and over Q(i), each
with all 14 batteries.
A refactor that changes any record, count or config field fails here.
"""
import hashlib
import json

import pytest

from starinv.campaign import CampaignConfig, run_campaign

DIGESTS = [
    (CampaignConfig(ring="example26"),
     "dd17d25ab154ec5c07e9dcbaf8a954f58ef82af52878251fdd51cea4c137682d"),
    (CampaignConfig(ring="gf:2", n=3),
     "2b78f12b47287f869a59bcbc6ca8077c61dd87030a428a52f745af94553157d0"),
    (CampaignConfig(ring="gf:3", n=2),
     "7296aec7a83b01d1f942eddc32fe7c0f1f3feac129375080068bc884887e1a6f"),
    (CampaignConfig(ring="q", n=3, trials=4, seed=7),
     "a65a8a5b43b086ddb46385db0b2be10b714518e66fecad971da8c5da40e8c5cc"),
    (CampaignConfig(ring="qi", n=3, trials=4, seed=7),
     "c4e46d7556bb3fc529ecf0d563bafcc8a80217d1bff3adc753cb9fd578308c7c"),
]


def report_digest(config: CampaignConfig) -> str:
    payload = json.loads(run_campaign(config).to_json())
    del payload["duration_seconds"]
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("config, digest", DIGESTS, ids=[c.ring for c, _ in DIGESTS])
def test_report_digest_unchanged(config, digest):
    assert report_digest(config) == digest
