"""Report-equality gate: fixed campaigns keep byte-identical reports.

Each digest is the SHA-256 of the JSON report with ``duration_seconds``
removed.  The configs cover the example26 algebra, sweeps over rings
that are not *-reducing (gf:2 and gf:3, n = 3), sweeps over *-reducing
ones (gf:3 and gf:7, n = 2) and seeded random campaigns over Q, over
Q(i) and over prime fields too large to sweep (gf:2, n = 5 and gf:37,
n = 2), each with all 14 batteries.  The odd-p sweeps exercise the
reflections that group their pairs into orbits.
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
    (CampaignConfig(ring="gf:3", n=3),
     "e49c2f158332a29935b0a85ae5180ec08beec6bae1cdeb4b6d83e9df9fabdecb"),
    (CampaignConfig(ring="gf:7", n=2),
     "db60fd27a1e526d1dedefe7883c5acfc4248337938fa0f4fb345bff74792241d"),
    (CampaignConfig(ring="gf:2", n=5, trials=4, seed=7),
     "578358097ac08f3ec4c5b6b49e5dddf824068ce96816af7a98a2bda9be7b7b02"),
    (CampaignConfig(ring="gf:37", n=2, trials=4, seed=7),
     "879101777a45fe0a8fb961770aebbb1cc4f3379680f59d3a9318328b1adc795e"),
]


def _case_id(index: int) -> str:
    """The ring id, plus the size when an earlier case used that ring."""
    config = DIGESTS[index][0]
    if any(c.ring == config.ring for c, _ in DIGESTS[:index]):
        return f"{config.ring}-n{config.n}"
    return config.ring


def report_digest(config: CampaignConfig) -> str:
    payload = json.loads(run_campaign(config).to_json())
    del payload["duration_seconds"]
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("config, digest", DIGESTS, ids=[_case_id(i) for i in range(len(DIGESTS))])
def test_report_digest_unchanged(config, digest):
    assert report_digest(config) == digest
