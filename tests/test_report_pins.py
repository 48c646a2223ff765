"""Report content pinned byte for byte.

Each suite runs at a small configuration, and the SHA-256 of its report
(``Report.to_dict()`` without ``runtime_seconds``, as sorted-key JSON) must
equal the recorded constant.  A change to any record, its order or its text
shows here; a deliberate change to report content must update the constant
and say why.
"""

import hashlib
import json

import pytest

from l1geo import VerifyConfig, verify

PINNED = {
    "steiner": "02bb2d4e89d2c7aceea241f81f371781db42c09fecc454cfa19890c62e2291c6",
    "crofton": "d0a6220128ce01ed98b9cfa2b9625e835242d4ef567a7d6e8d9f8e181568f00a",
    "kubota": "8b6afd05bc4225998eac9c441d3d44b25d0475c56fe6df5e100f680916b615d2",
    "kinematic": "509b61b57f46bd27e50796389a98dafc56d5c5767a32599940334aaa00ba73cc",
    "algebra": "134da4e7c925885cd52ba1bd33aa17212d97e6fbb1ab709015c6136fa87fb389",
    "valuation": "e0c1b1fc7a6fe87c5b2913115e420c3755c000030929773bd55a27ec295ed328",
    "pixellation": "29c9e1a8e198877d459df8e0dc47782476c678f13bc354b88190de4d9aab420f",
}


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_report_bytes_are_pinned(suite):
    cfg = VerifyConfig(dimensions=(2, 3), instances=6, mc_cases=0, seed=0)
    report = verify(suite, cfg).to_dict()
    del report["runtime_seconds"]
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED[suite]


# The kinematic suite with two Monte Carlo cases per dimension: its four
# kinematic-mc records (k = 1 and 2 at n = 2 and 3) pin the estimator.
PINNED_MC = "21be100bf220e43decc02664176f4e0a4ea069943059eaa649fa3f5b9e310d0a"


def test_monte_carlo_report_bytes_are_pinned():
    cfg = VerifyConfig(dimensions=(2, 3), instances=6, mc_cases=2, seed=0)
    report = verify("kinematic", cfg).to_dict()
    del report["runtime_seconds"]
    assert sum(r["name"].startswith("kinematic-mc") for r in report["records"]) == 4
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_MC
