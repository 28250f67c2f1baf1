"""Every oracle suite returns a plain outcome that JSON can hold."""

import dataclasses
import json

import pytest

from ncprecode import oracles

SUITES = (oracles.run_qp_suite, oracles.run_ellipse_suite, oracles.run_covariance_suite, oracles.run_wedge_suite)


@pytest.mark.parametrize("suite", SUITES, ids=lambda fn: fn.__name__)
def test_outcome_is_plain_and_serialisable(monkeypatch, suite):
    # The verdict's type does not depend on the sample sizes, so the sampling
    # suites run here on 10^4 noise draws and every 100th boundary point of
    # one decision angle; c05, c08 and TestWedgeExit run them in full.
    sample_noise, sampled_margins = oracles.sample_noise, oracles._sampled_margins
    monkeypatch.setattr(
        oracles, "sample_noise", lambda rng, h_jk, jam, awgn_var, size: sample_noise(rng, h_jk, jam, awgn_var, 10_000)
    )
    monkeypatch.setattr(
        oracles, "_sampled_margins", lambda ell, theta, cos_t, sin_t: sampled_margins(ell, theta, cos_t[::100], sin_t[::100])
    )
    monkeypatch.setattr(oracles, "_ELLIPSE_THETAS", oracles._ELLIPSE_THETAS[:1])
    outcome = suite()
    assert type(outcome.passed) is bool
    assert json.loads(json.dumps(dataclasses.asdict(outcome)))["passed"] is outcome.passed
