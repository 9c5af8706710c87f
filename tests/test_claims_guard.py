"""Rot guard for the claims table (``benchmarks/test_claims.py``).

The claims run at ``quick`` scale and take minutes, so the default suite
does not check them.  This test runs every claim's plans on the tiny
scenario config instead and checks only that each plan executes and each
predicate answers: the tiny fabric is too small for the paper's claims to
hold, so their verdicts are not asserted here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.scenarios.spec import tiny_config

_SPEC = importlib.util.spec_from_file_location(
    "claims_table", Path(__file__).resolve().parent.parent / "benchmarks" / "test_claims.py"
)
claims = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(claims)


@pytest.fixture(scope="module")
def executed():
    """Every plan's points on the tiny config, on a two-process pool, which
    halves the guard's wall time."""
    plans = dict.fromkeys(plan for claim in claims.CLAIMS for plan in claim.plans)
    return claims.execute(plans, lambda plan: tiny_config(), workers=2)


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda claim: claim.name)
def test_claim_plan_runs_at_tiny_scale(claim, executed) -> None:
    assert isinstance(claim.holds(claim.values(*(executed[plan] for plan in claim.plans))), bool)
