"""End-to-end acceptance criteria.

Each test runs one numbered criterion from the verification module and
prints its one-line pass/fail summary (visible with ``pytest -s`` or on
failure).  The criteria exercise the full stack: certified polynomial
constructions, truncation bounds, estimator soundness in exact and
stochastic modes, amplitude-estimation statistics, query-cost scaling
laws, variance lemmas, closed-form identities, cross-algorithm
agreement, byte-level determinism of the CLI, and agreement of the
classical baselines with the quantum-model estimates.
"""

import pytest

from specsum.verify import CRITERIA


@pytest.mark.parametrize("number", sorted(CRITERIA), ids=lambda i: f"criterion_{i:02d}")
def test_acceptance_criterion(number):
    result = CRITERIA[number]()
    print(result.line())
    assert result.passed, result.line()
