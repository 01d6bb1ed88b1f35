import pytest

from flowfilter import harness, propagation


@pytest.fixture
def scoring_calls(monkeypatch) -> tuple[list, list]:
    """Record each scalar ``phi_total`` pass and the lane count of each ``phi_totals`` pass."""
    sims, passes = [], []
    compute_prefix, phi_totals = propagation.compute_prefix, harness.phi_totals

    def counting_totals(g, sets, phi_empty):
        passes.append(len(sets))
        return phi_totals(g, sets, phi_empty)

    monkeypatch.setattr(
        propagation,
        "compute_prefix",
        lambda g, filters: sims.append(1) or compute_prefix(g, filters),
    )
    monkeypatch.setattr(harness, "phi_totals", counting_totals)
    return sims, passes
