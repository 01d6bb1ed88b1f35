import pytest

from flowfilter import harness, propagation


@pytest.fixture
def scoring_calls(monkeypatch) -> tuple[list, list]:
    """Record each ``simulate`` call and the lane count of each ``phi_totals`` pass."""
    sims, passes = [], []
    simulate, phi_totals = propagation.simulate, harness.phi_totals

    def counting_totals(g, sets, phi_empty):
        passes.append(len(sets))
        return phi_totals(g, sets, phi_empty)

    monkeypatch.setattr(
        propagation, "simulate", lambda g, filters: sims.append(1) or simulate(g, filters)
    )
    monkeypatch.setattr(harness, "phi_totals", counting_totals)
    return sims, passes
