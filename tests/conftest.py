import pytest

from flowfilter import propagation


@pytest.fixture
def scoring_calls(monkeypatch) -> tuple[list, list]:
    """Record each scalar ``phi_total`` pass and the lane count of each packed pass."""
    sims, passes = [], []
    compute_prefix, packed_pass = propagation.compute_prefix, propagation._packed_pass

    def counting_pass(g, sets, w):
        passes.append(len(sets))
        return packed_pass(g, sets, w)

    monkeypatch.setattr(
        propagation,
        "compute_prefix",
        lambda g, filters: sims.append(1) or compute_prefix(g, filters),
    )
    monkeypatch.setattr(propagation, "_packed_pass", counting_pass)
    return sims, passes
