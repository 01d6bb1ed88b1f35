import pytest

from flowfilter import path_stats


@pytest.fixture
def scoring_calls(monkeypatch) -> tuple[list, list]:
    """Record each no-filter prefix pass, the scalar pass that φ(∅) and F(V)
    are read off, and the lane count of each packed pass."""
    sims, passes = [], []
    prefix, packed_pass = path_stats._prefix, path_stats._packed_pass

    def counting_prefix(g, members):
        if not members:
            sims.append(1)
        return prefix(g, members)

    def counting_pass(g, sets, w):
        passes.append(len(sets))
        return packed_pass(g, sets, w)

    monkeypatch.setattr(path_stats, "_prefix", counting_prefix)
    monkeypatch.setattr(path_stats, "_packed_pass", counting_pass)
    return sims, passes
