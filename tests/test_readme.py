"""The README's library example runs against the current API."""

import re
from pathlib import Path

from flowfilter.graph import serialize_edge_list
from flowfilter.placement import greedy_all
from flowfilter.synth import LayeredConfig, layered_graph

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    g = layered_graph(LayeredConfig(4, 8, 1.0, 4.0, seed=3))
    (tmp_path / "synth.tsv").write_text(serialize_edge_list(g))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    filters = namespace["filters"]
    assert type(filters) is frozenset and filters == frozenset(greedy_all(namespace["g"], 10))
    printed = capsys.readouterr().out
    assert printed.startswith(str(namespace["g"].sorted_labels(filters)) + " ")
