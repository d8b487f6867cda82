"""The README's library quick start runs against the package as it is, and
its configuration table names every configuration key."""

import dataclasses
import os
import re

from sparsekf.harness import ExperimentConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_start_runs_up_to_the_full_experiment():
    with open(README) as f:
        block = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    head, marker, _ = block.partition("# a full experiment")
    assert marker, "the quick start no longer has its '# a full experiment' line"
    namespace = {}
    exec(compile(head, "README.md", "exec"), namespace)
    state = namespace["state"]
    assert state.xa.shape == (40,) and state.Pa.band.shape == (40, 4)
    assert state.diagnostics.evaluations == 40 + 2 * 40 * 7


def test_config_table_names_every_experiment_config_field():
    with open(README) as f:
        table = f.read().split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    named = {key for row in table.splitlines() if row.startswith("| `")
             for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert named == {f.name for f in dataclasses.fields(ExperimentConfig)}
