"""The README's library quick start runs against the package as it is, its
configuration table names every configuration key, its CSV schemas are the
ones the harness writes, and the kernel constants it states are the ones
sparse_core and filters use."""

import ast
import dataclasses
import os
import re

from sparsekf import filters, sparse_core
from sparsekf.harness import RUNS_CSV_HEADER, SUMMARY_CSV_HEADER, ExperimentConfig

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


def test_csv_schemas_are_the_headers_the_harness_writes():
    with open(README) as f:
        block = f.read().split("Output CSV schemas", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    schemas = {line.split("#")[1].strip(): line.split("#")[0].strip()
               for line in block.splitlines()}
    assert schemas == {"runs": RUNS_CSV_HEADER, "summary": SUMMARY_CSV_HEADER}


def test_kernel_constants_are_the_ones_sparse_core_uses():
    # every constant README writes as `NAME = value` exists in sparse_core or
    # filters with that value, so that a deleted one cannot linger; among
    # them the factor's rows per step and the reduction's block and base;
    # and the size rule n >= MIN_BLOCKS * max(BLOCK_ROWS, h)
    with open(README) as f:
        text = f.read()
    stated = re.findall(r"`([A-Z][A-Z0-9_]+) = ([^`]+)`", text)
    assert {"FACTOR_ROWS", "REDUCTION_ROWS", "BASE_ROWS"} <= {name for name, _ in stated}
    for name, value in stated:
        module = next((m for m in (sparse_core, filters) if hasattr(m, name)), None)
        assert module is not None, f"README states {name}, which no module defines"
        assert ast.literal_eval(value) == getattr(module, name), name
    rules = re.findall(r"`n >= (\d+) \* max\((\d+), h\)`", text)
    assert rules and set(rules) == {(str(sparse_core.MIN_BLOCKS), str(sparse_core.BLOCK_ROWS))}
