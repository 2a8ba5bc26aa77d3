"""The README's configuration, spec and taxonomy tables name every key the
code declares and no other, and its benchmark-spec example reads."""

import json
import re
from pathlib import Path

from gsfloc.config import RunConfig
from gsfloc.core import ClassInfo
from gsfloc.synth import BenchmarkSpec, QuerySpec, SceneSpec

from conftest import dotted_fields

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _table_keys(heading: str) -> set[str]:
    """The keys named in the first column of the table under `heading`, with
    `a.{b,c}` expanded to `a.b` and `a.c`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for row in re.findall(r"^\| (`.*?) \|", section, re.M):
        for key in re.findall(r"`([^`]+)`", row):
            head, _, rest = key.partition("{")
            parts, _, tail = rest.partition("}")
            keys |= {head + p + tail for p in parts.split(",")} if rest else {key}
    return keys


def _dotted(cls, prefix: str = "") -> set[str]:
    return {key for key, _ in dotted_fields(cls, prefix)}


def test_config_table_names_every_key():
    assert _table_keys("Configuration keys") == _dotted(RunConfig)


def test_spec_table_names_every_field():
    want = _dotted(SceneSpec) | _dotted(QuerySpec, "queries.")
    assert _table_keys("Spec files") == want


def test_taxonomy_table_names_every_field():
    assert _table_keys("Taxonomy records") == _dotted(ClassInfo)


def test_benchmark_spec_example_reads():
    example = README.split("A benchmark spec for `evaluate` looks like:\n\n```json\n", 1)[1]
    spec = BenchmarkSpec.from_dict(json.loads(example.split("```", 1)[0]))
    assert spec.map.templates and spec.queries.count == 20

