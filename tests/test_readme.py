"""The README's configuration and spec tables name every key the code
declares and no other, and its benchmark-spec example reads."""

import dataclasses
import json
import re
import typing
from pathlib import Path

from gsfloc.config import RunConfig
from gsfloc.synth import BenchmarkSpec, QuerySpec, SceneSpec

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


def _dotted(cls, prefix: str = ""):
    """Every leaf key of a document type, dotted; a list's items as `key[]`."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key, hint = prefix + f.metadata.get("key", f.name), hints[f.name]
        if typing.get_origin(hint) is list:
            hint, key = typing.get_args(hint)[0], key + "[]"
        if dataclasses.is_dataclass(hint):
            yield from _dotted(hint, key + ".")
        else:
            yield key


def test_config_table_names_every_key():
    assert _table_keys("Configuration keys") == set(_dotted(RunConfig))


def test_spec_table_names_every_field():
    want = {*_dotted(SceneSpec), *_dotted(QuerySpec, "queries.")}
    assert _table_keys("Spec files") == want


def test_benchmark_spec_example_reads():
    example = README.split("A benchmark spec for `evaluate` looks like:\n\n```json\n", 1)[1]
    spec = BenchmarkSpec.from_dict(json.loads(example.split("```", 1)[0]))
    assert spec.map.templates and spec.queries.count == 20

