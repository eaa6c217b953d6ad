import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from freeutil.cli import _fmt_float
from freeutil.model import DomainError
from freeutil.problemio import dumps, load, render_json

GOLDEN = Path(__file__).parent / "golden"
VALID_GOLDENS = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("invalid_"))


def reference_render(obj, indent: int = 0) -> str:
    """The recursive CLI printer the shared writer replaced, kept as the
    reference for 12-significant-digit documents."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {reference_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{reference_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise DomainError(f"cannot render {type(obj).__name__} in a document")


# Strings biased towards what needs escaping: quotes, backslashes, control
# characters, non-ASCII and astral characters.
texts = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f é€😀'))
)


def documents(floats):
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), floats, st.just(-0.0), texts
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(texts, inner, max_size=4),
        ),
        max_leaves=30,
    )


@given(documents(st.floats(allow_nan=False, allow_infinity=False)))
def test_writer_equals_stdlib_indent(obj):
    assert render_json(obj) == json.dumps(obj, indent=2)


@given(documents(st.floats()))
def test_writer_equals_recursive_cli_printer(obj):
    assert render_json(obj, _fmt_float) == reference_render(obj)


@pytest.mark.parametrize("name", VALID_GOLDENS)
def test_dumps_is_stdlib_layout(name):
    text = dumps(load(str(GOLDEN / name)))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_writer_rejects_what_json_cannot_hold():
    with pytest.raises(TypeError):
        render_json({"k": object()})
    with pytest.raises(TypeError):
        render_json({1: "non-string key"})
