"""Property tests for the two JSON codecs.

Random sparse coefficient tables and random grid functions must round
trip bit for bit, and every malformed document built from a valid one
by a single edit must raise SchemaError: a duplicated key, an extra or
a missing key, a non-finite number, or a number replaced by something
that is not a number.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crown_harmonics.errors import SchemaError
from crown_harmonics.serialization import (
    dumps_grid_function,
    dumps_table,
    loads_grid_function,
    loads_table,
)
from crown_harmonics.sphere import GridFunction, SphereGrid
from oracles import table

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# signed zeros drawn on purpose: a -0.0 must come back as -0.0
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
complexes = st.builds(complex, finite, finite)


@st.composite
def sparse_tables(draw):
    lmax = draw(st.integers(0, 6))
    keys = st.tuples(st.integers(0, lmax), st.integers(-lmax, lmax))
    return table(lmax, draw(st.dictionaries(keys, complexes, max_size=12)))


@st.composite
def grid_functions(draw):
    n_theta, n_phi = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(complexes, min_size=n_theta * n_phi, max_size=n_theta * n_phi))
    return GridFunction(SphereGrid(n_theta, n_phi), np.array(values).reshape(n_theta, n_phi))


def _nonzero_bits(values):
    # zeros leave the wire, so a signed zero comes back as +0; every
    # other entry must keep its exact bit pattern
    return np.where(values == 0.0, 0.0, values).tobytes()


class TestRoundTrip:
    @PROPERTY
    @given(sparse_tables())
    def test_table_round_trips_exactly(self, t):
        text = dumps_table(t)
        back = loads_table(text)
        assert back.lmax == t.lmax
        assert _nonzero_bits(back.values) == _nonzero_bits(t.values)
        assert back.ktypes() == t.ktypes()
        assert dumps_table(back) == text

    @PROPERTY
    @given(grid_functions())
    def test_grid_function_round_trips_exactly(self, f):
        back = loads_grid_function(dumps_grid_function(f))
        assert back.grid == f.grid
        assert back.values.tobytes() == f.values.tobytes()


# ---------------------------------------------------------------------------
# single-edit corruptions of a valid document. Objects are tuples of
# (key, value) pairs so that a duplicated key survives rendering.


def _render(node) -> str:
    if isinstance(node, tuple):
        return "{%s}" % ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in node)
    if isinstance(node, list):
        return "[%s]" % ",".join(_render(v) for v in node)
    if isinstance(node, float) and not math.isfinite(node):
        return "NaN" if math.isnan(node) else ("Infinity" if node > 0 else "-Infinity")
    return json.dumps(node)


def _table_doc(t):
    obj = json.loads(dumps_table(t))
    entries = [tuple(e.items()) for e in obj["entries"]]
    return (("lmax", obj["lmax"]), ("entries", entries))


def _grid_doc(f):
    obj = json.loads(dumps_grid_function(f))
    return tuple(obj.items())


def _objects(doc):
    """Paths to every object in the document: the top level and each entry."""
    paths = [()]
    entries = dict(doc).get("entries", [])
    paths += [("entries", i) for i in range(len(entries))]
    return paths


def _get(doc, path):
    return doc if not path else dict(doc)["entries"][path[1]]


def _put(doc, path, obj):
    if not path:
        return obj
    entries = list(dict(doc)["entries"])
    entries[path[1]] = obj
    return tuple((k, entries if k == "entries" else v) for k, v in doc)


def _corrupt(draw, doc, number_slots):
    """One edit of doc that the schema must reject."""
    kind = draw(st.sampled_from(["duplicate", "extra", "missing", "non-finite", "non-number"]))
    if kind == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return number_slots(doc, bad, draw)
    if kind == "non-number":
        bad = draw(st.sampled_from(["1.5", "0", True, False, None, [1.0], []]))
        return number_slots(doc, bad, draw)
    path = draw(st.sampled_from(_objects(doc)))
    obj = _get(doc, path)
    i = draw(st.integers(0, len(obj) - 1))
    if kind == "duplicate":
        key, value = obj[i]
        edited = obj + ((key, draw(st.sampled_from([value, 0]))),)
    elif kind == "extra":
        edited = obj + (("extra", 0),)
    else:
        edited = obj[:i] + obj[i + 1:]
    return _put(doc, path, edited)


def _table_number(doc, bad, draw):
    entries = dict(doc)["entries"]
    i = draw(st.integers(0, len(entries) - 1))
    key = draw(st.sampled_from(["re", "im"]))
    edited = tuple((k, bad if k == key else v) for k, v in entries[i])
    return _put(doc, ("entries", i), edited)


def _grid_number(doc, bad, draw):
    values = [list(pair) for pair in dict(doc)["values"]]
    values[draw(st.integers(0, len(values) - 1))][draw(st.integers(0, 1))] = bad
    return tuple((k, values if k == "values" else v) for k, v in doc)


class TestSchemaStrictness:
    @PROPERTY
    @given(sparse_tables().filter(lambda t: np.count_nonzero(t.values) > 0), st.data())
    def test_corrupted_table_raises_schema_error(self, t, data):
        text = _render(_corrupt(data.draw, _table_doc(t), _table_number))
        with pytest.raises(SchemaError):
            loads_table(text)

    @PROPERTY
    @given(grid_functions(), st.data())
    def test_corrupted_grid_function_raises_schema_error(self, f, data):
        text = _render(_corrupt(data.draw, _grid_doc(f), _grid_number))
        with pytest.raises(SchemaError):
            loads_grid_function(text)

    def test_renderer_reproduces_the_writers(self):
        t = table(2, {(1, -1): 0.5 - 2j, (2, 2): 1e-300})
        assert json.loads(_render(_table_doc(t))) == json.loads(dumps_table(t))
        f = GridFunction(SphereGrid(2, 1), np.array([[1.0 + 2j], [-0.0]]))
        assert json.loads(_render(_grid_doc(f))) == json.loads(dumps_grid_function(f))
