"""Tests for the JSON wire formats: exactness, determinism, strictness."""

import json
import math

import numpy as np
import pytest

from crown_harmonics.errors import SchemaError
from crown_harmonics.paley_wiener import pw_report
from crown_harmonics.serialization import (
    dumps_grid_function,
    dumps_report,
    dumps_table,
    format_float,
    line_scan_csv,
    loads_grid_function,
    loads_table,
)
from crown_harmonics.sphere import GridFunction, SphereGrid
from crown_harmonics.transform import CoefficientTable
from oracles import FakeProvider, table


class TestFormatFloat:
    def test_round_trips_doubles(self):
        for x in (0.1, 1.0 / 3.0, 1e-308, -2.5e17, math.pi, 0.0):
            assert float(format_float(x)) == x

    def test_infinities_pass_nan_rejected(self):
        assert float(format_float(float("inf"))) == float("inf")
        with pytest.raises(SchemaError):
            format_float(float("nan"))

    def test_negative_zero_keeps_its_sign(self):
        # a bare -0 is the JSON integer 0; -0.0 reads back as -0.0
        assert format_float(-0.0) == "-0.0" and format_float(0.0) == "0"
        assert math.copysign(1.0, json.loads(format_float(-0.0))) == -1.0


class TestGridFunctionRoundTrip:
    def test_exact_round_trip(self):
        grid = SphereGrid(6, 4)
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        f = GridFunction(grid, vals)
        g = loads_grid_function(dumps_grid_function(f))
        assert g.grid.n_theta == 6 and g.grid.n_phi == 4
        assert np.array_equal(g.values, f.values)

    def test_deterministic(self):
        grid = SphereGrid(3, 4)
        f = GridFunction(grid, np.full((3, 4), 0.1 + 0.2j))
        assert dumps_grid_function(f) == dumps_grid_function(f)

    def test_schema_violations(self):
        good = '{"n_theta": 1, "n_phi": 2, "values": [[1.0,0.0],[2.0,0.0]]}'
        loads_grid_function(good)
        with pytest.raises(SchemaError):
            loads_grid_function("not json")
        with pytest.raises(SchemaError):
            loads_grid_function('{"n_theta": 1, "n_phi": 2}')
        with pytest.raises(SchemaError):
            loads_grid_function(
                '{"n_theta": 1, "n_phi": 2, "values": [[1.0,0.0],[2.0,0.0]], '
                '"extra": 0}'
            )
        with pytest.raises(SchemaError):
            loads_grid_function(
                '{"n_theta": 1, "n_phi": 2, "values": [[1.0,0.0]]}'
            )
        with pytest.raises(SchemaError):
            loads_grid_function(
                '{"n_theta": 1, "n_phi": 1, "values": [[1.0]]}'
            )
        with pytest.raises(SchemaError):
            loads_grid_function(
                '{"n_theta": 1, "n_phi": 1, "values": [[1.0, NaN]]}'
            )
        with pytest.raises(SchemaError):
            loads_grid_function(
                '{"n_theta": true, "n_phi": 1, "values": [[1.0,0.0]]}'
            )
        with pytest.raises(SchemaError, match="duplicate key 'n_phi'"):
            loads_grid_function(
                '{"n_theta": 1, "n_phi": 2, "n_phi": 1, "values": [[1.0,0.0]]}'
            )


class TestTableRoundTrip:
    def test_exact_round_trip_and_zero_omission(self):
        text = dumps_table(table(3, {
            (0, 0): 1.0 / 3.0,
            (2, -1): complex(-0.7, 1e-17),
            (3, 3): 0.0,
        }))
        assert '"l": 3' not in text  # exact zero dropped
        back = loads_table(text)
        assert back.values[0, back.lmax] == 1.0 / 3.0
        assert back.values[2, -1 + back.lmax] == complex(-0.7, 1e-17)
        assert back.values[3, 3 + back.lmax] == 0.0
        assert back.lmax == 3

    def test_sorted_output(self):
        text = dumps_table(table(2, {(2, 1): 1.0, (0, 0): 2.0, (2, -2): 3.0}))
        first = text.index('"l": 0')
        mid = text.index('"l": 2, "m": -2')
        last = text.index('"l": 2, "m": 1')
        assert first < mid < last

    def test_duplicate_rejected(self):
        text = (
            '{"lmax": 1, "entries": ['
            '{"l": 1, "m": 0, "re": 1.0, "im": 0.0},'
            '{"l": 1, "m": 0, "re": 2.0, "im": 0.0}]}'
        )
        with pytest.raises(SchemaError):
            loads_table(text)
        # duplicate keys, at the top level and inside an entry
        with pytest.raises(SchemaError, match="duplicate key 'lmax'"):
            loads_table('{"lmax": 1, "lmax": 2, "entries": []}')
        with pytest.raises(SchemaError, match="duplicate key 're'"):
            loads_table('{"lmax": 1, "entries": ['
                        '{"l": 1, "m": 0, "re": 1.0, "re": 2.0, "im": 0.0}]}')

    def test_out_of_range_entry_rejected(self):
        text = '{"lmax": 1, "entries": [{"l": 2, "m": 0, "re": 1.0, "im": 0.0}]}'
        with pytest.raises(SchemaError):
            loads_table(text)
        for l, m in ((-1, 0), (1, 2), (0, -2)):
            with pytest.raises(SchemaError, match=rf"entry \({l}, {m}\) outside lmax=1"):
                loads_table('{"lmax": 1, "entries": [{"l": %d, "m": %d, "re": 1.0, "im": 0.0}]}'
                            % (l, m))
        # lmax sizes the dense table: it must stay below the 512-sample
        # boundary limit that synthesize can sum to
        for lmax in (-1, 512, 10**9):
            with pytest.raises(SchemaError, match=rf"lmax={lmax} outside \[0, 512\)"):
                loads_table('{"lmax": %d, "entries": []}' % lmax)
        assert loads_table('{"lmax": 511, "entries": []}').values.shape == (512, 1023)

    def test_sub_frequency_entries_accepted(self):
        # earlier versions of analyze wrote roundoff at l < |m|; the loader
        # keeps it, so those tables still load
        back = loads_table('{"lmax": 2, "entries": [{"l": 0, "m": -2, "re": 1e-17, "im": 0.0}]}')
        assert back.values[0, -2 + back.lmax] == 1e-17
        assert back.ktypes() == frozenset({-2})


def _reference_grid_text(f):
    # one format_float call per double, the writer's contract
    pairs = ",".join(f"[{format_float(v.real)},{format_float(v.imag)}]"
                     for v in f.values.ravel())
    return '{"n_theta": %d, "n_phi": %d, "values": [%s]}' % (f.grid.n_theta, f.grid.n_phi, pairs)


def _reference_table_text(t):
    ls, cols = np.nonzero(t.values)
    rows = ",".join('{"l": %d, "m": %d, "re": %s, "im": %s}'
                    % (l, c - t.lmax, format_float(v.real), format_float(v.imag))
                    for l, c, v in zip(ls.tolist(), cols.tolist(), t.values[ls, cols].tolist()))
    return '{"lmax": %d, "entries": [%s]}' % (t.lmax, rows)


def _hard_doubles(rng, shape):
    # normal draws over the whole exponent range, raw bit patterns,
    # subnormals, the extremes and signed zeros
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 308, size=shape)
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(float)
    x = np.where(rng.random(shape) < 0.3, bits, x)
    x[~np.isfinite(x)] = 1.0
    flat = x.ravel()
    flat[:9] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, -1.797e308]
    flat[rng.random(flat.size) < 0.05] = 0.0
    flat[rng.random(flat.size) < 0.02] = -0.0
    return x


class TestBulkWriters:
    def test_grid_writer_equals_format_float_per_value(self):
        rng = np.random.default_rng(128)
        grid = SphereGrid(130, 258)
        f = GridFunction(grid, _hard_doubles(rng, (130, 516)).view(complex))
        text = dumps_grid_function(f)
        assert text == _reference_grid_text(f)
        assert loads_grid_function(text).values.tobytes() == f.values.tobytes()

    def test_table_writer_equals_format_float_per_value(self):
        rng = np.random.default_rng(129)
        values = _hard_doubles(rng, (129, 2 * 257)).view(complex)
        values[rng.random(values.shape) < 0.2] = 0.0
        t = CoefficientTable(values)
        text = dumps_table(t)
        assert text == _reference_table_text(t)
        back = loads_table(text).values
        written = values != 0.0
        assert back[written].tobytes() == values[written].tobytes()
        assert not np.any(back[~written])

    @pytest.mark.parametrize("bad, message", [
        (float("inf"), "cannot serialize inf"),
        (-float("inf"), "cannot serialize -inf"),
        (float("nan"), "cannot serialize NaN"),
    ])
    def test_non_finite_values_are_not_written(self, bad, message):
        values = np.ones((3, 4), dtype=complex)
        values[1, 2] = complex(1.0, bad)
        with pytest.raises(SchemaError, match=message):
            dumps_grid_function(GridFunction(SphereGrid(3, 4), values))
        with pytest.raises(SchemaError, match=message):
            dumps_table(CoefficientTable(values[:2, :3]))

    def test_negative_zero_round_trips(self):
        f = GridFunction(SphereGrid(1, 2), np.array([[complex(-0.0, 1.0), complex(2.0, -0.0)]]))
        text = dumps_grid_function(f)
        assert '"values": [[-0.0,1],[2,-0.0]]' in text
        assert loads_grid_function(text).values.tobytes() == f.values.tobytes()
        t = table(1, {(1, -1): complex(-0.0, 1.0), (1, 1): complex(2.0, -0.0)})
        text = dumps_table(t)
        assert '"re": -0.0, "im": 1}' in text and '"re": 2, "im": -0.0}' in text
        assert loads_table(text).values.tobytes() == t.values.tobytes()


class TestStrictNumbers:
    GRID = '{"n_theta": 1, "n_phi": 2, "values": [[1.0, 0.0], [%s, %s]]}'
    TABLE = '{"lmax": 1, "entries": [{"l": 0, "m": 0, "re": 1.0, "im": 0.0}, ' \
            '{"l": 1, "m": 0, "re": %s, "im": %s}]}'

    @pytest.mark.parametrize("token", ['"1.5"', '" 1_0 "', "true", "false", "null", "[1.0]", "{}"])
    def test_non_numbers_are_rejected(self, token):
        with pytest.raises(SchemaError, match=r"values\[1\]\[0\]: expected a number, got"):
            loads_grid_function(self.GRID % (token, "0.0"))
        with pytest.raises(SchemaError, match=r"entries\[1\]\.im: expected a number, got"):
            loads_table(self.TABLE % ("0.0", token))

    def test_string_and_boolean_pair_is_rejected(self):
        with pytest.raises(SchemaError, match=r"values\[1\]\[0\]: expected a number, got '1.5'"):
            loads_grid_function(self.GRID % ('"1.5"', "true"))

    def test_huge_integer_is_a_schema_error(self):
        huge = "9" * 400
        with pytest.raises(SchemaError, match=r"values\[1\]\[1\]: integer of 400 digits"):
            loads_grid_function(self.GRID % ("0.0", huge))
        with pytest.raises(SchemaError, match=r"entries\[1\]\.re: integer of 400 digits"):
            loads_table(self.TABLE % (huge, "0.0"))
        # integers a double holds are numbers
        back = loads_table(self.TABLE % ("10" * 20, "-3"))
        assert back.values[1, back.lmax] == complex(float("10" * 20), -3.0)

    def test_huge_index_is_out_of_range(self):
        text = '{"lmax": 1, "entries": [{"l": %s, "m": 0, "re": 1.0, "im": 0.0}]}' % ("9" * 30)
        with pytest.raises(SchemaError, match=r"entries\[0\]: entry \(9+, 0\) outside lmax=1"):
            loads_table(text)
        for m in (-2**63, 2**63):
            with pytest.raises(SchemaError, match="outside lmax=1"):
                loads_table('{"lmax": 1, "entries": [{"l": 0, "m": %d, "re": 1.0, "im": 0.0}]}' % m)

    def test_first_offender_in_document_order_is_named(self):
        text = '{"n_theta": 1, "n_phi": 3, "values": [[1.0, 0.0], [NaN, 0.0], [1.0]]}'
        with pytest.raises(SchemaError, match=r"values\[1\]\[0\]: value must be finite"):
            loads_grid_function(text)
        text = '{"n_theta": 1, "n_phi": 3, "values": [[1.0, 0.0], 7, [true, 0.0]]}'
        with pytest.raises(SchemaError, match=r"values\[1\] is not a \[re, im\] pair"):
            loads_grid_function(text)
        text = ('{"lmax": 1, "entries": [{"l": 0, "m": 0, "re": 1.0, "im": 0.0}, '
                '{"l": 1, "m": 0, "re": Infinity, "im": 0.0}, '
                '{"l": 0, "m": 0, "re": 1.0, "im": 0.0}, '
                '{"l": 5, "m": 0, "re": 1.0, "im": 0.0}]}')
        with pytest.raises(SchemaError, match=r"entries\[1\]\.re: value must be finite"):
            loads_table(text)
        text = text.replace("Infinity", "2.0")
        with pytest.raises(SchemaError, match=r"entries\[2\]: duplicate entry for \(l=0, m=0\)"):
            loads_table(text)


class TestReportSerialization:
    def test_report_is_valid_json_with_expected_keys(self):
        provider = FakeProvider(
            lambda ell, m: 1.0 / (25.0 + abs(ell * (ell + 1.0))), ktypes=(0,)
        )
        report = pw_report(provider, [0.4, 1.0])
        text = dumps_report(report)
        obj = json.loads(text)
        assert list(obj.keys()) == [
            "ktypes", "type_estimate", "decay_constants",
            "weyl_residual", "verdicts", "samples_used", "calibration",
        ]
        assert list(obj["decay_constants"]) == ["0", "1", "2", "3"]
        assert list(obj["calibration"]) == [
            "decay_kmax", "disc_radius", "n_samples", "t_max", "tail_fraction",
            "type_slack", "weyl_tol",
        ]
        assert obj["samples_used"].startswith(
            "line Re l = -1/2: 160 samples to t_max=80; "
            "real axis |l+1/2| <= 20: 161 points at spacing 0.25; ")
        assert obj["ktypes"] == [0]
        assert set(obj["type_estimate"]) == {
            "r_hat", "lower", "upper", "t_max", "n_samples"
        }
        assert len(obj["verdicts"]) == 2
        assert obj["verdicts"][0]["radius"] == 0.4
        assert isinstance(obj["verdicts"][0]["passed"], bool)
        assert isinstance(obj["verdicts"][0]["reasons"], list)
        assert obj["calibration"]["weyl_tol"] == report.calibration.weyl_tol
        # serialization is deterministic
        assert text == dumps_report(report)


class TestLineScanCsv:
    def test_header_and_log_values(self):
        text = line_scan_csv([1.0, 2.0], [math.e, 0.0])
        lines = text.strip().split("\n")
        assert lines[0] == "t,log_abs"
        assert lines[1].startswith("1")
        assert float(lines[1].split(",")[1]) == 1.0
        assert lines[2].split(",")[1] == "-inf"
