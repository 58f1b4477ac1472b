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
from oracles import FakeProvider, table


class TestFormatFloat:
    def test_round_trips_doubles(self):
        for x in (0.1, 1.0 / 3.0, 1e-308, -2.5e17, math.pi, 0.0):
            assert float(format_float(x)) == x

    def test_infinities_pass_nan_rejected(self):
        assert float(format_float(float("inf"))) == float("inf")
        with pytest.raises(SchemaError):
            format_float(float("nan"))


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
        assert back.get(0, 0) == 1.0 / 3.0
        assert back.get(2, -1) == complex(-0.7, 1e-17)
        assert back.get(3, 3) == 0.0
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
        assert back.get(0, -2) == 1e-17
        assert back.ktypes() == frozenset({-2})


class TestReportSerialization:
    def test_report_is_valid_json_with_expected_keys(self):
        provider = FakeProvider(
            lambda ell, m: 1.0 / (25.0 + abs(ell * (ell + 1.0))), ktypes=(0,)
        )
        report = pw_report(provider, [0.4, 1.0])
        text = dumps_report(report)
        obj = json.loads(text)
        assert list(obj.keys()) == [
            "ktypes", "type_estimate", "decay_constants", "decay_ratios",
            "weyl_residual", "verdicts", "samples_used", "calibration",
        ]
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
