"""JSON and CSV codecs for the data interchange schemas.

Writers are deterministic: fixed key order, entries sorted by (l, m),
floats rendered with 17 significant digits so values round-trip
exactly. Readers validate eagerly and raise SchemaError with the
offending location; malformed input never propagates into numerics.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SchemaError
from .sphere import DEFAULT_BOUNDARY_SAMPLES, GridFunction, SphereGrid
from .transform import CoefficientTable


def format_float(x) -> str:
    """Render a float with 17 significant digits (exact round trip)."""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if math.isnan(x):
        raise SchemaError("cannot serialize NaN")
    return f"{x:.17g}"


def _finite(x, where: str) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: expected a number, got {x!r}") from None
    if not math.isfinite(x):
        raise SchemaError(f"{where}: value must be finite, got {x!r}")
    return x


def _require_keys(obj: dict, required, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    extra = [k for k in obj if k not in required]
    if extra:
        raise SchemaError(f"{where}: unexpected keys {extra}")


def _int_field(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: {key} must be an integer, got {v!r}")
    return v


def _parse(text: str, where: str):
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [k for k, _ in pairs]
            dup = next(k for k in keys if keys.count(k) > 1)
            raise SchemaError(f"{where}: duplicate key {dup!r}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# grid functions


def dumps_grid_function(f: GridFunction) -> str:
    """Serialize sampled values, theta-major, as [re, im] pairs."""
    pairs = ",".join(
        f"[{format_float(v.real)},{format_float(v.imag)}]"
        for v in f.values.ravel(order="C")
    )
    return (
        '{"n_theta": %d, "n_phi": %d, "values": [%s]}'
        % (f.grid.n_theta, f.grid.n_phi, pairs)
    )


def loads_grid_function(text: str) -> GridFunction:
    obj = _parse(text, "grid function")
    _require_keys(obj, ("n_theta", "n_phi", "values"), "grid function")
    n_theta = _int_field(obj, "n_theta", "grid function")
    n_phi = _int_field(obj, "n_phi", "grid function")
    if n_theta < 1 or n_phi < 1:
        raise SchemaError("grid function: grid dimensions must be positive")
    values = obj["values"]
    if not isinstance(values, list) or len(values) != n_theta * n_phi:
        raise SchemaError(
            f"grid function: need exactly {n_theta * n_phi} value pairs, "
            f"got {len(values) if isinstance(values, list) else type(values).__name__}"
        )
    flat = np.empty(n_theta * n_phi, dtype=complex)
    for i, pair in enumerate(values):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"grid function: values[{i}] is not a [re, im] pair")
        flat[i] = complex(
            _finite(pair[0], f"values[{i}][0]"), _finite(pair[1], f"values[{i}][1]")
        )
    grid = SphereGrid(n_theta, n_phi)
    return GridFunction(grid, flat.reshape(n_theta, n_phi))


# ---------------------------------------------------------------------------
# coefficient tables


def dumps_table(table: CoefficientTable) -> str:
    """Serialize a coefficient table, sorted by (l, m), zeros omitted."""
    ls, cols = np.nonzero(table.values)  # row-major: ascending l, then m
    rows = ",".join(
        '{"l": %d, "m": %d, "re": %s, "im": %s}'
        % (l, c - table.lmax, format_float(v.real), format_float(v.imag))
        for l, c, v in zip(ls.tolist(), cols.tolist(), table.values[ls, cols].tolist())
    )
    return '{"lmax": %d, "entries": [%s]}' % (table.lmax, rows)


def loads_table(text: str) -> CoefficientTable:
    obj = _parse(text, "coefficient table")
    _require_keys(obj, ("lmax", "entries"), "coefficient table")
    lmax = _int_field(obj, "lmax", "coefficient table")
    # the dense table is allocated from lmax alone, and no degree at or past
    # the boundary sample count can be synthesized without aliasing
    if not 0 <= lmax < DEFAULT_BOUNDARY_SAMPLES:
        raise SchemaError(
            f"coefficient table: lmax={lmax} outside [0, {DEFAULT_BOUNDARY_SAMPLES})")
    rows = obj["entries"]
    if not isinstance(rows, list):
        raise SchemaError("coefficient table: entries must be a list")
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    seen = np.zeros(values.shape, dtype=bool)
    for i, row in enumerate(rows):
        where = f"entries[{i}]"
        _require_keys(row, ("l", "m", "re", "im"), where)
        l = _int_field(row, "l", where)
        m = _int_field(row, "m", where)
        # l < |m| is accepted: tables from earlier versions of analyze carry
        # roundoff there, and synthesize never reads those entries
        if not (0 <= l <= lmax and abs(m) <= lmax):
            raise SchemaError(f"{where}: entry ({l}, {m}) outside lmax={lmax}")
        if seen[l, m + lmax]:
            raise SchemaError(f"{where}: duplicate entry for (l={l}, m={m})")
        seen[l, m + lmax] = True
        values[l, m + lmax] = complex(
            _finite(row["re"], f"{where}.re"), _finite(row["im"], f"{where}.im")
        )
    return CoefficientTable(values)


# ---------------------------------------------------------------------------
# certification reports


def dumps_report(report) -> str:
    """Serialize a support-certification report with its calibration."""
    te = report.type_estimate
    parts = []
    parts.append('"ktypes": [%s]' % ",".join(str(m) for m in report.ktypes))
    parts.append(
        '"type_estimate": {"r_hat": %s, "lower": %s, "upper": %s, '
        '"t_max": %s, "n_samples": %d}'
        % (
            format_float(te.r_hat),
            format_float(te.lower),
            format_float(te.upper),
            format_float(te.t_max),
            te.n_samples,
        )
    )
    parts.append(
        '"decay_constants": {%s}'
        % ",".join(
            f'"{k}": {format_float(v)}'
            for k, v in sorted(report.decay_constants.items())
        )
    )
    parts.append(
        '"decay_ratios": {%s}'
        % ",".join(
            f'"{k}": {format_float(v)}'
            for k, v in sorted(report.decay_ratios.items())
        )
    )
    parts.append('"weyl_residual": %s' % format_float(report.weyl_residual))
    verdicts = ",".join(
        '{"radius": %s, "passed": %s, "reasons": %s}'
        % (
            format_float(v.radius),
            "true" if v.passed else "false",
            json.dumps(list(v.reasons)),
        )
        for v in report.verdicts
    )
    parts.append('"verdicts": [%s]' % verdicts)
    parts.append('"samples_used": %s' % json.dumps(report.samples_used))
    calib = report.calibration.as_dict()
    calib_rows = []
    for key in sorted(calib):
        value = calib[key]
        if isinstance(value, bool):
            calib_rows.append(f'"{key}": {"true" if value else "false"}')
        elif isinstance(value, int):
            calib_rows.append(f'"{key}": {value}')
        else:
            calib_rows.append(f'"{key}": {format_float(value)}')
    parts.append('"calibration": {%s}' % ",".join(calib_rows))
    return "{%s}" % ", ".join(parts)


def line_scan_csv(ts, magnitudes) -> str:
    """CSV of the tempered-line scan: t against log |phi|."""
    ts = np.asarray(ts, dtype=float)
    mags = np.asarray(magnitudes, dtype=float)
    if ts.shape != mags.shape or ts.ndim != 1:
        raise SchemaError("line scan needs matching 1-d arrays")
    lines = ["t,log_abs"]
    for t, v in zip(ts, mags):
        logv = math.log(v) if v > 0.0 else float("-inf")
        lines.append(f"{format_float(t)},{format_float(logv)}")
    return "\n".join(lines) + "\n"
