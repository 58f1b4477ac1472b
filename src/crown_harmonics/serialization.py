"""JSON and CSV codecs for the data interchange schemas.

Writers are deterministic: fixed key order, entries sorted by (l, m),
floats rendered with 17 significant digits so values round-trip
exactly, negative zero included. They reject non-finite values, which
JSON cannot carry, with one check per array, and render each chunk of
values with one % template. Readers validate eagerly and raise
SchemaError with the offending location; malformed input never
propagates into numerics. Every number must be a JSON number (a string
or a boolean is not one). The checks run on whole arrays, and only a
malformed document is walked entry by entry, to name its first
offender in document order.
"""

from __future__ import annotations

import itertools
import json
import math
import operator

import numpy as np

from .errors import SchemaError
from .sphere import DEFAULT_BOUNDARY_SAMPLES, GridFunction, SphereGrid
from .transform import CoefficientTable


def format_float(x) -> str:
    """Render a float with 17 significant digits (exact round trip).

    Negative zero is written -0.0, since a bare -0 reads back as the
    integer 0; infinities are written inf and -inf (the CSV keeps them,
    the JSON writers reject them first) and NaN raises SchemaError.
    """
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if math.isnan(x):
        raise SchemaError("cannot serialize NaN")
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"
    return f"{x:.17g}"


#: table entries rendered by one % template; a chunk bounds the tuple of
#: values that the template consumes
_ENTRY_CHUNK = 1024


def _doubles(values) -> np.ndarray:
    """Real and imaginary parts of complex values, in document order.

    Raises SchemaError for the first one that is not finite, so the bulk
    writers never emit a token their readers reject.
    """
    parts = np.ascontiguousarray(values, dtype=complex).view(float).ravel()
    bad = np.flatnonzero(~np.isfinite(parts))
    if bad.size:
        x = float(parts[bad[0]])
        raise SchemaError("cannot serialize NaN" if math.isnan(x) else f"cannot serialize {x}")
    return parts


def _render(template: str, args: list, parts: np.ndarray, zeros) -> str:
    """template % args, with every negative zero written as format_float does.

    "%.17g" renders -0.0 as -0; zeros lists the (bare, fixed) replacements
    of the tokens in which a negative zero can stand, applied only when
    parts holds one.
    """
    text = template % tuple(args)
    if np.any((parts == 0.0) & np.signbit(parts)):
        for bare, fixed in zeros:
            text = text.replace(bare, fixed)
    return text


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
    if type(v) is not int:
        raise SchemaError(f"{where}: {key} must be an integer, got {v!r}")
    return v


def _number(x, where: str) -> float:
    """A JSON number as a finite double; strings, booleans and null are not numbers."""
    if type(x) not in (int, float):
        raise SchemaError(f"{where}: expected a number, got {x!r}")
    try:
        x = float(x)
    except OverflowError:
        raise SchemaError(
            f"{where}: integer of {len(str(abs(x)))} digits overflows a double") from None
    if not math.isfinite(x):
        raise SchemaError(f"{where}: value must be finite, got {x!r}")
    return x


def _numbers(flat: list):
    """flat as a float array, or None unless every item is a finite JSON number."""
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        out = np.array(flat, dtype=float)
    except OverflowError:
        return None
    return out if np.all(np.isfinite(out)) else None


# ---------------------------------------------------------------------------
# grid functions


def dumps_grid_function(f: GridFunction) -> str:
    """Serialize sampled values, theta-major, as [re, im] pairs.

    Finiteness is checked once for the whole grid, and each theta row is
    rendered by one % template.
    """
    parts = _doubles(f.values).reshape(f.grid.n_theta, -1)
    template = ",".join(["[%.17g,%.17g]"] * f.grid.n_phi)
    zeros = (("[-0,", "[-0.0,"), (",-0]", ",-0.0]"))
    pairs = ",".join(_render(template, row.tolist(), row, zeros) for row in parts)
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
    parts = None
    if set(map(type, values)) == {list} and set(map(len, values)) == {2}:
        parts = _numbers(list(itertools.chain.from_iterable(values)))
    if parts is None:
        _grid_error(values)
    grid = SphereGrid(n_theta, n_phi)
    return GridFunction(grid, parts.view(complex).reshape(n_theta, n_phi))


def _grid_error(values):
    """Raise SchemaError naming the first malformed pair or value in document order."""
    for i, pair in enumerate(values):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"grid function: values[{i}] is not a [re, im] pair")
        for j in (0, 1):
            _number(pair[j], f"values[{i}][{j}]")
    raise AssertionError("no malformed value found")  # pragma: no cover


# ---------------------------------------------------------------------------
# coefficient tables


def dumps_table(table: CoefficientTable) -> str:
    """Serialize a coefficient table, sorted by (l, m), zeros omitted.

    Finiteness is checked once for the whole table, and each chunk of
    _ENTRY_CHUNK entries is rendered by one % template.
    """
    ls, cols = np.nonzero(table.values)  # row-major: ascending l, then m
    parts = _doubles(table.values[ls, cols]).reshape(-1, 2)
    entry = '{"l": %d, "m": %d, "re": %.17g, "im": %.17g}'
    zeros = (('"re": -0,', '"re": -0.0,'), ('"im": -0}', '"im": -0.0}'))
    chunks = []
    for start in range(0, ls.size, _ENTRY_CHUNK):
        block = slice(start, start + _ENTRY_CHUNK)
        args = itertools.chain.from_iterable(zip(
            ls[block].tolist(), (cols[block] - table.lmax).tolist(), *parts[block].T.tolist()))
        template = ",".join([entry] * len(parts[block]))
        chunks.append(_render(template, list(args), parts[block], zeros))
    return '{"lmax": %d, "entries": [%s]}' % (table.lmax, ",".join(chunks))


_ENTRY_KEYS = ("l", "m", "re", "im")


def loads_table(text: str) -> CoefficientTable:
    obj = _parse(text, "coefficient table")
    _require_keys(obj, ("lmax", "entries"), "coefficient table")
    lmax = _int_field(obj, "lmax", "coefficient table")
    # the dense (lmax + 1, 2 lmax + 1) table is allocated from lmax alone;
    # the bound keeps untrusted input from choosing its size (8 MiB at most)
    if not 0 <= lmax < DEFAULT_BOUNDARY_SAMPLES:
        raise SchemaError(
            f"coefficient table: lmax={lmax} outside [0, {DEFAULT_BOUNDARY_SAMPLES})")
    rows = obj["entries"]
    if not isinstance(rows, list):
        raise SchemaError("coefficient table: entries must be a list")
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    entries = _entries(rows, lmax)
    if entries is None:
        _table_error(rows, lmax)
    index, parts = entries
    values.ravel()[index] = parts.view(complex)
    return CoefficientTable(values)


def _entries(rows: list, lmax: int):
    """(flat table index, re/im pairs) of the entries, or None if any is malformed.

    One pass over the structure: every entry an object with exactly the
    keys l, m, re, im (the parser already rejects a repeated key) and
    integer l and m; then the numbers, the range and the duplicates are
    checked on arrays.
    """
    if not rows:
        return np.zeros(0, dtype=int), np.zeros(0)
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {4}:
        return None
    try:
        ls, ms, res, ims = (list(map(operator.itemgetter(key), rows)) for key in _ENTRY_KEYS)
    except KeyError:
        return None
    if set(map(type, ls)) | set(map(type, ms)) != {int}:
        return None
    parts = _numbers(list(itertools.chain.from_iterable(zip(res, ims))))
    try:
        ls, ms = np.array(ls), np.array(ms)
    except OverflowError:
        return None
    # l < |m| is accepted: tables from earlier versions of analyze carry
    # roundoff there, and synthesize never reads those entries
    if parts is None or not np.all((ls >= 0) & (ls <= lmax) & (ms >= -lmax) & (ms <= lmax)):
        return None
    index = ls * (2 * lmax + 1) + ms + lmax
    if np.bincount(index).max() > 1:
        return None
    return index, parts


def _table_error(rows, lmax: int):
    """Raise SchemaError naming the first malformed entry in document order."""
    seen = set()
    for i, row in enumerate(rows):
        where = f"entries[{i}]"
        _require_keys(row, _ENTRY_KEYS, where)
        l = _int_field(row, "l", where)
        m = _int_field(row, "m", where)
        if not (0 <= l <= lmax and abs(m) <= lmax):
            raise SchemaError(f"{where}: entry ({l}, {m}) outside lmax={lmax}")
        if (l, m) in seen:
            raise SchemaError(f"{where}: duplicate entry for (l={l}, m={m})")
        seen.add((l, m))
        _number(row["re"], f"{where}.re")
        _number(row["im"], f"{where}.im")
    raise AssertionError("no malformed entry found")  # pragma: no cover


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
