"""Command line entry points.

Subcommands map one-to-one onto the library's top-level operations:
analyze / synthesize / extend for the transform routes, pw-report for
support certification, intertwiner-dump for scalar tables, verify for
the named end-to-end checks. All data flows through the JSON schemas
in serialization; exit codes distinguish schema problems (2), domain
violations (3), and numerical failures (4).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import (
    CrownDomainError,
    CrownHarmonicsError,
    GridResolutionError,
    NumericalError,
    ProviderError,
    SchemaError,
    SingularParameterError,
)
from .intertwining import POLE_TOL, intertwiner_rational, singular_distance
from .paley_wiener import Calibration, pw_report
from .serialization import (
    dumps_grid_function,
    dumps_report,
    dumps_table,
    format_float,
    line_scan_csv,
    loads_grid_function,
    loads_table,
)
from .sphere import SphereGrid
from .transform import ExtendProvider, TableProvider, analyze, extend, synthesize
from .verify import run_acceptance

def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_grid_shape(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise SchemaError(f"grid must look like 96x192, got {text!r}")
    try:
        n_theta, n_phi = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError(f"grid dimensions must be integers, got {text!r}") from None
    return n_theta, n_phi


def _parse_complex(text: str) -> complex:
    raw = text.strip()
    if "," in raw:
        re_part, im_part = raw.split(",", 1)
        try:
            return complex(float(re_part), float(im_part))
        except ValueError:
            raise SchemaError(f"cannot parse complex value {text!r}") from None
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise SchemaError(
            f"cannot parse complex value {text!r}; use 'a+bj' or 'a,b'"
        ) from None


def _parse_radii(text: str):
    try:
        radii = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SchemaError(f"cannot parse radii list {text!r}") from None
    if not radii:
        raise SchemaError("radii list is empty")
    return radii


def _parse_calibration(pairs) -> Calibration:
    calib = Calibration()
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SchemaError(f"calibration override must be key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        try:
            value = int(raw) if isinstance(getattr(calib, key, None), int) else float(raw)
        except ValueError:
            raise SchemaError(f"cannot parse calibration value {pair!r}") from None
        overrides[key] = value
    return calib.replaced(**overrides) if overrides else calib


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_analyze(args) -> int:
    f = loads_grid_function(_read_text(args.input))
    table = analyze(f, args.lmax)
    _write_text(args.output, dumps_table(table))
    return 0


def _cmd_synthesize(args) -> int:
    table = loads_table(_read_text(args.input))
    n_theta, n_phi = _parse_grid_shape(args.grid)
    lmax = args.lmax if args.lmax is not None else table.lmax
    grid = SphereGrid(n_theta, n_phi)
    f = synthesize(TableProvider(table), grid, lmax)
    _write_text(args.output, dumps_grid_function(f))
    return 0


def _cmd_extend(args) -> int:
    f = loads_grid_function(_read_text(args.input))
    ell = _parse_complex(args.ell)
    value = extend(f, ell, args.m)
    payload = (
        '{"ell": [%s,%s], "m": %d, "re": %s, "im": %s}'
        % (
            format_float(ell.real),
            format_float(ell.imag),
            args.m,
            format_float(value.real),
            format_float(value.imag),
        )
    )
    _write_text(args.output, payload)
    return 0


def _cmd_pw_report(args) -> int:
    calib = _parse_calibration(args.calib)
    f = loads_grid_function(_read_text(args.input))
    provider = ExtendProvider(f)
    radii = _parse_radii(args.radii)
    report = pw_report(provider, radii, calib)
    _write_text(args.output, dumps_report(report))
    if args.csv is not None:
        ts, mags = report.line_samples
        _write_text(args.csv, line_scan_csv(ts, mags))
    for verdict in report.verdicts:
        status = "pass" if verdict.passed else "fail"
        reason = "" if verdict.passed else f" ({'; '.join(verdict.reasons)})"
        sys.stderr.write(f"radius {verdict.radius:g}: {status}{reason}\n")
    return 0


def _cmd_intertwiner_dump(args) -> int:
    if args.m_max < 0:
        raise SchemaError(f"--m-max must be nonnegative, got {args.m_max}")
    ts = np.arange(-2.0, 2.0 + 1e-9, 0.25)
    blocks = []
    for m in range(args.m_max + 1):
        regular = ts[singular_distance(m, ts) >= POLE_TOL]
        rows = ",".join(
            '{"t_re": %s, "t_im": 0, "re": %s, "im": 0}'
            % (format_float(t), format_float(v))
            for t, v in zip(regular.tolist(), intertwiner_rational(m, regular).tolist())
        )
        blocks.append('{"m": %d, "samples": [%s]}' % (m, rows))
    _write_text(
        args.output,
        '{"m_max": %d, "scalars": [%s]}' % (args.m_max, ",".join(blocks)),
    )
    return 0


def _cmd_verify(args) -> int:
    results = run_acceptance(args.seed)
    for result in results:
        print(result.line())
    n_pass = sum(1 for r in results if r.passed)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 4


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crown-harmonics",
        description="Kernel Fourier transform on the sphere, holomorphic "
        "extension, and support certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="coefficient table of a sampled function")
    p.add_argument("--input", required=True, help="grid function JSON file")
    p.add_argument("--lmax", required=True, type=int)
    p.add_argument("--output", default=None, help="table JSON (stdout if omitted)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="sample a function from a coefficient table")
    p.add_argument("--input", required=True, help="coefficient table JSON file")
    p.add_argument("--grid", required=True, help="target grid, e.g. 96x192")
    p.add_argument("--lmax", type=int, default=None,
                   help="truncation degree (default: table lmax)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("extend", help="one holomorphically extended coefficient")
    p.add_argument("--input", required=True, help="grid function JSON file")
    p.add_argument("--ell", required=True,
                   help="complex degree, e.g. '0.5+1.2j' or '0.5,1.2'")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("pw-report", help="support certification from spectral data")
    p.add_argument("--input", required=True, help="grid function JSON file")
    p.add_argument("--radii", required=True,
                   help="comma-separated candidate radii")
    p.add_argument("--calib", action="append", metavar="KEY=VALUE",
                   help="calibration override (repeatable)")
    p.add_argument("--csv", default=None,
                   help="also write the line scan as CSV to this path")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_pw_report)

    p = sub.add_parser("intertwiner-dump", help="table of the closed-form scalars b_m on a real t-lattice")
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_intertwiner_dump)

    p = sub.add_parser("verify", help="run the named end-to-end checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def _emit_error(kind: str, exc: BaseException) -> None:
    sys.stderr.write(
        json.dumps({"error": kind, "message": str(exc)}) + "\n"
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SchemaError as exc:
        _emit_error("schema", exc)
        return 2
    except (CrownDomainError, GridResolutionError) as exc:
        _emit_error("domain", exc)
        return 3
    except (SingularParameterError, NumericalError, ProviderError,
            OverflowError, FloatingPointError, ZeroDivisionError) as exc:
        _emit_error("numerical", exc)
        return 4
    except CrownHarmonicsError as exc:
        _emit_error("schema", exc)
        return 2
    except OSError as exc:
        _emit_error("io", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
