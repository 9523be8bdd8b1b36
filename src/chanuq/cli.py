"""Command-line front end.

Subcommands: ``compute`` (bounds for user-supplied JSON objects),
``sweep`` (example grid sweep to CSV), ``verify`` (randomized bound
verification), ``example`` (numeric vs closed-form values at one point).

Exit codes: 0 ok, 1 I/O error (a file that cannot be read or written,
such as ``sweep --out`` into a missing directory), 2 parse/usage,
3 validation, 4 dimension mismatch, 5 verification failure. All floats
are printed with 17 significant digits so output is byte-deterministic
and round-trips exactly.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict

import click
import numpy as np

from .bounds import bound_report
from .ensembles import EnsembleConfig, verify_suite
from .errors import (BoundViolationError, ChanuqError, DimensionMismatchError,
                     NumericError, SchemaError, ValidationError)
from .examples import (CLOSED_FORM_THETA, EXAMPLE_IDS, channel_E, channel_F,
                       closed_forms, example_state)
from .measures import channel_measures
from .objects import channel_from_json, state_from_json

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIMENSION = 4
EXIT_VERIFICATION = 5


def _fmt(x: float) -> str:
    # adding 0.0 folds IEEE negative zero into plain zero
    return format(float(x) + 0.0, ".17g")


def _dumps(obj, indent: int = 0) -> str:
    """JSON serialization with 17-significant-digit floats and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_dumps(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(obj)


def _echo_json(obj) -> None:
    click.echo(_dumps(obj))


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SchemaError, json.JSONDecodeError) as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except IndexError as exc:
            click.echo(f"parameter error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except ValidationError as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except DimensionMismatchError as exc:
            click.echo(f"dimension error: {exc}", err=True)
            sys.exit(EXIT_DIMENSION)
        except (BoundViolationError, NumericError) as exc:
            click.echo(f"verification failure: {exc}", err=True)
            sys.exit(EXIT_VERIFICATION)
        except ChanuqError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from None
        except RecursionError:
            raise SchemaError(f"{path}: nested deeper than the JSON parser allows") from None


def _unit_interval(ctx, param, value):
    if value is not None and not 0.0 <= value <= 1.0:
        raise click.BadParameter("must lie in [0, 1]")
    return value


@click.group()
def cli():
    """Uncertainty measures and lower bounds for quantum channels."""


@cli.command()
@click.option("--state", required=True, type=click.Path(exists=True, dir_okay=False),
              help="JSON file holding the density matrix.")
@click.option("--channel-a", required=True, type=click.Path(exists=True, dir_okay=False),
              help="JSON file holding the first channel's Kraus operators.")
@click.option("--channel-b", required=True, type=click.Path(exists=True, dir_okay=False),
              help="JSON file holding the second channel's Kraus operators.")
@click.option("--basis-index", default=0, show_default=True, type=int,
              help="Basis vector used by the fine-grained bound.")
@_handle_errors
def compute(state, channel_a, channel_b, basis_index):
    """Evaluate all bounds for a (state, channel, channel) triple."""
    rho = state_from_json(_load_json(state))
    phi = channel_from_json(_load_json(channel_a))
    psi = channel_from_json(_load_json(channel_b))
    report = bound_report(rho, phi, psi, basis_index=basis_index)
    _echo_json(report.to_dict())


SWEEP_COLUMNS = ("p", "q", "u_phi", "u_psi", "product_u", "sum_u2",
                 "thm1", "thm2", "thm3", "lb_eq13", "lb1_eq14", "thm4",
                 "closed_thm3", "closed_lb", "closed_lb1", "closed_lb2")

#: each bound with its closed-form field, in the order of the closed_* columns
CLOSED_FORM_OF = {"thm3": "thm3_closed", "lb_eq13": "lb_closed",
                  "lb1_eq14": "lb1_closed", "thm4": "lb2_closed"}


def _grid_points(example_id: str, theta: float, ps, qs, basis_index: int):
    """Evaluate the example family at every (p, q) of ``ps`` x ``qs``, p-major.

    Yields ``(p, q, m_phi, m_psi, report, closed)``, where ``closed`` holds the
    closed-form values, or None unless theta is the family's canonical value.
    The state and each channel's measures are built once.
    """
    rho = example_state(example_id, theta)
    with_closed = theta == CLOSED_FORM_THETA[example_id]
    channels_f = [channel_F(float(q)) for q in qs]
    measures_f = [channel_measures(rho, psi) for psi in channels_f]
    for p in ps:
        phi = channel_E(float(p))
        m_phi = channel_measures(rho, phi)
        for q, psi, m_psi in zip(qs, channels_f, measures_f):
            report = bound_report(rho, phi, psi, basis_index=basis_index,
                                  measures=(m_phi, m_psi))
            closed = closed_forms(example_id, float(p), float(q)) if with_closed else None
            yield p, q, m_phi, m_psi, report, closed


@cli.command()
@click.option("--example", "example_id", required=True,
              type=click.Choice(EXAMPLE_IDS), help="Built-in example family.")
@click.option("--theta", required=True, type=float, callback=_unit_interval,
              help="State parameter in [0, 1].")
@click.option("--grid-steps", default=21, show_default=True, type=click.IntRange(min=2),
              help="Number of grid points per axis (>= 2).")
@click.option("--basis-index", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True),
              help="Output CSV path.")
@_handle_errors
def sweep(example_id, theta, grid_steps, basis_index, out):
    """Sweep the (p, q) grid of a built-in example and write a CSV.

    The closed_* columns are filled only when theta equals the canonical
    value of the example's closed-form surfaces (1 for werner, 0 for
    rho_theta); otherwise they are left empty.
    """
    grid = np.linspace(0.0, 1.0, grid_steps)
    lines = [",".join(SWEEP_COLUMNS)]
    for p, q, m_phi, m_psi, report, closed in _grid_points(example_id, theta, grid, grid,
                                                           basis_index):
        row = [_fmt(x) for x in (p, q, m_phi.u_abs, m_psi.u_abs, report.lhs_product_u,
                                 report.lhs_sum_u2, report.thm1, report.thm2, report.thm3,
                                 report.lb_eq13, report.lb1_eq14, report.thm4)]
        row += ["" if closed is None else _fmt(getattr(closed, name))
                for name in CLOSED_FORM_OF.values()]
        lines.append(",".join(row))
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    click.echo(f"wrote {len(lines) - 1} rows to {out}")


@cli.command()
@click.option("--dim", "dims", multiple=True, type=click.IntRange(2, 8),
              default=(2, 3, 4), show_default=True,
              help="Hilbert-space dimension; repeat to sweep several.")
@click.option("--kraus", "kraus_counts", multiple=True, type=click.IntRange(min=1),
              default=(1, 2, 3), show_default=True,
              help="Kraus-operator count; repeat to sweep several.")
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1),
              help="Trials per (dim, kraus) combination.")
@click.option("--seed", default=2024, show_default=True, type=int)
@click.option("--self-test", is_flag=True,
              help="Inflate one bound tenfold to confirm violations are detected.")
@_handle_errors
def verify(dims, kraus_counts, trials, seed, self_test):
    """Run the randomized bound-verification suite; nonzero exit on violation."""
    configs = [EnsembleConfig(dim=d, kraus_count=k, rank=d, seed=seed, trials=trials)
               for d in dims for k in kraus_counts]
    report = verify_suite(*configs, broken_bound="thm1_bound" if self_test else None)
    _echo_json(report.to_dict())
    if report.violations:
        sys.exit(EXIT_VERIFICATION)


@cli.command()
@click.option("--example", "example_id", required=True, type=click.Choice(EXAMPLE_IDS))
@click.option("--theta", required=True, type=float, callback=_unit_interval)
@click.option("--p", "p", required=True, type=float, callback=_unit_interval)
@click.option("--q", "q", required=True, type=float, callback=_unit_interval)
@click.option("--basis-index", default=0, show_default=True, type=int)
@_handle_errors
def example(example_id, theta, p, q, basis_index):
    """Numeric bounds and closed-form values, side by side, at one point.

    The closed-form block (and the difference block) is null unless theta
    equals the canonical value of the example's closed-form surfaces.
    """
    _, _, m_phi, m_psi, report, closed = next(
        _grid_points(example_id, theta, [p], [q], basis_index))
    doc = {
        "example": example_id,
        "theta": theta,
        "p": p,
        "q": q,
        "basis_index": basis_index,
        "u_phi": m_phi.u_abs,
        "u_psi": m_psi.u_abs,
        "measures_phi": asdict(m_phi),
        "measures_psi": asdict(m_psi),
        "report": report.to_dict(),
        "closed": None if closed is None else asdict(closed),
        "abs_diff": None if closed is None else {
            bound: abs(getattr(report, bound) - getattr(closed, name))
            for bound, name in CLOSED_FORM_OF.items()},
    }
    _echo_json(doc)


def main():
    cli()


if __name__ == "__main__":
    main()
