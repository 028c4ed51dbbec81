"""Command-line front door: bases, fans, Nash verdicts, reports, figures."""

from __future__ import annotations

import functools
import json
import sys

import click

from .fan import fan_to_json
from .lattice import Cone2, multiplicity
from .nash import a3_ordering, a3_semigroup, jn_basis_at, nash_fan, verify_paper
from .render import fan_figure, pn_dn_figure


def monomial_str(e) -> str:
    x, y = e
    if x == 0 and y == 0:
        return "1"
    parts = []
    if x:
        parts.append("u" if x == 1 else f"u^{x}")
    if y:
        parts.append("v" if y == 1 else f"v^{y}")
    return "".join(parts)


def poly_str(g, mark, ordering) -> str:
    """Render in u,v notation, mark underlined as _mono_, terms descending."""
    pieces = []
    for e in sorted(g.terms, key=ordering.key, reverse=True):
        c = g.terms[e]
        mono = monomial_str(e)
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{mono}"
        if e == mark:
            body = f"_{body}_"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def _write(text: str, out) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        # without file=, click caches the stream it resolves in a
        # WeakKeyDictionary whose value is its key: a CliRunner's capture
        # buffer would then never be freed
        click.echo(text, nl=False, file=sys.stdout)


def engine_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (ValueError, RuntimeError, OSError) as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
    return wrapper


@click.group()
def main():
    """Groebner bases and fans in 2-D affine semigroup rings."""


@main.command()
@click.option("--n", type=int, required=True, help="power index of J_n")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
@engine_errors
def gb(n, fmt, out):
    """Reduced Groebner basis of J_n in the A3 semigroup ring."""
    sg = a3_semigroup()
    basis = jn_basis_at(sg, a3_ordering(sg), n)
    if fmt == "json":
        _write(json.dumps(basis.to_json(), indent=2), out)
    else:
        lines = [poly_str(g, m, basis.ordering) for g, m in basis.elements]
        _write("\n".join(lines), out)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text", "svg"]), default="text")
@click.option("--out", type=click.Path(), default=None)
@engine_errors
def fan(n, fmt, out):
    """Groebner fan of J_n in the A3 semigroup ring."""
    cones = nash_fan(a3_semigroup().support_cone, n)
    if fmt == "json":
        _write(json.dumps(fan_to_json(cones), indent=2), out)
    elif fmt == "svg":
        _write(fan_figure(cones), out)
    else:
        lines = [
            f"cone {gc.cone.ray1} {gc.cone.ray2}  multiplicity {multiplicity(gc.cone)}"
            for gc in cones
        ]
        _write("\n".join(lines), out)


@main.command()
@click.option("--cone", "cone_spec", required=True, help="x1,y1,x2,y2 ray coordinates")
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
@engine_errors
def nash(cone_spec, n, fmt, out):
    """Singularity verdict for the normalized n-th Nash blowup."""
    try:
        x1, y1, x2, y2 = (int(v) for v in cone_spec.split(","))
    except ValueError:
        raise click.UsageError("--cone expects four integers x1,y1,x2,y2")
    support = Cone2((x1, y1), (x2, y2))
    cones = nash_fan(support, n)
    mults = [multiplicity(gc.cone) for gc in cones]
    singular = max(mults) > 1
    if fmt == "json":
        _write(json.dumps({
            "fan": {"support": support.to_json(), "cones": [gc.cone.to_json() for gc in cones]},
            "multiplicities": mults,
            "is_singular": singular,
        }, indent=2), out)
    else:
        verdict = (
            f"SINGULAR (max multiplicity {max(mults)})" if singular
            else "REGULAR (all multiplicities 1)"
        )
        _write(verdict, out)


@main.command()
@click.option("--n-max", type=int, default=8)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
@engine_errors
def verify(n_max, fmt, out):
    """Recheck every per-n paper fact; exit 1 if any claim fails."""
    report = verify_paper(n_max)
    if fmt == "json":
        _write(json.dumps(report, indent=2), out)
    else:
        lines = [
            f"n={c['n']} claim {c['claim_id']}: {'PASS' if c['pass'] else 'FAIL'}"
            + (f"  ({c['witness']})" if c["witness"] else "")
            for c in report["claims"]
        ]
        lines.append("ALL PASS" if report["all_passed"] else "FAILURES PRESENT")
        _write("\n".join(lines), out)
    if not report["all_passed"]:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
@engine_errors
def figures(n, out):
    """SVG lattice diagram of the P_n and D_n families."""
    _write(pn_dn_figure(n), out)


if __name__ == "__main__":
    main()
