"""Command-line front end: renders reports and runs range certificates.

Exit codes: 0 success, 1 counterexample found by a verify run, 2 usage error.
A counterexample is additionally printed as a single JSON object on stderr.
"""

from __future__ import annotations

import json
import os
from typing import Any

import click

from .config import Config, ConfigError, load_config
from .harness import Task, verify_range
from .reports import ReportError, emit_report

CONVENTIONS = click.Choice(["include1", "exclude1"])
FORMATS = click.Choice(["json", "csv", "md"])


@click.group()
@click.option(
    "--convention",
    type=CONVENTIONS,
    default=None,
    help="Whether 1 counts as prime (default from config/environment).",
)
@click.option(
    "--format",
    "fmt",
    type=FORMATS,
    default=None,
    envvar="LANDAU_FORMAT",
    help="Output format [default: md].",
)
@click.option(
    "--config",
    "config_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="JSON config file (also via LANDAU_CONFIG).",
)
@click.pass_context
def main(ctx: click.Context, convention: str | None, fmt: str | None, config_path: str | None) -> None:
    """Number-theory certificates: Goldbach couples, prime gaps, square
    intervals, and parabolic primes, with the ring-of-units machinery that
    drives them."""
    overrides: dict[str, Any] = {}
    if convention is not None:
        overrides["convention"] = convention
    try:
        cfg = load_config(path=config_path, overrides=overrides)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    ctx.obj = {"config": cfg, "format": fmt or "md"}


def _emit(ctx: click.Context, kind: str, params: dict[str, Any]) -> None:
    try:
        data = emit_report(kind, params, ctx.obj["format"], ctx.obj["config"])
    except (ReportError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(data, nl=False)


def _verify(
    ctx: click.Context,
    task: Task,
    lo: int,
    hi: int,
    checkpoint: str | None = None,
    jobs: int | None = None,
) -> None:
    cfg: Config = ctx.obj["config"]
    path = None
    if checkpoint is not None:
        path = (
            checkpoint
            if os.path.isabs(checkpoint)
            else os.path.join(cfg.checkpoint_dir, checkpoint)
        )
    try:
        summary = verify_range(
            task,
            lo,
            hi,
            cfg.convention,
            checkpoint_path=path,
            worker_count=jobs if jobs is not None else cfg.workers,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    data = emit_report(
        "verify-summary", {"summary": summary}, ctx.obj["format"], cfg
    )
    click.echo(data, nl=False)
    if summary.counterexamples:
        click.echo(
            json.dumps(summary.counterexamples[0], sort_keys=True), err=True
        )
        ctx.exit(1)


def _verify_options():
    def wrap(f):
        f = click.option(
            "--jobs",
            type=int,
            default=None,
            help="Worker count [default: from config].",
        )(f)
        f = click.option(
            "--checkpoint",
            type=click.Path(dir_okay=False),
            default=None,
            help="Resumable checkpoint file (relative paths land in the "
            "configured checkpoint directory).",
        )(f)
        f = click.option("--to", "hi", type=int, required=True, help="Last instance.")(f)
        f = click.option("--from", "lo", type=int, required=True, help="First instance.")(f)
        return f

    return wrap


# ---------------------------------------------------------------- goldbach

@main.group()
def goldbach() -> None:
    """Goldbach couples of an even number."""


@goldbach.command("canonical")
@click.argument("two_n", metavar="2N", type=int)
@click.option("--trace", is_flag=True, help="Show the full descent chain.")
@click.pass_context
def goldbach_canonical(ctx: click.Context, two_n: int, trace: bool) -> None:
    """Canonical couple produced by the descent."""
    _emit(ctx, "couple", {"two_n": two_n, "trace": trace})


@goldbach.command("enumerate")
@click.argument("two_n", metavar="2N", type=int)
@click.pass_context
def goldbach_enumerate(ctx: click.Context, two_n: int) -> None:
    """Every couple, classified, with the canonical one starred."""
    _emit(ctx, "couples", {"two_n": two_n})


@goldbach.command("quasi")
@click.argument("two_n", metavar="2N", type=int)
@click.pass_context
def goldbach_quasi(ctx: click.Context, two_n: int) -> None:
    """Quasi-couples: unit pairs summing to 2N with a composite member."""
    _emit(ctx, "quasi-couples", {"two_n": two_n})


@goldbach.command("verify")
@_verify_options()
@click.pass_context
def goldbach_verify(ctx, lo, hi, checkpoint, jobs) -> None:
    """Certify a couple exists for every even number in [FROM, TO]."""
    _verify(ctx, Task.GOLDBACH, lo, hi, checkpoint, jobs)


# ---------------------------------------------------------------------- zn

@main.group()
def zn() -> None:
    """The ring of integers modulo N and its group of units."""


@zn.command("profile")
@click.argument("n", type=int)
@click.pass_context
def zn_profile(ctx: click.Context, n: int) -> None:
    """Units, totients, cyclicity, and strong generators."""
    _emit(ctx, "units-profile", {"n": n})


@zn.command("table")
@click.argument("n", type=int)
@click.pass_context
def zn_table(ctx: click.Context, n: int) -> None:
    """Multiplication table of the group of units."""
    _emit(ctx, "units-grid", {"n": n})


@zn.command("strong")
@click.argument("n", type=int)
@click.pass_context
def zn_strong(ctx: click.Context, n: int) -> None:
    """Strong generators (the prime units)."""
    _emit(ctx, "strong-generators", {"n": n})


@zn.command("crt")
@click.argument("a", type=int)
@click.argument("n", type=int)
@click.pass_context
def zn_crt(ctx: click.Context, a: int, n: int) -> None:
    """Residue of A in each prime-power factor ring of Z_N."""
    _emit(ctx, "crt", {"a": a, "n": n})


# ------------------------------------------------------------------ ideals

@main.group()
def ideals() -> None:
    """Principal ideals, radicals, and the ideal view of the descent."""


@ideals.command("analyze")
@click.argument("two_n", metavar="2N", type=int)
@click.option("--include-top", is_flag=True, help="Let the top unit 2N-1 enter r.")
@click.option("--descent-only", is_flag=True, help="Only the canonical descent's ideals.")
@click.pass_context
def ideals_analyze(ctx, two_n, include_top, descent_only) -> None:
    """Ideals (2N - a)Z/rZ for the units a, with radicals and containments."""
    _emit(
        ctx,
        "ideal-table",
        {"two_n": two_n, "include_top": include_top, "descent_only": descent_only},
    )


@ideals.command("radical")
@click.argument("m", type=int)
@click.pass_context
def ideals_radical(ctx: click.Context, m: int) -> None:
    """Radical of the principal ideal mZ."""
    _emit(ctx, "radical", {"m": m})


@ideals.command("jacobson")
@click.argument("n", type=int)
@click.pass_context
def ideals_jacobson(ctx: click.Context, n: int) -> None:
    """Jacobson radical of Z_N."""
    _emit(ctx, "jacobson", {"n": n})


@ideals.command("bezout")
@click.argument("a", type=int)
@click.argument("b", type=int)
@click.pass_context
def ideals_bezout(ctx: click.Context, a: int, b: int) -> None:
    """Extended gcd certificate aZ + bZ = gcd(a,b)Z."""
    _emit(ctx, "bezout", {"a": a, "b": b})


# ---------------------------------------------------------------- polignac

@main.group()
def polignac() -> None:
    """Prime pairs with a fixed even gap, grouped in dyadic blocks."""


@polignac.command("pairs")
@click.argument("two_n", metavar="2N", type=int)
@click.option("--max-q", "q_max", type=int, required=True, help="Largest smaller member.")
@click.pass_context
def polignac_pairs_cmd(ctx, two_n, q_max) -> None:
    """Pairs (q, p) with p - q = 2N and q <= MAX-Q."""
    _emit(ctx, "polignac-pairs", {"two_n": two_n, "q_max": q_max})


@polignac.command("dyadic")
@click.argument("two_n", metavar="2N", type=int)
@click.option("--m", "m_max", type=int, required=True, help="Largest dyadic block.")
@click.pass_context
def polignac_dyadic(ctx, two_n, m_max) -> None:
    """Pairs with gap 2N bucketed into dyadic blocks m = 1..M."""
    _emit(ctx, "polignac-table", {"gaps": (two_n,), "m_max": m_max})


@polignac.command("verify")
@_verify_options()
@click.pass_context
def polignac_verify(ctx, lo, hi, checkpoint, jobs) -> None:
    """Certify the gap certificate for every even number in [FROM, TO]."""
    _verify(ctx, Task.PRE_POLIGNAC, lo, hi, checkpoint, jobs)


# ---------------------------------------------------------------- legendre

@main.group()
def legendre() -> None:
    """Primes between consecutive squares."""


@legendre.command("primes")
@click.argument("n", type=int)
@click.pass_context
def legendre_primes_cmd(ctx: click.Context, n: int) -> None:
    """All primes in [N^2, (N+1)^2]."""
    _emit(ctx, "legendre-table", {"ns": (n,)})


@legendre.command("verify")
@_verify_options()
@click.pass_context
def legendre_verify(ctx, lo, hi, checkpoint, jobs) -> None:
    """Certify a prime exists in every square interval for N in [FROM, TO]."""
    _verify(ctx, Task.LEGENDRE, lo, hi, checkpoint, jobs)


# --------------------------------------------------------------- parabolic

@main.group()
def parabolic() -> None:
    """Primes of the form k^2 + 1."""


@parabolic.command("list")
@click.option(
    "--max-k",
    "k_max",
    type=int,
    default=60,
    show_default=True,
    help="Largest k shown.",
)
@click.pass_context
def parabolic_list(ctx: click.Context, k_max: int) -> None:
    """The k^2 + 1 column with parabolic primes marked."""
    _emit(ctx, "ghost-table", {"n_max": k_max})


@parabolic.command("zeta")
@click.option(
    "--max-k",
    "k_max",
    type=int,
    default=10,
    show_default=True,
    help="Largest k in the partial sum.",
)
@click.pass_context
def parabolic_zeta(ctx: click.Context, k_max: int) -> None:
    """Partial sum of 1/k^2 over parabolic k, bounded by pi^2/6."""
    _emit(ctx, "zeta-table", {"k_max": k_max})


@parabolic.command("verify")
@_verify_options()
@click.pass_context
def parabolic_verify(ctx, lo, hi, checkpoint, jobs) -> None:
    """Certify totient and primality agree on k^2 + 1 for K in [FROM, TO]."""
    _verify(ctx, Task.PARABOLIC, lo, hi, checkpoint, jobs)


# ---------------------------------------------------------------- triangle

@main.group()
def triangle() -> None:
    """Triangular numbers and their square and sum decompositions."""


@triangle.command("value")
@click.argument("n", type=int)
@click.pass_context
def triangle_value(ctx: click.Context, n: int) -> None:
    """The N-th triangular number."""
    _emit(ctx, "triangle", {"n": n})


@triangle.command("square-seq")
@click.argument("k", type=int)
@click.pass_context
def triangle_square_seq(ctx: click.Context, k: int) -> None:
    """First K square triangular numbers via S(k+1) = 4S(8S+1)."""
    _emit(ctx, "square-triangular", {"k_max": k})


@triangle.command("three")
@click.argument("n", type=int)
@click.pass_context
def triangle_three(ctx: click.Context, n: int) -> None:
    """N as a sum of at most three triangular numbers."""
    _emit(ctx, "three-triangular", {"n": n})


@triangle.command("faulhaber")
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.pass_context
def triangle_faulhaber(ctx: click.Context, m: int, n: int) -> None:
    """Power sum 1^M + 2^M + ... + N^M in closed form."""
    _emit(ctx, "faulhaber", {"m": m, "n": n})


if __name__ == "__main__":
    main()
