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
from .reports import ReportError, emit_report, report_parameters

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
    if jobs is not None and jobs < 1:
        raise click.BadParameter(f"must be positive, got {jobs}", param_hint="--jobs")
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


def _int(name: str, metavar: str | None = None, **kwargs: Any) -> click.Argument:
    return click.Argument([name], type=int, metavar=metavar, **kwargs)


def _one(ctx: click.Context, param: click.Parameter, value: int) -> tuple[int]:
    """Wrap one value as the 1-tuple a sequence parameter takes."""
    return (value,)


def _flag(name: str, help: str) -> click.Option:
    return click.Option([name], is_flag=True, help=help)


def _max_k(kind: str, name: str, help: str) -> click.Option:
    default = report_parameters(kind)[name].default  # the emitter's own default
    return click.Option(["--max-k", name], type=int, default=default, show_default=True, help=help)


GROUPS = {
    "goldbach": "Goldbach couples of an even number.",
    "zn": "The ring of integers modulo N and its group of units.",
    "ideals": "Principal ideals, radicals, and the ideal view of the descent.",
    "polignac": "Prime pairs with a fixed even gap, grouped in dyadic blocks.",
    "legendre": "Primes between consecutive squares.",
    "parabolic": "Primes of the form k^2 + 1.",
    "triangle": "Triangular numbers and their square and sum decompositions.",
}

# (group, name, report kind, help, parameters); each parameter is named after
# the keyword of the report's emitter it fills
REPORT_LEAVES = [
    ("goldbach", "canonical", "couple", "Canonical couple produced by the descent.",
     [_int("two_n", "2N"), _flag("--trace", "Show the full descent chain.")]),
    ("goldbach", "enumerate", "couples",
     "Every couple, classified, with the canonical one starred.", [_int("two_n", "2N")]),
    ("goldbach", "quasi", "quasi-couples",
     "Quasi-couples: unit pairs summing to 2N with a composite member.", [_int("two_n", "2N")]),
    ("zn", "profile", "units-profile", "Units, totients, cyclicity, and strong generators.",
     [_int("n")]),
    ("zn", "table", "units-grid", "Multiplication table of the group of units.", [_int("n")]),
    ("zn", "strong", "strong-generators", "Strong generators (the prime units).", [_int("n")]),
    ("zn", "crt", "crt", "Residue of A in each prime-power factor ring of Z_N.",
     [_int("a"), _int("n")]),
    ("ideals", "analyze", "ideal-table",
     "Ideals (2N - a)Z/rZ for the units a, with radicals and containments.",
     [_int("two_n", "2N"), _flag("--include-top", "Let the top unit 2N-1 enter r."),
      _flag("--descent-only", "Only the canonical descent's ideals.")]),
    ("ideals", "radical", "radical", "Radical of the principal ideal mZ.", [_int("m")]),
    ("ideals", "jacobson", "jacobson", "Jacobson radical of Z_N.", [_int("n")]),
    ("ideals", "bezout", "bezout", "Extended gcd certificate aZ + bZ = gcd(a,b)Z.",
     [_int("a"), _int("b")]),
    ("polignac", "pairs", "polignac-pairs", "Pairs (q, p) with p - q = 2N and q <= MAX-Q.",
     [_int("two_n", "2N"),
      click.Option(["--max-q", "q_max"], type=int, required=True, help="Largest smaller member.")]),
    ("polignac", "dyadic", "polignac-table",
     "Pairs with gap 2N bucketed into dyadic blocks m = 1..M.",
     [_int("gaps", "2N", callback=_one),
      click.Option(["--m", "m_max"], type=int, required=True, help="Largest dyadic block.")]),
    ("legendre", "primes", "legendre-table", "All primes in [N^2, (N+1)^2].",
     [_int("ns", "N", callback=_one)]),
    ("parabolic", "list", "ghost-table", "The k^2 + 1 column with parabolic primes marked.",
     [_max_k("ghost-table", "n_max", "Largest k shown.")]),
    ("parabolic", "zeta", "zeta-table",
     "Partial sum of 1/k^2 over parabolic k, bounded by pi^2/6.",
     [_max_k("zeta-table", "k_max", "Largest k in the partial sum.")]),
    ("triangle", "value", "triangle", "The N-th triangular number.", [_int("n")]),
    ("triangle", "square-seq", "square-triangular",
     "First K square triangular numbers via S(k+1) = 4S(8S+1).", [_int("k_max", "K")]),
    ("triangle", "three", "three-triangular", "N as a sum of at most three triangular numbers.",
     [_int("n")]),
    ("triangle", "faulhaber", "faulhaber", "Power sum 1^M + 2^M + ... + N^M in closed form.",
     [_int("m"), _int("n")]),
]

# (group, task, help); every verify leaf takes --from/--to/--checkpoint/--jobs
VERIFY_LEAVES = [
    ("goldbach", Task.GOLDBACH,
     "Certify a couple exists for every even number in [FROM, TO]."),
    ("polignac", Task.PRE_POLIGNAC,
     "Certify the gap certificate for every even number in [FROM, TO]."),
    ("legendre", Task.LEGENDRE,
     "Certify a prime exists in every square interval for N in [FROM, TO]."),
    ("parabolic", Task.PARABOLIC,
     "Certify totient and primality agree on k^2 + 1 for K in [FROM, TO]."),
]


def _verify_params() -> list[click.Parameter]:
    return [
        click.Option(["--from", "lo"], type=int, required=True, help="First instance."),
        click.Option(["--to", "hi"], type=int, required=True, help="Last instance."),
        click.Option(
            ["--checkpoint"],
            type=click.Path(dir_okay=False),
            default=None,
            help="Resumable checkpoint file (relative paths land in the "
            "configured checkpoint directory).",
        ),
        click.Option(
            ["--jobs"], type=int, default=None, help="Worker count [default: from config]."
        ),
    ]


def _report_callback(kind: str):
    return click.pass_context(lambda ctx, **params: _emit(ctx, kind, params))


def _verify_callback(task: Task):
    return click.pass_context(lambda ctx, **opts: _verify(ctx, task, **opts))


for _name, _help in GROUPS.items():
    main.add_command(click.Group(_name, help=_help))
for _group, _name, _kind, _help, _params in REPORT_LEAVES:
    main.commands[_group].add_command(
        click.Command(_name, params=_params, help=_help, callback=_report_callback(_kind))
    )
for _group, _task, _help in VERIFY_LEAVES:
    main.commands[_group].add_command(
        click.Command("verify", params=_verify_params(), help=_help,
                      callback=_verify_callback(_task))
    )


if __name__ == "__main__":
    main()
