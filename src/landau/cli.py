"""Command-line front end: renders reports and runs range certificates.

Exit codes: 0 success, 1 counterexample found by a verify run, 2 usage error.
A counterexample is additionally printed as a single JSON object on stderr.

The command tables below are the whole interface: `main` parses a command
line from them, and renders every help page and usage error from them in
click's layout and wording.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, NoReturn, Sequence

from .config import Config, ConfigError, load_config
from .reports import emit_report, report_parameters


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


def _one_integer(text: str) -> tuple[int]:
    """One integer, as the 1-tuple a sequence parameter takes."""
    return (_integer(text),)


def _file(text: str) -> str:
    """A path that need not exist yet; an existing one must be a readable file."""
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    if os.path.exists(text) and not os.access(text, os.R_OK):
        raise ValueError(f"File {text!r} is not readable.")
    return text


@dataclass(frozen=True)
class Param:
    """One positional argument (no `opt`) or option of a command; `name` is
    the keyword its value fills."""

    name: str
    opt: str | None = None
    help: str = ""
    metavar: str = "INTEGER"  # an argument's name in usage lines, an option's value in help
    convert: Callable[[str], Any] | None = _integer  # None for a flag
    required: bool = False
    fallback: Any = None  # the value when omitted, or a function of no arguments giving it
    show_default: bool = False

    @cached_property
    def default(self) -> Any:
        """The value when omitted, asked of `fallback` only when first needed."""
        return self.fallback() if callable(self.fallback) else self.fallback


@dataclass(frozen=True)
class Command:
    """A group (with `commands`) or a leaf (with `run`, called as
    run(config, format, values) and returning the exit code)."""

    help: str
    params: list[Param] = field(default_factory=list)
    commands: dict[str, Command] = field(default_factory=dict)
    run: Callable[[Config, str, dict[str, Any]], int] | None = None


class UsageError(Exception):
    """A bad command line; exits 2.  `where` is the (command, path) whose
    usage heads the message; without it only the error line is printed, as
    click does for an option given a value it cannot take."""

    def __init__(self, message: str, where: tuple[Command, str] | None = None) -> None:
        super().__init__(message)
        self.where = where


HELP = Param("help", "--help", "Show this message and exit.", convert=None)


def _choice(name: str, opt: str, help: str, choices: tuple[str, ...], **kwargs: Any) -> Param:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    return Param(name, opt, help, f"[{'|'.join(choices)}]", convert, **kwargs)


def _arg(name: str, metavar: str | None = None, convert: Callable[[str], Any] = _integer) -> Param:
    return Param(name, metavar=metavar or name.upper(), convert=convert, required=True)


def _flag(opt: str, help: str) -> Param:
    return Param(opt[2:].replace("-", "_"), opt, help, convert=None, fallback=False)


def _max_k(kind: str, name: str, help: str) -> Param:
    # the emitter's own default, read when help shows it or the option is
    # omitted, so that a start runs no report module
    return Param(name, "--max-k", help, fallback=lambda: report_parameters(kind)[name].default,
                 show_default=True)


ROOT_HELP = (
    "Number-theory certificates: Goldbach couples, prime gaps, square intervals, and "
    "parabolic primes, with the ring-of-units machinery that drives them."
)
ROOT_PARAMS = [
    _choice("convention", "--convention",
            "Whether 1 counts as prime (default from config/environment).",
            ("include1", "exclude1")),
    _choice("fmt", "--format", "Output format [default: md].", ("json", "csv", "md")),
    Param("config_path", "--config", "JSON config file (also via LANDAU_CONFIG).", "FILE", _file),
]

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
     [_arg("two_n", "2N"), _flag("--trace", "Show the full descent chain.")]),
    ("goldbach", "enumerate", "couples",
     "Every couple, classified, with the canonical one starred.", [_arg("two_n", "2N")]),
    ("goldbach", "quasi", "quasi-couples",
     "Quasi-couples: unit pairs summing to 2N with a composite member.", [_arg("two_n", "2N")]),
    ("zn", "profile", "units-profile", "Units, totients, cyclicity, and strong generators.",
     [_arg("n")]),
    ("zn", "table", "units-grid", "Multiplication table of the group of units.", [_arg("n")]),
    ("zn", "strong", "strong-generators", "Strong generators (the prime units).", [_arg("n")]),
    ("zn", "crt", "crt", "Residue of A in each prime-power factor ring of Z_N.",
     [_arg("a"), _arg("n")]),
    ("ideals", "analyze", "ideal-table",
     "Ideals (2N - a)Z/rZ for the units a, with radicals and containments.",
     [_arg("two_n", "2N"), _flag("--include-top", "Let the top unit 2N-1 enter r."),
      _flag("--descent-only", "Only the canonical descent's ideals.")]),
    ("ideals", "radical", "radical", "Radical of the principal ideal mZ.", [_arg("m")]),
    ("ideals", "jacobson", "jacobson", "Jacobson radical of Z_N.", [_arg("n")]),
    ("ideals", "bezout", "bezout", "Extended gcd certificate aZ + bZ = gcd(a,b)Z.",
     [_arg("a"), _arg("b")]),
    ("polignac", "pairs", "polignac-pairs", "Pairs (q, p) with p - q = 2N and q <= MAX-Q.",
     [_arg("two_n", "2N"), Param("q_max", "--max-q", "Largest smaller member.", required=True)]),
    ("polignac", "dyadic", "polignac-table",
     "Pairs with gap 2N bucketed into dyadic blocks m = 1..M.",
     [_arg("gaps", "2N", _one_integer),
      Param("m_max", "--m", "Largest dyadic block.", required=True)]),
    ("legendre", "primes", "legendre-table", "All primes in [N^2, (N+1)^2].",
     [_arg("ns", "N", _one_integer)]),
    ("parabolic", "list", "ghost-table", "The k^2 + 1 column with parabolic primes marked.",
     [_max_k("ghost-table", "n_max", "Largest k shown.")]),
    ("parabolic", "zeta", "zeta-table",
     "Partial sum of 1/k^2 over parabolic k, bounded by pi^2/6.",
     [_max_k("zeta-table", "k_max", "Largest k in the partial sum.")]),
    ("triangle", "value", "triangle", "The N-th triangular number.", [_arg("n")]),
    ("triangle", "square-seq", "square-triangular",
     "First K square triangular numbers via S(k+1) = 4S(8S+1).", [_arg("k_max", "K")]),
    ("triangle", "three", "three-triangular", "N as a sum of at most three triangular numbers.",
     [_arg("n")]),
    ("triangle", "faulhaber", "faulhaber", "Power sum 1^M + 2^M + ... + N^M in closed form.",
     [_arg("m"), _arg("n")]),
]

# (group, task, help), the task named by its harness.Task value; every verify
# leaf takes --from/--to/--checkpoint/--jobs
VERIFY_LEAVES = [
    ("goldbach", "goldbach",
     "Certify a couple exists for every even number in [FROM, TO]."),
    ("polignac", "pre-polignac",
     "Certify the gap certificate for every even number in [FROM, TO]."),
    ("legendre", "legendre",
     "Certify a prime exists in every square interval for N in [FROM, TO]."),
    ("parabolic", "parabolic",
     "Certify totient and primality agree on k^2 + 1 for K in [FROM, TO]."),
]

VERIFY_PARAMS = [
    Param("lo", "--from", "First instance.", required=True),
    Param("hi", "--to", "Last instance.", required=True),
    Param("checkpoint", "--checkpoint", "Resumable checkpoint file (relative paths land in "
          "the configured checkpoint directory).", "FILE", str),
    Param("jobs", "--jobs", "Worker count [default: from config].", convert=_positive),
]


def _write(data: bytes) -> None:
    sys.stdout.flush()
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _emit(kind: str, cfg: Config, fmt: str, params: dict[str, Any]) -> int:
    try:
        data = emit_report(kind, params, fmt, cfg)
    except ValueError as exc:  # ReportError is one
        raise UsageError(str(exc)) from exc
    _write(data)
    return 0


def _verify(task: str, cfg: Config, fmt: str, params: dict[str, Any]) -> int:
    from . import harness  # loaded on the first verify, not at start

    checkpoint = params["checkpoint"]
    # an absolute checkpoint is used as given: join returns it unchanged
    path = None if checkpoint is None else os.path.join(cfg.checkpoint_dir, checkpoint)
    try:
        summary = harness.verify_range(
            harness.Task(task),
            params["lo"],
            params["hi"],
            cfg.convention,
            checkpoint_path=path,
            worker_count=cfg.workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        # the checkpoint or its lock cannot be opened or written; exit 1 is
        # for a counterexample
        if path is None:
            raise
        raise UsageError(f"checkpoint {path}: {exc.strerror or exc}") from exc
    _write(emit_report("verify-summary", {"summary": summary}, fmt, cfg))
    if summary.counterexamples:
        import json

        print(json.dumps(summary.counterexamples[0], sort_keys=True), file=sys.stderr)
        return 1
    return 0


ROOT = Command(ROOT_HELP, ROOT_PARAMS, {name: Command(help) for name, help in GROUPS.items()})
for _group, _name, _kind, _help, _params in REPORT_LEAVES:
    ROOT.commands[_group].commands[_name] = Command(_help, _params, run=partial(_emit, _kind))
for _group, _task, _help in VERIFY_LEAVES:
    ROOT.commands[_group].commands["verify"] = Command(_help, VERIFY_PARAMS, run=partial(_verify, _task))


# --- help pages and usage lines, laid out as click lays them out -------------


def _columns() -> int:
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _wrap(text: str, width: int, indent: str = "", subsequent: str | None = None) -> str:
    import textwrap

    return textwrap.fill(
        text, width, initial_indent=indent,
        subsequent_indent=indent if subsequent is None else subsequent, replace_whitespace=False,
    )


def _usage(cmd: Command, path: str, width: int) -> str:
    pieces = ["[OPTIONS]"] + [p.metavar for p in cmd.params if p.opt is None]
    if cmd.commands:
        pieces.append("COMMAND [ARGS]...")
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        return _wrap(" ".join(pieces), width, prefix, " " * len(prefix))
    # too long a prefix: the pieces go on the lines below it
    return prefix + "\n" + _wrap(" ".join(pieces), width, " " * 11)


def _short_help(text: str, limit: int) -> str:
    """The first sentence of text, or its words up to limit characters with
    '...' appended when they run past it."""
    import textwrap

    words = text.split()
    end = next((i + 1 for i, word in enumerate(words) if word.endswith(".")), len(words))
    return textwrap.shorten(" ".join(words[:end]), limit, placeholder="...",
                            break_on_hyphens=False)


def _definitions(rows: list[tuple[str, str]], width: int) -> str:
    """Terms and their wrapped texts in two columns, indented by two."""
    first = min(max(len(term) for term, _ in rows), 30) + 2
    lines = []
    for term, text in rows:
        wrapped = _wrap(text, max(width - first - 2, 10)).splitlines()
        if len(term) <= first - 2:
            lines.append(f"  {term:<{first}}{wrapped[0]}")
        else:
            lines += [f"  {term}", " " * (first + 2) + wrapped[0]]
        lines += [" " * (first + 2) + line for line in wrapped[1:]]
    return "\n".join(lines)


def _help(cmd: Command, path: str, width: int) -> str:
    options = []
    for p in [*cmd.params, HELP]:
        if p.opt is None:
            continue
        term = p.opt if p.convert is None else f"{p.opt} {p.metavar}"
        extra = [f"default: {p.default}"] * p.show_default + ["required"] * p.required
        options.append((term, f"{p.help}  [{'; '.join(extra)}]" if extra else p.help))
    page = [_usage(cmd, path, width), "", _wrap(cmd.help, width, "  "), "", "Options:",
            _definitions(options, width)]
    if cmd.commands:
        limit = width - 6 - max(map(len, cmd.commands))
        rows = [(name, _short_help(sub.help, limit)) for name, sub in sorted(cmd.commands.items())]
        page += ["", "Commands:", _definitions(rows, width)]
    return "\n".join(page)


# --- parsing -----------------------------------------------------------------


def _no_such(kind: str, name: str, known: Sequence[str]) -> str:
    from difflib import get_close_matches

    close = sorted(get_close_matches(name, known))
    message = f"No such {kind} {name!r}."
    if len(close) == 1:
        return f"{message} Did you mean {close[0]!r}?"
    if close:
        return f"{message} (Did you mean one of: {', '.join(map(repr, close))}?)"
    return message


def _parse(cmd: Command, path: str, args: list[str]) -> tuple[dict[str, Any], list[str]]:
    """The values of cmd's params, by name, from the front of args, and the
    args left for a group's subcommand.

    Options may stand anywhere among a leaf's arguments, but only before a
    group's subcommand; `--` ends them.  --help prints the help page and
    exits 0.  As in click, the values are then checked in this order: the
    options given, in the order first given, the arguments, then the
    options not given."""
    where = (cmd, path)
    options = {p.opt: p for p in [*cmd.params, HELP] if p.opt}
    raw: dict[str, Any] = {}  # each option's last text (True for a flag)
    words: list[str] = []
    rest = list(args)
    while rest:
        arg = rest.pop(0)
        if arg == "--":
            break
        # no option is numeric, so -<digits> is a negative number
        if arg[:1] != "-" or arg == "-" or arg[1:].isdecimal():
            if cmd.commands:
                rest.insert(0, arg)
                break
            words.append(arg)
            continue
        opt, eq, value = arg.partition("=")
        p = options.get(opt)
        if p is None:
            if arg[:2] != "--":
                raise UsageError(f"No such option {arg[:2]!r}.", where)
            raise UsageError(_no_such("option", opt, list(options)), where)
        if p.convert is None:
            if eq:
                raise UsageError(f"Option {opt!r} does not take a value.")
            raw[p.name] = True
        elif eq:
            raw[p.name] = value
        elif rest:
            raw[p.name] = rest.pop(0)
        else:
            raise UsageError(f"Option {opt!r} requires an argument.")
    if raw.pop(HELP.name, False):
        print(_help(cmd, path, _columns()))
        sys.exit(0)
    if not cmd.commands:
        words += rest
        rest = []
    rank = {name: i for i, name in enumerate(raw)}
    arguments = [p for p in cmd.params if p.opt is None]
    raw.update(zip((p.name for p in arguments), words))
    values = {}
    for p in sorted(cmd.params, key=lambda p: rank.get(p.name, len(rank) + (p.opt is not None))):
        text = raw.get(p.name)
        hint = p.opt or p.metavar
        if text is None:
            if p.required:
                raise UsageError(f"Missing {'option' if p.opt else 'argument'} '{hint}'.", where)
            values[p.name] = p.default
        elif p.convert is None:
            values[p.name] = True
        else:
            try:
                values[p.name] = p.convert(text)
            except ValueError as exc:
                raise UsageError(f"Invalid value for '{hint}': {exc}", where) from None
    extra = words[len(arguments):]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})", where)
    return values, rest


def _run(args: list[str], prog: str) -> int:
    """Walk args down the command tree, then run the leaf they name with the
    settings of the root's options and the leaf's --jobs."""
    cmd, path = ROOT, prog
    given: dict[str, Any] = {}  # the groups' values: only the root has options
    while cmd.run is None:
        if not args:  # a bare group: its help, as an error
            print(_help(cmd, path, _columns()), file=sys.stderr)
            return 2
        values, args = _parse(cmd, path, args)
        given.update(values)
        if not args:
            raise UsageError("Missing command.", (cmd, path))
        name = args.pop(0)
        if name not in cmd.commands:
            raise UsageError(_no_such("command", name, list(cmd.commands)), (cmd, path))
        cmd, path = cmd.commands[name], f"{path} {name}"
    values, _ = _parse(cmd, path, args)
    fmt = given["fmt"]
    if fmt is None and os.environ.get("LANDAU_FORMAT"):
        # checked as the root's --format, once the leaf's --help has had its turn
        fmt = _parse(ROOT, prog, ["--format", os.environ["LANDAU_FORMAT"]])[0]["fmt"]
    overrides = {"convention": given["convention"], "workers": values.pop("jobs", None)}
    try:
        cfg = load_config(path=given["config_path"], overrides=overrides)
    except ConfigError as exc:
        raise UsageError(str(exc), (ROOT, prog)) from exc
    try:
        return cmd.run(cfg, fmt or "md", values)
    except UsageError as exc:
        exc.where = cmd, path
        raise


def main(args: Sequence[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run one command line (default: sys.argv[1:]) and raise SystemExit
    with its exit code, as click's standalone mode does.  Help wraps at the
    terminal's columns less 2, from 50 to 78 (COLUMNS, when set, gives the
    columns; 80 when neither it nor a terminal does)."""
    prog = prog_name or os.path.basename(sys.argv[0])
    try:
        code = _run(list(sys.argv[1:] if args is None else args), prog)
    except UsageError as exc:
        if exc.where is not None:
            cmd, path = exc.where
            usage = _usage(cmd, path, _columns())
            print(f"{usage}\nTry '{path} --help' for help.\n", file=sys.stderr)
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        # the reader left early (`landau ... | head`): exit 1 without a
        # traceback, and let the final flush at exit write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
