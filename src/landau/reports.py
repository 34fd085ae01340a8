"""Publication-shaped reports over the library's routines.

Every emitter builds a :class:`Report` — a titled grid of pre-rendered cells
plus a JSON-shaped payload, each built on first read — and :func:`emit_report`
serializes it to one of three formats, building only the part it shows:

* ``md``   — a config echo line, the title, a pipe table, then footnotes;
* ``csv``  — a leading ``# config:`` comment and RFC-4180 rows (no footnotes);
* ``json`` — ``{"kind", "title", "config", "footnotes", "report"}``, byte for
  byte as ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``.

Each emitter is a plain function ``(conv, /, *, name: type = default, ...)``
of the prime convention and its keywords; the signature is the one declaration
of a report's parameters, checked by :func:`build_report`.  The emitter of
kind ``a-b`` is ``_emit_a_b`` in the report module that ``_MODULES`` names for
it, one per library module it renders (``reports_goldbach`` and so on).  A
report module runs the first time one of its kinds is asked for and imports
the library functions its emitters call at its top, so a command compiles
only the report it renders and loads only the library modules that report
calls.  This module holds what every command uses: the renderers, the
parameter checks and the verify summary.

All three formats are deterministic byte-for-byte for a fixed config, so they
can be frozen as golden files.  Tables never carry floating-point cells; exact
rationals are rendered as ``numerator/denominator`` strings.
"""

from __future__ import annotations

import importlib
import inspect
import io
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .config import Config
from .primes import DEFAULT_CONVENTION, PrimeConvention

# annotations only: this module runs at every start, and neither zn nor the
# harness is loaded then
if TYPE_CHECKING:
    from .harness import RunSummary
    from .zn import Factorization


class ReportError(ValueError):
    """A bad report request: unknown kind, unknown format, or bad parameter."""


@dataclass(frozen=True)
class Report:
    """One table ready for rendering: cells are final strings, the payload
    mirrors them as plain JSON-able data, and each is built on first read."""

    title: str
    headers: tuple[str, ...]
    build_rows: Callable[[], tuple[tuple[str, ...], ...]]
    footers: tuple[str, ...]
    build_payload: Callable[[], dict[str, Any]]

    @cached_property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        return self.build_rows()

    @cached_property
    def payload(self) -> dict[str, Any]:
        return self.build_payload()


# --------------------------------------------------------------------------
# text helpers shared by the report modules

_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _sub(v: int | str) -> str:
    return str(v).translate(_SUB)


def _zn(n: int) -> str:
    return f"ℤ{_sub(n)}"


def _zx(n: int) -> str:
    return f"ℤ×{_sub(n)}"


def _pair(p: int, q: int) -> str:
    return f"({p},{q})"


def _factor_list(fact: Factorization) -> list[list[int]]:
    return [[p, e] for p, e in fact.factors]


def _ints(values, sep: str) -> str:
    """``sep.join(map(str, values))`` for exact ints, in one % at C speed.
    %d prints a bool, an int subclass or a float as an int, so none may
    reach it."""
    values = tuple(values)
    return ("%d" + (sep.replace("%", "%%") + "%d") * (len(values) - 1) if values else "") % values


def _braced(values) -> str:
    return "{" + _ints(values, ",") + "}"


# --------------------------------------------------------------------------
# parameter checks: an emitter's annotation picks the check its value gets;
# any other annotation (the verify summary) passes the value through

def _coerce(name: str, value: Any, annotation: str) -> Any:
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ReportError(f"{name}: expected an integer, got {value!r}")
        return value
    if annotation == "bool":
        if not isinstance(value, bool):
            raise ReportError(f"{name}: expected a boolean, got {value!r}")
        return value
    if annotation.startswith("tuple[int, ...]"):
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise ReportError(f"{name}: expected a sequence of integers, got {value!r}")
        value = tuple(value)
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ReportError(f"{name}: expected integers, got {item!r}")
        return value
    return value


# --------------------------------------------------------------------------
# the verify summary, which every verify run renders

def _emit_verify_summary(conv: PrimeConvention, /, *, summary: RunSummary) -> Report:
    import json  # for the counterexamples; the harness that made the summary has loaded it

    return Report(
        title=f"Verification summary: {summary.task.value} on [{summary.lo}, {summary.hi}]",
        headers=("field", "value"),
        build_rows=lambda: (
            ("task", summary.task.value),
            ("convention", summary.convention.value),
            ("range", f"[{summary.lo}, {summary.hi}]"),
            ("verified", str(summary.verified)),
            ("skipped", str(summary.skipped)),
            ("complete", "yes" if summary.complete else "no"),
            ("elapsed (s)", f"{summary.elapsed:.3f}"),
            *((key, str(summary.stats[key])) for key in sorted(summary.stats)),
            *(("counterexample", json.dumps(w, sort_keys=True)) for w in summary.counterexamples),
        ),
        footers=(),
        build_payload=lambda: {
            "task": summary.task.value,
            "convention": summary.convention.value,
            "lo": summary.lo,
            "hi": summary.hi,
            "verified": summary.verified,
            "skipped": summary.skipped,
            "complete": summary.complete,
            "elapsed": round(summary.elapsed, 3),
            "stats": dict(summary.stats),
            "counterexamples": list(summary.counterexamples),
        },
    )


# --------------------------------------------------------------------------
# renderers

def _md_cells(rows: tuple[tuple[str, ...], ...]) -> str:
    """The rows as Markdown table lines without their outer pipes, each | in
    a cell escaped as \\|: one join for the whole table, and a second that
    escapes cell by cell only when some cell holds a |."""
    body = " |\n| ".join(map(" | ".join, rows))
    # the separators alone hold one | per cell boundary and two per row boundary
    if body.count("|") > sum(map(len, rows)) + len(rows) - 2:
        body = " |\n| ".join([" | ".join([c.replace("|", "\\|") for c in r]) for r in rows])
    return body


def _render_md(report: Report, config: Config, kind: str) -> bytes:
    rule = "|".join(" --- " for _ in report.headers)
    out = [f"config: {config.echo()}\n\n### {report.title}\n\n| ", _md_cells((report.headers,))]
    out.append(f" |\n|{rule}|\n")
    if report.rows:
        out += ["| ", _md_cells(report.rows), " |\n"]
    if report.footers:
        out.append("\n".join(("", *report.footers, "")))
    return "".join(out).encode("utf-8")


def _csv_record(cells: tuple[str, ...]) -> str:
    """One row as csv.writer's excel dialect writes it (QUOTE_MINIMAL): a
    cell that holds a comma, a double quote, CR or LF is quoted, its quotes
    doubled, and a row of one empty cell is written as two double quotes."""
    line = ",".join(cells)
    if line.count(",") + 1 == len(cells) and '"' not in line and "\r" not in line and "\n" not in line:
        return line or '""'  # the one cell is empty
    return ",".join(['"%s"' % cell.replace('"', '""')
                     if "," in cell or '"' in cell or "\r" in cell or "\n" in cell else cell
                     for cell in cells])


def _render_csv(report: Report, config: Config, kind: str) -> bytes:
    # encoded a row at a time: one str of the whole text would take 2 or 4
    # bytes a character, since not every header is ASCII
    out = io.BytesIO()
    out.write(f"# config: {config.echo()}\r\n".encode("utf-8"))
    for row in chain((report.headers,), report.rows):
        out.write((_csv_record(row) + "\r\n").encode("utf-8"))
    return out.getvalue()


_LITERALS = {True: "true", False: "false", None: "null"}


def _template(
    values: list | tuple, quote: Callable[[str], str], indent: str
) -> tuple[str, int, Any]:
    """(template, width, arguments): the %-template of one of values at
    indent, its count of placeholders, and the arguments that fill it for
    each value in turn.  Exact ints, strs, and bools or None each fill one
    placeholder; int lists of one length fill one a member; dicts with the
    same keys, or other lists of one length, share a template built from the
    first, filled slot by slot from the templates of their columns.  Any
    other values, and a lone value, are rendered one by one."""
    kinds = set(map(type, values))
    if kinds == {int}:  # no bools, no int subclasses
        return "%d", 1, values
    if kinds == {str}:
        return "%s", 1, map(quote, values)
    if kinds <= {bool, type(None)}:
        return "%s", 1, map(_LITERALS.__getitem__, values)
    first, inner = values[0], indent + "  "
    shared = len(values) > 1 and bool(first)  # a lone value or empty ones share nothing
    if shared and kinds == {dict} and all(map(first.keys().__eq__, map(dict.keys, values))):
        keys, brackets = sorted(first), "{}"
        heads = [quote(k).replace("%", "%%") + ": " for k in keys]
    elif shared and kinds <= {list, tuple} and set(map(len, values)) == {len(first)}:
        keys, brackets = range(len(first)), "[]"
        heads = [""] * len(first)
        ints = list(chain.from_iterable(values))
        if set(map(type, ints)) == {int}:  # every member's int in one go
            body = ("," + inner).join(["%d"] * len(first))
            return f"[{inner}{body}{indent}]", len(first), ints
    else:
        return "%s", 1, [_json(v, quote, indent) for v in values]
    slots = [_template(list(map(itemgetter(k), values)), quote, inner) for k in keys]
    body = ("," + inner).join([head + fmt for head, (fmt, _, _) in zip(heads, slots)])
    # each slot's arguments cut into one tuple a value, then laid value by value
    rows = zip(*[zip(*[iter(args)] * width) for _, width, args in slots])
    return (
        f"{brackets[0]}{inner}{body}{indent}{brackets[1]}",
        sum(width for _, width, _ in slots),
        chain.from_iterable(chain.from_iterable(rows)),
    )


def _json(value: Any, quote: Callable[[str], str], indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``,
    byte for byte, for data whose dict keys are strings, given json's string
    escaping as ``quote``.  CPython serves an indented dump only from its
    pure-Python encoder; here the items of a list that share one shape are
    written by one % over one template (:func:`_template`) at C speed."""
    if type(value) is str:
        return quote(value)
    if type(value) is int:
        return str(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{quote(k)}: {_json(v, quote, inner)}" for k, v in sorted(value.items())])
        return f"{{{inner}{body}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        fmt, _, args = _template(value, quote, inner)
        return f"[{inner}{(fmt + (sep + fmt) * (len(value) - 1)) % tuple(args)}{indent}]"
    if value is None or type(value) is bool:
        return _LITERALS[value]
    import json  # for floats, and subclasses of str or int

    return json.dumps(value, ensure_ascii=False)


def _render_json(report: Report, config: Config, kind: str) -> bytes:
    import json

    doc = {
        "kind": kind,
        "title": report.title,
        "config": config.as_dict(),
        "footnotes": list(report.footers),
        "report": report.payload,
    }
    # json.encoder's escaping is that of ensure_ascii=False
    return (_json(doc, json.encoder.encode_basestring) + "\n").encode("utf-8")


_RENDERERS: dict[str, Callable[[Report, Config, str], bytes]] = {
    "md": _render_md,
    "csv": _render_csv,
    "json": _render_json,
}

# the report modules and the kinds whose emitters each defines; a module runs
# when one of its kinds is first asked for
_MODULES = {
    "reports": ("verify-summary",),
    "reports_figurate": (
        "faulhaber", "ghost-table", "square-triangular", "three-triangular", "triangle",
        "zeta-table",
    ),
    "reports_gaps": ("legendre-table", "polignac-pairs", "polignac-table"),
    "reports_goldbach": ("couple", "couples", "descent-table", "quasi-couples", "ring-table"),
    "reports_ideals": ("bezout", "ideal-table", "jacobson", "radical"),
    "reports_zn": ("crt", "strong-generators", "units-grid", "units-profile"),
}
_MODULE_OF = {kind: module for module, kinds in _MODULES.items() for kind in kinds}


@cache
def _load(kind: str) -> tuple[Callable[..., Report], Mapping[str, inspect.Parameter]]:
    """The emitter of kind and its keyword-only parameters, read once, running
    its report module on first use: the parameters' names, annotations and
    defaults are the one declaration of what the kind accepts."""
    if kind not in _MODULE_OF:
        raise ReportError(
            f"unknown report kind {kind!r}; expected one of: {', '.join(report_kinds())}"
        )
    module = importlib.import_module(f"{__package__}.{_MODULE_OF[kind]}")
    emitter = getattr(module, "_emit_" + kind.replace("-", "_"))
    parameters = {
        name: param
        for name, param in inspect.signature(emitter).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }
    return emitter, parameters


def report_kinds() -> tuple[str, ...]:
    return tuple(sorted(_MODULE_OF))


def report_parameters(kind: str) -> Mapping[str, inspect.Parameter]:
    """The parameters a report kind accepts, by name, with their defaults."""
    return _load(kind)[1]


def build_report(
    kind: str, params: Mapping[str, Any] | None = None, config: Config | None = None
) -> Report:
    """The structured form of :func:`emit_report`, for callers that want the
    grid and payload without serialization.  ``params`` is checked against
    :func:`report_parameters` before the emitter runs."""
    emitter, parameters = _load(kind)
    params = dict(params or {})
    kwargs = {}
    for name, param in parameters.items():
        if name in params:
            kwargs[name] = _coerce(name, params.pop(name), param.annotation)
        elif param.default is param.empty:
            raise ReportError(f"{name}: required parameter missing")
    if params:
        raise ReportError(f"unknown parameter(s): {', '.join(sorted(params))}")
    return emitter(DEFAULT_CONVENTION if config is None else config.convention, **kwargs)


def emit_report(
    kind: str,
    params: Mapping[str, Any] | None = None,
    fmt: str = "md",
    config: Config | None = None,
) -> bytes:
    if config is None:
        config = Config(workers=1)
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ReportError(
            f"unknown format {fmt!r}; expected one of: {', '.join(sorted(_RENDERERS))}"
        ) from None
    return renderer(build_report(kind, params, config), config, kind)
