"""Span recording around calls into landau's layers, for the traced run.

A :class:`Tracer` replaces a public function by a wrapper in every landau
module that binds it (the defining module and each import site), so calls
made through any of those names are seen.  Each call becomes a span with a
name, a start, an end and the span that was open when it began.  Spans stay
in memory, in flat arrays, until :meth:`Tracer.summary` folds them into
per-name totals; nothing is written while the traced work runs.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

# (module, function) pairs wrapped in a traced run.  `size` records len() of
# the result; `tag` records (label, count) from the result.
TARGETS: tuple[tuple[str, str, dict[str, Any]], ...] = (
    ("primes", "is_prime", {}),
    ("primes", "prev_prime", {}),
    ("primes", "primes_in_range", {}),
    ("primes", "prime_flags", {"size": True}),
    ("zn", "factorize", {}),
    ("zn", "totient", {}),
    ("zn", "units_profile", {}),
    ("zn", "multiplication_table", {}),
    ("goldbach", "canonical_couple", {}),
    ("goldbach", "enumerate_couples", {}),
    ("goldbach", "quasi_couples", {}),
    ("gaps", "legendre_primes", {}),
    ("gaps", "polignac_pairs", {}),
    ("figurate", "parabolic_primes", {}),
    ("figurate", "zeta_partial", {}),
    ("ideals", "goldbach_ideal_analysis", {}),
    ("ideals", "radical", {}),
    ("harness", "verify_range", {"tag": True}),
    ("harness", "load_checkpoints", {}),
    ("reports", "emit_report", {"size": True}),
    ("config", "load_config", {}),
)

# checkpoint I/O: the harness reaches these through the os module
OS_TARGETS = (("fsync", "harness.fsync"), ("replace", "harness.replace"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.sizes: dict[int, int] = defaultdict(int)
        self.tags: dict[int, tuple[str, int]] = {}
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, *, size: bool = False, tag: bool = False) -> Callable:
        """A callable that runs fn inside a span called name."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        sizes, tags = self.sizes, self.tags
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if size:
                sizes[nid] += len(result)
            if tag:
                tags[idx] = (result.task.value, result.verified)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at every landau module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "landau" or n.startswith("landau.")]
        for mod_name, fn_name, opts in TARGETS:
            original = getattr(sys.modules[f"landau.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, **opts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for attr, name in OS_TARGETS:
            original = getattr(os, attr)
            self._patches.append((os, attr, original))
            setattr(os, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, Any]:
        """Per-name calls, total and self seconds, result sizes, and the
        counts behind the per-instance ratios."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
        per_name: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": self.sizes.get(nid, 0)}
            for nid, name in enumerate(self.names)
        }
        names = self.names
        for i in range(n):
            rec = per_name[names[self.span_name[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - covered[i]

        is_prime = self._ids.get("primes.is_prime", -2)
        factorize = self._ids.get("zn.factorize", -2)
        verify = self._ids.get("harness.verify_range", -2)
        under_factorize = 0
        legendre_is_prime = 0
        for i in range(n):
            if self.span_name[i] != is_prime:
                continue
            p = parents[i]
            seen_factorize = False
            while p >= 0:
                nid = self.span_name[p]
                if nid == factorize:
                    seen_factorize = True
                elif nid == verify:
                    if self.tags.get(p, ("", 0))[0] == "legendre":
                        legendre_is_prime += 1
                    break
                p = parents[p]
            under_factorize += seen_factorize
        legendre_instances = sum(c for label, c in self.tags.values() if label == "legendre")
        return {
            "names": per_name,
            "legendre_instances": legendre_instances,
            "legendre_is_prime_calls": legendre_is_prime,
            "is_prime_under_factorize": under_factorize,
        }
