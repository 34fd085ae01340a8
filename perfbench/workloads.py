"""Seeded inputs for the three benchmark workloads.

Everything the program under test receives is built here from the run's
seed: the verify ranges of the two sweeps and the desk query stream.  The
expected outputs live in ``pins.json`` (see ``make_pins.py``), so a range or
a query is only ever drawn from the set the pins cover.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# --- sweep-sieve -------------------------------------------------------------
# Goldbach and pre-Polignac on [2, 4 * 10^6].  The Goldbach leg runs twice on
# one checkpoint: first to a seeded split point, then over the whole range, so
# the second call resumes.  The split stays near 0.4 * hi so that the work per
# round, and with it the rate, hardly depends on the seed.
SIEVE_HI = 4 * 10**6
SPLIT_LO, SPLIT_HI = 1_400_000, 1_800_000

# --- sweep-arith -------------------------------------------------------------
# Legendre on 3 * 10^4 square intervals and parabolic on 2.5 * 10^4 values of
# k.  The seed shifts each window by a multiple of ARITH_SHIFT; every shifted
# window has its own pinned statistics.
LEGENDRE_WIDTH = 30_000
PARABOLIC_WIDTH = 25_000
ARITH_SHIFT = 50
ARITH_SHIFTS = 8

# --- desk-queries ------------------------------------------------------------
# A run sends more than POOL_BLOCKS blocks, so every run holds the whole
# pool, with its largest inputs, once; the rest is a seeded partial second pass.
POOL_SEED = 20121208
POOL_BLOCKS = 8
RADICAL_PER_BLOCK = 8
FORMATS = ("md", "csv", "json")
CONVENTIONS = ("include1", "exclude1")


def _sieve_leg(task: str, command: str, lo: int, hi: int, checkpoint: str) -> dict:
    return {"task": task, "command": command, "lo": lo, "hi": hi, "checkpoint": checkpoint}


def sieve_legs(seed: int) -> list[dict]:
    """The three `landau ... verify` calls of one sweep-sieve round."""
    rng = random.Random(f"sweep-sieve/{seed}")
    split = 2 * rng.randrange(SPLIT_LO // 2, SPLIT_HI // 2 + 1)
    return [
        _sieve_leg("goldbach", "goldbach", 2, split, "goldbach.ckpt"),
        _sieve_leg("goldbach", "goldbach", 2, SIEVE_HI, "goldbach.ckpt"),
        _sieve_leg("pre-polignac", "polignac", 2, SIEVE_HI, "polignac.ckpt"),
    ]


def arith_windows() -> dict[str, list[tuple[int, int]]]:
    """Every window sweep-arith can draw, per task."""
    return {
        task: [(1 + ARITH_SHIFT * j, width + ARITH_SHIFT * j) for j in range(ARITH_SHIFTS)]
        for task, width in (("legendre", LEGENDRE_WIDTH), ("parabolic", PARABOLIC_WIDTH))
    }


def arith_legs(seed: int) -> list[dict]:
    """The two library `verify_range` calls of one sweep-arith round."""
    rng = random.Random(f"sweep-arith/{seed}")
    legs = []
    for task, windows in arith_windows().items():
        lo, hi = rng.choice(windows)
        legs.append({"task": task, "lo": lo, "hi": hi})
    return legs


# --- the desk query pool -------------------------------------------------------


def _strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n ascending values spread evenly over [lo, hi], one per stratum."""
    width = (hi - lo + 1) / n
    return [lo + int((i + rng.random()) * width) for i in range(n)]


def _even(values: list[int]) -> list[int]:
    return [v + v % 2 for v in values]


def _commands(rng: random.Random, blocks: int, radical_m: list[int]) -> list[tuple[str, int, list[list[str]]]]:
    """(name, queries per block, argv tails) for every desk command."""

    def n_of(per_block: int) -> int:
        return per_block * blocks

    def one(per_block, make):
        return [make(i) for i in range(n_of(per_block))]

    def sized(per_block, lo, hi, make, even=False):
        values = _strata(rng, n_of(per_block), lo, hi)
        return [make(v) for v in (_even(values) if even else values)]

    def big() -> int:
        return rng.randrange(1, 10**12)

    table = [
        ("goldbach canonical", 10, sized(10, 4, 2 * 10**12, lambda v: ["goldbach", "canonical", str(v)], True)),
        ("goldbach canonical --trace", 4, sized(4, 4, 2 * 10**9, lambda v: ["goldbach", "canonical", str(v), "--trace"], True)),
        ("goldbach enumerate", 3, sized(3, 4, 10**6, lambda v: ["goldbach", "enumerate", str(v)], True)),
        ("goldbach quasi", 3, sized(3, 4, 4 * 10**4, lambda v: ["goldbach", "quasi", str(v)], True)),
        ("goldbach verify", 1, sized(1, 4, 2 * 10**5, lambda v: ["goldbach", "verify", "--from", "4", "--to", str(v), "--jobs", "1"], True)),
        ("zn profile", 3, sized(3, 2, 10**5, lambda v: ["zn", "profile", str(v)])),
        ("zn table", 3, sized(3, 2, 200, lambda v: ["zn", "table", str(v)])),
        ("zn strong", 3, sized(3, 2, 10**5, lambda v: ["zn", "strong", str(v)])),
        ("zn crt", 6, one(6, lambda i: ["zn", "crt", str(big()), str(rng.randrange(2, 10**12))])),
        ("ideals analyze", 3, sized(3, 4, 1000, lambda v: ["ideals", "analyze", str(v)]
                                    + rng.choice([[], ["--include-top"], ["--descent-only"]]), True)),
        ("ideals radical", RADICAL_PER_BLOCK,
         [["ideals", "radical", str(m)] for m in radical_m[: n_of(RADICAL_PER_BLOCK)]]),
        ("ideals jacobson", 5, one(5, lambda i: ["ideals", "jacobson", str(rng.randrange(2, 10**12))])),
        ("ideals bezout", 6, one(6, lambda i: ["ideals", "bezout", str(rng.randrange(1, 10**18)), str(rng.randrange(1, 10**18))])),
        ("polignac pairs", 4, one(4, lambda i: ["polignac", "pairs", str(2 * rng.randint(1, 50)), "--max-q", str(rng.randint(10, 10**4))])),
        ("polignac dyadic", 3, one(3, lambda i: ["polignac", "dyadic", str(2 * rng.randint(1, 50)), "--m", str(rng.randint(1, 12))])),
        ("polignac verify", 1, sized(1, 4, 10**5, lambda v: ["polignac", "verify", "--from", "4", "--to", str(v), "--jobs", "1"], True)),
        ("legendre primes", 4, sized(4, 1, 10**5, lambda v: ["legendre", "primes", str(v)])),
        ("legendre verify", 1, sized(1, 1, 3000, lambda v: ["legendre", "verify", "--from", "1", "--to", str(v), "--jobs", "1"])),
        ("parabolic list", 3, sized(3, 1, 2000, lambda v: ["parabolic", "list", "--max-k", str(v)])),
        ("parabolic zeta", 3, sized(3, 1, 2000, lambda v: ["parabolic", "zeta", "--max-k", str(v)])),
        ("triangle value", 5, one(5, lambda i: ["triangle", "value", str(rng.randrange(0, 10**12))])),
        # K >= 12 overflows Python's int-to-string limit and exits 2
        ("triangle square-seq", 5, one(5, lambda i: ["triangle", "square-seq", str(rng.randint(1, 11))])),
        ("triangle three", 6, one(6, lambda i: ["triangle", "three", str(rng.randrange(0, 10**6))])),
        # exponents above 12 are refused
        ("triangle faulhaber", 6, one(6, lambda i: ["triangle", "faulhaber", str(rng.randint(0, 12)), str(rng.randint(0, 1000))])),
    ]
    return table


def build_pool(radical_m: list[int], blocks: int = POOL_BLOCKS) -> tuple[list[list[str]], list[tuple[str, int, list[int]]]]:
    """The fixed desk query pool, from POOL_SEED and the pinned radical inputs.

    Returns (argv per pool entry, [(command, per block, pool indices)]).
    Each entry carries its own --format and --convention.
    """
    rng = random.Random(POOL_SEED)
    pool: list[list[str]] = []
    groups = []
    for name, per_block, tails in _commands(rng, blocks, radical_m):
        if len(tails) != per_block * blocks:
            raise ValueError(f"{name}: {len(tails)} inputs, need {per_block * blocks}")
        indices = []
        for tail in tails:
            head = ["--format", rng.choice(FORMATS), "--convention", rng.choice(CONVENTIONS)]
            indices.append(len(pool))
            pool.append(head + tail)
        groups.append((name, per_block, indices))
    return pool, groups


def pool_fingerprint(pool: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()


def desk_stream(seed: int, groups: list[tuple[str, int, list[int]]], cycles: int) -> list[int]:
    """Pool indices in the order one desk run sends them.

    A command's pool share is ordered by input size, so it splits into
    `per_block` size strata.  Every block takes one seeded draw, without
    replacement, from each stratum of each command, then is shuffled.  Any
    prefix of whole blocks therefore has the pool's mix of commands and of
    sizes, which keeps a run's latency quantiles and memory peak close to
    the pool's whatever the seed; a cycle of POOL_BLOCKS blocks sends every
    entry once.
    """
    rng = random.Random(f"desk-queries/{seed}")
    blocks = POOL_BLOCKS
    out: list[int] = []
    for _ in range(cycles):
        strata = [
            rng.sample(indices[j * blocks:(j + 1) * blocks], blocks)
            for _, per_block, indices in groups
            for j in range(per_block)
        ]
        for b in range(blocks):
            block = [stratum[b] for stratum in strata]
            rng.shuffle(block)
            out.extend(block)
    return out


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def desk_pool_from_pins(pins: dict) -> tuple[list[list[str]], list[tuple[str, int, list[int]]]]:
    pool, groups = build_pool(pins["desk"]["radical_m"])
    if pool_fingerprint(pool) != pins["desk"]["pool_sha256"]:
        raise RuntimeError("desk query pool differs from the pinned one; rerun make_pins.py")
    return pool, groups


def normalized_digest(code: int, out: bytes, err: bytes, fmt: str) -> str:
    """Digest of one query's result, without the config echo or timings.

    The echo names the machine's worker count and the verify summary its
    elapsed time; neither is part of the answer.
    """
    if fmt == "json" and code == 0:
        doc = json.loads(out)
        doc.pop("config", None)
        if doc.get("kind") == "verify-summary":
            doc["report"].pop("elapsed", None)
        body = json.dumps(doc, sort_keys=True, ensure_ascii=False).encode()
    else:
        keep = [
            line for line in out.split(b"\n")
            if not line.startswith((b"config: ", b"# config: "))
            and b"elapsed (s)" not in line
        ]
        body = b"\n".join(keep)
    h = hashlib.sha256()
    for part in (str(code).encode(), body, err):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()[:16]
