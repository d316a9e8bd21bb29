"""The benchmark's workloads: the argv each one feeds to ``watchman`` and
the checks every output must pass.

A workload is a list of calls to ``debruijn.cli.main``. ``sweep-q3`` is one
call and its items are the sweep records; ``solve-b6`` is one ``solve`` call
per sequence and each call is an item. The two stress different layers:
sweep-q3 spreads its time over construction, the solver's per-start setup
and the enumerator; solve-b6 is one long search per call and calls neither
the enumerator nor ``analysis``. Nothing here imports ``debruijn`` at module
level: the pool of ``solve-b6`` sequences is drawn by the benchmark's own
code, independent of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

NAMES = ("sweep-q3", "solve-b6")

SWEEP_ARGV = {"sweep-q3": ["sweep", "-a", "4", "-k", "3", "--lengths", "3..6"]}
# Reduced sizes for the smoke test: same code paths, a fraction of the work.
SMOKE_LENGTHS = {"sweep-q3": "3..4"}

# solve-b6: binary order-6 sequences whose generated subdigraphs have 33-44
# vertices, above the oracle's default cap of 24. The pool is drawn once from
# POOL_SEED, POOL_PER_SIZE sequences for each vertex count, so every seed
# runs the same mix of easy and heavy-tailed instances. The workload seed
# picks a rotation and a 0/1 complement of each pool sequence: both give an
# isomorphic subdigraph with the same optimum (pinned), but the complement
# reverses the vertex order the search visits.
B6_ALPHABET = 2
B6_ORDER = 6
B6_LENGTHS = range(17, 27)
B6_VERTEX_COUNTS = (34, 36, 38, 40, 42, 44)
POOL_SEED = 2020
POOL_PER_SIZE = 4
B6_VERTEX_CAP = "64"
SMOKE_POOL = 2

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())


def generated_vertex_count(bits: tuple[int, ...], k: int) -> int:
    """Vertices of the subdigraph generated by a binary cyclic sequence:
    its distinct k-windows plus both left shifts of each."""
    n = len(bits)
    windows = {tuple(bits[(i + j) % n] for j in range(k)) for i in range(n)}
    vertices = set(windows)
    for w in windows:
        vertices.add(w[1:] + (0,))
        vertices.add(w[1:] + (1,))
    return len(vertices)


def b6_pool() -> list[str]:
    """The fixed solve-b6 pool, ordered by vertex count, then by draw."""
    rng = random.Random(POOL_SEED)
    strata: dict[int, list[str]] = {v: [] for v in B6_VERTEX_COUNTS}
    seen: set[str] = set()
    while any(len(s) < POOL_PER_SIZE for s in strata.values()):
        n = rng.choice(B6_LENGTHS)
        bits = tuple(rng.getrandbits(1) for _ in range(n))
        text = "".join(map(str, bits))
        bucket = strata.get(generated_vertex_count(bits, B6_ORDER))
        if bucket is not None and len(bucket) < POOL_PER_SIZE and text not in seen:
            seen.add(text)
            bucket.append(text)
    return [text for v in B6_VERTEX_COUNTS for text in strata[v]]


def b6_variant(text: str, rng: random.Random) -> str:
    """A seeded rotation of ``text``, complemented with probability 1/2."""
    r = rng.randrange(len(text))
    text = text[r:] + text[:r]
    if rng.getrandbits(1):
        text = text.translate(str.maketrans("01", "10"))
    return text


class Workload:
    """The calls one pass makes, plus what their outputs must satisfy."""

    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.env: dict[str, str] = {}
        if name in SWEEP_ARGV:
            argv = list(SWEEP_ARGV[name])
            if smoke:
                argv[-1] = SMOKE_LENGTHS[name]
            self.calls = [argv]
            self.sequences: list[str] = []
            self.expected_sha256 = None if smoke else PINNED[name]["sha256"]
            self.expected_records = None if smoke else PINNED[name]["records"]
        else:
            pool = b6_pool()[:SMOKE_POOL] if smoke else b6_pool()
            rng = random.Random(seed)
            self.sequences = [b6_variant(text, rng) for text in pool]
            self.calls = [
                ["solve", "--from-seq", d, "-a", str(B6_ALPHABET), "-k", str(B6_ORDER)]
                for d in self.sequences
            ]
            self.env = {"WATCHMAN_MAX_VERTICES": B6_VERTEX_CAP}
            self.optima = [PINNED[name]["optimum"][text] for text in pool]

    @property
    def is_sweep(self) -> bool:
        return self.name in SWEEP_ARGV


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_sweep_records(stdout: str) -> tuple[int, list[str]]:
    """Check every record of a sweep's JSON-lines output on its own terms.

    Returns (record count, problems). A record is wrong when its oracle
    optimum exceeds its induced walk length (the induced walk is itself a
    closed dominating walk), when is_watchman disagrees with the two
    lengths, or when a ProvablyWatchman verdict comes with an optimum other
    than the sequence length. The summary must count the records.
    """
    lines = stdout.splitlines()
    problems: list[str] = []
    if not lines:
        return 0, ["empty output"]
    try:
        records = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])["summary"]
        for rec in records:
            if rec.get("skipped"):
                continue
            seq, opt, ind = rec["sequence"], rec["oracle_optimum"], rec["induced_length"]
            if ind != len(seq) or opt > ind:
                problems.append(f"{seq}: optimum {opt}, induced length {ind}")
            if rec["is_watchman"] != (opt == ind):
                problems.append(f"{seq}: is_watchman {rec['is_watchman']} but {opt} vs {ind}")
            if rec["verdict"] == "ProvablyWatchman" and opt != len(seq):
                problems.append(f"{seq}: ProvablyWatchman with optimum {opt} != {len(seq)}")
        if summary["total"] != len(records):
            problems.append(f"summary total {summary['total']} != {len(records)} records")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return len(lines) - 1, problems + [f"malformed sweep output: {exc!r}"]
    return len(records), problems


def check_solve(d: str, stdout: str, pinned_optimum: int) -> list[str]:
    """Check one ``solve --from-seq`` output with the program's own predicates.

    The witness must be a closed dominating walk of the generated
    subdigraph, its length must be the reported optimum, the optimum must
    not exceed the induced walk's length, must equal len(D) when the
    distinct-window certificate applies, and must equal the pinned value.
    """
    from debruijn import (
        Verdict,
        Walk,
        classify,
        generated_subdigraph,
        induced_walk,
        is_closed_dominating_walk,
        parse_sequence,
    )

    try:
        payload = json.loads(stdout)
        optimum, witness = payload["optimum"], payload["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{d}: unparsable solve output: {exc}"]
    seq = parse_sequence(d, B6_ALPHABET)
    graph = generated_subdigraph(seq, B6_ORDER)
    problems = []
    if optimum != pinned_optimum:
        problems.append(f"{d}: optimum {optimum}, pinned {pinned_optimum}")
    if not (
        isinstance(optimum, int)
        and isinstance(witness, list)
        and witness
        and all(isinstance(label, str) and graph.has_vertex(label) for label in witness)
    ):
        return problems + [f"{d}: optimum {optimum!r}, witness {witness!r}: no walk to check"]
    walk = Walk(graph, tuple(graph.index(label) for label in witness), closed=True)
    if not is_closed_dominating_walk(graph, walk):
        problems.append(f"{d}: witness is not a closed dominating walk")
    if walk.length != optimum:
        problems.append(f"{d}: witness length {walk.length} != optimum {optimum}")
    if optimum > induced_walk(seq, B6_ORDER, graph).length:
        problems.append(f"{d}: optimum {optimum} exceeds the induced walk")
    if classify(seq, B6_ORDER).verdict is Verdict.PROVABLY_WATCHMAN and optimum != len(d):
        problems.append(f"{d}: ProvablyWatchman with optimum {optimum} != {len(d)}")
    return problems
