"""Classification of generating sequences and oracle cross-verification.

Three certificate predicates decide, where possible, whether the walk
induced by a generating sequence is a minimum closed dominating walk of
the subdigraph it generates: a length-k constant run or a doubled
sequence certifies "never minimum", while pairwise-distinct (k-1)-windows
certify "always minimum". All three read the sequence cyclically.
The four outcomes (constant run, doubled sequence, distinct windows,
or none of them) are the four members of the ``Classification`` enum;
each member carries its verdict and its reason label, so a verdict
cannot be paired with another outcome's reason.
verify applies them in one pass (``_classify``): one run scan gives the
cyclic longest run and the linear one behind the seam-only flag, and
the distinct-window test reads the W that verify has already built for
its memo. The run certificates stay an O(len D) scan at any k. The
sweep harness enumerates sequences (one per rotation class), verifies
them against the exact optimum, and tallies where the certificates stay
silent. That optimum is the directed Chinese postman tour of the window
digraph (``watchman._postman_optimum``, proved in the README), so
verify and sweep run no exponential search and obey no vertex cap;
``solve_min_walk`` serves ``solve`` and the tests. Renaming the symbols changes no verified
field, so the sweep verifies one necklace per symbol-permutation orbit
and shares that record with the orbit's other necklaces. The necklace
generator (``seqcore.necklaces``) yields each necklace's
first-appearance form, so a later necklace finds its orbit in one
dictionary lookup, without relabelling its symbols. The generated
subdigraph, and so its optimum, depends only on the set W of
(k-1)-windows, so orbits with one W share one postman run. That
subdigraph is W x {0..a-1} with left-shift arcs, so verify checks an
induced walk against it on window ranks
(``watchman._closed_dominating_ranks``) and builds no ``Digraph``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from enum import Enum
from functools import cached_property
from itertools import chain

from .errors import DomainError, InvariantViolation, ResourceCapError
from .seqcore import (
    DEFAULT_SIZE_CAP,
    Alphabet,
    CyclicSequence,
    _TO_TEXT,
    _Value,
    _check_tour_args,
    _first_appearance,
    _symbols_text,
    necklaces,
    window_ranks,
    window_set,
)
from .watchman import _closed_dominating_ranks, _postman_optimum


class Verdict(Enum):
    PROVABLY_NOT_WATCHMAN = "ProvablyNotWatchman"
    PROVABLY_WATCHMAN = "ProvablyWatchman"
    UNDETERMINED = "Undetermined"


class Classification(Enum):
    """A certificate outcome, as its verdict and its reason label.

    Each reason fixes its verdict, so a member is the whole outcome.
    """

    CONSTANT_RUN = (Verdict.PROVABLY_NOT_WATCHMAN, "ConstantRun")
    DOUBLED_SEQUENCE = (Verdict.PROVABLY_NOT_WATCHMAN, "DoubledSequence")
    DISTINCT_WINDOWS = (Verdict.PROVABLY_WATCHMAN, "DistinctWindows")
    UNDETERMINED = (Verdict.UNDETERMINED, "None")

    def __init__(self, verdict: Verdict, reason: str) -> None:
        self.verdict = verdict
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.verdict.value} ({self.reason})"


def _longest_run(d: CyclicSequence) -> tuple[int, int]:
    """Lengths of the longest linear and cyclic runs of equal symbols,
    from one scan.

    Read cyclically, the first and last runs join across the seam when
    their symbols agree; an all-equal sequence is a single run of len(d)
    and so has a run of every length k <= len(d) at every position.
    """
    syms = d.symbols
    prev = syms[0]
    first = 0  # the first run's length, once a second run starts
    linear = run = 1
    for s in syms[1:]:
        if s == prev:
            run += 1
            continue
        if run > linear:
            linear = run
        if not first:
            first = run
        prev = s
        run = 1
    if run > linear:
        linear = run
    # the last run meets the first across the seam; a single run has
    # first = 0, so there first + run is linear
    if syms[0] == prev:
        return linear, max(linear, first + run)
    return linear, linear


def is_doubled(d: CyclicSequence, k: int) -> bool:
    """True iff d is two copies of one sequence of length at least k."""
    _check_tour_args(d, k)
    n = len(d)
    half = n // 2
    return n % 2 == 0 and half >= k and d.symbols[:half] == d.symbols[half:]


def classify(d: CyclicSequence, k: int) -> Classification:
    """Apply the certificates in fixed precedence.

    Negative certificates first (they settle the question); a doubled
    constant sequence therefore reports ConstantRun. A length-1 sequence
    (so k = 1) has a constant run, but its induced walk is the stationary
    walk of length 0, which is minimum, so the run certificate does not
    apply to it.
    """
    _check_tour_args(d, k)
    return _classify(d, k, None)[0]


def _classify(
    d: CyclicSequence, k: int, windows: tuple[int, ...] | None
) -> tuple[Classification, bool]:
    """classify's result, and whether its constant run exists only
    across the seam.

    One run scan gives both the cyclic and the linear longest run.
    ``windows`` is W (``seqcore.window_set(d, k)``) when the caller
    holds it, else None; it is built only if no negative certificate
    applies, so a long constant run costs one O(len d) scan at any k.
    The caller has checked k against d (``seqcore._check_tour_args``).
    """
    n = len(d)
    linear, cyclic = _longest_run(d)
    if n > 1 and cyclic >= k:
        return Classification.CONSTANT_RUN, linear < k
    if is_doubled(d, k):
        return Classification.DOUBLED_SEQUENCE, False
    if windows is None:
        windows = window_set(d, k)
    if len(windows) == n:
        return Classification.DISTINCT_WINDOWS, False
    return Classification.UNDETERMINED, False


class VerificationRecord(_Value):
    """One sequence checked against the exact optimum.

    oracle_optimum is the watchman number of the generated subdigraph,
    the postman optimum of the sequence's window set. is_watchman means
    the induced walk attains it; such a walk is also checked to be a
    closed dominating walk of the generated subdigraph, so it is one of
    the minimum walks.
    constant_run_seam_only flags sequences whose constant run exists only
    across the cyclic seam, as evidence for the cyclic reading.
    """

    __slots__ = (
        "sequence",
        "order",
        "classification",
        "induced_length",
        "oracle_optimum",
        "is_watchman",
        "constant_run_seam_only",
    )

    def __init__(
        self,
        sequence: CyclicSequence,
        order: int,
        classification: Classification,
        induced_length: int,
        oracle_optimum: int,
        is_watchman: bool,
        constant_run_seam_only: bool = False,
    ) -> None:
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "induced_length", induced_length)
        object.__setattr__(self, "oracle_optimum", oracle_optimum)
        object.__setattr__(self, "is_watchman", is_watchman)
        object.__setattr__(self, "constant_run_seam_only", constant_run_seam_only)

    def to_json(self) -> dict:
        return {
            "sequence": self.sequence.text,
            "alphabet": self.sequence.alphabet.size,
            "order": self.order,
            "verdict": self.classification.verdict.value,
            "reason": self.classification.reason,
            "induced_length": self.induced_length,
            "oracle_optimum": self.oracle_optimum,
            "is_watchman": self.is_watchman,
            "constant_run_seam_only": self.constant_run_seam_only,
        }


#: A memo for verify: each solved window set W (``seqcore.window_set``)
#: with its postman optimum.
Solved = dict[tuple[int, ...], int]


def verify(
    d: CyclicSequence, k: int, solved: Solved | None = None
) -> VerificationRecord:
    """Test the induced walk of ``d`` for minimality in the subdigraph it
    generates.

    The optimum is the postman optimum of ``d``'s window set W
    (``watchman._postman_optimum``), which the README proves equal to
    the watchman number of the generated subdigraph; no exponential
    search runs, and no vertex cap applies. The flow grows faster than
    linearly in |W|, so a caller bounds len(d), as the CLI does with
    its size cap. Raises InvariantViolation if the flow fails its
    primal-dual certificate, if the optimum exceeds the induced walk's
    length or, with |W| >= 2, falls below |W| (bounds
    every closed dominating walk obeys), if the certificates and the
    optimum ever disagree (which would falsify a certificate, so it must
    never pass silently), or if an induced walk of optimum length is not
    a closed dominating walk of the generated subdigraph. That last
    check reads the walk's window ranks against W x {0..a-1}
    (``watchman._closed_dominating_ranks``), so no subdigraph is built.

    ``solved`` is a memo from W to its optimum; without one, the call
    makes its own. The optimum depends on W alone, so a sequence whose W
    is in the memo reuses it. The classification and every
    InvariantViolation gate still run for each call. One memo serves one
    alphabet and order; the caller makes it and drops it with its loop.
    """
    if solved is None:
        solved = {}
    a = d.alphabet.size
    key = window_set(d, k)  # checks k against d
    optimum = solved.get(key)
    if optimum is None:
        optimum = solved[key] = _postman_optimum(key, a, k)
    induced_length = len(d) if len(d) > 1 else 0  # a stationary walk has no arcs
    if optimum > induced_length or (len(key) > 1 and optimum < len(key)):
        raise InvariantViolation(
            f"postman optimum {optimum} of {d.text} (k={k}) is not between "
            f"|W| = {len(key)} and the induced length {induced_length}"
        )
    is_watchman = induced_length == optimum
    if is_watchman and not _closed_dominating_ranks(window_ranks(d, k), key, a, k):
        raise InvariantViolation(
            f"induced walk of {d.text} (k={k}) attains the optimum but is "
            "not a closed dominating walk"
        )

    classification, seam_only = _classify(d, k, key)
    if classification.verdict is Verdict.PROVABLY_WATCHMAN and not is_watchman:
        raise InvariantViolation(
            f"distinct-window certificate violated by {d.text} (k={k})"
        )
    if classification.verdict is Verdict.PROVABLY_NOT_WATCHMAN and is_watchman:
        raise InvariantViolation(
            f"negative certificate violated by {d.text} (k={k})"
        )
    return VerificationRecord(
        sequence=d,
        order=k,
        classification=classification,
        induced_length=induced_length,
        oracle_optimum=optimum,
        is_watchman=is_watchman,
        constant_run_seam_only=seam_only,
    )


def rotation_representatives(a: int, n: int):
    """All sequences of length n over a symbols, one per rotation class.

    Yields the lexicographically least member of each class (its
    necklace), in lexicographic order.
    """
    alphabet = Alphabet(a)
    for word, _, _ in necklaces(a, n):
        yield CyclicSequence(word, alphabet)


class SweepReport(_Value):
    """Deterministically ordered records plus summary statistics.

    ``summary`` is folded row by row as ``sweep`` appends the rows.
    ``rows`` holds one ``(word, first)`` pair per record: the necklace's
    symbol tuple and the first entry of its symbol-permutation orbit,
    whose fields are the record's in all but the sequence. Rows of one
    orbit share that entry object. A report is unhashable: its fields
    are a list and a dict.
    """

    __slots__ = ("rows", "summary", "__dict__")  # __dict__ holds ``records``
    __hash__ = None

    def __init__(
        self, rows: list[tuple[tuple[int, ...], VerificationRecord]], summary: dict
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "summary", summary)

    @cached_property
    def records(self) -> list[VerificationRecord]:
        """Each row as its own record: the first entry for the orbit's
        first necklace, a copy with the row's sequence for the others
        (the entry's fields after its sequence, in constructor order)."""
        return [
            first
            if word == first.sequence.symbols
            else VerificationRecord(
                CyclicSequence(word, first.sequence.alphabet), *first._key()[1:]
            )
            for word, first in self.rows
        ]

    def to_jsonl(self) -> str:
        """One line per record, ``json.dumps(entry.to_json())``, then the
        summary line.

        The records of one orbit differ only in their sequence, which
        to_json puts first. So each orbit's entry is serialized once
        without it, as ASCII bytes, and each line is a shared head, the
        row's text and that rest: the text is the row's word through the
        codec's table (``seqcore._TO_TEXT``), and json.dumps escapes no
        character of SYMBOL_CHARS, so the quoted text is the same bytes.
        The pieces are joined and decoded once.
        """
        head = b'{"sequence": "'
        rests: dict[int, bytes] = {}  # by id: the rows keep every entry alive
        pieces = []
        for word, first in self.rows:
            rest = rests.get(id(first))
            if rest is None:
                fields = first.to_json()
                del fields["sequence"]
                rest = json.dumps(fields)[1:]  # without its "{"; all ASCII
                rest = rests[id(first)] = f'", {rest}\n'.encode()
            pieces += (head, bytes(word).translate(_TO_TEXT), rest)
        pieces.append(json.dumps({"summary": self.summary}).encode() + b"\n")
        return b"".join(pieces).decode("ascii")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "sequence",
                "length",
                "verdict",
                "reason",
                "induced_length",
                "oracle_optimum",
                "is_watchman",
            ]
        )
        for word, first in self.rows:
            writer.writerow(
                [
                    _symbols_text(word),
                    len(word),
                    first.classification.verdict.value,
                    first.classification.reason,
                    first.induced_length,
                    first.oracle_optimum,
                    first.is_watchman,
                ]
            )
        return buf.getvalue()


DEFAULT_SWEEP_BUDGET = 100_000


def check_sweep_args(
    a: int,
    k: int,
    lengths,
    budget: int = DEFAULT_SWEEP_BUDGET,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> list[int]:
    """Raise what sweep would raise for these arguments; else return the
    lengths sorted without repeats.

    Nothing is verified, so a caller can reject a sweep before it starts
    (the CLI does so before it opens its CSV target). A length above
    ``size_cap``, the cap on generated sequence lengths, raises
    ResourceCapError before any word of that length is built. The
    alphabet, the order and the budget are checked first, so a bad one
    raises DomainError whatever the lengths, and a length below the
    order raises DomainError before the budget is checked.
    """
    Alphabet(a)
    if k < 1:
        raise DomainError("order must be at least 1")
    if budget < 1:
        raise DomainError("budget must be positive")
    # every length >= k yields at least a records, so a range of more
    # lengths than the budget can never be swept to its end; the slice
    # asks without building the range (len() overflows past sys.maxsize),
    # and such a range's least length, at one of its ends, is checked first
    if isinstance(lengths, range) and lengths[budget:]:
        if min(lengths[0], lengths[-1]) < k:
            raise DomainError(f"sweep lengths must be at least the order k = {k}")
        raise ResourceCapError(
            f"length range {lengths[0]}..{lengths[-1]} has more lengths than "
            f"the record budget of {budget}"
        )
    lengths = sorted(set(lengths))
    if not lengths:
        raise DomainError("no lengths to sweep")
    if lengths[0] < k:
        raise DomainError(f"sweep lengths must be at least the order k = {k}")
    if lengths[-1] > size_cap:
        raise ResourceCapError(
            f"sweep length {lengths[-1]} exceeds size cap {size_cap}"
        )
    return lengths


def sweep(
    a: int,
    k: int,
    lengths,
    budget: int = DEFAULT_SWEEP_BUDGET,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> SweepReport:
    """Verify every sequence of the given lengths, one per rotation class.

    Records appear sorted by length then by canonical sequence text.
    verify runs once per symbol-permutation orbit: the first
    necklace of each orbit goes through verify, and every later necklace
    of that orbit shares its record: the report keeps each
    necklace's word beside that entry (``SweepReport.rows``), and builds
    a copy with only the sequence changed when ``records`` is read.
    Relabelling the alphabet is an automorphism of the
    de Bruijn graph that carries the windows, the generated subdigraph
    and the induced walk along, so no field but the sequence can differ
    across an orbit (see the README).
    The first necklace of an orbit files it under the first-appearance
    form of each of its rotations that starts a run; a later necklace
    finds its orbit from its own first-appearance form, which
    ``necklaces`` yields beside it, in one dictionary lookup and with
    no relabelling (the README proves this exact). The summary is
    folded as the rows are appended: each orbit carries its summary
    cell, and each row adds one to that cell's count, so no pass over
    the orbits follows the row loop.
    The verify calls share one memo, made for this call and dropped
    with it: orbits whose first necklaces have one window set W share
    one postman run. No subdigraph is built, and every sequence is
    verified: no vertex cap applies, since ``size_cap`` bounds the
    lengths. Hitting the budget stops the sweep and marks the report
    truncated, and a range of more lengths than the budget raises
    ResourceCapError before any sequence is verified, as does a length
    above ``size_cap``. The summary tallies verdict x is_watchman cells (the
    Undetermined/true cell holds the sequences no certificate explains)
    plus a count of seam-only constant runs. That count is written as
    zero, since a necklace that is not constant starts with its least
    symbol and ends with another; the seam-only evidence comes from
    verify on rotations.
    """
    lengths = check_sweep_args(a, k, lengths, budget, size_cap)
    alphabet = Alphabet(a)
    rows: list[tuple[tuple[int, ...], VerificationRecord]] = []
    # each orbit as (its first record, its summary cell), under the
    # first-appearance forms of its first necklace's rotations that
    # start a run
    by_form: dict[tuple[int, ...], tuple[VerificationRecord, str]] = {}
    counts: Counter[str] = Counter()  # rows per summary cell
    solved: Solved = {}  # verify's memo: orbits with one window set share it
    truncated = False
    for word, _, form in chain.from_iterable(necklaces(a, n) for n in lengths):
        if len(rows) >= budget:
            truncated = True
            break
        orbit = by_form.get(form)
        if orbit is None:
            entry = verify(CyclicSequence(word, alphabet), k, solved)
            cell = f"{entry.classification.verdict.value}:{str(entry.is_watchman).lower()}"
            orbit = (entry, cell)
            for i in range(len(word)):  # a constant necklace needs only i = 0
                if i == 0 or word[i] != word[i - 1]:
                    by_form[_first_appearance(word[i:] + word[:i])] = orbit
        counts[orbit[1]] += 1
        rows.append((word, orbit[0]))

    summary = {
        "alphabet": a,
        "order": k,
        "lengths": lengths,
        "total": len(rows),
        # every record is verified, so "skipped" is always 0; both keys
        # stay, since the bench's pinned sha256 of sweep output covers
        # this line and the bench reads both keys to count its items
        "verified": len(rows),
        "skipped": 0,
        "truncated": truncated,
        "cells": {
            f"{verdict.value}:{flag}": counts[f"{verdict.value}:{flag}"]
            for verdict in Verdict for flag in ("false", "true")
        },
        # a necklace that is not constant starts with its least symbol and
        # ends with another, so no swept record is seam-only (see README)
        "seam_only_constant_runs": {"total": 0, "not_watchman": 0},
    }
    return SweepReport(rows, summary)
