"""Command-line interface.

Subcommands: gen, graph, walk, solve, classify, verify, sweep. Exit
status is 0 on success, 1 on domain/usage errors, 2 when a resource cap
would be exceeded or memory runs out. All output is deterministic for
fixed inputs. The caps can be overridden with the WATCHMAN_MAX_SEQ
(generator/builder a**k cap, and the longest sequence verify or sweep
takes) and WATCHMAN_MAX_VERTICES (the vertex cap of solve's exact
search) environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .analysis import (
    DEFAULT_SWEEP_BUDGET,
    check_sweep_args,
    classify,
    sweep,
    verify,
)
from .errors import DomainError, ResourceCapError
from .graphcore import (
    Digraph,
    build_de_bruijn_graph,
    generated_subdigraph,
    to_dot,
)
from .seqcore import (
    DEFAULT_SIZE_CAP,
    _check_tour_args,
    gen_eulerian,
    gen_fkm,
    gen_greedy,
    parse_sequence,
    read_sequences,
    window_set,
)
from .watchman import (
    DEFAULT_VERTEX_CAP,
    _check_vertex_cap,
    construct_watchman_walk,
    enumerate_min_walks,
    induced_walk,
    solve_min_walk,
)

_GENERATORS = {"fkm": gen_fkm, "greedy": gen_greedy, "euler": gen_eulerian}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise DomainError(f"{name} must be positive")
    return value


def _size_cap() -> int:
    return _env_cap("WATCHMAN_MAX_SEQ", DEFAULT_SIZE_CAP)


def _vertex_cap() -> int:
    return _env_cap("WATCHMAN_MAX_VERTICES", DEFAULT_VERTEX_CAP)


def _parse_lengths(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        low, high = int(lo), int(hi)
    except ValueError:
        raise DomainError(f"lengths must look like LO..HI, got {text!r}") from None
    if low > high:
        raise DomainError(f"empty length range {text!r}")
    return range(low, high + 1)


def _sequences_from_args(args) -> list:
    if args.seq_file is not None:
        try:
            with open(args.seq_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or a NUL
            raise DomainError(f"cannot read {args.seq_file}: {exc}") from None
        seqs = read_sequences(text, args.alphabet)
        if not seqs:
            raise DomainError(f"no sequences in {args.seq_file}")
        return seqs
    return [parse_sequence(args.seq, args.alphabet)]


def cmd_gen(args) -> int:
    seq = _GENERATORS[args.algo](args.alphabet, args.order, _size_cap())
    print(seq.text)
    return 0


def cmd_graph(args) -> int:
    if args.highlight_induced and args.from_seq is None:
        raise DomainError("--highlight-induced needs --from-seq")
    if args.highlight_induced and not args.dot:
        raise DomainError("--highlight-induced needs --dot")
    if args.from_seq is not None:
        d = parse_sequence(args.from_seq, args.alphabet)
        graph = generated_subdigraph(d, args.order)
        highlight = induced_walk(d, args.order, graph) if args.highlight_induced else None
    else:
        graph = build_de_bruijn_graph(args.alphabet, args.order, _size_cap())
        highlight = None
    if args.dot:
        sys.stdout.write(to_dot(graph, highlight))
    else:
        print(json.dumps(graph.to_json()))
    return 0


def cmd_walk(args) -> int:
    seed = None if args.seq is None else parse_sequence(args.seq, args.alphabet)
    walk = construct_watchman_walk(args.alphabet, args.order, seed, _size_cap())
    print(",".join(walk.label_texts))
    return 0


def cmd_solve(args) -> int:
    cap = _vertex_cap()
    if args.from_seq is not None:
        if args.alphabet is None or args.order is None:
            raise DomainError("--from-seq needs -a and -k")
        d = parse_sequence(args.from_seq, args.alphabet)
        # the subdigraph is W x {0..a-1}: an over-cap one is never built
        _check_vertex_cap(args.alphabet * len(window_set(d, args.order)), cap)
        graph = generated_subdigraph(d, args.order)
    elif args.alphabet is not None or args.order is not None:
        raise DomainError(
            "-a and -k need --from-seq: graph JSON carries its own alphabet and order"
        )
    else:
        try:
            text = sys.stdin.read()
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
            raise DomainError(f"cannot read standard input: {exc}") from None
        if not text.strip():
            raise DomainError("no graph JSON on standard input and no --from-seq")
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError includes integers past the str-digits limit;
            # RecursionError is nesting deeper than the decoder can follow
            raise DomainError(f"invalid graph JSON: {exc}") from None
        # refuse an over-cap graph before any of its labels is ranked
        if isinstance(obj, dict) and isinstance(obj.get("vertices"), list):
            _check_vertex_cap(len(obj["vertices"]), cap)
        graph = Digraph.from_json(obj)
    result = solve_min_walk(graph, cap)
    payload = result.to_json()
    if args.count:
        walks = (
            enumerate_min_walks(graph, result.optimum_length, cap) if result.feasible else []
        )
        payload["count"] = len(walks)
        payload["walks"] = [list(w.label_texts) for w in walks]
    print(json.dumps(payload))
    return 0


def cmd_classify(args) -> int:
    for seq in _sequences_from_args(args):
        print(str(classify(seq, args.order)))
    return 0


def cmd_verify(args) -> int:
    seqs, size_cap = _sequences_from_args(args), _size_cap()
    # the postman flow grows faster than linearly in |W| <= len(seq), so
    # every sequence is checked before any window set is built: first
    # the shortest against the order, a domain error, then the longest
    # against the length cap
    _check_tour_args(min(seqs, key=len), args.order)
    longest = max(map(len, seqs))
    if longest > size_cap:
        raise ResourceCapError(
            f"sequence length {longest} exceeds size cap {size_cap}"
        )
    solved = {}  # sequences with one window set share one postman run
    for seq in seqs:
        print(json.dumps(verify(seq, args.order, solved).to_json()))
    return 0


def _open_csv(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DomainError(f"cannot write {path}: {exc}") from None


def _write_csv(fh, path: str, text: str) -> None:
    # closing inside the try makes the last block's failed flush an error
    # here too; a file whose close failed is closed all the same
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None


def cmd_sweep(args) -> int:
    lengths, size_cap = _parse_lengths(args.lengths), _size_cap()
    # reject bad arguments before opening (and so truncating) the CSV
    # target, then open it, so that a bad path fails before the sweep
    check_sweep_args(args.alphabet, args.order, lengths, args.budget, size_cap)
    csv_target = nullcontext() if args.csv is None else _open_csv(args.csv)
    with csv_target as fh:
        report = sweep(args.alphabet, args.order, lengths, args.budget, size_cap)
        sys.stdout.write(report.to_jsonl())
        if fh is not None:
            _write_csv(fh, args.csv, report.to_csv())
    return 0


def _add_alphabet_order(parser, required=True):
    parser.add_argument(
        "-a",
        "--alphabet",
        type=int,
        required=required,
        default=None,
        help="alphabet size (2..36)",
    )
    parser.add_argument(
        "-k",
        "--order",
        type=int,
        required=required,
        default=None,
        help="string/window order k",
    )


def _add_sequence_source(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--seq", help="sequence text")
    source.add_argument("--seq-file", help="sequence file (one per line, # comments)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="watchman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a de Bruijn sequence")
    _add_alphabet_order(p)
    p.add_argument("--algo", choices=sorted(_GENERATORS), default="fkm")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("graph", help="emit a de Bruijn (sub)digraph")
    _add_alphabet_order(p)
    p.add_argument("--from-seq", help="generating sequence for a subdigraph")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT (default JSON)")
    fmt.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.add_argument(
        "--highlight-induced",
        action="store_true",
        help="with --from-seq --dot: bold the induced walk's arcs",
    )
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("walk", help="construct a minimum watchman's walk of G(a,k)")
    _add_alphabet_order(p)
    p.add_argument("--seq", help="order-(k-1) de Bruijn seed sequence")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("solve", help="exact minimum closed dominating walk")
    _add_alphabet_order(p, required=False)
    p.add_argument("--from-seq", help="solve the subdigraph generated by this sequence")
    p.add_argument(
        "--count",
        action="store_true",
        help="also enumerate all minimum walks up to rotation",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="certificate classification of a sequence")
    _add_alphabet_order(p)
    _add_sequence_source(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="classify and cross-check against the oracle")
    _add_alphabet_order(p)
    _add_sequence_source(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify every sequence in a length range")
    _add_alphabet_order(p)
    p.add_argument("--lengths", required=True, help="inclusive range LO..HI")
    p.add_argument("--budget", type=int, default=DEFAULT_SWEEP_BUDGET)
    p.add_argument("--csv", help="also write a CSV summary to this path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"watchman: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return exc.code if isinstance(exc.code, int) else 0

    if sys.stdout is None:  # the process started with descriptor 1 closed
        print("watchman: error: standard output is closed", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a failed write fails here, not at exit
        return code
    except DomainError as exc:
        print(f"watchman: error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"watchman: resource cap: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the CSV target's errors are DomainErrors
        print(f"watchman: error: cannot write standard output: {exc}", file=sys.stderr)
        _discard_stdout()
        return 1
    except MemoryError:
        pass  # reported below, once its traceback and the frames it holds are freed
    print("watchman: resource cap: out of memory", file=sys.stderr)
    return 2


def _discard_stdout() -> None:
    """Point the process's standard output at the null device.

    After a failed write (a closed pipe, a full disk) its buffer still
    holds what could not be written, and the flush at exit would fail
    again and print "Exception ignored". A stand-in for sys.stdout, such
    as a test's capture, is left alone.
    """
    if sys.stdout is not sys.__stdout__:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
