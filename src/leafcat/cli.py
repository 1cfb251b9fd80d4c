"""Command-line interface.

Exit codes: 0 on success / true, 1 on false / rejection / failed claims,
2 on usage or parse errors.

A cold invocation builds its command's sub-parser alone, and loads only what
the command uses: `rc`, `pnf`, `check-pn` and every --help need `bounds` and
`words`, and `catseq`, `graph`, `subtrees`, `leafwords`, `verify` and `json` are
imported by the commands that use them (not `graph` or `subtrees` by `equiv`,
`realize` or `--caterpillar`).  The help prints the caps of `bounds`.
"""

from __future__ import annotations

import argparse
import sys

from . import words
from .bounds import (BRUTEFORCE_MAX_N, CHAIN_MAX_N, DEFAULT_MAX_N, FK_MAX_K, GRAPH_MAX_N,
                     HASSE_MAX_SIZE, K_MAX, NEG_INF, STAR_MAX_M, SUITE_ALIASES, SUITE_BOUNDS,
                     WHEEL_MAX_N, WORD_MAX_LEN, LeafFunction, check_range, format_sequence,
                     parse_sequence)

# family -> the name of its generator in `graph`, looked up when called
GENERATORS = {"wheel": "wheel", "star": "star", "chain": "chain", "fk": "fk_tree"}
FAMILIES = (*GENERATORS, "caterpillar")
COMMANDS = ("generate", "leaf-function", "leaf-word", "rc", "pnf", "word-of", "check-pn", "equiv",
            "realize", "poset", "verify")  # in the order of the help's list


def _build_family(family: str, param: str):
    from . import graph

    if family == "caterpillar":
        return graph.caterpillar_graph(parse_sequence(param))
    return getattr(graph, GENERATORS[family])(_integer("--param", param))


def _input_leaf_function(args):
    check_range("max_n", args.max_n, 0, BRUTEFORCE_MAX_N)
    if args.family and args.param is None:
        raise ValueError("--family requires --param")
    if args.param is not None and not args.family:
        raise ValueError("--param requires --family")
    if args.caterpillar is not None:
        from .catseq import leaf_function_caterpillar

        return leaf_function_caterpillar(parse_sequence(args.caterpillar))
    from . import graph
    from .subtrees import leaf_function_bruteforce, leaf_function_tree

    if args.family:
        g = _build_family(args.family, args.param)
    else:
        with open(args.graph_file) as fh:
            g = graph.read_edge_list(fh.read())
    if graph.is_tree(g):
        return leaf_function_tree(g)
    return leaf_function_bruteforce(g, max_n=args.max_n)


def _integer(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}={text.strip()!r} is not an integer") from None


PARAM_HELP = (f"family parameter: wheel 3..{WHEEL_MAX_N}, star 0..{STAR_MAX_M}, "
              f"chain 1..{CHAIN_MAX_N}, fk 1..{FK_MAX_K}, or a caterpillar "
              f"sequence of size 3..{GRAPH_MAX_N}")
WORD_HELP = f"binary word of at most {WORD_MAX_LEN} letters"


def _graph_input_args(p: argparse.ArgumentParser) -> None:
    # exactly one graph input; --param goes with --family only.  argparse cannot
    # show a group that holds a positional, so the usage line is written here
    p.usage = ("%(prog)s [-h] (graph_file | --caterpillar CATERPILLAR | "
               f"--family {{{','.join(FAMILIES)}}}) [--param PARAM] [--max-n MAX_N]")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("graph_file", nargs="?", help="edge-list file ('n m' header)")
    source.add_argument("--caterpillar", help=f"caterpillar sequence of size "
                        f"3..{WORD_MAX_LEN + 3}, e.g. 3,0,2,4,0,1")
    source.add_argument("--family", choices=FAMILIES)
    p.add_argument("--param", help=PARAM_HELP)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                   help=f"brute-force bound 0..{BRUTEFORCE_MAX_N} on a graph that is not a "
                        f"tree (default {DEFAULT_MAX_N}); a tree takes the tree DP instead")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone, its usage line unchanged."""
    ap = argparse.ArgumentParser(prog="leafcat")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    names = (command,) if command in COMMANDS else COMMANDS
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=f"{{{','.join(COMMANDS)}}}" if len(names) == 1 else None)

    def add(name: str, **kwargs):
        return name in names and sub.add_parser(name, **kwargs)

    if p := add("generate", help="emit a family graph as an edge list"):
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--param", required=True, help=PARAM_HELP)
        p.add_argument("--dot", action="store_true", help="emit DOT instead")
        p.add_argument("--highlight", help="comma-separated vertices to color blue")
    for p in filter(None, [add("leaf-function", help="leaf function of a graph"),
                           add("leaf-word", help="leaf word of a graph")]):
        _graph_input_args(p)

    for p in filter(None, map(add, ("rc", "pnf"))):
        p.add_argument("word", help=WORD_HELP)

    if p := add("word-of", help="binary word of a caterpillar sequence"):
        p.add_argument("sequence", help=f"caterpillar sequence of size 3..{WORD_MAX_LEN + 3}")

    if p := add("check-pn", help="prefix normality (or k-prefix normality)"):
        p.add_argument("word", help=WORD_HELP)
        p.add_argument("--k", type=int, default=0,
                       help=f"k-prefix normality for k in 0..{K_MAX} (default 0: prefix normality)")

    if p := add("equiv", help="same maximal-ones profile?"):
        p.add_argument("word1", help=WORD_HELP)
        p.add_argument("word2", help=WORD_HELP)

    if p := add("realize", help="caterpillar realizing a leaf-function vector"):
        p.add_argument("values", help="comma-separated values, -inf allowed")

    if p := add("poset", help="cover relations of small caterpillar sequences"):
        p.add_argument("--max-size", type=int, default=6,
                       help=f"largest sequence size, 0..{HASSE_MAX_SIZE} (default 6)")
        p.add_argument("--dot", action="store_true")

    if p := add("verify", help="run exhaustive verification suites"):
        p.add_argument("--suite", default="all", choices=("all", *SUITE_BOUNDS, *SUITE_ALIASES),
                       help="all runs each suite at its default bound, trees at 12; the n=13 "
                            "claim needs --suite trees --max-n 13")
        suites = ", ".join(f"{name} {low}..{high}" for name, (low, high) in SUITE_BOUNDS.items())
        p.add_argument("--max-n", type=int, default=None, help=f"bound of a single suite: {suites}")

    return ap


def _show(args, data, text: str, end: str = "\n") -> None:
    """Print `data` as one line of JSON under --json, else `text` and `end`."""
    if args.json:
        import json

        text, end = json.dumps(data), "\n"
    print(text, end=end)


def _run(args) -> int:
    if args.command in ("rc", "pnf", "check-pn"):
        words.check_binary(args.word)  # a bad word exits 2 before any work starts

    if args.command == "generate":
        from . import graph

        if args.highlight is not None and not args.dot:
            raise ValueError("--highlight needs --dot")
        g = _build_family(args.family, args.param)
        if args.dot:
            highlight = args.highlight.split(",") if args.highlight else ()
            dot = graph.to_dot(g, [_integer("vertex", x) for x in highlight])
            _show(args, {"dot": dot}, dot, end="")
        else:
            _show(args, {"n": g.n, "edges": g.sorted_edges()}, graph.write_edge_list(g), end="")
        return 0

    if args.command == "leaf-function":
        lf = _input_leaf_function(args)
        _show(args, {"n": lf.n, "values": [str(v) if v is NEG_INF else v for v in lf.values]},
              ", ".join(f"{i} -> {v!r}" for i, v in enumerate(lf.values)))
        return 0

    if args.command == "leaf-word":
        from .leafwords import delta_leaf_word, format_leaf_word

        lw = format_leaf_word(delta_leaf_word(_input_leaf_function(args)))
        _show(args, {"leaf_word": lw}, lw)
        return 0

    if args.command == "rc":
        s = format_sequence(words.rc(args.word))
        _show(args, {"sequence": s}, s)
        return 0

    if args.command == "word-of":
        from .catseq import word_of

        w = word_of(parse_sequence(args.sequence))
        _show(args, {"word": w}, w)
        return 0

    if args.command == "pnf":
        v = words.pnf(args.word)
        _show(args, {"word": v}, v)
        return 0

    if args.command == "check-pn":
        if args.k == 0:
            wit = words.pn_violation(args.word)
            ok = wit is None
            _show(args, {"prefix_normal": ok, "witness": list(wit) if wit else None},
                  "prefix normal" if ok else
                  f"not prefix normal: prefix {wit[0]} has fewer 1s than factor {wit[1]}")
        else:
            ok = words.is_k_prefix_normal(args.word, args.k)
            _show(args, {"k": args.k, "k_prefix_normal": ok},
                  f"{'' if ok else 'not '}{args.k}-prefix normal")
        return 0 if ok else 1

    if args.command == "equiv":
        from .leafwords import leaf_equivalent

        ok = words.equivalent(args.word1, args.word2)
        _show(args, {"equivalent": ok, "leaf_equivalent": leaf_equivalent(args.word1, args.word2)},
              "equivalent" if ok else "not equivalent")
        return 0 if ok else 1

    if args.command == "realize":
        from .leafwords import Rejection, realize_caterpillar

        parts = enumerate(p.strip() for p in args.values.split(","))
        vals = tuple(NEG_INF if p == "-inf" else _integer(f"L({i})", p) for i, p in parts)
        try:
            lf = LeafFunction(len(vals) - 1, vals)
        except ValueError as exc:
            _show(args, {"realizable": False, "reason": "not-a-leaf-function", "witness": None},
                  f"rejected: {exc}")
            return 1
        result = realize_caterpillar(lf)
        if isinstance(result, Rejection):
            _show(args, {"realizable": False, "reason": result.reason,
                         "witness": list(result.witness) if result.witness else None},
                  f"rejected: {result.message()}")
            return 1
        out = format_sequence(result)
        _show(args, {"realizable": True, "sequence": out}, out)
        return 0

    if args.command == "poset":
        from . import catseq

        if args.dot:
            dot = catseq.hasse_dot(args.max_size)
            _show(args, {"dot": dot}, dot, end="")
        else:
            covers = [[format_sequence(lo), format_sequence(hi)]
                      for lo, hi in sorted(catseq.hasse_covers(args.max_size))]
            _show(args, covers, "".join(f"{lo} < {hi}\n" for lo, hi in covers), end="")
        return 0

    if args.command == "verify":
        from .verify import run_suite

        reports = run_suite(args.suite, args.max_n)
        _show(args, [r.to_dict() for r in reports], "\n".join(r.line() for r in reports))
        return 0 if all(r.passed for r in reports) else 1

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:  # the command is the first token but --json; -h or any other before it builds all
        args = build_parser(next((t for t in argv if t != "--json"), None)).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
