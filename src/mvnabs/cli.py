"""Command-line interface.

Exit codes follow one contract everywhere: 0 when the requested
property holds (or the command simply succeeded), 1 when a checked
property is refuted, 2 for any input or usage problem.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from .abstraction import abstract_trace_set, enumerate_candidates, image_index
from .checker import check_asyn_abs
from .errors import MvnError, ParseError
from .model import validate
from .modelio import (
    parse_mapping,
    parse_model,
    report,
    serialize_mapping,
    serialize_model,
    state_labeler,
    state_labels,
    write_dot,
    write_report,
)
from .oracle import differential_suite, oracle_check
from .semantics import ASYNC, SYNC, attractors, build_state_graph, require_state_budget
from .traces import async_traces

OK, REFUTED, ERROR = 0, 1, 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _load_model(path: str):
    return parse_model(_read(path))


def _names(model, args):
    """Entity names for ``--labels``, which changes text output only."""
    return [e.name for e in model.entities] if args.labels else None


def _count(text: str) -> int:
    """``--count``: a whole number, 0 or more."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {count}")
    return count


def _write_lassos(traces, args, max_levels, names) -> None:
    """The JSON report, or one line per lasso, ``<prefix (loop)*>``."""
    if args.json:
        write_report(sys.stdout, traces, max_levels)
        return
    for t in report(traces, state_labeler(max_levels, names))["traces"]:
        prefix = " ".join(t["prefix"])
        if t["loop"]:
            print(f"<{prefix} ({' '.join(t['loop'])})*>".replace("< ", "<"))
        else:
            print(f"<{prefix}>")


def cmd_validate(args) -> int:
    model = parse_model(_read(args.model), check=False)
    diags = validate(model)
    for d in diags:
        print(d)
    if diags:
        return ERROR
    print(f"{model.name}: ok ({len(model.entities)} entities)")
    return OK


def cmd_graph(args) -> int:
    model = _load_model(args.model)
    graph = build_state_graph(model, args.semantics)
    if args.dot == "-":
        write_dot(graph, sys.stdout)
    else:
        with open(args.dot, "w", encoding="utf-8") as stream:
            write_dot(graph, stream)
        print(f"wrote {args.dot} ({len(graph.nodes)} nodes, {graph.edge_count} edges)")
    return OK


def cmd_attractors(args) -> int:
    model = _load_model(args.model)
    result = attractors(build_state_graph(model, args.semantics))
    if args.json:
        write_report(sys.stdout, result, model.max_levels)
        return OK
    label = state_labeler(model.max_levels, _names(model, args))
    for a in report(result, label)["attractors"]:
        extra = "" if a["terminal"] else " (has exits)"
        print(f"{a['kind']}: {{{' '.join(a['states'])}}}{extra}")
    return OK


def cmd_traces(args) -> int:
    model = _load_model(args.model)
    _write_lassos(async_traces(model), args, model.max_levels, _names(model, args))
    return OK


def cmd_abstract(args) -> int:
    if args.states and args.json:
        print("error: --json applies to --traces only", file=sys.stderr)
        return ERROR
    model = _load_model(args.model)
    phi = parse_mapping(_read(args.mapping), model)
    # Abstract states keep the entity names, so --labels names both sides.
    names = _names(model, args)
    if args.states:
        require_state_budget(model)
        source = state_labels(model.max_levels, names)
        target = state_labels(phi.target_max_levels, names)
        images = map(target.__getitem__, image_index(phi))
        sys.stdout.writelines(map("{} -> {}\n".format, source, images))
        return OK
    image = abstract_trace_set(phi, async_traces(model))
    _write_lassos(image, args, phi.target_max_levels, names)
    return OK


def cmd_candidates(args) -> int:
    model = _load_model(args.model)
    phi = parse_mapping(_read(args.mapping), model)
    candidates = enumerate_candidates(model, phi)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mapping_text = serialize_mapping(phi, model).strip().replace("\n", "; ")
    for k, cand in enumerate(candidates.models):
        header = (
            f"candidate {k} of {len(candidates.models)} for {model.name}",
            f"mapping: {mapping_text}",
        )
        (out_dir / f"candidate_{k}.mvn").write_text(
            serialize_model(cand, header), encoding="utf-8"
        )
    print(f"{len(candidates.models)} candidates written to {out_dir}")
    for cp in candidates.choice_points:
        name = model.entities[cp.entity].name
        print(f"choice: {name}{cp.inputs} in {list(cp.options)}")
    return OK


def cmd_check(args) -> int:
    mv1 = _load_model(args.abstract)
    mv2 = _load_model(args.concrete)
    phi = parse_mapping(_read(args.mapping), mv2)
    result = check_asyn_abs(mv1, mv2, phi)
    if args.json:
        write_report(sys.stdout, result, mv1.max_levels, mv2.max_levels)
    else:
        verdict = "holds" if result.holds else "refuted"
        print(f"{mv1.name} abstracts {mv2.name}: {verdict} "
              f"({result.stats.iterations} iterations, "
              f"{result.stats.initial_terms} initial step terms)")
        if args.witness and result.witness is not None:
            labelers = state_labeler(mv1.max_levels), state_labeler(mv2.max_levels)
            witness = report(result, *labelers)["witness"]
            print(f"failed at abstract state {witness['state']}: {witness['reason']}")
            for r in witness["removals"]:
                print(f"  removed ({r['state']}, {{{','.join(r['gamma'])}}}) — "
                      f"successor {r['failed_successor']} unrealised")
    return OK if result.holds else REFUTED


def cmd_oracle_check(args) -> int:
    mv1 = _load_model(args.abstract)
    mv2 = _load_model(args.concrete)
    phi = parse_mapping(_read(args.mapping), mv2)
    verdict = oracle_check(mv1, mv2, phi)
    print(f"{mv1.name} abstracts {mv2.name}: {'holds' if verdict else 'refuted'} "
          "(by trace inclusion)")
    return OK if verdict else REFUTED


def cmd_fuzz(args) -> int:
    report = differential_suite(args.seed, args.count)
    if args.json:
        print(json.dumps(
            {k: v for k, v in report.items() if k != "instances"},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"{report['count']} instances, {report['supported']} supported, "
              f"{len(report['divergences'])} divergences")
        for d in report["divergences"]:
            print(f"divergence ({d['kind']}) at instance {d['index']}:")
            print(d["mv1"])
            print(d["mv2"])
            print(d["mapping"])
    return OK if not report["divergences"] else REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvnabs",
        description="Multi-valued network analysis and abstraction checking.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file's invariants")
    p.add_argument("model")

    p = sub.add_parser("graph", help="export a state graph as DOT")
    p.add_argument("model")
    p.add_argument("--semantics", choices=[SYNC, ASYNC], default=ASYNC)
    p.add_argument("--dot", required=True, metavar="OUT", help="output path or -")

    p = sub.add_parser("attractors", help="list attractors")
    p.add_argument("model")
    p.add_argument("--semantics", choices=[SYNC, ASYNC], default=ASYNC)
    p.add_argument(
        "--json", action="store_true",
        help="emit {type, semantics, attractors: [{kind, states, terminal}]}",
    )
    p.add_argument("--labels", action="store_true", help="print entity=level labels")

    p = sub.add_parser("traces", help="enumerate asynchronous traces")
    p.add_argument("model")
    p.add_argument(
        "--json", action="store_true",
        help="emit {type, traces: [{prefix, loop}]} (empty loop = finite)",
    )
    p.add_argument("--labels", action="store_true")

    p = sub.add_parser("abstract", help="abstract a model's states or traces")
    p.add_argument("model")
    p.add_argument("mapping")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--traces", action="store_true")
    group.add_argument("--states", action="store_true")
    p.add_argument(
        "--json", action="store_true",
        help="with --traces: emit {type, traces: [{prefix, loop}]}",
    )
    p.add_argument("--labels", action="store_true")

    p = sub.add_parser("candidates", help="write every candidate abstraction")
    p.add_argument("model")
    p.add_argument("mapping")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("check", help="step-term abstraction check")
    p.add_argument("abstract")
    p.add_argument("concrete")
    p.add_argument("mapping")
    p.add_argument("--witness", action="store_true",
                   help="print the refutation chain when the check fails")
    p.add_argument(
        "--json", action="store_true",
        help="emit {type, holds, iterations, abstract_states, max_class_size,"
             " initial_terms, removed_terms, surviving_terms, witness}",
    )

    p = sub.add_parser("oracle-check", help="brute-force trace-inclusion check")
    p.add_argument("abstract")
    p.add_argument("concrete")
    p.add_argument("mapping")

    p = sub.add_parser("fuzz", help="differential suite: checker vs oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=100)
    p.add_argument(
        "--json", action="store_true",
        help="emit {seed, count, supported, both_finite, divergences}",
    )
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it keeps no per-call state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up by name at each call, so a replaced cmd_* function runs.
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        # Library warnings reach the user as one line each, not in
        # Python's format with a source path and line.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            return command(args)
    except (MvnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
