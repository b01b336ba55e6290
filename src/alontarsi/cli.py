"""Command-line front door.

Commands: construct, atn, census, choosable, verify, efl.
Exit codes: 0 success, 1 claim failure, 2 bad input, 3 guard violation,
4 internal cross-check mismatch, 141 (128 + SIGPIPE) the reader of stdout
closed it early.

`main` builds only the parser of the command that argv names, so a call
pays for one command's arguments, not all six; any other argv (none, -h,
an unknown command, arguments the command does not know) goes to the full
parser from `build_parser`, so help, usage and error text stay those of
the full parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coloring import is_k_choosable
from .efl import EflConfig, build_graph, generate_all, generate_up_to, theorem4_certify
from .errors import SizeGuardExceeded
from .graphs import (
    class2_augment,
    disjoint_union,
    line_graph,
    parse_edge_list_text,
    regular_embed_class1,
    subdivision_graph,
    to_edge_list_text,
    total_graph,
)
from .orientations import CENSUS_GUARD, Orientation, atn_from_orientations, enumerated_census
from .polynomials import atn_from_polynomial
from .verify import CAMPAIGNS, campaign_passed, default_config, report_line, run_campaign

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD = 3
EXIT_MISMATCH = 4
EXIT_BROKEN_PIPE = 141


class CrossCheckMismatch(Exception):
    pass


def _read_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list_text(fh.read())


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_CONSTRUCTIONS = {
    "line": line_graph,
    "subdivision": subdivision_graph,
    "total": total_graph,
    "double": lambda g: disjoint_union(g, g),
    "embed": regular_embed_class1,
    "augment": lambda g: class2_augment(g)[0],
}

_CONSTRUCT_NUMBERING = """vertex numbering, for an input on vertices 0..n-1 whose edge i is the
i-th edge in sorted order:
  line         vertex i is edge i
  subdivision  vertices 0..n-1 are the input's; vertex n+i subdivides edge i
  total        as subdivision
  double       copy one on 0..n-1, copy two on n..2n-1
  embed        copy j of vertex v is j*n+v; the input is induced on 0..n-1
  augment      the input on 0..n-1; the pendant vertex is n
  efl          the vertex ids of the configuration's cliques
"""


def _cmd_construct(args) -> int:
    if args.kind == "efl":
        with open(args.input, encoding="utf-8") as fh:
            out = build_graph(EflConfig.from_json(fh.read()))
    else:
        out = _CONSTRUCTIONS[args.kind](_read_graph(args.input))
    _write_text(args.output, to_edge_list_text(out))
    return EXIT_OK


def _cmd_atn(args) -> int:
    if args.max_edges < 0:  # checked here too, since poly never reads it
        raise ValueError(f"edge guard must be non-negative, got {args.max_edges}")
    g = _read_graph(args.input)
    results = {}
    # orientations first, so that their edge guard refuses before any
    # expansion; the output still lists poly before orient
    if args.method in ("orient", "both"):
        results["orient"] = atn_from_orientations(g, max_edges=args.max_edges)
    if args.method in ("poly", "both"):
        results = {"poly": atn_from_polynomial(g), **results}
    if args.method == "both" and results["poly"][0] != results["orient"][0]:
        raise CrossCheckMismatch(
            f"polynomial says {results['poly'][0]}, "
            f"orientations say {results['orient'][0]}"
        )
    payload = {
        "atn": next(iter(results.values()))[0],
        "certificates": {k: cert.to_json_obj() for k, (_, cert) in results.items()},
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"ATN = {payload['atn']}")
        for method, (_, cert) in results.items():
            print(f"  {method}: {json.dumps(cert.to_json_obj(), sort_keys=True)}")
    return EXIT_OK


def _cmd_census(args) -> int:
    g = _read_graph(args.input)
    orient = Orientation.from_int(g, int(args.bits, 16))
    census = enumerated_census(orient, max_edges=args.max_edges)
    payload = {
        "even": census.even,
        "odd": census.odd,
        "maxOutdegree": max(orient.outdegrees(), default=0),
        "alonTarsi": census.alon_tarsi,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_choosable(args) -> int:
    g = _read_graph(args.input)
    ok, witness = is_k_choosable(g, args.k, max_nodes=args.max_nodes)
    payload = {
        "k": args.k,
        "choosable": ok,
        "witness": None if witness is None else [list(l) for l in witness],
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif ok:
        print(f"{args.k}-choosable")
    else:
        print(f"not {args.k}-choosable; bad lists: {payload['witness']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"--config must hold a JSON object, not {type(loaded).__name__}")
        overrides.update(loaded)
    # each flag sets its knob only on campaigns that have one
    knobs = default_config(args.campaign)
    for key in ("max_edges", "seed"):
        value = getattr(args, key)
        if value is not None and key in knobs:
            overrides[key] = value

    def sink(report):
        if args.format == "json":
            print(report_line(report))
        else:
            status = "PASS" if report["pass"] else "FAIL"
            skips = sum(1 for v in report["claims"].values() if v == "SKIP")
            notes = [f"{skips} skipped"] if skips else []
            # a guard can trip after every claim it would skip is decided
            if "guard" in report["values"]:
                notes.append(report["values"]["guard"])
            note = f" ({'; '.join(notes)})" if notes else ""
            print(f"{status} {report['instance']}{note}")

    reports = run_campaign(args.campaign, overrides=overrides, sink=sink)
    return EXIT_OK if campaign_passed(reports) else EXIT_CLAIM_FAILURE


def _cmd_efl(args) -> int:
    if args.action == "generate":
        for cfg in generate_all(args.k):
            print(json.dumps(cfg.to_json_obj(), sort_keys=True))
        return EXIT_OK
    # certify
    configs = []
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            configs.append(EflConfig.from_json(fh.read()))
    else:
        for level in generate_up_to(args.k):
            configs.extend(level)
    ok = True
    for cfg in configs:
        report = theorem4_certify(cfg)
        print(json.dumps(report, sort_keys=True))
        if report["applicable"] and not report["conclusion_holds"]:
            ok = False
        if report["engines_agree"] is False:
            raise CrossCheckMismatch("ATN engines disagree on a configuration")
    return EXIT_OK if ok else EXIT_CLAIM_FAILURE


def _construct_arguments(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=[*_CONSTRUCTIONS, "efl"])
    p.add_argument("input", help="edge-list file (or JSON config for 'efl')")
    p.add_argument("-o", "--output", default=None, help="output edge list (default stdout)")


def _atn_arguments(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("--method", choices=["poly", "orient", "both"], default="poly")
    p.add_argument("--max-edges", type=int, default=CENSUS_GUARD)
    p.add_argument("--format", choices=["json", "text"], default="text")


def _census_arguments(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("--bits", required=True, help="orientation bit vector as hex")
    p.add_argument("--max-edges", type=int, default=CENSUS_GUARD)


def _choosable_arguments(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--format", choices=["json", "text"], default="text")


def _verify_arguments(p: argparse.ArgumentParser):
    p.add_argument("campaign", choices=list(CAMPAIGNS))
    p.add_argument("--config", default=None, help="JSON file overriding campaign config")
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")


def _efl_arguments(p: argparse.ArgumentParser):
    p.add_argument("action", choices=["generate", "certify"])
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--config", default=None, help="certify one config from a JSON file")


# command -> (help, parser keyword arguments, adds its arguments, handler)
_COMMANDS = {
    "construct": (
        "build a derived graph and write its edge list",
        {"epilog": _CONSTRUCT_NUMBERING, "formatter_class": argparse.RawDescriptionHelpFormatter},
        _construct_arguments,
        _cmd_construct,
    ),
    "atn": ("compute the Alon-Tarsi number with a certificate", {}, _atn_arguments, _cmd_atn),
    "census": (
        "Eulerian subdigraph census of one orientation",
        {},
        _census_arguments,
        _cmd_census,
    ),
    "choosable": ("exhaustive k-choosability check", {}, _choosable_arguments, _cmd_choosable),
    "verify": ("run a claim-verification campaign", {}, _verify_arguments, _cmd_verify),
    "efl": ("generate or certify clique configurations", {}, _efl_arguments, _cmd_efl),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alontarsi",
        description="Exact Alon-Tarsi numbers, graph constructions, and "
        "claim-verification campaigns at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, kwargs, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, **kwargs)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the full parser would give, from the named command's
    parser alone when that parser accepts all of argv."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        _, kwargs, add_arguments, handler = _COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"alontarsi {name}", **kwargs)
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not extras:
            args.func = handler
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except SizeGuardExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except CrossCheckMismatch as exc:
        print(f"internal cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:
        # the reader is gone (`... | head -1`); point stdout at devnull so
        # that the interpreter's final flush of what is buffered succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
