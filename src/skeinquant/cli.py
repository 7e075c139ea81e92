"""Command-line entry point with reproducible manifests.

Every run writes (or prints) a manifest describing the inputs and the
conventions version next to its results, and produces byte-identical
output when repeated with the same configuration.  Exit status is zero
only when every requested check passes; 1 means a check failed, and 2 an
error such as a value that cannot be certified (PrecisionLoss).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from . import __version__, errors
from .diagrams import BraidWord, LinkDiagram
from .bracket import braid_closure_bracket, kauffman_bracket
from .errors import SkeinQuantError
from .geom import QuantizationContext
from .jones import CATALOG_BRAIDS, KnotPresentation, colored_jones, colored_jones_exact
from .knotstate import _state_and_norm, volume_sequence, write_volume_csv
from .roots import RootContext
from .tqft import MappingClassWord, rep_S, rep_T, rt_invariant, sl2z_rep
from .verify import verification_report

CONVENTIONS_VERSION = "1"


class RunConfig(NamedTuple):
    """One resolved invocation: command, parameters, output."""

    command: str
    params: dict
    out: Optional[str] = None


def _manifest(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "parameters": {k: cfg.params[k] for k in sorted(cfg.params)},
        "conventions_version": CONVENTIONS_VERSION,
        "package_version": __version__,
    }


def _complex_pair(z: complex):
    return {"re": float(z.real), "im": float(z.imag)}


def _json_chunks(o, ind: str):
    """json.dumps(o, sort_keys=True, indent=2) at indent ``ind``, in pieces: one per
    bracket, key and scalar, and one per row of a nonempty complex numpy matrix,
    which is written as json writes its rows of [re, im] pairs."""
    if isinstance(o, dict):
        sep = "{"
        for k, v in sorted(o.items()):
            yield f"{sep}\n{ind}  {encode_basestring_ascii(k)}: "
            yield from _json_chunks(v, ind + "  ")
            sep = ","
        yield f"\n{ind}}}" if o else "{}"
    elif isinstance(o, (list, tuple)):
        sep = "["
        for v in o:
            yield f"{sep}\n{ind}  "
            yield from _json_chunks(v, ind + "  ")
            sep = ","
        yield f"\n{ind}]" if o else "[]"
    elif isinstance(o, str):
        yield encode_basestring_ascii(o)
    elif isinstance(o, float):
        yield _json_spelling(float.__repr__(o))
    elif o is None or isinstance(o, int):
        yield ("null" if o is None else "true" if o is True else "false" if o is False
               else int.__repr__(o))
    else:   # a complex matrix: each C-ordered row is its (re, im) floats in turn
        rows = o.astype(complex, order="C", copy=False).view(float)
        pair = f"\n{ind}    [\n{ind}      %s,\n{ind}      %s\n{ind}    ]"
        row = f"\n{ind}  [{','.join([pair] * o.shape[1])}\n{ind}  ]"
        sep = "["
        for i in range(len(rows)):
            yield sep + _json_spelling(row % tuple(rows[i].tolist()))
            sep = ","
        yield f"\n{ind}]"


def _json_spelling(text: str) -> str:
    """Float reprs as json spells them: nan is NaN and inf Infinity (a finite repr has no n)."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _write_json(doc, path: Optional[str] = None) -> None:
    """Write json.dumps(doc, sort_keys=True, indent=2) and a newline to ``path`` or
    stdout a piece at a time, so that the document is never held as one string."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(_json_chunks(doc, ""))
        fh.write("\n")


def _emit(cfg: RunConfig, payload: dict) -> None:
    _write_json({"manifest": _manifest(cfg), "result": payload}, cfg.out)


def _knot_from_args(args) -> KnotPresentation:
    if args.knot is not None:
        return KnotPresentation.from_catalog(args.knot)
    if args.braid is not None:   # '' is the empty word
        if not args.strands:
            raise SkeinQuantError("--braid requires --strands")
        return KnotPresentation.from_braid(
            BraidWord.from_text(args.braid, args.strands).word, args.strands)
    raise SkeinQuantError("provide --knot or --braid")


def _parse_tau(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise SkeinQuantError(f"cannot parse --tau {text!r}; write it like 0.3+1.7i") from None


# -- commands ---------------------------------------------------------------

def _cmd_jones(cfg: RunConfig, args) -> int:
    K = _knot_from_args(args)
    if args.exact:
        poly = colored_jones_exact(K, args.n)
        _emit(cfg, {"knot": K.name, "n": args.n, "backend": "exact",
                    "polynomial": poly.format("t")})
        return 0
    val = colored_jones(K, args.n, RootContext(args.r), backend=args.backend)
    _emit(cfg, {"knot": K.name, "n": args.n, "r": args.r,
                "re": float(val.value.real), "im": float(val.value.imag),
                "backend": val.backend})
    return 0


def _cmd_bracket(cfg: RunConfig, args) -> int:
    if args.pd is not None:
        with open(args.pd) as fh:
            diagram = LinkDiagram.from_pd_text(fh.read())
        poly, crossings, components = (kauffman_bracket(diagram), diagram.num_crossings,
                                       diagram.num_components)
    else:
        if args.braid is None or not args.strands:
            raise SkeinQuantError("provide --pd FILE or --braid with --strands")
        braid = BraidWord.from_text(args.braid, args.strands)
        # a closure's components are its permutation cycles
        poly, crossings, components = (braid_closure_bracket(braid), len(braid.word),
                                       len(braid.closure_components()))
    _emit(cfg, {"bracket": poly.format("A"), "crossings": crossings,
                "components": components})
    return 0


def _tqft_bytes(r: int, matrices: int) -> int:
    """Peak bytes of a tqft run that emits ``matrices`` r x r matrices (3 with a word).

    16 r^2 for each emitted matrix and one more for rep_S's temporaries; a word's
    product also holds rep_T, rep_S, the adjoints of the inverse letters it uses and
    a partial product, up to 5 more (traced at r = 300: 2.6 of these without a word,
    6.0 with "S T S" and 8.0 with "S' T' S").  The writer holds one row of text.
    """
    return 16 * r * r * (matrices + 1 + 5 * (matrices - 2)) + (1 << 17)


def _cmd_tqft(cfg: RunConfig, args) -> int:
    r = args.r
    errors.check_bytes(f"tqft at r = {r}", _tqft_bytes(r, 3 if args.word is not None else 2))
    payload = {"r": r, "rep_T": rep_T(r), "rep_S": rep_S(r)}
    if args.word is not None:   # '' is the identity
        word = MappingClassWord.from_text(args.word)
        payload["word"] = list(word.word)
        payload["word_matrix"] = [list(row) for row in word.matrix]
        payload["rep_word"] = sl2z_rep(word, r)
    _emit(cfg, payload)
    return 0


def _cmd_rt(cfg: RunConfig, args) -> int:
    K = None if args.surgery == "empty" else KnotPresentation.from_catalog(args.surgery)
    val = rt_invariant(K, args.framing, args.r)
    _emit(cfg, {"surgery": args.surgery, "framing": args.framing, "r": args.r,
                "value": _complex_pair(val)})
    return 0


def _cmd_geom_verify(cfg: RunConfig, args) -> int:
    ctx = QuantizationContext(args.r, _parse_tau(args.tau))
    report = verification_report(ctx, include_modular=not args.skip_modular)
    _emit(cfg, report)
    return 0 if report["pass"] else 1


def _cmd_knot_state(cfg: RunConfig, args) -> int:
    K = _knot_from_args(args)
    state, norm = _state_and_norm(K, args.r, args.backend)
    _emit(cfg, {"knot": K.name, "r": args.r,
                "coeffs": [_complex_pair(c) for c in state.coeffs.coeffs],
                "norm_sq": norm.norm_sq, "norm": norm.norm,
                "argmax_n": norm.argmax_n})
    return 0


def _cmd_volume_seq(cfg: RunConfig, args) -> int:
    if not args.out:
        raise SkeinQuantError("volume-seq requires --out CSV path")
    if args.step == 0:
        raise SkeinQuantError("--step must not be 0")
    K = _knot_from_args(args)
    r_list = list(range(args.r_min, args.r_max + (1 if args.step > 0 else -1), args.step))
    if not r_list:
        raise SkeinQuantError(f"no level from --r-min {args.r_min} to --r-max {args.r_max} "
                              f"in steps of {args.step}")
    rows = volume_sequence(K, r_list, ref_vol=args.ref_vol)
    write_volume_csv(rows, args.out)
    _write_json(_manifest(cfg), args.out + ".manifest.json")
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


# -- argument plumbing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skeinquant",
        description="Torus quantum invariants: exact skein arithmetic and "
                    "theta-section quantization, cross-verified.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default argument values (flags win)")
    common.add_argument("--out", help="write the result file here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("jones", help="colored Jones evaluations")
    sp.add_argument("--knot", choices=sorted(CATALOG_BRAIDS))
    sp.add_argument("--braid", help="signed generator word, e.g. '1 1 1'")
    sp.add_argument("--strands", type=int)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=5)
    sp.add_argument("--exact", action="store_true", help="print the exact polynomial in t")
    sp.add_argument("--backend", default="auto",
                    choices=["auto", "exact", "rmatrix", "catalog"])
    sp.set_defaults(func=_cmd_jones)

    sp = add_parser("bracket", help="exact bracket of a diagram or braid closure")
    sp.add_argument("--pd", help="path to a planar-diagram text file")
    sp.add_argument("--braid")
    sp.add_argument("--strands", type=int)
    sp.set_defaults(func=_cmd_bracket)

    sp = add_parser("tqft", help="torus representation matrices")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--emit", choices=["matrices"], help="matrices are always emitted")
    sp.add_argument("--word", help="mapping class word, e.g. 'S T S'")
    sp.set_defaults(func=_cmd_tqft)

    sp = add_parser("rt", help="surgery invariant of a closed manifold")
    sp.add_argument("--surgery", default="empty",
                    choices=["empty"] + sorted(CATALOG_BRAIDS))
    sp.add_argument("--framing", type=int, default=0)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=_cmd_rt)

    sp = add_parser("geom-verify", help="run the geometric verification suite")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--tau", default="i")
    sp.add_argument("--skip-modular", action="store_true")
    sp.set_defaults(func=_cmd_geom_verify)

    sp = add_parser("knot-state", help="state coefficients and norms")
    sp.add_argument("--knot", choices=sorted(CATALOG_BRAIDS))
    sp.add_argument("--braid")
    sp.add_argument("--strands", type=int)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--backend", default="auto",
                    choices=["auto", "exact", "rmatrix", "catalog"])
    sp.set_defaults(func=_cmd_knot_state)

    sp = add_parser("volume-seq", help="norm-growth sequence to CSV")
    sp.add_argument("--knot", choices=sorted(CATALOG_BRAIDS))
    sp.add_argument("--braid")
    sp.add_argument("--strands", type=int)
    sp.add_argument("--r-min", type=int, required=True, dest="r_min")
    sp.add_argument("--r-max", type=int, required=True, dest="r_max")
    sp.add_argument("--step", type=int, default=10)
    sp.add_argument("--ref-vol", type=float, default=None, dest="ref_vol",
                    help="reference volume for non-catalog knots")
    sp.set_defaults(func=_cmd_volume_seq)
    return p


def _config_path(args: list) -> Optional[str]:
    """The --config path among a command's arguments, found by argparse
    itself: the flag or a prefix of it (--conf), its value after '=' or
    as the next argument, the last one winning."""
    if not any(a.startswith("--c") for a in args):   # spares a parser per call
        return None
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        return pre.parse_known_args(args)[0].config
    except argparse.ArgumentError:
        raise SkeinQuantError("--config requires a file path") from None


def _apply_config_file(parser: argparse.ArgumentParser, argv) -> list:
    """argv with the --config JSON values spliced in as flags after the command.

    Explicit flags come later on the command line, so they win.  Keys the
    command has no flag for are ignored, and a store_true flag is added
    only for a true value.  The parser is left as it is.
    """
    commands = parser._subparsers._group_actions[0].choices
    at = next((i for i, a in enumerate(argv) if a in commands), None)
    if at is None:   # parse_args reports the missing command
        return argv
    sub = commands[argv[at]]
    path = _config_path(argv[at + 1:])
    if path is None:
        return argv
    with open(path) as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise SkeinQuantError("config file must hold a JSON object")
    defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
    flags = []
    for a in sub._actions:
        value = defaults.get(a.dest)
        if value is None:   # null leaves the flag unset
            continue
        if isinstance(a, argparse._StoreTrueAction):
            flags += [a.option_strings[0]] if value else []
        else:
            flags.append(f"{a.option_strings[0]}={value}")
    return argv[:at + 1] + flags + argv[at + 1:]


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing and _apply_config_file leave it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if sum(getattr(args, k, None) is not None for k in ("knot", "braid", "pd")) > 1:
            raise SkeinQuantError("give one input: --knot, --braid or --pd")
        cfg = RunConfig(command=args.command,
                        params={k: v for k, v in vars(args).items()
                                if k not in ("func", "command", "config", "out")
                                and v is not None},
                        out=args.out)
        status = args.func(cfg, args)
        sys.stdout.flush()   # a reader that has gone shows here, not at the interpreter's exit
        return status
    except BrokenPipeError:
        # a pipe's reader has gone (| head): stop quietly, with stdout on devnull so
        # that the interpreter's last flush has nothing to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (SkeinQuantError, OSError, ValueError) as exc:
        # ValueError is how the constructors reject out-of-range input
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
