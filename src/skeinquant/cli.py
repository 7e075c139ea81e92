"""Command-line entry point with reproducible manifests.

Each command's handler takes the parsed flags as one namespace and returns
its result dict; ``main`` alone writes it, wrapped with a manifest of the
inputs and the conventions version, to ``--out`` or stdout, and a rerun
with the same configuration writes the same bytes.  ``volume-seq`` alone
writes its own files (a CSV and its manifest) and returns None.  Exit
status is 0 unless a check failed, which ``main`` reads from a result's
``"pass": false`` as 1; 2 is an error such as a usage error or a value
that cannot be certified (PrecisionLoss).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from . import __version__, errors
from .diagrams import BraidWord, LinkDiagram
from .bracket import braid_closure_bracket, kauffman_bracket
from .errors import SkeinQuantError
from .geom import QuantizationContext
from .jones import CATALOG, KnotPresentation, colored_jones, colored_jones_polynomial
from .knotstate import knot_state, volume_sequence, write_volume_csv
from .roots import RootContext
from .tqft import MappingClassWord, rep_S, rep_T, rt_invariant, sl2z_rep
from .verify import verification_report

CONVENTIONS_VERSION = "1"


def _manifest(command: str, values: dict) -> dict:
    """The run's inputs: every flag value set, but --config and --out, sorted by dest."""
    return {
        "command": command,
        "parameters": {k: values[k] for k in sorted(values)
                       if k not in ("config", "out") and values[k] is not None},
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


def _knot_from_args(args) -> KnotPresentation:
    if args.knot is not None:
        return KnotPresentation.from_catalog(args.knot)
    if args.braid is not None:   # '' is the empty word
        if not args.strands:
            raise SkeinQuantError("--braid requires --strands")
        return KnotPresentation("custom", BraidWord.from_text(args.braid, args.strands))
    raise SkeinQuantError("provide --knot or --braid")


def _parse_tau(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise SkeinQuantError(f"cannot parse --tau {text!r}; write it like 0.3+1.7i") from None


# -- commands ---------------------------------------------------------------

def _cmd_jones(args) -> dict:
    K = _knot_from_args(args)
    if args.exact:
        poly, backend = colored_jones_polynomial(K, args.n, args.backend)
        return {"knot": K.name, "n": args.n, "backend": backend, "polynomial": poly.format("t")}
    val = colored_jones(K, args.n, RootContext(args.r), backend=args.backend)
    return {"knot": K.name, "n": args.n, "r": args.r, "re": float(val.value.real),
            "im": float(val.value.imag), "backend": val.backend}


def _cmd_bracket(args) -> dict:
    if args.pd is not None:
        with open(args.pd) as fh:
            diagram = LinkDiagram.from_pd_text(fh.read())
        return {"bracket": kauffman_bracket(diagram).format("A"),
                "crossings": diagram.num_crossings, "components": diagram.num_components}
    if args.braid is None or not args.strands:
        raise SkeinQuantError("provide --pd FILE or --braid with --strands")
    braid = BraidWord.from_text(args.braid, args.strands)
    # a closure's components are its permutation cycles
    return {"bracket": braid_closure_bracket(braid).format("A"), "crossings": len(braid.word),
            "components": len(braid.closure_components())}


def _tqft_bytes(r: int, matrices: int) -> int:
    """Peak bytes of a tqft run that emits ``matrices`` r x r matrices (3 with a word).

    16 r^2 for each emitted matrix and one more for rep_S's temporaries; a word's
    product also holds rep_T, rep_S, the adjoints of the inverse letters it uses and
    a partial product, up to 5 more (traced at r = 300: 2.6 of these without a word,
    6.0 with "S T S" and 8.0 with "S' T' S").  The writer holds one row of text.
    """
    return 16 * r * r * (matrices + 1 + 5 * (matrices - 2)) + (1 << 17)


def _cmd_tqft(args) -> dict:
    r = args.r
    errors.check_bytes(f"tqft at r = {r}", _tqft_bytes(r, 3 if args.word is not None else 2))
    result = {"r": r, "rep_T": rep_T(r), "rep_S": rep_S(r)}
    if args.word is not None:   # '' is the identity
        word = MappingClassWord.from_text(args.word)
        result["word"] = list(word.word)
        result["word_matrix"] = [list(row) for row in word.matrix]
        result["rep_word"] = sl2z_rep(word, r)
    return result


def _cmd_rt(args) -> dict:
    K = None if args.surgery == "empty" else KnotPresentation.from_catalog(args.surgery)
    return {"surgery": args.surgery, "framing": args.framing, "r": args.r,
            "value": _complex_pair(rt_invariant(K, args.framing, args.r))}


def _cmd_geom_verify(args) -> dict:
    ctx = QuantizationContext(args.r, _parse_tau(args.tau))
    return verification_report(ctx, include_modular=not args.skip_modular)


def _cmd_knot_state(args) -> dict:
    state = knot_state(_knot_from_args(args), args.r, args.backend)
    norm = state.norm
    return {"knot": state.knot.name, "r": args.r,
            "coeffs": [_complex_pair(c) for c in state.coeffs.coeffs],
            "norm_sq": norm.norm_sq, "norm": norm.norm, "argmax_n": norm.argmax_n}


def _cmd_volume_seq(args) -> None:
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
    _write_json(_manifest("volume-seq", vars(args)), args.out + ".manifest.json")
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")


# -- the command table --------------------------------------------------------

class _Flag(NamedTuple):
    """A command's flag --dest, dashes for underscores: ``convert`` reads its value's
    text, and None makes it a switch, False unless given."""

    convert: Optional[Callable] = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""


_INPUT = {"knot": _Flag(choices=tuple(sorted(CATALOG))),
          "braid": _Flag(help="signed generator word, e.g. '1 1 1'"), "strands": _Flag(int)}
_BACKEND = _Flag(default="auto", choices=("auto", "exact", "rmatrix", "catalog"))
_REQUIRED_INT = _Flag(int, required=True)
_COMMON = {"config": _Flag(help="JSON file with default flag values (flags win)"),
           "out": _Flag(help="write the result file here instead of stdout")}
_COMMANDS = {   # command: (handler, help, flags by dest besides _COMMON's)
    "jones": (_cmd_jones, "colored Jones evaluations", dict(
        **_INPUT, n=_REQUIRED_INT, r=_Flag(int, 5),
        exact=_Flag(None, False, help="print the exact polynomial in t"), backend=_BACKEND)),
    "bracket": (_cmd_bracket, "exact bracket of a diagram or braid closure", dict(
        pd=_Flag(help="path to a planar-diagram text file"), braid=_INPUT["braid"],
        strands=_INPUT["strands"])),
    "tqft": (_cmd_tqft, "torus representation matrices", dict(
        r=_REQUIRED_INT, emit=_Flag(choices=("matrices",), help="matrices are always emitted"),
        word=_Flag(help="mapping class word, e.g. 'S T S'"))),
    "rt": (_cmd_rt, "surgery invariant of a closed manifold", dict(
        surgery=_Flag(default="empty", choices=("empty", *sorted(CATALOG))),
        framing=_Flag(int, 0), r=_REQUIRED_INT)),
    "geom-verify": (_cmd_geom_verify, "run the geometric verification suite", dict(
        r=_REQUIRED_INT, tau=_Flag(default="i"), skip_modular=_Flag(None, False))),
    "knot-state": (_cmd_knot_state, "state coefficients and norms", dict(
        **_INPUT, r=_REQUIRED_INT, backend=_BACKEND)),
    "volume-seq": (_cmd_volume_seq, "norm-growth sequence to CSV", dict(
        **_INPUT, r_min=_REQUIRED_INT, r_max=_REQUIRED_INT, step=_Flag(int, 10),
        ref_vol=_Flag(float, help="reference volume for non-catalog knots"))),
}


def _spelling(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _value(name: str, flag: _Flag, text: str):
    """Flag ``name``'s value read from its text, or a SkeinQuantError naming the flag."""
    try:
        value = flag.convert(text)
    except ValueError:
        raise SkeinQuantError(f"{name} takes {flag.convert.__name__}s, not {text!r}") from None
    if flag.choices and value not in flag.choices:
        raise SkeinQuantError(f"{name} takes one of {', '.join(flag.choices)}, not {text!r}")
    return value


def _parse(argv: list):
    """(command, flag values by dest) from argv, the values None where -h asks for help.

    A flag is --flag VALUE, --flag=VALUE or a bare switch, written in full or as a prefix
    of one flag alone; the token after a value flag is its value whatever it begins
    with, and the last occurrence wins.  The --config JSON object sets the flags not
    given, its values read as text by the same converters, and a switch's as JSON true or
    false alone."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise SkeinQuantError(f"{what}: choose one of {', '.join(_COMMANDS)}")
    flags = {**_COMMANDS[argv[0]][2], **_COMMON}
    names = {_spelling(dest): dest for dest in flags} | {"--help": None, "-h": None}
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        hits = [name] if name in names else [
            n for n in names if name.startswith("--") and len(name) > 2 and n.startswith(name)]
        if len(hits) != 1:
            raise SkeinQuantError(f"ambiguous flag {name}: {' or '.join(hits)}" if hits
                                  else f"unrecognized argument {token!r}")
        name = hits[0]
        dest = names[name]
        if dest is None:
            return argv[0], None
        if flags[dest].convert is None:
            if eq:
                raise SkeinQuantError(f"{name} takes no value")
            given[dest] = True
            continue
        text = text if eq else next(tokens, None)
        if text is None:
            raise SkeinQuantError(f"{name} needs a value")
        given[dest] = _value(name, flags[dest], text)
    values = {dest: flag.default for dest, flag in flags.items()}
    if given.get("config") is not None:
        with open(given["config"]) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise SkeinQuantError("config file must hold a JSON object")
        for dest, v in {k.replace("-", "_"): v for k, v in doc.items()}.items():
            if dest in flags and v is not None:   # null leaves the flag unset
                flag, name = flags[dest], _spelling(dest)
                if flag.convert is None and not isinstance(v, bool):
                    raise SkeinQuantError(f"{name} takes true or false, not {json.dumps(v)}")
                values[dest] = _value(name, flag, str(v)) if flag.convert else v
    values.update(given)
    missing = [_spelling(d) for d, flag in flags.items() if flag.required and values[d] is None]
    if missing:
        raise SkeinQuantError(f"{argv[0]} requires {' and '.join(missing)}")
    return argv[0], values


def _usage(command: Optional[str]) -> str:
    """The -h text: the commands, or one command's flags with defaults and choices."""
    if command is None:
        return "usage: skeinquant COMMAND [--FLAG VALUE ...] (COMMAND -h lists its flags)\n\n" \
            + "".join(f"  {name:<12} {about}\n" for name, (_, about, _) in _COMMANDS.items())
    _, about, flags = _COMMANDS[command]
    lines = [f"usage: skeinquant {command} [--FLAG VALUE ...]\n\n{about}\n"]
    for dest, flag in {**flags, **_COMMON}.items():
        notes = [flag.help] * bool(flag.help) + ["required"] * flag.required
        notes += [f"choices: {', '.join(flag.choices)}"] if flag.choices else []
        notes += [f"default: {flag.default}"] if flag.convert and flag.default is not None else []
        usage = _spelling(dest) + (f" {dest.upper()}" if flag.convert else "")
        lines.append(f"  {usage:<22} {'; '.join(notes)}".rstrip())
    return "\n".join(lines + [f"  {'-h, --help':<22} show this help\n"])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, values = _parse(argv)
        if values is None:
            sys.stdout.write(_usage(command))
            return 0
        if sum(values.get(k) is not None for k in ("knot", "braid", "pd")) > 1:
            raise SkeinQuantError("give one input: --knot, --braid or --pd")
        result = _COMMANDS[command][0](SimpleNamespace(**values))
        if result is not None:
            _write_json({"manifest": _manifest(command, values), "result": result},
                        values["out"])
        sys.stdout.flush()   # a reader that has gone shows here, not at the interpreter's exit
        return 1 if result is not None and result.get("pass") is False else 0
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
