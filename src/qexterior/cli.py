"""Command-line front end.

Commands: check, cohomology, dolbeault, equivariant, lefschetz, chern,
integral.  Each ``cmd_*`` returns its report body, with a table command's
LaTeX tail as a second item, and does no I/O.  ``main`` alone adds the
header (command, seed, prng, conventions), writes every report (to --out
or stdout) and error object (to --out and stderr) and sets the exit code.
Reports are UTF-8 JSON, byte-identical for identical (command, config, seed).

The command line is read by ``parse_args`` against the two tables below,
COMMANDS (each command's function, help line and options) and OPTIONS
(each option's type, choices, default and help line), with argparse's
rules and error messages: ``--opt value`` or ``--opt=value``, a unique
prefix of an option, the last repeat wins, a negative number is a value.
``-h`` or ``--help`` prints a usage text built from the tables and exits 0.

Exit codes: 0 success, 1 property failure (the body's status is "fail"),
2 malformed input or violated precondition (any ValueError, which is all
the ``serialize`` loaders raise), 3 any other exception, an internal error
whose error object names its class and lists its frames.
"""

from __future__ import annotations

import json
import math
import re
import sys
import traceback
import types

# Only what every command needs is imported here.  Each command imports its
# driver (cohomology, equivariant, lefschetz, chern, calculus, suites) in
# its own body, so a CLI start compiles no module its command does not run.
from .hpoly import HLaurent, HPoly, hpoly_to_json
from .sampling import PRNG_NAME
from .serialize import (CONVENTIONS, MAX_MODEL_DIM, action_from_json,
                        connection_from_json, dump_json, form_from_json,
                        form_to_json, model_from_json, spectrum_to_json,
                        table_to_json, table_to_latex)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL_ERROR = 3


class CliError(ValueError):
    """Malformed input or a violated precondition (exit 2)."""


def _load_json(path, option, decode, *args):
    """``decode`` applied to the JSON document in the ``option`` file."""
    if not path:
        raise CliError(f"{option} is required for this command")
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot load {path}: {exc}")
    return decode(obj, *args)


# The most work one table command may take, in (Fourier mode, basis label)
# pairs: (2 mode_box + 1)^dim - 1 nonzero modes and a scan of the 2^dim
# masks per mode-0 level (per first index p for dolbeault, per total degree
# and Theta monomial for equivariant).  Certified from the unit modes, a
# nonzero mode costs O(dim^2), 8-12 us (2-vCPU Xeon, Python 3.11), so as CLI
# processes T^4 at --mode-box 3 (38,416 pairs) takes 0.17 s and T^5 at
# --mode-box 2 (exactly 100,000) 0.19 s.  At --mode-box 0 a plain T^16
# (65,536 pairs) takes 3.9 s and 262 MiB, dolbeault on the complex Darboux
# T^12 (45,056) 2.8 s and 186 MiB.
TABLE_BUDGET = 100_000

# The equivariant mode-0 Smith normal form, which the pairs do not see,
# costs sum_n |B_n|^3 units, |B_n| the Cartan labels of total degree
# n <= cutoff + 1: 0.1-2 us a unit on the same host, so the dearest
# admitted table, T^9 with three generators at --cutoff 2 (1,792,730), takes
# 3.6 s and T^4 with (1, 2, 0, 0) at 13 (705,601) 0.45 s.  T^2 at 12 with
# three generators (12 s), at 30 with two (60 s) and at 300 with one
# (199 s) are refused, and without generators T^8 at 6 (1.4 s, D = 0).
MODE_ZERO_BUDGET = 2_000_000


def _mode_zero_work(dim, generators, cutoff):
    """The mode-0 work units of an equivariant table (see MODE_ZERO_BUDGET),
    counted up to the first spot that passes the budget; without generators
    only the Theta monomial 1 exists."""
    work = 0
    for n in range(cutoff + 2):
        size = sum((math.comb(a + generators - 1, a) if generators else 1)
                   * sum(math.comb(dim, c)
                         for c in range(n % 2, min(dim, n - 2 * a) + 1, 2))
                   for a in range(n // 2 + 1 if generators else 1))
        work += size ** 3
        if work > MODE_ZERO_BUDGET:
            break
    return work


def _require_budget(args, dim, generators=None):
    """Refuse a table past TABLE_BUDGET, or an equivariant one past
    MODE_ZERO_BUDGET, before any model or action is built; past 16
    dimensions 2^dim alone is, so no larger power is formed.  ``generators``
    is None before the action is read: the pairs then count none."""
    levels = 1
    if args.command == "dolbeault":
        from .cohomology import LEVEL_CAP
        levels = dim // 2 + 2 * LEVEL_CAP + 1
    elif args.command == "equivariant":
        levels = 0
        for n in range(args.cutoff + 2):
            levels += math.comb(n // 2 + (generators or 0), n // 2)
            if levels > TABLE_BUDGET:
                break
    if dim > TABLE_BUDGET.bit_length() or \
            ((2 * max(args.mode_box, 0) + 1) ** dim - 1 + levels) * 2 ** dim \
            > TABLE_BUDGET:
        raise CliError(f"{args.command} on dimension {dim} at --mode-box "
                       f"{args.mode_box} passes the work budget of "
                       f"{TABLE_BUDGET:,} (Fourier mode, basis label) pairs")
    if args.command == "equivariant" and generators is not None and \
            _mode_zero_work(dim, generators, args.cutoff) > MODE_ZERO_BUDGET:
        raise CliError(f"equivariant on dimension {dim} with {generators} "
                       f"generator(s) at --cutoff {args.cutoff} passes the "
                       f"work budget of {MODE_ZERO_BUDGET:,} units for the "
                       f"Smith normal form of mode 0")


def _load_model(args):
    """The --model; a table command (one with --mode-box) first checks its
    work budget on the raw "dim"."""
    def decode(obj):
        dim = obj.get("dim") if isinstance(obj, dict) else None
        if "mode_box" in vars(args) and type(dim) is int and dim > 0:
            _require_budget(args, dim)
        return model_from_json(obj)
    return _load_json(args.model, "--model", decode)


def _ring(args):
    """The coefficient ring of ``--ring``; unset means Laurent."""
    return HPoly if args.ring == "polynomial" else HLaurent


# The work budget of ``check``: a --model of dimension at most 8, the
# largest the suites draw without one, refused with exit 2 before any
# trial.  A trial then costs no more than one dimension 8 draw, and a run is
# linear in --trials.  Every suite on the Darboux complex T^8 with --trials
# 20, as CLI processes (2-vCPU Xeon, Python 3.11.7): chern 30 s and 32 MiB
# (its connections' curvature is the cost; 0.8 s a trial already at
# dimension 4), dolbeault 1.0 s, associativity 0.66 s and 52 MiB, leibniz
# 0.6 s, lefschetz 0.3 s, the other seven under 0.25 s and 18 MiB.  Past
# the cap the product suites grow about 2.6-fold per dimension:
# associativity --trials 20 takes 4.5 s and 188 MiB at dimension 10 (in
# process), and an earlier run at 16 passed 1.75 GB and two minutes.
CHECK_MAX_DIM = 8
# The largest --trials of ``check``, refused with exit 2 before the model is
# built: the default 100 and the benchmark's 200 and 500 pass.  A trial of
# --suite chern costs 0.8 s on the Darboux T^4 and 1.5 s on T^8 (the
# machine above), so 500 of them take up to 13 minutes; an associativity
# trial on T^4 takes about 0.13 ms in process.
CHECK_MAX_TRIALS = 500


def cmd_check(args) -> dict:
    from .suites import SUITES, SuitePrecondition, run_suite
    if args.trials > CHECK_MAX_TRIALS:
        raise CliError(f"--trials {args.trials} passes the work budget: at "
                       f"most {CHECK_MAX_TRIALS}")
    model = _load_model(args) if args.model else None
    if model is not None and model.dim > CHECK_MAX_DIM:
        raise CliError(f"check on dimension {model.dim} passes the work "
                       f"budget: the suites take models of dimension at "
                       f"most {CHECK_MAX_DIM}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise CliError(f"unknown suite {args.suite!r}; choose from "
                           f"{', '.join(SUITES)} or 'all'")
    results, skipped = [], []
    for name in names:
        try:
            results.append(run_suite(name, model, args.trials, args.seed))
        except SuitePrecondition as exc:
            if args.suite != "all":
                raise
            skipped.append({"suite": name, "reason": str(exc)})
    body = {"results": [res.to_json() for res in results],
            "status": "pass" if all(res.ok for res in results) else "fail"}
    if skipped:
        body["skipped"] = skipped
    return body


# The largest --max-degree of ``cohomology``, refused with exit 2 before
# the model is built.  The report lists graded_dims for every degree up to
# it, though from degree dim on the values repeat with period 2.  On T^4
# (2-vCPU Xeon, Python 3.11) 10,000 takes 0.13 s, 20 MiB and writes 175 KB,
# the default 0.13 s and 16 MiB; 100,000 takes 0.44 s, 59 MiB and 1.8 MB,
# and on T^2 10^6 takes 2.8 s and 420 MiB, linear in the value.
MAX_DEGREE = 10_000


def cmd_cohomology(args) -> tuple:
    from .cohomology import quantum_derham_table
    if args.max_degree is not None and args.max_degree > MAX_DEGREE:
        raise CliError(f"--max-degree {args.max_degree} passes the work "
                       f"budget: at most {MAX_DEGREE:,}")
    model = _load_model(args)
    table = quantum_derham_table(
        model, mode_box=args.mode_box, max_degree=args.max_degree,
        ring=_ring(args))
    return table_to_json(table), \
        table_to_latex(table) + "\n" if args.latex else ""


def cmd_dolbeault(args) -> tuple:
    from .cohomology import quantum_dolbeault_table
    model = _load_model(args)
    table = quantum_dolbeault_table(
        model, mode_box=args.mode_box, ring=_ring(args))
    return table_to_json(table), \
        table_to_latex(table) + "\n" if args.latex else ""


def cmd_equivariant(args) -> tuple:
    from .equivariant import equivariant_cohomology_table
    model = _load_model(args)
    if args.ring == "laurent":
        raise CliError("equivariant tables are computed over k[h] only; "
                       "--ring laurent is not supported")

    def decode_action(obj, model):
        gens = obj.get("generators") if isinstance(obj, dict) else None
        _require_budget(args, model.dim, len(gens) if isinstance(gens, list)
                        else 0)
        return action_from_json(obj, model)
    action = _load_json(args.action, "--action", decode_action, model)
    table = equivariant_cohomology_table(
        model, action, cutoff=args.cutoff, mode_box=args.mode_box)
    return table_to_json(table), \
        table_to_latex(table) + "\n" if args.latex else ""


# The largest --n of ``lefschetz``, refused with exit 2 before any work.
# In process (2-vCPU Xeon, Python 3.11.7) n = 4 takes 0.03 s and 18 MiB and
# writes 262,713 bytes, n = 5 0.16 s and 32 MiB for 3,665,795 bytes; n = 6
# would take 2.5 s and 283 MiB and write 66 MB, most of it the expanded
# characteristic polynomials: the checks alone take 0.41 s at n = 6 and
# 2.0 s at n = 7, so the report, not the checks, sets the cap.
LEFSCHETZ_MAX_N = 5


def cmd_lefschetz(args) -> dict:
    from .lefschetz import (DarbouxSpace, commutator_check,
                            hard_lefschetz_check)
    n = args.n
    if n < 1 or n > LEFSCHETZ_MAX_N:
        raise CliError(f"lefschetz reports cover n in 1..{LEFSCHETZ_MAX_N}")
    space = DarbouxSpace(n)
    comm = commutator_check(space)
    hl = hard_lefschetz_check(space)
    return {"n": n,
            "commutators": {k: bool(v) for k, v in comm.results.items()},
            "commutator_notes": comm.notes,
            "blocks": {str(k): spectrum_to_json(b, hl.conformance[k])
                       for k, b in sorted(hl.blocks.items())},
            "all_invertible": hl.all_invertible,
            "status": "pass" if comm.ok and hl.all_invertible else "fail"}


# The largest --power of ``chern``, refused with exit 2 before the model is
# read, as a --power below 1 is: by E = exp(h iota_w) every F_h^k with
# 2k > dim is zero.  It bounds the number of powers, not the cost of one
# matrix product.
CHERN_MAX_POWER = MAX_MODEL_DIM // 2


def cmd_chern(args) -> dict:
    from .calculus import quantum_d
    from .chern import char_forms, quantum_curvature
    if args.power > CHERN_MAX_POWER:
        raise CliError(f"--power {args.power} passes the work budget: at "
                       f"most {CHERN_MAX_POWER}")
    if args.power < 1:
        raise CliError("--power must be at least 1")
    model = _load_model(args)
    conn = _load_json(args.connection, "--connection", connection_from_json,
                      model)
    F = quantum_curvature(conn)
    chars = {}
    closed = True
    for k, form in zip(range(1, args.power + 1), char_forms(F, model)):
        cert = quantum_d(form, model)
        chars[str(k)] = {"form": form_to_json(form),
                         "d_h": form_to_json(cert),
                         "closed": cert.is_zero()}
        closed = closed and cert.is_zero()
    return {"rank": conn.rank,
            "curvature": [[form_to_json(F[i][j]) for j in range(conn.rank)]
                          for i in range(conn.rank)],
            "char_forms": chars,
            "status": "pass" if closed else "fail"}


def cmd_integral(args) -> dict:
    from .calculus import qintegral, stokes_check
    model = _load_model(args)
    form = _load_json(args.form, "--form", form_from_json, model,
                      _ring(args) is HLaurent)
    value = qintegral(form, model)
    stokes = stokes_check(form, model)
    return {"ring": args.ring or "laurent",
            "integral": hpoly_to_json(value),
            "stokes": {"int_d": hpoly_to_json(stokes.int_d),
                       "int_h_delta": hpoly_to_json(stokes.int_hdelta),
                       "int_dh": hpoly_to_json(stokes.int_dh),
                       "pass": bool(stokes)},
            "status": "pass" if stokes else "fail"}


# Every option of the CLI; each command takes only those it reads.  An
# option without "type" keeps its string, and a "flag" takes no value.
OPTIONS = {
    "--model": {"help": "model JSON file"},
    "--seed": {"type": int, "default": 0, "help": "seed, at least 0 "
               "(default 0)"},
    "--trials": {"type": int, "default": 100, "help": "trials per suite "
                 "(default 100)"},
    "--mode-box": {"type": int, "default": 1, "help": "largest |k_i| of a "
                   "Fourier mode (default 1)"},
    "--max-degree": {"type": int, "default": None,
                     "help": "last degree of graded_dims"},
    # Unset (None) means laurent, except for equivariant, which computes
    # over k[h] and refuses an explicit --ring laurent.
    "--ring": {"choices": ["polynomial", "laurent"], "default": None,
               "help": "coefficient ring: polynomial or laurent"},
    "--latex": {"flag": True, "default": False,
                "help": "append a LaTeX table"},
    "--out": {"help": "output path (default stdout)"},
    "--suite": {"default": "all", "help": "suite name (default all)"},
    "--action": {"help": "action JSON file"},
    "--cutoff": {"type": int, "default": 6, "help": "largest Cartan degree "
                 "(default 6)"},
    "--n": {"type": int, "default": 1, "help": "half the dimension "
            "(default 1)"},
    "--connection": {"help": "connection JSON file"},
    "--power": {"type": int, "default": 2, "help": "largest power "
                "(default 2)"},
    "--form": {"help": "form JSON file"},
}

_TABLE = ("--model", "--seed", "--mode-box", "--ring", "--latex", "--out")

COMMANDS = {
    "check": (cmd_check, "run randomized property suites",
              ("--model", "--seed", "--trials", "--suite", "--out")),
    "cohomology": (cmd_cohomology, "quantum de Rham table",
                   _TABLE + ("--max-degree",)),
    "dolbeault": (cmd_dolbeault, "quantum Dolbeault table", _TABLE),
    "equivariant": (cmd_equivariant, "equivariant cohomology table",
                    _TABLE + ("--action", "--cutoff")),
    "lefschetz": (cmd_lefschetz, "Lefschetz spectrum report",
                  ("--seed", "--n", "--out")),
    "chern": (cmd_chern, "quantum characteristic forms",
              ("--model", "--seed", "--connection", "--power", "--out")),
    "integral": (cmd_integral, "quantum integral and Stokes check",
                 ("--model", "--seed", "--ring", "--form", "--out")),
}


class HelpRequested(Exception):
    """-h or --help was read; the exception holds the usage text."""


def _usage(command=None) -> str:
    """The usage text of the CLI, or of ``command``, read off the tables."""
    if command is None:
        lines = ["usage: qexterior COMMAND [OPTION ...]", "",
                 "Exact quantum exterior calculus on Poisson model spaces.",
                 "", "commands:"] + [
            f"  {name:<13}{help_text}"
            for name, (_f, help_text, _o) in COMMANDS.items()] + [
            "", "'qexterior COMMAND --help' lists the options of COMMAND."]
    else:
        _f, help_text, options = COMMANDS[command]
        lines = [f"usage: qexterior {command} [OPTION ...]", "", help_text,
                 "", "options:"] + [
            f"  {option:<14}{OPTIONS[option]['help']}" for option in options]
    return "\n".join(lines) + "\n"


_HELP = ("-h", "--help")


def _read_option(arg, names, prog):
    """``arg`` read as argparse reads it against the option ``names``: None
    for a value, else ``(name, explicit value or None)``, name None for an
    unknown option.  A unique prefix of a long option names it, and ``-h``
    takes a value glued on."""
    if not arg or arg[0] != "-" or len(arg) == 1:
        return None
    if arg in names:
        return arg, None
    if "=" in arg:
        name, value = arg.split("=", 1)
        if name in names:
            return name, value
    if arg[1] == "-":
        prefix, eq, value = arg.partition("=")
        matches = [(n, value if eq else None) for n in names
                   if n.startswith(prefix)]
    else:
        matches = [("-h", arg[2:])] if arg[1] == "h" else []
    if len(matches) > 1:
        raise CliError(f"{prog}: ambiguous option: {arg} could match "
                       f"{', '.join(n for n, _v in matches)}")
    if matches:
        return matches[0]
    # argparse reads a negative number, like a string with a space, as a
    # value
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _check_flag(name, value, prog):
    """Refuse a value given to an option that takes none; ``-hh`` is -h
    twice, as argparse reads it."""
    if value is None:
        return
    rest = value.lstrip("h") if name == "-h" else value
    if rest or not value:
        label = "-h/--help" if name in _HELP else name
        raise CliError(f"{prog}: argument {label}: ignored explicit "
                       f"argument {rest!r}")


def parse_args(argv) -> types.SimpleNamespace:
    """The command and option values of ``argv``, read against COMMANDS and
    OPTIONS with argparse's rules and messages: ``--opt value`` or
    ``--opt=value``, a unique prefix of an option, the last repeat wins, a
    negative number is a value, and everything after a first ``--`` is left
    over.  Every option the command takes is set, unset ones to their
    default.  A usage error raises CliError; -h or --help, read before any
    error, raises HelpRequested.
    """
    argv = list(argv)
    command, options, prog = None, (), "qexterior"

    def read_from(start):
        # every string is read before any is taken, so an ambiguous prefix
        # is refused wherever it stands
        reads = []
        for arg in argv[start:]:
            if arg == "--":
                return reads + [None] * (len(argv) - start - len(reads))
            reads.append(_read_option(arg, _HELP + options, prog))
        return reads

    reads = read_from(0)
    extras, values = [], {}
    i = 0
    while i < len(argv):
        read, arg = reads[i], argv[i]
        i += 1
        if read is None and command is None:
            if arg == "--" and i == len(argv):
                break
            if arg not in COMMANDS:
                raise CliError(f"{prog}: argument command: invalid choice: "
                               f"{arg!r} (choose from "
                               f"{', '.join(map(repr, COMMANDS))})")
            command = arg
            func, _help, options = COMMANDS[command]
            prog = f"qexterior {command}"
            reads[i:] = read_from(i)
        elif read is None or read[0] is None:
            extras.append(arg)
        elif read[0] in _HELP:
            _check_flag(*read, prog)
            raise HelpRequested(_usage(command))
        elif OPTIONS[read[0]].get("flag"):
            _check_flag(*read, prog)
            values[read[0]] = True
        else:
            name, value = read
            spec = OPTIONS[name]
            if value is None:
                if i == len(argv) or reads[i] is not None or argv[i] == "--":
                    raise CliError(f"{prog}: argument {name}: expected one "
                                   f"argument")
                value = argv[i]
                i += 1
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    raise CliError(f"{prog}: argument {name}: invalid "
                                   f"{spec['type'].__name__} value: "
                                   f"{value!r}")
            if "choices" in spec and value not in spec["choices"]:
                raise CliError(f"{prog}: argument {name}: invalid choice: "
                               f"{value!r} (choose from "
                               f"{', '.join(map(repr, spec['choices']))})")
            values[name] = value
    if command is None:
        raise CliError("qexterior: the following arguments are required: "
                       "command")
    if extras:
        raise CliError(f"qexterior: unrecognized arguments: "
                       f"{' '.join(extras)}")
    return types.SimpleNamespace(
        command=command, func=func,
        **{o[2:].replace("-", "_"): values.get(o, OPTIONS[o].get("default"))
           for o in options})


def _write(text, path, stream):
    """``text`` to ``stream``, if not None, and to the file ``path``, if
    given: a report goes to --out or stdout, an error object to stderr and
    --out."""
    if stream is not None:
        stream.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = None
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        # every command reads --seed; random.Random seeds from |seed|, so a
        # negative one would silently rerun its positive twin
        if args.seed < 0:
            raise CliError(f"--seed must be at least 0, got {args.seed}")
        body = args.func(args)
        body, tail = body if isinstance(body, tuple) else (body, "")
        report = {"command": args.command, "seed": args.seed,
                  "prng": PRNG_NAME, "conventions": CONVENTIONS, **body}
        _write(dump_json(report) + tail, args.out,
               None if args.out else sys.stdout)
        return EXIT_PROPERTY_FAILURE if body.get("status") == "fail" \
            else EXIT_OK
    except HelpRequested as usage:
        _write(str(usage), None, sys.stdout)
        return EXIT_OK
    except ValueError as exc:
        error = {"code": EXIT_BAD_INPUT, "message": str(exc)}
    except OSError as exc:
        # Input files are read by _load_json, so writing the report failed;
        # the error object then goes to stderr only.
        error = {"code": EXIT_BAD_INPUT,
                 "message": f"cannot write the report: {exc}"}
        args = None
    except Exception as exc:
        error = {"code": EXIT_INTERNAL_ERROR,
                 "message": f"internal error: {type(exc).__name__}: {exc}",
                 "traceback": [f"{f.filename}:{f.lineno} in {f.name}" for f
                               in traceback.extract_tb(exc.__traceback__)]}
    try:
        _write(dump_json({"error": error}), getattr(args, "out", None),
               sys.stderr)
    except OSError:
        pass    # the error is on stderr; an unwritable --out keeps its code
    return error["code"]


if __name__ == "__main__":
    raise SystemExit(main())
