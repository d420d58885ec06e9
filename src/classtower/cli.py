"""Command line surface: classify, verify-fixtures, group, scan, their options declared in one
table, ``_COMMANDS``.  main reads a well-formed argv against it; argparse, built from it only
for other argv, reads those and writes every help text and usage error.

Exit codes: 0 success, 1 stdout closed or unwritable (a broken pipe is silent,
any other write error one stderr line), 2 invalid input/usage, 3 internal
consistency failure (a failed self-check, or a failed scan worker), 4 fixture
mismatch, 130 interrupted (SIGINT; one stderr line, no traceback).  main maps
every failed self-check to exit 3, also one raised while ``scan --jobs`` shards
its pairs or while ``group`` builds its presentation.  All JSON
output is canonical (sorted keys, compact separators, integers only) so that
parse + re-serialize is byte-identical.

``scan --jobs N`` runs N processes, the parent included.  The pairs are sharded
by presentation class (``classify.presentation_class``, from the Gaussian
symbols), so each engine table is built in one process; a class too large for
one share is dealt round-robin over several.  N - 1 forked children ignore
SIGINT and send their shares of the rows back through pipes as JSON, and the
parent reaps them on every exit path.  A share that cannot get a pipe or a
process is computed by the parent; without ``os.fork``, one process.
"""

from __future__ import annotations

if __name__ == "__main__":  # python -m classtower.cli: the entry point imports this module itself
    from .__main__ import main as _entry_point

    raise SystemExit(_entry_point())

import argparse
import contextlib
import gc
import json
import os
import signal
import sys
from functools import cache
from itertools import product
from typing import NoReturn

from .classify import (
    InvariantRecord,
    PredictionReport,
    Profile,
    ValidationReport,
    admissible,
    applicable_rules,
    classify_pair,
    engine_abelianizations,
    presentation_class,
    subspace_names,
)
from .gaussian import split_prime, symbol_B, symbol_pi
from .gengroup import GPresentation, PresentationError, PsiVariant, engine_table
from .quadratic import DISCRIMINANT_BOUND, DiscriminantBoundError
from .quadratic import norm_eps, two_part_of_class_group, field_discriminant
from .symbols import InvalidPairError, is_prime, jacobi, primes_5_mod_8

EXIT_OK = 0
EXIT_STDOUT = 1
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3
EXIT_FIXTURE = 4
EXIT_INTERRUPTED = 130  # the shell's 128 + SIGINT


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_to_dict(
    record: InvariantRecord, report: PredictionReport, validation: ValidationReport
) -> dict:
    k = {}
    for j, kf in report.k_fields.items():
        k[f"K{j}"] = {
            "radicand": kf.radicand,
            "norm_group": subspace_names(kf.norm_group),
            "kernel": subspace_names(kf.kernel),
            "kernel_size": len(kf.kernel),
            "cl2": list(kf.cl2.divisors),
            "taussky_A": kf.taussky_A,
        }
    l = {}
    for j, lf in report.l_fields.items():
        l[f"L{j}"] = {
            "factors": [f"K{i}" for i in lf.factors],
            "norm_group": subspace_names(lf.norm_group),
            "kernel_size": len(lf.kernel),
            "cl2": list(lf.cl2.divisors),
        }
    return {
        "p1": record.pair.p1,
        "p2": record.pair.p2,
        "d": record.d,
        "disc": record.disc,
        "invariants": {
            "legendre": record.legendre,
            "pi": record.pi,
            "B": record.B,
            "m": record.m,
            "n": record.n,
            "q": record.q,
            "norm_eps_r": record.norm_eps_r,
            "psi": record.psi.value,
        },
        "group": {
            "order": report.group_order,
            "coclass": report.coclass,
            "nilpotency_class": report.nilpotency_class,
            "derived_type": list(report.derived.divisors),
            "cl2_hilbert": list(report.derived.divisors),
            "cl2_K3": list(report.cl2_k3.divisors),
        },
        "K": k,
        "L": l,
        "cross_validation": {
            "passed": validation.passed,
            "checks": len(validation.checks),
            "failures": [
                {"name": c.name, "expected": c.expected, "got": c.got}
                for c in validation.failures()
            ],
        },
    }


def _print_classify_text(rec, report, validation):
    print(f"pair (p1, p2) = ({rec.pair.p1}, {rec.pair.p2}),  d = {rec.d},  disc = {rec.disc}")
    print(
        f"symbols: (p1/p2) = {rec.legendre:+d}, pi = {rec.pi:+d}, B = {rec.B:+d}, "
        f"N(eps_r) = {rec.norm_eps_r:+d}"
    )
    print(f"exponents: m = {rec.m}, n = {rec.n}, q = {rec.q}, psi = {rec.psi.value}")
    print(
        f"group: order {report.group_order}, coclass {report.coclass}, "
        f"class {report.nilpotency_class}, derived {report.derived}, Cl2(K3) {report.cl2_k3}"
    )
    print(f"{'field':<5} {'Cl2':<12} {'kernel':<22} {'norm group':<22} {'A?'}")
    for j in range(1, 8):
        kf = report.k_fields[j]
        print(
            f"K{j:<4} {str(kf.cl2):<12} {','.join(subspace_names(kf.kernel)):<22} "
            f"{','.join(subspace_names(kf.norm_group)):<22} {'yes' if kf.taussky_A else 'NO'}"
        )
    for j in range(1, 8):
        lf = report.l_fields[j]
        print(
            f"L{j:<4} {str(lf.cl2):<12} {'all 8 classes':<22} "
            f"{','.join(subspace_names(lf.norm_group)):<22} yes"
        )
    status = "passed" if validation.passed else "FAILED"
    print(f"cross-validation: {len(validation.checks)} checks {status}")
    for c in validation.failures():
        print(f"  FAIL {c.name}: expected {c.expected}, got {c.got}")


def cmd_classify(args) -> int:
    try:
        record, report, validation = classify_pair(args.p1, args.p2)
    except InvalidPairError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DiscriminantBoundError:
        print(f"invalid input: p1*p2 = {args.p1 * args.p2} exceeds the class-group bound "
              f"DISCRIMINANT_BOUND/4 = {DISCRIMINANT_BOUND // 4}", file=sys.stderr)
        return EXIT_INPUT
    except PresentationError as exc:
        print(f"invalid input: the pair's group is too large: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        print(dumps(report_to_dict(record, report, validation)))
    else:
        _print_classify_text(record, report, validation)
    return EXIT_OK if validation.passed else EXIT_CONSISTENCY


def cmd_verify_fixtures(args) -> int:
    from .fixtures import verify_fixtures

    try:
        results = verify_fixtures(table=args.table, filter_d=args.filter)
    except (ValueError, OSError) as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    n_rows = len(results)
    n_pass = sum(1 for r in results if r.passed)
    if args.json:
        payload = {
            "rows": n_rows,
            "passed": n_pass,
            "failed": n_rows - n_pass,
            "results": [
                {
                    "table": r.table,
                    "d": r.d,
                    "p1": r.p1,
                    "p2": r.p2,
                    "passed": r.passed,
                    "columns": [
                        {
                            "column": c.column,
                            "ok": c.ok,
                            "printed": c.printed,
                            "expected": c.expected,
                            "computed": c.got,
                        }
                        for c in r.columns
                    ],
                }
                for r in results
            ],
        }
        print(dumps(payload))
    else:
        for r in results:
            mark = "ok " if r.passed else "FAIL"
            print(f"[{mark}] table {r.table:>2}  d = {r.d:<6} (p1={r.p1}, p2={r.p2})  "
                  f"{len(r.columns)} columns")
            audit = r.columns if args.verbose else r.failures()
            for c in audit:
                src = f"printed {c.printed} -> {c.expected}" if c.printed else f"printed {c.expected}"
                print(f"       {c.column}: {src}, computed {c.got}")
        print(f"{n_pass}/{n_rows} rows pass")
        if n_rows == 0:
            print("0 rows matched the filter")
    return EXIT_OK if n_pass == n_rows else EXIT_FIXTURE


def cmd_group(args) -> int:
    if args.legendre is None and (args.pi, args.b) != (None, None):
        print("--pi and --b need --legendre", file=sys.stderr)
        return EXIT_INPUT
    psi = PsiVariant(args.psi)
    try:
        pres = GPresentation(args.m, args.n, args.q, psi)
    except PresentationError as exc:
        print(f"invalid presentation: {exc}", file=sys.stderr)
        return EXIT_INPUT
    realized = any(admissible(Profile(*symbols, args.q, args.m, args.n, psi))
                   for symbols in product((1, -1), repeat=3))
    if not realized and not args.force:
        print(f"(m={args.m}, n={args.n}, q={args.q}) is not an admissible exponent pattern; "
              "pass --force to inspect it anyway", file=sys.stderr)
        return EXIT_INPUT
    profile = None
    if args.legendre is not None:
        profile = Profile(args.legendre, args.pi or 1, args.b or 1, args.q, args.m, args.n, psi)
        if not admissible(profile):
            print("symbol tuple inconsistent: no pair has these symbols with (m, n, q, psi) = "
                  f"({args.m}, {args.n}, {args.q}, {psi.value}) (see the exponent-coupling, "
                  "q-agreement and quartic-product-rule rules)", file=sys.stderr)
            return EXIT_INPUT
    table = engine_table(pres)
    fields = engine_abelianizations(profile) if profile is not None else None
    shape = [s.order for s in table.series]
    info = {
        "m": args.m,
        "n": args.n,
        "q": args.q,
        "psi": psi.value,
        "order": pres.order,
        "derived_type": list(table.G_derived.abelianization.divisors),
        "abelianization": list(table.G.abelianization.divisors),
        "lower_central_orders": shape,
        "nilpotency_class": len(shape) - 1,
        "coclass": pres.order.bit_length() - len(shape),
        "admissible": realized,
    }
    if fields is not None:
        info["fields"] = {name: list(t.divisors) for name, t in fields.items()}
    if args.json:
        print(dumps(info))
    else:
        print(f"G(m={args.m}, n={args.n}, q={args.q}, psi={psi.value}): order {pres.order}, "
              f"G/G' = {table.G.abelianization}, G' = {table.G_derived.abelianization}")
        print(f"lower central series orders: {shape}")
        print(f"nilpotency class {info['nilpotency_class']}, coclass {info['coclass']}")
        if fields is not None:
            for name, tp in fields.items():
                print(f"  Cl2({name}) = {tp}")
    return EXIT_OK


def _scan_pair(pair_tuple) -> dict:
    """One scan row; a failed self-check or a group past the order bound is a failing row
    carrying its message."""
    p1, p2 = pair_tuple
    try:
        record, report, validation = classify_pair(p1, p2)
    except PresentationError as exc:
        return {"p1": p1, "p2": p2, "properties": {"group-size": False},
                "error": f"group too large at ({p1}, {p2}): {exc}"}
    except AssertionError as exc:
        failed = getattr(exc, "rules", ()) or ("self-check",)
        return {"p1": p1, "p2": p2, "properties": dict.fromkeys(failed, False),
                "error": f"consistency failure at ({p1}, {p2}): {exc}"}
    pair = record.pair
    props = dict.fromkeys(applicable_rules(record), True)
    props["unit-norm-minus-one"] = norm_eps(pair.d) == -1
    props["genus-2-2"] = (
        two_part_of_class_group(field_discriminant(pair.d)).divisors == (2, 2)
        and two_part_of_class_group(field_discriminant(-pair.d)).divisors == (2, 2)
    )
    minus = two_part_of_class_group(field_discriminant(-pair.r))
    plus = two_part_of_class_group(field_discriminant(pair.r))
    props["two-class-shapes"] = (
        minus.rank() == 2
        and minus.divisors[0] == 2
        and minus.divisors[1] >= 4
        and plus.is_cyclic()
        and plus.order() >= 2
    )
    props["prediction-vs-engine"] = validation.passed
    return {"p1": p1, "p2": p2, "properties": props}


class _WorkerFailure(Exception):
    """A forked scan child that raised, died or sent the wrong rows."""


def _scan_child(pairs, write_end) -> NoReturn:
    """A forked child's whole life: its rows, or the error that stopped it, as one JSON
    document on the pipe.  It never returns into the parent's code."""
    code = 1
    try:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})  # blocked by the fork
            doc, code = [_scan_pair(p) for p in pairs], 0
        except BaseException as exc:
            doc = f"{type(exc).__name__}: {exc}"
        with open(write_end, "wb") as pipe:
            pipe.write(dumps(doc).encode())
    finally:
        os._exit(code)


def _child_rows(pid: int, data: bytes, status: int, expected: int) -> list:
    """The rows an exited child sent, given its wait status; raise _WorkerFailure unless
    it exited 0 with ``expected`` rows."""
    code = os.waitstatus_to_exitcode(status)
    try:
        doc = json.loads(data)
    except ValueError:
        doc = None
    if code == 0 and isinstance(doc, list) and len(doc) == expected:
        return doc
    if code < 0:
        reason = f"killed by signal {-code}"
    elif isinstance(doc, str):
        reason = doc
    elif code:
        reason = f"exit status {code}"
    else:
        reason = f"sent {len(doc) if isinstance(doc, list) else 'no'} rows for {expected} pairs"
    raise _WorkerFailure(f"scan worker {pid} failed: {reason}")


def _shares(pairs: list, jobs: int) -> list[list[int]]:
    """The indices of ``pairs`` for each of ``jobs`` processes, none empty.

    Pairs of different presentation classes never share an engine table, so each class
    goes whole to one share: largest first, each to the share with the fewest pairs (LPT
    scheduling; R. L. Graham, SIAM J. Appl. Math. 17 (1969)).  A class with more than
    len(pairs)/jobs pairs is first dealt round-robin into the fewest pieces that fit; so
    there are at least ``jobs`` pieces and every share gets one.
    """
    if jobs == 1:
        return [list(range(len(pairs)))]
    splits = {p: split_prime(p) for p in set().union(*pairs)}
    classes: dict[tuple[int, int], list[int]] = {}
    for i, (p1, p2) in enumerate(pairs):
        s1, s2 = splits[p1], splits[p2]
        key = presentation_class(jacobi(p1, p2), symbol_pi(s1, s2), symbol_B(s1, s2))
        classes.setdefault(key, []).append(i)
    fits = len(pairs) // jobs
    pieces = []
    for members in classes.values():
        cuts = -(-len(members) // fits)  # the fewest pieces of at most `fits` pairs
        pieces += [members[j::cuts] for j in range(cuts)]
    shares: list[list[int]] = [[] for _ in range(jobs)]
    for piece in sorted(pieces, key=len, reverse=True):
        min(shares, key=len).extend(piece)
    return shares


def _start_child(pairs: list) -> tuple[int, int] | None:
    """Fork a child that scans ``pairs``: its pid and the read end of its pipe, or None
    when no pipe or process can be made (``OSError``: at the process limit, say)."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        _scan_child(pairs, write_end)
    os.close(write_end)
    return pid, read_end


def _scan_rows(pairs: list, jobs: int) -> list[dict]:
    """The scan rows of ``pairs`` in order, from ``jobs`` processes: the parent computes
    the first of the ``_shares`` and forked children the others; a share that gets no
    child is the parent's too.  While they run, each runs on a CPU of its own, if it can."""
    jobs = min(jobs, len(pairs)) if hasattr(os, "fork") else 1
    mine, *others = _shares(pairs, jobs)
    cpus = sorted(os.sched_getaffinity(0)) if others and hasattr(os, "sched_setaffinity") else []
    children = {}  # pid -> (its share, the read end of its pipe), for every child not yet reaped
    rows = [None] * len(pairs)
    try:
        for share in others:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:  # a SIGINT lands once the child is in ``children``, to be reaped below
                child = _start_child([pairs[i] for i in share])
                if child is None:
                    mine += share
                else:
                    children[child[0]] = share, child[1]
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if children and cpus:  # the parent and each child on its own CPU, round-robin
            with contextlib.suppress(OSError):
                for k, pid in enumerate([0, *children]):
                    os.sched_setaffinity(pid, {cpus[k % len(cpus)]})
        for i in mine:
            rows[i] = _scan_pair(pairs[i])
        for pid, (share, read_end) in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid)[1])
            for i, row in zip(share, _child_rows(pid, data, status, len(share))):
                rows[i] = row
    finally:
        for pid, (_, read_end) in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if cpus:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
    return rows


def _largest_pair_product(limit: int) -> int:
    """p1*p2 for the two largest primes p1 < p2 <= limit with p = 5 (mod 8), limit >= 13."""
    top = []
    p = limit - (limit - 5) % 8
    while len(top) < 2:
        if is_prime(p):
            top.append(p)
        p -= 8
    return top[0] * top[1]


def cmd_scan(args) -> int:
    if args.max < 13:
        print("scan needs --max >= 13 (the smallest valid pair is (5, 13))", file=sys.stderr)
        return EXIT_INPUT
    largest = _largest_pair_product(args.max)
    if largest > DISCRIMINANT_BOUND // 8:
        print(f"invalid input: scan --max {args.max} reaches p1*p2 = {largest}, beyond the "
              f"class-group bound DISCRIMINANT_BOUND/8 = {DISCRIMINANT_BOUND // 8}", file=sys.stderr)
        return EXIT_INPUT
    ps = primes_5_mod_8(args.max)
    pairs = [(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]
    try:
        rows = _scan_rows(pairs, args.jobs)
    except _WorkerFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONSISTENCY
    prop_counts: dict[str, int] = {}
    for r in rows:
        for name, ok in r["properties"].items():
            prop_counts[name] = prop_counts.get(name, 0) + (0 if ok else 1)
    failures = [
        {"p1": r["p1"], "p2": r["p2"],
         "failed": sorted(k for k, v in r["properties"].items() if not v)}
        for r in rows
        if not all(r["properties"].values())
    ]
    summary = {
        "max": args.max,
        "pairs": len(rows),
        "property_failures": prop_counts,
        "failing_pairs": failures,
        "ok": not failures,
    }
    if args.json:
        print(dumps(summary))
    else:
        print(f"scanned {len(rows)} pairs with p1 < p2 <= {args.max}")
        for name in sorted(prop_counts):
            n_bad = prop_counts[name]
            print(f"  {name}: {'all pass' if n_bad == 0 else f'{n_bad} FAILURES'}")
        for f in failures:
            print(f"  FAIL ({f['p1']}, {f['p2']}): {', '.join(f['failed'])}")
    for r in rows:
        if "error" in r:
            print(r["error"], file=sys.stderr)
    return EXIT_OK if not failures else EXIT_CONSISTENCY


def _jobs(text: str) -> int:
    """A --jobs value: at least 1, capped at the number of CPUs."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return min(n, os.cpu_count() or 1)


# The grammar of the four commands, declared once for build_parser and _read_argv: command ->
# (its function's name, looked up per call; its help; {option: add_argument's keywords}).
_COMMANDS = {
    "classify": ("cmd_classify", "full report for one prime pair", {
        "--p1": {"type": int, "required": True},
        "--p2": {"type": int, "required": True},
        "--json": {"action": "store_true"},
    }),
    "verify-fixtures": ("cmd_verify_fixtures", "compare embedded table fixtures", {
        "--table": {"type": str, "help": "fixture table id (4..8, 34, 35)"},
        "--filter": {"type": int, "help": "restrict to one d value"},
        "--verbose": {"action": "store_true",
                      "help": "print every column with the printed tuple and its 2-part"},
        "--json": {"action": "store_true"},
    }),
    "group": ("cmd_group", "inspect the presented group for (m, n, q, psi)", {
        "--m": {"type": int, "required": True},
        "--n": {"type": int, "required": True},
        "--q": {"type": int, "required": True, "choices": (1, 2)},
        "--psi": {"choices": tuple(psi.value for psi in PsiVariant),
                  "default": PsiVariant.TAU_SIGMA.value},
        "--force": {"action": "store_true", "help": "allow inadmissible exponents"},
        "--legendre": {"type": int, "choices": (1, -1)},
        "--pi": {"type": int, "choices": (1, -1), "help": "needs --legendre; default 1"},
        "--b": {"type": int, "choices": (1, -1), "help": "needs --legendre; default 1"},
        "--json": {"action": "store_true"},
    }),
    "scan": ("cmd_scan", "run the property suites over all pairs up to a bound", {
        "--max": {"type": int, "required": True},
        "--jobs": {"type": _jobs, "default": 1, "help": "processes, the parent included; at least 1, "
                   "capped at the number of CPUs and at the number of pairs"},
        "--json": {"action": "store_true"},
    }),
}


@cache  # built at the first argv that _read_argv hands over, then reused in the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classtower",
        description=(
            "Class-group invariants, Galois group structure and capitulation "
            "kernels for the 2-class field tower over Q(sqrt(2*p1*p2), i)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for option, kwargs in options.items():
            p.add_argument(option, **kwargs)
        p.set_defaults(func=globals()[func])
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """argparse's namespace for a well-formed ``argv``, else None for build_parser's parser
    (-h, --opt=value, abbreviations, repeats, '--', values starting with '-', usage errors)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for word in words:
        kwargs = options.get(word)
        if kwargs is None or word in given:
            return None
        if "action" in kwargs:  # store_true
            given[word] = True
            continue
        text = next(words, "-")  # a missing value is handed over like a negative one
        try:
            value = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse's usage errors
            return None
        if text.startswith("-") or "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[word] = value
    args = argparse.Namespace(command=argv[0], func=globals()[func])
    for option, kwargs in options.items():
        if option not in given and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if "action" in kwargs else None)
        if isinstance(default, str):  # argparse passes a string default through the type
            default = kwargs.get("type", str)(default)
        setattr(args, option[2:], given.get(option, default))
    return args


def main(argv=None) -> int:
    thaw = not gc.get_freeze_count()  # a caller's frozen objects stay frozen
    try:
        if thaw:
            gc.freeze()  # the collector skips every object made before the command
        args = _read_argv(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's last flush
    except OSError as exc:
        # the commands handle their other OSErrors (fixture files, pipes, forks), so this one
        # is stdout's: a reader that is gone (silent) or a device that takes nothing more;
        # point stdout at devnull so that the final flush stays silent
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT
    except AssertionError as exc:  # every failed self-check, whichever command raised it
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if thaw:
            gc.unfreeze()
    return code
