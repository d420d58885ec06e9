import ast
import contextlib
import errno
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from unittest import mock

import classtower
from classtower.abelian import AbelianType
from classtower.cli import (EXIT_INTERRUPTED, _largest_pair_product, _read_argv, build_parser,
                            main)
from classtower.classify import invariants, presentation_class
from classtower.gaussian import split_prime
from classtower.symbols import primes_5_mod_8, validate_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_ok(capsys):
    code, out, _ = run(capsys, "classify", "--p1", "5", "--p2", "13")
    assert code == 0
    assert "q = 2" in out and "coclass 3" in out
    assert "77 checks passed" in out


def test_classify_rejects_bad_prime(capsys):
    code, _, err = run(capsys, "classify", "--p1", "5", "--p2", "17")
    assert code == 2
    assert "mod 8" in err
    code, _, err = run(capsys, "classify", "--p1", "5", "--p2", "21")
    assert code == 2
    assert "not prime" in err


def test_classify_rejects_pair_beyond_discriminant_bound(capsys):
    # p1*p2 = 100000345 > DISCRIMINANT_BOUND/4
    code, out, err = run(capsys, "classify", "--p1", "5", "--p2", "20000069")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "25000000" in err


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "--p1", "5", "--p2", "37", "--json")
    assert code == 0
    payload = json.loads(out)
    # canonical serialization: parse + re-dump is byte-identical
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out.strip()
    assert payload["group"]["cl2_K3"] == [4, 8]
    assert payload["invariants"] == {
        "legendre": -1, "pi": -1, "B": -1, "m": 3, "n": 1, "q": 1,
        "norm_eps_r": -1, "psi": "tau-sigma",
    }
    assert payload["cross_validation"]["passed"] is True
    assert payload["K"]["K4"]["cl2"] == [2, 4]
    assert payload["L"]["L1"]["kernel_size"] == 8


def test_verify_fixtures_table4(capsys):
    code, out, _ = run(capsys, "verify-fixtures", "--table", "4")
    assert code == 0
    assert "8/8 rows pass" in out


def test_verify_fixtures_filter(capsys):
    code, out, _ = run(capsys, "verify-fixtures", "--filter", "130")
    assert code == 0
    assert "3/3 rows pass" in out
    code, out, _ = run(capsys, "verify-fixtures", "--filter", "99")
    assert code == 0
    assert "0 rows" in out


def test_verify_fixtures_mismatch_exit_code(capsys, tmp_path, monkeypatch):
    import importlib.resources as resources

    doc = json.loads(
        resources.files("classtower").joinpath("data/fixtures_v1.json").read_text()
    )
    doc["tables"]["4"]["rows"][0]["m"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(bad))
    code, out, _ = run(capsys, "verify-fixtures", "--table", "4")
    assert code == 4
    assert "FAIL" in out


def test_verify_fixtures_large_printed_factor(capsys, tmp_path, monkeypatch):
    # only 2-parts are compared, so a printed factor 2^61 - 1 is never factorized: the row
    # ends at once as a mismatch of cl_K1, whose 2-part is now (2)
    import importlib.resources as resources

    doc = json.loads(
        resources.files("classtower").joinpath("data/fixtures_v1.json").read_text()
    )
    doc["tables"]["34"]["rows"][0]["cl_K"][0] = [2, 2**61 - 1]
    bad = tmp_path / "large.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(bad))
    code, out, _ = run(capsys, "verify-fixtures", "--table", "34", "--json")
    assert code == 4
    row = json.loads(out)["results"][0]
    failing = [c for c in row["columns"] if not c["ok"]]
    assert [(c["column"], c["expected"]) for c in failing] == [("cl_K1", "(2)")]
    assert failing[0]["printed"] == f"(2, {2**61 - 1})"


def test_verify_fixtures_corrupt_file(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(bad))
    code, _, err = run(capsys, "verify-fixtures")
    assert code == 2
    assert "fixture error" in err


@pytest.mark.parametrize("doc, message", [
    ({"version": "fixtures_v1"}, "no 'tables' object"),
    ({"version": "fixtures_v1", "tables": []}, "no 'tables' object"),
    ([], "not a JSON object"),
    ({"version": "fixtures_v1", "tables": {"4": {"rows": [{"p1": 5, "p2": 13}]}}},
     "table '4', row 0: KeyError: 'd'"),
    ({"version": "fixtures_v1",
      "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "cl_K": [[2, "x"]]}]}}},
     "table '4', row 0: TypeError"),
    ({"version": "fixtures_v1",
      "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "cl_K": [[2.5]]}]}}},
     "printed value 2.5 is not an integer"),
    ({"version": "fixtures_v1",
      "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "cl_L": [[2, True]]}]}}},
     "printed value True is not an integer"),
    ({"version": "fixtures_v1", "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "q": "2"}]}}},
     "printed value '2' is not an integer"),
    ({"version": "fixtures_v1", "tables": {"4": {"m": 2.0, "rows": [{"d": 130, "p1": 5, "p2": 13}]}}},
     "printed value 2.0 is not an integer"),
    # one tuple per field K_1..K_7 (L_1..L_7): an eighth has no computed column
    ({"version": "fixtures_v1",
      "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "cl_K": [[2]] * 8}]}}},
     "row 0: ValueError: cl_K holds 8 tuples, more than the 7 fields"),
    ({"version": "fixtures_v1",
      "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "cl_L": [[2]] * 9}]}}},
     "row 0: ValueError: cl_L holds 9 tuples, more than the 7 fields"),
    # a float prime reached sqrt_mod as a TypeError, and a float d was printed as 130.0
    ({"version": "fixtures_v1", "tables": {"4": {"rows": [{"d": 130, "p1": 5.0, "p2": 13}]}}},
     "printed value 5.0 is not an integer"),
    ({"version": "fixtures_v1", "tables": {"4": {"rows": [{"d": 130.0, "p1": 5, "p2": 13}]}}},
     "printed value 130.0 is not an integer"),
    # JSON's Infinity in a class-group tuple: no printed order is factorized, so it ends at once
    ({"version": "fixtures_v1",
      "tables": {"4": {"rows": [{"d": 130, "p1": 5, "p2": 13, "cl_K": [[2, float("inf")]]}]}}},
     "printed value inf is not an integer"),
])
def test_verify_fixtures_malformed_file(capsys, tmp_path, monkeypatch, doc, message):
    # a malformed document is an input error: exit 2 and one line naming the table and row
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(bad))
    code, out, err = run(capsys, "verify-fixtures")
    assert code == 2 and out == ""
    assert err.startswith("fixture error:") and err.count("\n") == 1 and message in err


def test_group_command(capsys):
    code, out, _ = run(capsys, "group", "--m", "3", "--n", "1", "--q", "1",
                       "--psi", "tau-sigma")
    assert code == 0
    assert "order 64" in out and "coclass 3" in out
    code, out, _ = run(capsys, "group", "--m", "2", "--n", "1", "--q", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 64
    assert payload["derived_type"] == [2, 4]


def test_group_rejections(capsys):
    code, _, err = run(capsys, "group", "--m", "1", "--n", "1", "--q", "1")
    assert code == 2 and "m >= 2" in err
    # m = 2, n = 1, q = 1 is not an exponent pattern any pair realizes
    code, _, err = run(capsys, "group", "--m", "2", "--n", "1", "--q", "1")
    assert code == 2 and "--force" in err
    code, out, _ = run(capsys, "group", "--m", "2", "--n", "1", "--q", "1", "--force")
    assert code == 0


def test_group_with_symbols(capsys):
    code, out, _ = run(
        capsys, "group", "--m", "2", "--n", "1", "--q", "2",
        "--legendre", "-1", "--pi", "-1", "--b", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fields"]["L7"] == [4, 4]
    assert payload["fields"]["K5"] == [2, 2, 2]
    # inconsistent symbol tuple for legendre = -1
    code, _, err = run(
        capsys, "group", "--m", "2", "--n", "1", "--q", "2",
        "--legendre", "-1", "--pi", "-1", "--b", "-1",
    )
    assert code == 2
    # (p1/p2) = +1 with pi = +1 forces n >= 2
    code, _, err = run(
        capsys, "group", "--m", "2", "--n", "1", "--q", "2",
        "--legendre", "1", "--pi", "1", "--b", "1",
    )
    assert code == 2 and "inconsistent" in err


def test_group_rejects_pi_and_b_without_legendre(capsys):
    # the symbols only count with --legendre; alone they are refused, not ignored
    base = ("group", "--m", "2", "--n", "2", "--q", "1", "--json")
    for argv in (("--pi", "-1"), ("--b", "1"), ("--pi", "1", "--b", "-1")):
        code, out, err = run(capsys, *base, *argv)
        assert code == 2 and out == ""
        assert err == "--pi and --b need --legendre\n"
    # --legendre alone takes pi = B = 1
    code, out, _ = run(capsys, *base, "--legendre", "1")
    assert code == 0 and "fields" in json.loads(out)
    assert run(capsys, *base, "--legendre", "1", "--pi", "1", "--b", "1") == (0, out, "")


def test_group_rejects_symbols_against_psi(capsys):
    # Scholz: (p1/p2) = +1 with pi = -1 forces psi = sigma; Dirichlet: (p1/p2) = -1 forces
    # psi = tau-sigma.  Both presentations exist, so only the symbols are refused.
    for argv in (("--legendre", "1", "--pi", "-1"),
                 ("--legendre", "-1", "--pi", "1", "--b", "1", "--psi", "sigma")):
        for force in ((), ("--force",)):
            code, out, err = run(capsys, "group", "--m", "3", "--n", "1", "--q", "1", *argv, *force)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "inconsistent" in err and "Traceback" not in err
    code, out, _ = run(capsys, "group", "--m", "3", "--n", "1", "--q", "1", "--legendre", "1",
                       "--pi", "-1", "--psi", "sigma", "--json")
    assert code == 0 and json.loads(out)["fields"]["K1"] == [2, 2, 2]


def test_scan_bounds(capsys):
    code, _, err = run(capsys, "scan", "--max", "12")
    assert code == 2
    assert "13" in err


def test_scan_rejects_max_beyond_discriminant_bound(capsys):
    # scan also needs -+2*p1*p2, so p1*p2 <= DISCRIMINANT_BOUND/8 = 12500000:
    # 9949*9973 = 99221377 is far beyond it, 3533*3541 = 12510353 just beyond
    for limit in ("10000", "3541"):
        code, out, err = run(capsys, "scan", "--max", limit)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "12500000" in err
    assert _largest_pair_product(3540) <= 12500000
    for limit in (13, 14, 100, 3541):
        ps = primes_5_mod_8(limit)
        assert _largest_pair_product(limit) == ps[-2] * ps[-1]


def test_scan_jobs_validation(capsys, monkeypatch):
    parser = build_parser()
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["scan", "--max", "13", "--jobs", bad])
        assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parser.parse_args(["scan", "--max", "13", "--jobs", "64"]).jobs == 2
    assert parser.parse_args(["scan", "--max", "13"]).jobs == 1


def test_scan_small(capsys):
    code, out, _ = run(capsys, "scan", "--max", "100", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["pairs"] == 15
    assert all(v == 0 for v in payload["property_failures"].values())


def _pairs(limit):
    ps = primes_5_mod_8(limit)
    return [(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]


def _class_of(pair):
    record = invariants(validate_pair(*pair))
    return presentation_class(record.legendre, record.pi, record.B)


def test_scan_jobs_deterministic(capsys, monkeypatch):
    # with --jobs 3 two children's pipes are read in turn and the shares go back by index;
    # with --jobs 5 the 15 pairs leave 3 to a share, so a class of 4 or 5 pairs is cut
    from classtower import cli

    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    pairs = _pairs(80)
    holders = [c for share in cli._shares(pairs, 5) for c in {_class_of(pairs[i]) for i in share}]
    assert len(holders) > len(set(holders)) == 4  # some class is in two shares
    code1, out1, _ = run(capsys, "scan", "--max", "80", "--json")
    code2, out2, _ = run(capsys, "scan", "--max", "80", "--jobs", "2", "--json")
    code3, out3, err3 = run(capsys, "scan", "--max", "80", "--jobs", "3", "--json")
    code5, out5, err5 = run(capsys, "scan", "--max", "80", "--jobs", "5", "--json")
    assert code1 == code2 == code3 == code5 == 0
    assert out1 == out2 == out3 == out5 and err3 == err5 == ""


@pytest.mark.parametrize("limit", [40, 250, 1000])
def test_scan_shares_keep_classes_whole_unless_cut(monkeypatch, limit):
    # every pair in one share, no share empty; a class is split over several shares only
    # when it has more than len(pairs)/jobs pairs, and then into the fewest pieces that fit
    # (two pieces may still land in one share); each prime is split once, --jobs 1 splits none
    from classtower import cli

    pairs, split = _pairs(limit), []
    monkeypatch.setattr(cli, "split_prime", lambda p: split.append(p) or split_prime(p))
    assert cli._shares(pairs, 1) == [list(range(len(pairs)))] and split == []
    cli._shares(pairs, 2)
    assert sorted(split) == primes_5_mod_8(limit)
    classes = {}
    for i, pair in enumerate(pairs):
        classes.setdefault(_class_of(pair), set()).add(i)
    for jobs in range(1, min(8, len(pairs)) + 1):  # scan caps --jobs at the number of pairs
        shares = cli._shares(pairs, jobs)
        assert len(shares) == jobs and all(shares)
        assert sorted(i for share in shares for i in share) == list(range(len(pairs)))
        for members in classes.values():
            holders = sum(1 for share in shares if members & set(share))
            assert 1 <= holders <= -(-len(members) // (len(pairs) // jobs)), (limit, jobs)


def test_class_shards_build_each_engine_table_in_one_process(capsys):
    # at --max 250 the two shares of --jobs 2, each from empty caches, build each of the 14
    # engine tables and each of the 24 profiles' checks once between them
    from classtower import classify, cli, gengroup

    pairs, tables, profiles = _pairs(250), 0, 0
    for share in cli._shares(pairs, 2):
        _clear_engine_caches()
        for i in share:
            cli._scan_pair(pairs[i])
        tables += gengroup.engine_table.cache_info().misses
        profiles += classify._engine_checks.cache_info().misses
    assert len({_class_of(pair) for pair in pairs}) == 4
    assert (tables, profiles) == (14, 24)


def _no_pipe():
    raise OSError(errno.EMFILE, "Too many open files")


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("name, failure", [("pipe", _no_pipe), ("fork", _no_fork)])
def test_scan_without_pipe_or_process_computes_the_share(capsys, monkeypatch, name, failure):
    # at the process or file limit the parent computes the shares that got no child: with
    # --jobs 2 the only child fails; with --jobs 3 the first child is forked, the second
    # fails, and the first is still reaped
    code1, out1, err1 = run(capsys, "scan", "--max", "40", "--json")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    fork, forked = os.fork, []

    def recorded_fork():
        pid = fork()
        forked.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    original, calls = getattr(os, name), []

    def forged():
        calls.append(name)
        return original() if len(calls) <= allowed else failure()

    monkeypatch.setattr(os, name, forged)
    allowed = 0
    code2, out2, err2 = run(capsys, "scan", "--max", "40", "--jobs", "2", "--json")
    assert calls == [name] and forked == []
    calls.clear()
    allowed = 1
    code3, out3, err3 = run(capsys, "scan", "--max", "40", "--jobs", "3", "--json")
    assert calls == [name, name] and len(forked) == 1
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3 and err1 == err2 == err3 == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)


def test_scan_single_pair_forks_nothing(capsys, monkeypatch):
    # --jobs is capped at the number of pairs: one pair runs in the parent alone
    def no_fork():
        raise AssertionError("forked for a single pair")

    code1, out1, _ = run(capsys, "scan", "--max", "13", "--json")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    code2, out2, err2 = run(capsys, "scan", "--max", "13", "--jobs", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2 and err2 == "" and json.loads(out2)["pairs"] == 1


def test_scan_without_fork_runs_in_one_process(capsys, monkeypatch):
    code1, out1, err1 = run(capsys, "scan", "--max", "40", "--json")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    code2, out2, err2 = run(capsys, "scan", "--max", "40", "--jobs", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2 and err1 == err2 == ""


def _forge_in_child(monkeypatch, name, forged):
    """Replace cli.<name> by ``forged`` in forked children only."""
    from classtower import cli

    parent, original = os.getpid(), getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda arg: original(arg) if os.getpid() == parent
                        else forged(original, arg))


def _raise(original, pair):
    raise RuntimeError("forged worker failure")


def _die(original, pair):
    os._exit(7)


def _drop_a_row(original, obj):
    return original(obj[:-1] if isinstance(obj, list) else obj)


@pytest.mark.parametrize("name, forged, reason", [
    ("_scan_pair", _raise, "RuntimeError: forged worker failure"),
    ("_scan_pair", _die, "exit status 7"),
    pytest.param("dumps", _drop_a_row, "sent {short} rows for {share} pairs",
                 id="dumps-_drop_a_row-one row short"),
])
def test_scan_worker_failure_exits_3(capsys, monkeypatch, name, forged, reason):
    # a child that raises outside its rows, dies or sends the wrong rows: one
    # stderr line naming it, exit 3, no traceback, and the child is reaped
    from classtower import cli

    share = len(cli._shares(_pairs(40), 2)[1])
    reason = reason.format(short=share - 1, share=share)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _forge_in_child(monkeypatch, name, forged)
    code, out, err = run(capsys, "scan", "--max", "40", "--jobs", "2", "--json")
    assert code == 3 and out == ""
    assert err.startswith("scan worker ") and err.count("\n") == 1
    assert err.endswith(f" failed: {reason}\n") and "Traceback" not in err
    pid = int(err.split()[2])
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_class_group_self_check_exits_3(capsys, monkeypatch):
    # a unit oracle that contradicts the negated-principal class must surface
    # as a consistency failure (exit 3) from classify and scan alike
    from classtower import quadratic

    monkeypatch.setattr(quadratic, "norm_eps", lambda m: -quadratic.fundamental_unit(m).norm)
    quadratic.class_group.cache_clear()
    try:
        code, _, err = run(capsys, "classify", "--p1", "5", "--p2", "13")
        scan_code, _, scan_err = run(capsys, "scan", "--max", "13")
    finally:
        quadratic.class_group.cache_clear()
    assert code == scan_code == 3
    assert "N(eps)" in err and "N(eps)" in scan_err


def _fail_pair_13_29(monkeypatch):
    from classtower import classify

    exponents_mn = classify.exponents_mn

    def forged(pair):
        if (pair.p1, pair.p2) == (13, 29):
            raise AssertionError("forged oracle failure")
        return exponents_mn(pair)

    monkeypatch.setattr(classify, "exponents_mn", forged)


def test_oracle_assertion_exits_3(capsys, monkeypatch):
    # any AssertionError from the pipeline is a self-check failure, not a traceback
    _fail_pair_13_29(monkeypatch)
    code, out, err = run(capsys, "classify", "--p1", "13", "--p2", "29")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "forged oracle failure" in err
    code, _, err = run(capsys, "verify-fixtures", "--filter", "754")
    assert code == 3
    assert err.count("\n") == 1 and "forged oracle failure" in err


def test_scan_failing_row_independent_of_jobs(capsys, monkeypatch):
    # a self-check failing on one pair is one row named self-check; the other
    # rows still run, and the forked child (which inherits the patch) and the
    # parent, each computing its share, give the same bytes
    _fail_pair_13_29(monkeypatch)
    code1, out1, err1 = run(capsys, "scan", "--max", "40", "--json")
    code2, out2, err2 = run(capsys, "scan", "--max", "40", "--jobs", "2", "--json")
    assert code1 == code2 == 3
    assert out1 == out2 and err1 == err2
    payload = json.loads(out1)
    assert payload["pairs"] == 6
    assert payload["failing_pairs"] == [{"p1": 13, "p2": 29, "failed": ["self-check"]}]
    assert payload["property_failures"]["self-check"] == 1
    assert err1.count("\n") == 1 and "(13, 29)" in err1 and "forged oracle failure" in err1


_FLIP_QUARTIC = """
import sys
from classtower import classify
from classtower.cli import main
quartic = classify.quartic_symbol
# flips (p1/p2)_4 but not (p2/p1)_4, so the product changes sign
classify.quartic_symbol = lambda a, b: -quartic(a, b) if a < b else quartic(a, b)
sys.exit(main(sys.argv[1:]))
"""


def test_rule_failure_under_python_O():
    # explicit raises survive -O, where assert statements vanish
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _FLIP_QUARTIC, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    assert run_O("classify", "--p1", "5", "--p2", "29").returncode == 3
    proc = run_O("scan", "--max", "40", "--json")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    ps = primes_5_mod_8(40)
    pairs = [(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]
    plus = [pair for pair in pairs if validate_pair(*pair).legendre == 1]
    assert payload["pairs"] == len(pairs) and plus
    assert payload["failing_pairs"] == [
        {"p1": a, "p2": b, "failed": ["quartic-product-rule"]} for a, b in plus
    ]
    assert proc.stderr.count("\n") == len(plus)


_FORGED_NORM = """
import sys
from classtower import classify
from classtower.cli import main
norm_eps = classify.norm_eps
# the wrong sign for (5, 29), both quartic symbols -1, and (13, 29), mixed quartic symbols
classify.norm_eps = lambda r: -norm_eps(r) if r in (145, 377) else norm_eps(r)
sys.exit(main(sys.argv[1:]))
"""


def test_forged_unit_norm_breaks_scholz_under_python_O():
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _FORGED_NORM, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    for p1 in ("5", "13"):
        proc = run_O("classify", "--p1", p1, "--p2", "29")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "quartic-product-rule" in proc.stderr
    proc = run_O("scan", "--max", "40", "--json")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["failing_pairs"] == [
        {"p1": p1, "p2": 29, "failed": ["quartic-product-rule"]} for p1 in (5, 13)
    ]


_FORGED_STEPS = """
import sys
from classtower import gengroup
from classtower.cli import main
step_down, kernel, Subgroup = gengroup._step_down, gengroup._kernel, gengroup.Subgroup
forgery, argv = sys.argv[1], sys.argv[2:]
if forgery == "identity":  # every z the identity
    gengroup._step_down = lambda pres, K, parent, z, values: step_down(pres, K, parent, (0, 0, 0), values)
elif forgery == "below":  # a step from <rho^2> down to 1, below G', where g^2 leaves K
    gengroup._step_down = lambda pres, K, parent, z, values: step_down(
        pres, Subgroup.trivial(pres), Subgroup.generated(pres, [pres.word("rr")]), z, values)
elif forgery == "outside":  # the transfer values moved outside A
    gengroup._step_down = lambda *args: tuple((1, a, b) for _, a, b in step_down(*args))
else:  # the class (1, 1, 1) does not capitulate in G'
    gengroup._kernel = lambda values, derived: kernel(values, derived) - {(1, 1, 1)}
sys.exit(main(argv))
"""


def test_engine_self_check_under_python_O():
    # the transfer's check that z lies outside K raises GroupCheckError, an AssertionError,
    # also under -O; so do the step's check that its values stay in K and the kernel's checks
    # that the values lie in A and that every class capitulates in G'
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(forgery, *argv):
        return subprocess.run([sys.executable, "-O", "-c", _FORGED_STEPS, forgery, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("identity", "classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "index-2 step" in proc.stderr
    proc = run_O("identity", "scan", "--max", "40", "--json")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["pairs"] == 6
    assert [row["failed"] for row in payload["failing_pairs"]] == [["self-check"]] * 6
    for forgery, message in (("below", "index-2 step: the value"), ("outside", "lies outside A"),
                             ("kernel", "the transfer into G' is not trivial")):
        proc = run_O(forgery, "classify", "--p1", "5", "--p2", "13")
        assert proc.returncode == 3 and proc.stdout == "", forgery
        assert proc.stderr.count("\n") == 1 and message in proc.stderr, (forgery, proc.stderr)


@pytest.mark.parametrize("table, words, p1, p2, name", [
    ("_GJ_PLUS", ("s", "tt"), 5, 29, "K1:subgroup-words"),  # a proper subgroup of K_1
    ("_GL_MINUS", ("tt", "s", "r"), 5, 13, "L1:subgroup-words"),  # r lies outside L_1
])
def test_forged_table_words_fail_their_check(capsys, monkeypatch, table, words, p1, p2, name):
    # the word check can fail: words that generate another subgroup than the label's, or that
    # leave it, fail that one check, and classify exits 3 listing it
    from classtower import classify

    monkeypatch.setitem(getattr(classify, table), 1, words)
    _clear_engine_caches()
    try:
        code, out, _ = run(capsys, "classify", "--p1", str(p1), "--p2", str(p2), "--json")
        assert code == 3
        assert json.loads(out)["cross_validation"]["failures"] == [
            {"name": name, "expected": "True", "got": "False"}]
        code, out, _ = run(capsys, "classify", "--p1", str(p1), "--p2", str(p2))
        assert code == 3 and f"  FAIL {name}: expected True, got False\n" in out
    finally:
        _clear_engine_caches()


_FORGED_DERIVED = """
import sys
from classtower import gengroup
from classtower.cli import main
# G' & A forged to the lattice (2, 0, 4), of index 2 in 2Z^2
gengroup.GPresentation.derived_lattice = property(lambda pres: (2, 0, 4))
sys.exit(main(sys.argv[1:]))
"""


def test_derived_lattice_check_under_python_O():
    # the table is built on the five lattices over G' & A = 2Z^2, which engine_table checks by
    # an explicit raise, also under -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _FORGED_DERIVED, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("consistency failure: G' & A is the lattice (2, 0, 4), not 2Z^2\n")
    proc = run_O("group", "--m", "3", "--n", "1", "--q", "1", "--json")
    assert proc.returncode == 3 and proc.stdout == "" and "not 2Z^2" in proc.stderr


_MERGED_COSETS = """
import sys
from classtower import gengroup
from classtower.cli import main
over_derived, plane = gengroup.over_derived, gengroup.span([(0, 0, 1), (0, 1, 0)])
def merged(pres, classes):
    # G comes out as the subgroup over a plane, so for each plane K, <K, z> = G drops the
    # class of z and comes out the size of K: both cosets of K merge
    return over_derived(pres, plane if len(classes) == 8 else classes)
gengroup.over_derived = merged
sys.exit(main(sys.argv[1:]))
"""


def test_merged_coset_keys_under_python_O():
    # a step builder that merges the two cosets of K in <K, z> is caught by the step's index
    # check, also under -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _MERGED_COSETS, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "has index 1 over K" in proc.stderr
    proc = run_O("scan", "--max", "40", "--json")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["pairs"] == 6
    assert [row["failed"] for row in payload["failing_pairs"]] == [["self-check"]] * 6
    assert proc.stderr.count("has index 1 over K") == 6


_SHRUNK_KERNEL = """
import sys
from classtower import classify
from classtower.cli import main
classify._KAPPA_B[4][1] = ("H0",)  # the B = +1 kernel of K4 loses a generator
sys.exit(main(sys.argv[1:]))
"""


_TRIVIAL_SYMBOLS = """
import sys
from classtower import classify
from classtower.cli import main
classify.gauss_symbol = lambda a, s: 1  # symbol_pi and symbol_B keep gaussian's own binding
sys.exit(main(sys.argv[1:]))
"""


def test_norm_group_self_check_under_python_O():
    # with every symbol +1, each first-principles norm group would be the whole class group:
    # norm_groups_from_symbols raises ConsistencyError, also under -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _TRIVIAL_SYMBOLS, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "consistency failure: norm group of K1 came out with index 1\n"
    proc = run_O("scan", "--max", "30", "--json")
    payload = json.loads(proc.stdout)
    assert proc.returncode == 3 and payload["pairs"] == 3
    assert [row["failed"] for row in payload["failing_pairs"]] == [["self-check"]] * 3
    assert proc.stderr.count("norm group of K1 came out with index 1") == 3


def test_prediction_self_check_under_python_O():
    # the report's kernel-size check raises ConsistencyError, an AssertionError, also under -O;
    # lru_cache keeps no exception, so the failing profile fails on each of its pairs
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _SHRUNK_KERNEL, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "kernel size of K4" in proc.stderr
    proc = run_O("scan", "--max", "40", "--json")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["pairs"] == 6
    assert payload["failing_pairs"] == [  # the B = +1 pairs, which share one profile
        {"p1": 5, "p2": 13, "failed": ["self-check"]},
        {"p1": 29, "p2": 37, "failed": ["self-check"]},
    ]
    assert proc.stderr.count("kernel size of K4") == 2


def test_predict_runs_once_per_profile(capsys, monkeypatch):
    # the tables are evaluated once per symbol profile, not once per pair
    from classtower import classify

    norm_groups, calls = classify.norm_groups, []

    def counted(profile):
        calls.append(profile)
        return norm_groups(profile)

    monkeypatch.setattr(classify, "norm_groups", counted)
    classify.predict.cache_clear()
    classify._engine_checks.cache_clear()
    try:
        code, _, _ = run(capsys, "scan", "--max", "200")
        misses = classify.predict.cache_info().misses
    finally:
        classify.predict.cache_clear()
        classify._engine_checks.cache_clear()
    ps = primes_5_mod_8(200)
    profiles = {classify.invariants(validate_pair(a, b)).profile()
                for i, a in enumerate(ps) for b in ps[i + 1 :]}
    assert code == 0
    assert misses == len(profiles)
    assert len(calls) == len(profiles) and set(calls) == profiles


def _clear_engine_caches():
    from classtower import classify, gaussian, gengroup, quadratic

    for cached in (classify.predict, classify._engine_checks, classify._check,
                   classify._fmt_vectors, classify.subspace_names,
                   classify.subgroup_span, classify._conjugate, classify._two_type,
                   gengroup.engine_table,
                   gaussian.split_prime, quadratic.class_group,
                   quadratic._principal_cycle, quadratic._odd_part_factors):
        cached.cache_clear()


def test_clear_engine_caches_clears_every_cache(monkeypatch):
    # a cache of classify, gengroup, gaussian or quadratic left out of the helper would carry
    # one test's values (or a forgery's) into the next
    from classtower import classify, gaussian, gengroup, quadratic

    # an lru_cache over a builtin such as str has the __module__ "builtins"
    caches = [f for module in (classify, gengroup, gaussian, quadratic) for f in vars(module).values()
              if hasattr(f, "cache_clear") and f.__module__ in (module.__name__, "builtins")]
    cleared = []
    for cached in caches:
        monkeypatch.setattr(cached, "cache_clear", lambda cached=cached: cleared.append(cached))
    _clear_engine_caches()
    # the thirteen of the helper: eight in classify (predict, _engine_checks, _check,
    # _fmt_vectors, subspace_names, subgroup_span, _conjugate, _two_type), engine_table in
    # gengroup, split_prime in gaussian, and class_group, _principal_cycle and
    # _odd_part_factors in quadratic
    assert len(caches) >= 8
    assert [f.__qualname__ for f in caches if f not in cleared] == []


_MODULE_STATE = """
import contextlib, importlib, io, json, pkgutil
import classtower
from classtower.cli import main
modules = [importlib.import_module(f"classtower.{info.name}")
           for info in pkgutil.iter_modules(classtower.__path__)]
def sizes():
    return {f"{module.__name__}.{name}": len(value) for module in modules
            for name, value in vars(module).items() if isinstance(value, (dict, list, set))}
before, codes = sizes(), []
for argv in (["classify", "--p1", "5", "--p2", "13"], ["scan", "--max", "60"],
             ["group", "--m", "3", "--n", "1", "--q", "1"], ["verify-fixtures"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
after = sizes()
print(json.dumps({"codes": codes, "watched": len(before),
                  "changed": {name: [n, after[name]] for name, n in before.items() if after[name] != n}}))
"""


def test_commands_leave_no_module_state_behind():
    # every memo of the package is a cache that _clear_engine_caches can clear: in a fresh
    # interpreter, classify, scan, group and verify-fixtures change the size of no module-level
    # dict, list or set of any classtower module
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _MODULE_STATE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0, 0], proc.stderr
    assert report["watched"] >= 10 and report["changed"] == {}


@pytest.mark.parametrize("module, argv", [
    ("cli", ()),
    ("classify", ("--legendre", "-1", "--pi", "-1", "--b", "1")),
])
def test_group_self_check_exits_3(capsys, monkeypatch, module, argv):
    # a failed engine self-check in `group` is one consistency-failure line and exit 3, as in
    # classify: cli's own table, and the tables classify builds for the fields of --legendre
    from classtower import classify, cli
    from classtower.abelian import GroupCheckError

    def forged(pres):
        raise GroupCheckError("forged engine failure")

    monkeypatch.setattr({"cli": cli, "classify": classify}[module], "engine_table", forged)
    _clear_engine_caches()
    try:
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "group", "--m", "2", "--n", "1", "--q", "2", *argv,
                                 *json_flag)
            assert code == 3 and out == ""
            assert err == "consistency failure: forged engine failure\n"
    finally:
        _clear_engine_caches()


def _forged_split(p):
    from classtower.gaussian import CornacchiaError

    raise CornacchiaError("forged split")


def _forged_hermite(vectors):
    from classtower.abelian import GroupCheckError

    raise GroupCheckError("forged Hermite form")


@pytest.mark.parametrize("module, name, forged, argv, message", [
    ("cli", "split_prime", _forged_split, ("scan", "--max", "50", "--jobs", "2"),
     "forged split"),
    ("gengroup", "_hermite", _forged_hermite,
     ("group", "--m", "2", "--n", "1", "--q", "1", "--force"), "forged Hermite form"),
])
def test_self_check_outside_the_commands_exits_3(capsys, monkeypatch, module, name, forged,
                                                 argv, message):
    # main maps every failed self-check to exit 3: also one raised while scan --jobs shards
    # its pairs (the parent splits every prime) or while group builds its presentation
    from classtower import cli, gengroup

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fork, forked = os.fork, []

    def recorded_fork():
        pid = fork()
        forked.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr({"cli": cli, "gengroup": gengroup}[module], name, forged)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"consistency failure: {message}\n"
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_FORGED_SPLIT = """
import os
import sys
from classtower import cli
from classtower.gaussian import CornacchiaError
def forged(p):
    raise CornacchiaError("forged split")
os.cpu_count = lambda: 2
cli.split_prime = forged
sys.exit(cli.main(sys.argv[1:]))
"""


def test_self_check_while_sharding_exits_3_under_python_O():
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-O", "-c", _FORGED_SPLIT, "scan", "--max", "50",
                             "--jobs", "2", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    assert proc.returncode == 3 and out == ""
    assert err == "consistency failure: forged split\n"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process of the session survives


_INTERRUPTED_FORK = """
import os
import signal
import sys
from classtower.cli import main
fork = os.fork
def forked():  # SIGINT right after the fork returns, in the parent and in the child
    try:
        pid = fork()
    except OSError as exc:  # the scan would give the share to the parent and exit 0
        with open({report!r}, "w") as fh:
            fh.write("fork raised " + repr(exc))
        raise
    if pid:
        with open({report!r}, "w") as fh:
            fh.write("forked")
    os.kill(os.getpid(), signal.SIGINT)
    return pid
os.cpu_count = lambda: 2
os.fork = forked
sys.exit(main(sys.argv[1:]))
"""


def test_interrupt_at_the_fork_leaves_no_child(tmp_path):
    # SIGINT is blocked from before the fork until the child is registered for reaping, and
    # the child ignores it before unblocking it: one "interrupted", and no orphan left
    # blocked on its pipe
    src = str(Path(classtower.__file__).resolve().parents[1])
    report = tmp_path / "fork"
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_FORK.format(report=str(report)),
                             "scan", "--max", "100", "--jobs", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    assert report.read_text() == "forked"  # else nothing was interrupted at a fork
    assert proc.returncode == EXIT_INTERRUPTED == 130
    assert out == "" and err == "interrupted\n"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process of the session survives


def test_scan_pins_each_process_to_its_own_cpu(capsys, monkeypatch):
    # the parent and the child of --jobs 2 get CPUs of their own while they scan, round-robin
    # over a one-CPU mask; the parent's mask comes back; a refusal changes nothing
    code1, out1, _ = run(capsys, "scan", "--max", "80", "--json")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for mask, pinned in (({3, 5}, [{3}, {5}]), ({3}, [{3}, {3}])):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)))
        code2, out2, err2 = run(capsys, "scan", "--max", "80", "--jobs", "2", "--json")
        assert code2 == 0 and out2 == out1 and err2 == ""
        assert calls[0][0] == 0 and calls[1][0] > 0 and len(calls) == 3
        assert [set(cpus) for _, cpus in calls] == [*pinned, mask] and calls[2][0] == 0

    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    code3, out3, err3 = run(capsys, "scan", "--max", "80", "--jobs", "2", "--json")
    assert code3 == 0 and out3 == out1 and err3 == ""
    monkeypatch.delattr(os, "sched_setaffinity")
    code4, out4, err4 = run(capsys, "scan", "--max", "80", "--jobs", "2", "--json")
    assert code4 == 0 and out4 == out1 and err4 == ""


def test_engine_checks_cold_equal_warm(capsys, monkeypatch):
    # the engine caches are keyed by presentation and by subgroup, not by profile: each
    # profile's checks recomputed from empty caches equal what the warm scan left
    from classtower import classify

    engine_checks, profiles = classify._engine_checks, set()

    def recorded(profile):
        profiles.add(profile)
        return engine_checks(profile)

    monkeypatch.setattr(classify, "_engine_checks", recorded)
    code, _, _ = run(capsys, "scan", "--max", "1000")
    monkeypatch.undo()
    assert code == 0
    warm = {profile: engine_checks(profile) for profile in profiles}
    assert len({(p.m, p.n, p.q, p.psi) for p in profiles}) < len(profiles)
    for profile in profiles:
        _clear_engine_caches()
        assert engine_checks(profile) == warm[profile], profile


def test_subgroup_facts_once_per_subgroup(capsys, monkeypatch):
    # the 7 K_j and the 7 L_j of a presentation are the same subgroups for all its profiles:
    # one engine table per presentation, each of its 16 subgroups over G' built once
    from collections import Counter

    from classtower import gengroup

    over_derived, built = gengroup.over_derived, Counter()

    def counted(pres, classes):
        built[pres, classes] += 1
        return over_derived(pres, classes)

    monkeypatch.setattr(gengroup, "over_derived", counted)
    _clear_engine_caches()
    code, _, _ = run(capsys, "scan", "--max", "250")
    assert code == 0
    assert gengroup.engine_table.cache_info().misses == 14
    assert len(built) == 14 * 16 and set(built.values()) == {1}


def test_predicted_types_built_once_per_pair_of_exponents(capsys):
    # predict asks for six types (2^a, 2^b) per profile; each is built once and shared by the
    # profiles that ask for it
    from classtower import classify

    _clear_engine_caches()
    code, _, _ = run(capsys, "scan", "--max", "250")
    assert code == 0
    types = classify._two_type.cache_info()
    assert types.hits > types.misses > 0
    assert classify._two_type(1, 3) is classify._two_type(1, 3) == AbelianType((2, 8))


def test_engine_subgroups_built_once_per_presentation(capsys):
    # each presentation builds G, its 7 K_j, its 7 L_j, G' and their index-2 chains once,
    # whichever profiles label them; chains are top first, so an L_j's chain is the chain of a
    # K above it and one step more; the chains are read up the flag by the test oracle
    from classtower import classify, gengroup
    from group_oracle import chain

    _clear_engine_caches()
    code, _, _ = run(capsys, "scan", "--max", "250")
    assert code == 0
    built = gengroup.engine_table.cache_info().misses
    assert built == 14
    ps = primes_5_mod_8(250)
    profiles = {classify.invariants(validate_pair(a, b)).profile()
                for i, a in enumerate(ps) for b in ps[i + 1 :]}
    for profile in profiles:
        _, _, _, q, m, n, psi = profile
        pres, report = gengroup.GPresentation(m, n, q, psi), classify.predict(profile)
        table = gengroup.engine_table(pres)
        assert list(table.over) == list(gengroup.SUBSPACES) and chain(pres, table.G.H) == ()
        ks = {table.over[kf.norm_group].H for kf in report.k_fields.values()}
        assert len(ks) == 7
        for K in ks:
            steps = chain(pres, K)
            assert len(steps) == 1 and steps[0][0] == K
        for j, lf in report.l_fields.items():
            L = table.over[lf.norm_group]
            steps = chain(pres, L.H)
            assert len(steps) == 2 and steps[-1][0] == L.H and steps[0][0] in ks, (profile, j)
            assert steps[:-1] == chain(pres, steps[0][0]), (profile, j)
        assert len(chain(pres, table.G_derived.H)) == 3
    assert gengroup.engine_table.cache_info().misses == built


def test_engine_builds_subgroups_over_derived_from_subspaces(capsys, monkeypatch):
    # the subgroups over G' come from subspaces of G/G': Subgroup.generated only for
    # G' = <sigma^2, tau^2>, and H' once per lattice H & A and r^2 of a table, for each of the
    # 10 pairs (H & A, H inside A) of a table and never twice for one H
    from collections import Counter

    from classtower import classify, gengroup
    from classtower.gengroup import Subgroup

    calls, derived = Counter(), Counter()
    generated, derived_subgroup = Subgroup.generated, Subgroup.derived_subgroup

    def counted_generated(cls, pres, gens):
        calls["generated"] += 1
        return generated(pres, gens)

    def counted_derived(self):
        derived[self] += 1
        return derived_subgroup(self)

    monkeypatch.setattr(Subgroup, "generated", classmethod(counted_generated))
    monkeypatch.setattr(Subgroup, "derived_subgroup", counted_derived)
    _clear_engine_caches()
    code, _, _ = run(capsys, "scan", "--max", "250")
    assert code == 0
    presentations = gengroup.engine_table.cache_info()
    assert presentations.misses == 14
    assert calls["generated"] == presentations.misses
    assert set(derived.values()) == {1}
    assert len({(H.pres, H.lattice, H.r is None) for H in derived}) == 14 * 10 <= len(derived) < 14 * 16


def test_parser_is_built_once_per_process(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max", "13", "--jobs", "0"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "scan", "--max", "13", "--json")
    assert code == 0 and json.loads(out)["ok"] is True
    # built by the first main call, not at import
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from classtower import cli; print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stdout == "0\n"


def test_closed_stdout_exits_1_without_traceback():
    # a reader that closes the pipe at once: exit code 1 and nothing on stderr
    src = str(Path(classtower.__file__).resolve().parents[1])
    argv = ["group", "--m", "2", "--n", "2", "--q", "1", "--psi", "sigma",
            "--legendre", "1", "--pi", "1", "--b", "-1"]
    proc = subprocess.Popen([sys.executable, "-m", "classtower.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_exits_1_without_traceback():
    # a write error on stdout (a full device) is one stderr line and exit 1
    src = str(Path(classtower.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "classtower.cli", "scan", "--max", "40",
                               "--json"], stdout=full, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("cannot write to stdout: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _entry_point(argv: list[str], closed_fd: int | None = None) -> subprocess.CompletedProcess:
    # with fd 1 or 2 closed, Python starts with sys.stdout or sys.stderr set to None
    src = str(Path(classtower.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "classtower", *argv], capture_output=True,
                          preexec_fn=None if closed_fd is None else lambda: os.close(closed_fd),
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)


_DISTINCT = b"invalid input: primes must be distinct, got p1 = p2 = 5\n"


@pytest.mark.parametrize("argv, code, err", [
    (["classify", "--p1", "5", "--p2", "13"], 1, b""),
    (["scan", "--max", "30", "--jobs", "2", "--json"], 1, b""),
    (["group", "--m", "2", "--n", "2", "--q", "1", "--psi", "sigma", "--force"], 1, b""),
    (["verify-fixtures"], 1, b""),
    (["classify", "--p1", "5", "--p2", "5"], 2, _DISTINCT),  # writes nothing to stdout
    (["classify", "--help"], 0, b""),  # argparse drops the help, as for a closed pipe
], ids=["classify", "scan-jobs2", "group", "verify-fixtures", "exit-2", "help"])
def test_stdout_closed_at_start_is_a_closed_reader(argv, code, err):
    proc = _entry_point(argv, closed_fd=1)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_stderr_closed_at_start_keeps_exit_codes_and_stdout():
    argv = ["classify", "--p1", "5", "--p2", "13", "--json"]
    opened, closed = _entry_point(argv), _entry_point(argv, closed_fd=2)
    assert opened.returncode == closed.returncode == 0 and closed.stdout == opened.stdout != b""
    # the stderr lines of the command and of argparse are dropped, not written to stdout
    for argv in (["classify", "--p1", "5", "--p2", "5"], ["classify", "--p1", "5", "--bogus"]):
        proc = _entry_point(argv, closed_fd=2)
        assert (proc.returncode, proc.stdout) == (2, b""), argv


class _FailingStderr(io.StringIO):
    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [_FailingStderr(), None])
def test_failing_or_missing_stderr_keeps_exit_code(capsys, monkeypatch, stderr):
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["classify", "--p1", "5", "--p2", "5"]) == 2
    assert main(["scan", "--max", "5"]) == 2
    assert sys.stderr is stderr and capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_matches_golden_and_leaves_no_process(jobs):
    src = str(Path(classtower.__file__).resolve().parents[1])
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "scan-250.json"
    proc = subprocess.Popen([sys.executable, "-m", "classtower.cli", "scan", "--max", "250",
                             "--jobs", jobs, "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    assert proc.returncode == 0
    assert out == golden.read_bytes() and err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_classify_json_matches_goldens(capsys):
    # the benchmark's committed digests of classify --json: the first pair of each of the 38
    # symbol profiles, and every 24th pair of the class-group-bound pool
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    deep = [profile["pairs"][0] for profile in json.loads((data / "deep_profiles.json").read_text())]
    pool = json.loads((data / "large_pool.json").read_text())[::24]
    assert (len(deep), len(pool)) == (38, 10)
    for entry in deep + pool:
        code, out, _ = run(capsys, "classify", "--p1", str(entry["p1"]), "--p2", str(entry["p2"]),
                           "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"], entry


def test_scan_jobs2_imports_no_process_pool():
    src = str(Path(classtower.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from classtower.cli import main\n"
            "main(['scan', '--max', '40', '--jobs', '2', '--json'])\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules),"
            " file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0 and json.loads(proc.stdout)["pairs"] == 6
    assert proc.stderr == "[]\n"


def _wait_for_fork(proc: subprocess.Popen) -> None:
    """Return once ``proc`` has a forked child, polling every 10 ms; fail after 30 s."""
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    deadline = time.monotonic() + 30
    while not children.read_text().split():
        if proc.poll() is not None or time.monotonic() > deadline:
            pytest.fail(f"scan forked no child within 30 s (returncode {proc.returncode})")
        time.sleep(0.01)


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid``, from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _wait_for_cpu(proc: subprocess.Popen, seconds: float) -> None:
    """Return once ``proc`` has used ``seconds`` of CPU time, polling every 10 ms; fail after
    30 s."""
    deadline = time.monotonic() + 30
    while _cpu_seconds(proc.pid) < seconds:
        if proc.poll() is not None or time.monotonic() > deadline:
            pytest.fail(f"scan used less than {seconds} s of CPU within 30 s "
                        f"(returncode {proc.returncode})")
        time.sleep(0.01)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupted_scan_exits_130_without_traceback(jobs):
    # Ctrl-C reaches the whole process group; forked children ignore it and the
    # parent kills and reaps them before it exits.  With --jobs 2 the signal goes
    # out once the child exists, so the scan is still running when it lands.  With
    # --jobs 1 it goes out once the scan has used twice the CPU time of a whole
    # one-pair scan (interpreter, import and all), whatever the speed of the host.
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "classtower.cli", "scan"]
    if jobs == "1":
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([*command, "--max", "13"], capture_output=True, env=env, timeout=120,
                       check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        one_pair = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    proc = subprocess.Popen([*command, "--max", "1500", "--jobs", jobs],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    if jobs == "2":
        _wait_for_fork(proc)
    else:
        _wait_for_cpu(proc, 2 * one_pair)
    os.killpg(proc.pid, signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # leave no stuck pool behind
        raise
    assert proc.returncode == EXIT_INTERRUPTED == 130
    assert out == "" and err == "interrupted\n"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process of the session survives


def test_every_exported_name_resolves():
    modules = [classtower] + [importlib.import_module(f"classtower.{info.name}")
                              for info in pkgutil.iter_modules(classtower.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 1 and stale == []


def test_no_assert_statements_in_src():
    # self-checks must survive python -O, where assert statements vanish
    package = Path(classtower.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_src_is_exact_and_stdlib_only():
    # every computation is exact: no fractions, decimal or floats, and no third-party import
    package = Path(classtower.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            found += [f"{path.name}:{node.lineno} import {name}" for name in modules
                      if name.split(".")[0] not in sys.stdlib_module_names
                      or name.split(".")[0] in ("fractions", "decimal")]
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno} float literal")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                found.append(f"{path.name}:{node.lineno} float call")
    assert found == []


def test_no_private_imports_across_modules():
    # a module reaches another module only through its public names
    package = Path(classtower.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno} {alias.name}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").split(".")[0] == "classtower")
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_profile_rules_live_in_classify():
    # the symbol and exponent rules are stated once: other modules ask classify.admissible
    package = Path(classtower.__file__).resolve().parent
    rules = {"exponents_coupled", "q_matches_pi_b"}
    found = [f"{path.name}:{node.lineno} {name}" for path in sorted(package.glob("*.py"))
             if path.name != "classify.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in {getattr(node, field, None) for field in ("id", "attr", "name")} & rules]
    assert found == []


_FORGED_SMITH = """
import sys
from classtower import gengroup
from classtower.cli import main
smith = gengroup._smith_diagonal
def forged(x, y, z, r2=None):
    diagonal = smith(x, y, z, r2)
    return [2 * diagonal[0], *diagonal[1:]]  # one invariant factor doubled
gengroup._smith_diagonal = forged
sys.exit(main(sys.argv[1:]))
"""


def test_forged_smith_form_under_python_O():
    # the Smith invariants' product must be [H : H'], checked by an explicit raise
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _FORGED_SMITH, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == "" and "Smith invariants" in proc.stderr
    proc = run_O("scan", "--max", "40", "--json")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["pairs"] == 6
    assert [row["failed"] for row in payload["failing_pairs"]] == [["self-check"]] * 6


_FORGED_UNIT = """
import sys
from classtower import quadratic, unitindex
from classtower.cli import main
real = quadratic.fundamental_unit
def forged(m):
    u = real(m)
    # eps_65 = 8 + sqrt(65) has norm -1; claim +1
    return quadratic.QuadUnit(u.u, u.v, u.w, u.m, -u.norm) if m == 65 else u
quadratic.fundamental_unit = unitindex.fundamental_unit = forged
sys.exit(main(sys.argv[1:]))
"""


def test_unit_parity_failure_under_python_O():
    # QuadUnit's norm check raises ClassGroupError, an AssertionError, also under -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _FORGED_UNIT, "classify", "--p1", "5",
                           "--p2", "13"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("consistency failure:") and proc.stderr.count("\n") == 1
    assert "norm" in proc.stderr


_FORGED_CYCLE = """
import sys
from classtower import quadratic
from classtower.cli import main
forgery, argv = sys.argv[1], sys.argv[2:]
if forgery == "start":  # the walk starts one rho step into the principal cycle
    start = quadratic._reduced_principal
    quadratic._reduced_principal = lambda D, s: (lambda a, b, c: (c, *quadratic._rho(b, c, D, s)))(
        *start(D, s))
elif forgery == "ambiguous":  # the walk reports an ambiguous form (5, b, c) it never met
    walk = quadratic._principal_cycle
    quadratic._principal_cycle = lambda m: (lambda u, l, a: (u, l, a + (5,)))(*walk(m))
else:  # N(eps) negated
    quadratic.norm_eps = lambda m: -quadratic.fundamental_unit(m).norm
sys.exit(main(argv))
"""


@pytest.mark.parametrize("forgery, message", [
    ("start", "norm/period mismatch"),
    ("ambiguous", "principal cycle gives relations"),
    ("norm", "N(eps)"),
])
def test_principal_cycle_checks_under_python_O(forgery, message):
    # the parity law N(eps) = (-1)^l, the one nonzero relation and the agreement of j
    # with N(eps) raise ClassGroupError, an AssertionError, also under -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _FORGED_CYCLE, forgery, "classify",
                           "--p1", "5", "--p2", "13"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("consistency failure:") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


_FORGED_AMBIGUOUS = """
import sys
from classtower import quadratic
from classtower.cli import main
walk = quadratic._principal_cycle
unit, steps, _ = walk(377)  # the walk of 13 * 29 reports an ambiguous form (1, -13)
quadratic._principal_cycle = lambda m: (unit, steps, (1, -13)) if m == 377 else walk(m)
sys.exit(main(sys.argv[1:]))
"""


def test_unbounded_descent_under_python_O():
    # the forged relation sends the 2-Sylow descent past the bit length of |D|; its level bound
    # raises ClassGroupError, an AssertionError, also under -O, instead of running forever
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _FORGED_AMBIGUOUS, "classify", "--p1",
                           "13", "--p2", "29"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("consistency failure:") and proc.stderr.count("\n") == 1
    assert "the bit length of |D|" in proc.stderr


_FORGED_CONJUGATE = """
import sys
from classtower import unitindex
from classtower.cli import main
unitindex.MultiQuadElt.conj_sqrt_r = lambda self: self  # sqrt(r) -> sqrt(r): t*t^sigma = t^2
sys.exit(main(sys.argv[1:]))
"""


def test_unit_index_self_check_under_python_O():
    # t*t^sigma must lie in Z[sqrt2]; the descent checks it with an explicit UnitIndexError
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _FORGED_CONJUGATE, "classify", "--p1",
                           "5", "--p2", "13"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("consistency failure:") and proc.stderr.count("\n") == 1
    assert "is not in Z[sqrt2]" in proc.stderr


_FORGED_SQRT_MOD = """
import sys
from classtower import gaussian
from classtower.cli import main
sqrt_mod = gaussian.sqrt_mod
gaussian.sqrt_mod = lambda a, p: (sqrt_mod(a, p) + 1) % p  # not a square root of a
sys.exit(main(sys.argv[1:]))
"""


def test_split_self_check_under_python_O(monkeypatch):
    # a wrong square root of -1 mod p gives no sum of two squares: split_prime raises
    # CornacchiaError, an AssertionError, also under -O
    from classtower import gaussian

    sqrt_mod = gaussian.sqrt_mod
    monkeypatch.setattr(gaussian, "sqrt_mod", lambda a, p: (sqrt_mod(a, p) + 1) % p)
    gaussian.split_prime.cache_clear()  # an earlier test may have split 13 already
    try:
        with pytest.raises(gaussian.CornacchiaError):
            gaussian.split_prime(13)
    finally:
        gaussian.split_prime.cache_clear()
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _FORGED_SQRT_MOD, "classify", "--p1",
                           "5", "--p2", "13"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("consistency failure:") and proc.stderr.count("\n") == 1
    assert "p=13" in proc.stderr


def test_out_of_range_exponent_exits_3(capsys, monkeypatch):
    # a 2-class group of -p1p2 of order 2 gives m = 0; exponents_mn raises ClassGroupError
    from classtower import quadratic

    two_part = quadratic.two_part_of_class_group
    monkeypatch.setattr(quadratic, "two_part_of_class_group",
                        lambda D: AbelianType((2,)) if D < 0 else two_part(D))
    with pytest.raises(quadratic.ClassGroupError, match="m=0 < 2"):
        quadratic.exponents_mn(validate_pair(5, 13))
    code, out, err = run(capsys, "classify", "--p1", "5", "--p2", "13")
    assert code == 3 and out == ""
    assert err.startswith("consistency failure:") and err.count("\n") == 1


def test_forged_square_root_exits_3(capsys, monkeypatch):
    # a conic point that misses the conic gives no square root: the descent's
    # own check raises ClassGroupError, classify exits 3, scan rows fail
    from classtower import quadratic

    legendre = quadratic._legendre

    def forged(*args):
        w, x, y = legendre(*args)
        return w, x, y + 1

    monkeypatch.setattr(quadratic, "_legendre", forged)
    quadratic.class_group.cache_clear()
    try:
        with pytest.raises(quadratic.ClassGroupError):
            quadratic.class_group(-260)
        code, _, err = run(capsys, "classify", "--p1", "5", "--p2", "13")
        scan_code, out, scan_err = run(capsys, "scan", "--max", "40", "--json")
    finally:
        quadratic.class_group.cache_clear()
    assert code == 3 and err.startswith("consistency failure:") and err.count("\n") == 1
    payload = json.loads(out)
    assert scan_code == 3 and payload["pairs"] == 6
    assert [row["failed"] for row in payload["failing_pairs"]] == [["self-check"]] * 6
    assert scan_err.count("\n") == 6


def test_classify_rejects_group_beyond_enumeration_guard(capsys, monkeypatch):
    from classtower import gengroup

    monkeypatch.setattr(gengroup, "MAX_ORDER_BITS", 5)  # (5, 13) has |G| = 2^6
    _clear_engine_caches()  # classify builds each presentation once and caches it
    try:
        code, out, err = run(capsys, "classify", "--p1", "5", "--p2", "13")
    finally:
        _clear_engine_caches()
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "exceeds 2^5, the largest order a presentation" in err
    code, _, err = run(capsys, "group", "--m", "30", "--n", "1", "--q", "1", "--force")
    assert code == 2 and "exceeds 2^5, the largest order a presentation" in err


def test_scan_reports_group_beyond_the_order_bound_as_failing_rows(capsys, monkeypatch):
    # every group up to 40 has order at least 2^6; past the bound each pair is a failing row
    # with one stderr line naming the pair and the bound, and scan still prints its summary
    from classtower import gengroup

    monkeypatch.setattr(gengroup, "MAX_ORDER_BITS", 5)
    _clear_engine_caches()  # classify builds each presentation once and caches it
    try:
        code, out, err = run(capsys, "scan", "--max", "40", "--json")
    finally:
        _clear_engine_caches()
    payload = json.loads(out)
    assert code == 3 and payload["pairs"] == 6 and not payload["ok"]
    assert [row["failed"] for row in payload["failing_pairs"]] == [["group-size"]] * 6
    assert payload["property_failures"] == {"group-size": 6}
    lines = err.splitlines()
    assert len(lines) == 6 and "Traceback" not in err
    assert all(line.startswith("group too large at (") and "exceeds 2^5" in line for line in lines)


# --- fuzzing the argument vectors ---------------------------------------------

# p1*p2 just inside and just outside DISCRIMINANT_BOUND/4 = 2.5*10^7
_INSIDE, _OUTSIDE = (5, 4999957), (5, 5000077)
_NUMBERS = st.one_of(
    st.integers(-20, 120),
    st.sampled_from([-(10**30), -13, 0, 1, 2, 4, 5, 13, 17, 21, 29, 37, 10**6, 10**30, 2**61 - 1]),
)
_JUNK = st.one_of(st.just([]), st.lists(
    st.sampled_from(["--bogus", "-x", "--json", "--p1", "--max", "x", "", "1e3", "--", "-1",
                     "--verbose", "--force", "--jobs", "0x10", "--table",
                     # forms that only argparse reads: --opt=value, an abbreviation, help
                     "--p1=5", "--js", "-h"]),
    min_size=1, max_size=3,
))


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_CLASSIFY = st.builds(
    lambda pair, json_flag: ["classify", "--p1", str(pair[0]), "--p2", str(pair[1]), *json_flag],
    st.one_of(st.tuples(_NUMBERS, _NUMBERS),
              st.sampled_from([_INSIDE, _OUTSIDE, _OUTSIDE[::-1], (13, 5), (5, 5), (5, 17)])),
    st.sampled_from([[], ["--json"]]),
)
_SCAN = st.builds(
    lambda top, jobs, json_flag: ["scan", "--max", str(top), *jobs, *json_flag],
    st.sampled_from([-5, 0, 12, 13, 29, 3541, 10**6, 10**30, "4O", "1e3"]),
    _opt("--jobs", st.sampled_from([1, 0, -2, "two", ""])),
    st.sampled_from([[], ["--json"]]),
)
_GROUP = st.builds(
    lambda m, n, q, rest: ["group", "--m", str(m), "--n", str(n), "--q", str(q), *rest],
    st.one_of(st.integers(2, 5), st.sampled_from([-2, 0, 1, 10**30, 40])),
    st.one_of(st.integers(1, 4), st.sampled_from([-1, 0, 10**30, 40])),
    st.sampled_from([1, 2, 1, 3, "x"]),
    st.lists(st.sampled_from([["--force"], ["--json"], ["--psi", "sigma"], ["--legendre", "1"],
                              ["--legendre", "-1"], ["--pi", "-1"], ["--b", "2"], ["--psi"]]),
             max_size=3).map(lambda opts: [word for opt in opts for word in opt]),
)
_VERIFY = st.builds(
    lambda table, filt, flags: ["verify-fixtures", *table, *filt, *flags],
    _opt("--table", st.sampled_from(["4", "34", "9", "zz", ""])),
    _opt("--filter", st.sampled_from([130, 754, 1, -130, 10**30, "x"])),
    st.lists(st.sampled_from(["--json", "--verbose"]), max_size=2, unique=True),
)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_CLASSIFY, _SCAN, _GROUP, _VERIFY), _JUNK)
def test_cli_fuzz_exit_codes(capsys, argv, junk):
    # any argument vector ends in a documented exit code, never in an
    # exception (a traceback on stderr); no child process is forked
    argv = argv + junk  # no --jobs value above 1 can occur
    if argv[0] == "verify-fixtures" and "--filter" not in argv:
        argv += ["--filter", "130"]  # keep each example short
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 10**6), st.integers(13, 3540))
def test_cli_fuzz_jobs_parser_only(jobs, top):
    with mock.patch("os.cpu_count", return_value=4):
        args = build_parser().parse_args(["scan", "--max", str(top), "--jobs", str(jobs)])
    assert args.jobs == min(jobs, 4) and args.max == top


# command: (its required options, its optional ones), each option with some well-formed
# values (None for a flag)
_FORMS = {
    "classify": ({"--p1": [5, 13, 29, "07", 10**30, -5], "--p2": [13, 37, 5, 0, "-0"]},
                 {"--json": None}),
    "scan": ({"--max": [13, 29, 3541, 12, 0, -3]}, {"--jobs": [1, 2, 64], "--json": None}),
    "group": ({"--m": [2, 3, 40, 0, -2], "--n": [1, 4], "--q": [1, 2]},
              {"--psi": ["sigma", "tau-sigma"], "--force": None, "--legendre": [1, -1],
               "--pi": [1, -1], "--b": [1, -1], "--json": None}),
    "verify-fixtures": ({}, {"--table": ["4", "34", "zz", "", " x", "-4"],
                             "--filter": [130, 754, 1, -130], "--verbose": None, "--json": None}),
}


def _forms(loose):
    """Argv of each command with its options in shuffled order: every required option and
    some optional ones, with well-formed values; or, when ``loose``, any of the options,
    with values that may also start with '-'."""
    def option(name, values, required):
        if values is None:
            drawn = st.just((name,))
        else:
            dashed = ["-x", "--json", "--", "-1", "-h"] if loose else []
            drawn = st.sampled_from(values + dashed).map(lambda v: (name, str(v)))
        return drawn if required and not loose else st.one_of(st.just(()), drawn)

    return st.one_of(*(
        st.tuples(*(option(name, values, True) for name, values in required.items()),
                  *(option(name, values, False) for name, values in optional.items()))
        .flatmap(st.permutations)
        .map(lambda opts, command=command: [command, *(w for opt in opts for w in opt)])
        for command, (required, optional) in _FORMS.items()))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    _forms(loose=False).map(lambda argv: (argv, True)),
    _forms(loose=True).map(lambda argv: (argv, False)),
    st.tuples(st.one_of(_CLASSIFY, _SCAN, _GROUP, _VERIFY), _JUNK).map(
        lambda drawn: (drawn[0] + drawn[1], False)),
))
def test_command_table_reads_argv_as_argparse_does(drawn):
    # main reads an argv itself only where argparse gives the same namespace; it reads every
    # well-formed argv, hands every other one to argparse, and never raises
    argv, well_formed = drawn
    with mock.patch("os.cpu_count", return_value=2), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        read = _read_argv(argv)
        try:
            parsed = vars(build_parser().parse_args(argv))
        except SystemExit:  # help, or a usage error
            parsed = None
    assert read is not None or not well_formed, argv
    assert read is None or vars(read) == parsed, argv


_SYMBOL_TUPLES = [["group", "--m", "3", "--n", "1", "--q", "1", "--legendre", legendre, "--pi", pi,
                   "--b", b] for legendre in ("1", "-1") for pi in ("1", "-1") for b in ("1", "-1")]


def test_negative_values_are_read_from_the_command_table(capsys):
    # argparse takes a word like -1 for a value, as no option looks like a negative number, so
    # the command table reads it too: all 8 symbol tuples of group run with no parser built,
    # and negative values give argparse's namespace; a missing value, a non-integer or a
    # word like -x still goes to argparse
    negative = [*_SYMBOL_TUPLES, ["classify", "--p1", "-5", "--p2", "13"], ["scan", "--max", "-3"],
                ["group", "--m", "-2", "--n", "1", "--q", "1"], ["classify", "--p1", "-0", "--p2",
                "-13", "--json"], ["verify-fixtures", "--table", "-4", "--filter", "-130"]]
    for argv in negative:
        assert vars(_read_argv(argv)) == vars(build_parser().parse_args(argv)), argv
    for argv in (["group", "--m", "3", "--n", "1", "--q", "1", "--legendre"],
                 ["verify-fixtures", "--table", "-1.5"], ["scan", "--max", "-x"],
                 ["scan", "--max", "40", "--jobs", "-1"], ["classify", "--p1", "-", "--p2", "13"]):
        assert _read_argv(argv) is None, argv
    with mock.patch("classtower.cli.build_parser", side_effect=AssertionError("parser built")):
        codes = [main(argv) for argv in _SYMBOL_TUPLES]
    err = capsys.readouterr().err
    assert 0 in codes and set(codes) <= {0, 2} and "parser built" not in err, (codes, err)


_PARSER_STATE = """
import contextlib, io, sys
from classtower import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in sys.argv[1:]]
print(codes, cli.build_parser.cache_info().currsize,
      [name for name in ("locale", "argparse", "gettext") if name in sys.modules])
"""


def test_well_formed_argv_builds_no_parser():
    # a well-formed command is read from the command table: argparse builds no parser, so
    # the import of locale that gettext makes inside ArgumentParser() never happens, and
    # argparse and its gettext are not even imported, also for a valid --jobs 2
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argvs = ["classify --p1 5 --p2 13 --json", "scan --max 13 --jobs 1", "scan --max 40 --jobs 2",
             "group --m 3 --n 1 --q 1 --force", "verify-fixtures --filter 130 --verbose"]
    proc = subprocess.run([sys.executable, "-c", _PARSER_STATE, *argvs], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[0, 0, 0, 0, 0] 0 []\n"
    # a rejected --jobs value loads argparse, which writes the type function's own message
    for jobs, message in (("0", "must be at least 1, got 0"), ("x", "not an integer: 'x'")):
        proc = subprocess.run([sys.executable, "-m", "classtower", "scan", "--max", "40", "--jobs",
                               jobs], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == f"classtower scan: error: argument --jobs: {message}"


_IMPORTED = """
import contextlib, io, sys
from classtower import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def test_classify_imports_no_dataclasses():
    # the value classes are NamedTuples, so a one-shot classify never imports dataclasses, nor
    # the inspect, ast, dis and tokenize that dataclasses pulls in
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _IMPORTED, "classify", "--p1", "5", "--p2", "13",
                           "--json"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stdout == "0 False False\n"


def test_python_m_classtower_runs_main(capsys, tmp_path):
    # a source checkout runs the commands as python -m classtower, without an install
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "classtower", "classify", "--p1", "5", "--p2",
                           "13", "--json"], capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    code, out, _ = run(capsys, "classify", "--p1", "5", "--p2", "13", "--json")
    assert proc.returncode == code == 0 and proc.stdout == out and proc.stderr == ""


_INTERRUPTED_IMPORT = """
import runpy, sys

class Interrupt:  # a SIGINT that lands while the command line is being imported
    def find_spec(self, name, path=None, target=None):
        if name == "classtower.classify":
            raise KeyboardInterrupt

sys.meta_path.insert(0, Interrupt())
sys.argv = [{module!r}, "classify", "--p1", "5", "--p2", "13", "--json"]
runpy.run_module({module!r}, run_name="__main__")
"""


def _interrupted_import(module, preexec_fn=None):
    src = str(Path(classtower.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", _INTERRUPTED_IMPORT.format(module=module)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60, preexec_fn=preexec_fn)


def test_python_m_classtower_interrupted_during_import_exits_130():
    # python -m classtower and the classtower script import cli inside their own except
    # KeyboardInterrupt, so an interrupt before cli.main is the same one line and exit 130
    proc = _interrupted_import("classtower")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INTERRUPTED, "", "interrupted\n")


def test_python_m_classtower_cli_interrupted_during_import_exits_130():
    # python -m classtower.cli hands itself to classtower.__main__ before its own imports
    proc = _interrupted_import("classtower.cli")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INTERRUPTED, "", "interrupted\n")


def test_interrupted_import_with_stderr_closed_writes_nothing_to_stdout():
    # fd 2 closed at start: the entry point drops its "interrupted" line (print would send it
    # to stdout) and keeps exit 130
    proc = _interrupted_import("classtower", preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (EXIT_INTERRUPTED, "")


_ARGV = ["classify", "--p1", "5", "--p2", "13", "--json"]

_SIGINT_AFTER_MAIN = f"""
import os, signal, sys
import classtower.__main__
sys.argv = ["classtower", *{_ARGV!r}]
code = classtower.__main__.main()
os.kill(os.getpid(), signal.SIGINT)  # what the classtower script does next is sys.exit(code)
raise SystemExit(code)
"""

_SIGINT_AT_EXIT = """
import atexit, os, runpy, signal, sys
atexit.register(lambda: os.kill(os.getpid(), signal.SIGINT))
sys.argv = [{module!r}, *{argv!r}]
runpy.run_module({module!r}, run_name="__main__")
"""


def test_sigint_after_main_returns_keeps_the_exit_code(capsys):
    # once main has its exit code, a SIGINT no longer ends the process with -2 and a traceback
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SIGINT_AFTER_MAIN], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    code, out, _ = run(capsys, *_ARGV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "") and code == 0


@pytest.mark.parametrize("module", ["classtower", "classtower.cli"])
def test_sigint_in_an_atexit_callback_keeps_the_exit_code(capsys, module):
    # python -m classtower and python -m classtower.cli: an interrupt on the way out prints
    # nothing and leaves the command's exit code
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SIGINT_AT_EXIT.format(module=module, argv=_ARGV)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    code, out, _ = run(capsys, *_ARGV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "") and code == 0


def test_import_classtower_loads_no_submodule():
    # every name is imported from its module; the package itself imports none of them
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import sys, classtower; print(sorted(m for m in "
                           "sys.modules if m.startswith('classtower.')))"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def _stdout_gone(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone: the flush in main raises BrokenPipeError
    stdout = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    return stdout


def _interrupt_classify(monkeypatch):
    from classtower import cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_classify", interrupted)


# exit code -> (what forces it, returning any file it opened; argv)
_EXITS = {
    0: (None, _ARGV),
    1: (_stdout_gone, _ARGV),
    2: (None, ["classify", "--p1", "5", "--p2", "17"]),
    3: (_fail_pair_13_29, ["classify", "--p1", "13", "--p2", "29"]),
    130: (_interrupt_classify, _ARGV),
}


@pytest.mark.parametrize("code", sorted(_EXITS))
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, code):
    # main freezes the heap it starts with for the command and thaws it on every way out
    from classtower import cli

    forge, argv = _EXITS[code]
    opened = forge(monkeypatch) if forge is not None else None
    command, frozen_during = cli.cmd_classify, []
    monkeypatch.setattr(cli, "cmd_classify",
                        lambda args: frozen_during.append(gc.get_freeze_count()) or command(args))
    before = gc.get_freeze_count(), gc.isenabled()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code
    finally:
        if opened is not None:
            opened.close()
    assert (gc.get_freeze_count(), gc.isenabled()) == before and before[0] == 0
    assert len(frozen_during) == 1 and frozen_during[0] > 0


def test_a_cycle_made_before_main_is_freed_after_it(capsys):
    # the objects main freezes are thawed, so a full collection after it reaches them
    class Node:
        pass

    enabled = gc.isenabled()
    gc.disable()  # no collection frees the cycle before main freezes it
    try:
        node = Node()
        node.cycle = node
        ref = weakref.ref(node)
        del node
        assert gc.get_freeze_count() == 0  # so main freezes the cycle
        assert run(capsys, *_ARGV)[0] == 0 and ref() is not None
        gc.collect()
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_callers_frozen_objects_stay_frozen(capsys):
    # main neither freezes more nor thaws what a caller froze before it
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert run(capsys, *_ARGV)[0] == 0 and gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


_COLLECTIONS = f"""
import gc, sys
import classtower.cli
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
code = classtower.cli.main({_ARGV!r})
print(code, starts, file=sys.stderr)
"""


def test_one_classify_call_runs_no_collection():
    # freezing resets the count of new objects, and one classify call makes too few for a
    # collection of its own: the collector walks neither the imports nor the command
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _COLLECTIONS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.stderr == "0 []\n"
