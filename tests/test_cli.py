import ast
import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from unittest import mock

import classtower
from classtower.abelian import AbelianType
from classtower.cli import EXIT_INTERRUPTED, _largest_pair_product, build_parser, main
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


def test_scan_jobs_deterministic(capsys, monkeypatch):
    # with --jobs 3 two children's pipes are read in turn and the shares interleave back
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code1, out1, _ = run(capsys, "scan", "--max", "80", "--json")
    code2, out2, _ = run(capsys, "scan", "--max", "80", "--jobs", "2", "--json")
    code3, out3, err3 = run(capsys, "scan", "--max", "80", "--jobs", "3", "--json")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3 and err3 == ""


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
    ("dumps", _drop_a_row, "sent 2 rows for 3 pairs"),
])
def test_scan_worker_failure_exits_3(capsys, monkeypatch, name, forged, reason):
    # a child that raises outside its rows, dies or sends the wrong rows: one
    # stderr line naming it, exit 3, no traceback, and the child is reaped
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


_IDENTITY_STEPS = """
import sys
from classtower import gengroup
from classtower.cli import main
transfer_along = gengroup._transfer_along
def identity_steps(pres, steps, g):
    return transfer_along(pres, [(K, (0, 0, 0)) for K, _ in steps], g)  # every z the identity
gengroup._transfer_along = identity_steps
sys.exit(main(sys.argv[1:]))
"""


def test_engine_self_check_under_python_O():
    # the transfer's check that z lies outside K raises GroupCheckError, an AssertionError,
    # also under -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", "-c", _IDENTITY_STEPS, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_O("classify", "--p1", "5", "--p2", "13")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "index-2 step" in proc.stderr
    proc = run_O("scan", "--max", "40", "--json")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["pairs"] == 6
    assert [row["failed"] for row in payload["failing_pairs"]] == [["self-check"]] * 6


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
    from classtower import classify, gengroup

    for cached in (classify.predict, classify._engine_checks, classify._text,
                   classify._fmt_vectors, classify._word_subgroup, gengroup.engine_table):
        cached.cache_clear()


def test_clear_engine_caches_clears_every_cache(monkeypatch):
    # a cache of classify or gengroup left out of the helper would carry one test's values
    # (or a forgery's) into the next
    from classtower import classify, gengroup

    # classify._text is lru_cache over the builtin str, so its __module__ is "builtins"
    caches = [f for module in (classify, gengroup) for f in vars(module).values()
              if hasattr(f, "cache_clear") and f.__module__ in (module.__name__, "builtins")]
    cleared = []
    for cached in caches:
        monkeypatch.setattr(cached, "cache_clear", lambda cached=cached: cleared.append(cached))
    _clear_engine_caches()
    # the six of the helper: five in classify (predict, _engine_checks, _text, _fmt_vectors,
    # _word_subgroup) and engine_table in gengroup
    assert len(caches) >= 6
    assert [f.__qualname__ for f in caches if f not in cleared] == []


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
    # the subgroups over G' come from subspaces of G/G': Subgroup.generated only for the table
    # words and G' = <sigma^2, tau^2>, and each of the 16 H' of a table once
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
    words, presentations = classify._word_subgroup.cache_info(), gengroup.engine_table.cache_info()
    assert presentations.misses == 14
    assert calls["generated"] == words.misses + presentations.misses
    assert len(derived) == 14 * 16 and set(derived.values()) == {1}  # the 16 subgroups over G'


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


def test_scan_jobs2_matches_golden_and_leaves_no_process():
    src = str(Path(classtower.__file__).resolve().parents[1])
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "scan-250.json"
    proc = subprocess.Popen([sys.executable, "-m", "classtower.cli", "scan", "--max", "250",
                             "--jobs", "2", "--json"],
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupted_scan_exits_130_without_traceback(jobs):
    # Ctrl-C reaches the whole process group; forked children ignore it and the
    # parent kills and reaps them before it exits
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "classtower.cli", "scan", "--max", "1500",
                             "--jobs", jobs],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    time.sleep(1.0)
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
    reduce = quadratic.reduce_indefinite
    quadratic.reduce_indefinite = lambda f: quadratic.rho_step(reduce(f), quadratic.math.isqrt(f.disc()))
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
    with pytest.raises(gaussian.CornacchiaError):
        gaussian.split_prime(13)
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
    from classtower import classify, gengroup

    monkeypatch.setattr(gengroup, "MAX_ORDER_BITS", 5)  # (5, 13) has |G| = 2^6
    classify._engine_checks.cache_clear()
    try:
        code, out, err = run(capsys, "classify", "--p1", "5", "--p2", "13")
    finally:
        classify._engine_checks.cache_clear()
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "exceeds 2^5, the largest order a presentation" in err
    code, _, err = run(capsys, "group", "--m", "30", "--n", "1", "--q", "1", "--force")
    assert code == 2 and "exceeds 2^5, the largest order a presentation" in err


def test_scan_reports_group_beyond_the_order_bound_as_failing_rows(capsys, monkeypatch):
    # every group up to 40 has order at least 2^6; past the bound each pair is a failing row
    # with one stderr line naming the pair and the bound, and scan still prints its summary
    from classtower import classify, gengroup

    monkeypatch.setattr(gengroup, "MAX_ORDER_BITS", 5)
    classify._engine_checks.cache_clear()
    try:
        code, out, err = run(capsys, "scan", "--max", "40", "--json")
    finally:
        classify._engine_checks.cache_clear()
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
                     "--verbose", "--force", "--jobs", "0x10", "--table"]),
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
