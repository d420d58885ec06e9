import os
import subprocess
import sys
from pathlib import Path

import pytest

import classtower
from classtower.abelian import AbelianType
from classtower.classify import cross_validate, invariants, predict
from classtower.fixtures import ColumnResult, RowResult, load_fixtures
from classtower.gaussian import GaussianInt, split_prime
from classtower.gengroup import GPresentation, Subgroup
from classtower.quadratic import class_group, fundamental_unit
from classtower.symbols import validate_pair
from classtower.unitindex import MultiQuadElt

_COLUMN = ColumnResult("q", True, "1", "1", "1")

# (class name, a value of it, its field names in order, whether it hashes)
_VALUES = [
    ("AbelianType", lambda: AbelianType((2, 4)), ["divisors"], True),
    ("InvariantRecord", lambda: invariants(validate_pair(5, 13)),
     ["pair", "legendre", "pi", "B", "m", "n", "q", "norm_eps_r", "psi", "splits"], True),
    ("PredictionReport", lambda: predict(invariants(validate_pair(5, 13)).profile()),
     ["group_order", "derived", "cl2_k3", "coclass", "nilpotency_class", "k_fields",
      "l_fields"], False),  # the fields' dicts do not hash
    ("ValidationReport", lambda: cross_validate(invariants(validate_pair(5, 13))), ["checks"],
     True),
    ("FixtureRow", lambda: next(iter(load_fixtures().values()))[0],
     ["table", "d", "p1", "p2", "values", "class_groups"], False),
    ("ColumnResult", lambda: _COLUMN, ["column", "ok", "expected", "computed", "printed"], True),
    ("RowResult", lambda: RowResult("1", 130, 5, 13, (_COLUMN,)),
     ["table", "d", "p1", "p2", "columns"], True),
    ("GaussianInt", lambda: GaussianInt(1, 2), ["re", "im"], True),
    ("PrimeSplit", lambda: split_prime(13), ["p", "pi", "i_residue"], True),
    ("GPresentation", lambda: GPresentation(3, 1, 1), ["m", "n", "q", "psi"], True),
    ("Subgroup", lambda: Subgroup.whole_group(GPresentation(3, 1, 1)), ["pres", "lattice", "r"],
     True),
    ("QuadUnit", lambda: fundamental_unit(2), ["u", "v", "w", "m", "norm"], True),
    ("ClassGroup", lambda: class_group(-4 * 65), ["D", "two_part"], True),
    ("PrimePair", lambda: validate_pair(5, 13), ["p1", "p2"], True),
    ("MultiQuadElt", lambda: MultiQuadElt.from_unit(fundamental_unit(2), 65), ["r", "c"], True),
]


@pytest.mark.parametrize("name, make, fields, hashes", _VALUES, ids=[v[0] for v in _VALUES])
def test_value_semantics(name, make, fields, hashes):
    # frozen fields, equality and hashing by field value, and the Name(field=value, ...) repr
    value = make()
    assert type(value).__name__ == name and list(value._fields) == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    twin = type(value)(*value)  # rebuilt from its fields, through the class's own checks
    assert twin is not value and twin == value and not twin != value
    if hashes:
        assert hash(twin) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value) == f"{name}(" + ", ".join(
        f"{field}={getattr(value, field)!r}" for field in fields) + ")"


_CHECKS = """
from classtower.abelian import AbelianType
from classtower.unitindex import MultiQuadElt
for make in (lambda: AbelianType((4, 6)), lambda: MultiQuadElt(65, (1, 0, 0, 0))):
    try:
        make()
    except ValueError as exc:
        print(exc)
"""


def test_value_checks_under_python_O():
    # the checks in __new__ raise explicitly, so python -O keeps them
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _CHECKS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == ("not a divisor chain: (4, 6)\n"
                           "(1, 0, 0, 0)/2 is not an integer of Q(sqrt2, sqrt65)\n")


_REBUILT = """
from classtower.abelian import AbelianType
from classtower.fixtures import load_fixtures
from classtower.quadratic import QuadUnit, fundamental_unit
from classtower.unitindex import MultiQuadElt
row = next(iter(load_fixtures().values()))[0]
unit = MultiQuadElt.from_unit(fundamental_unit(2), 65)
for make in (lambda: AbelianType((2,))._replace(divisors=(4, 6)),
             lambda: AbelianType._make([(4, 6)]),
             lambda: QuadUnit._make([1, 1, 1, 2, 5]),
             lambda: fundamental_unit(2)._replace(norm=5),
             lambda: MultiQuadElt._make([65, (1, 0, 0, 0)]),
             lambda: unit._replace(c=(1, 0, 0, 0)),
             lambda: row._replace(p1=7),
             lambda: type(row)._make([row.table, row.d, row.p1, row.p2, row.values, {"cl_k0": (0,)}])):
    try:
        print("unchecked", make())
    except (ValueError, AssertionError) as exc:
        print(type(exc).__name__)
print(AbelianType((2,))._replace(divisors=(2, 4)) == AbelianType((2, 4)),
      QuadUnit._make(fundamental_unit(2)) == fundamental_unit(2), unit._make(unit) == unit,
      type(row)._make(row) == row)
"""


def test_replace_and_make_check_under_python_O():
    # _replace builds through _make, and _make of the four checked classes through the
    # constructor, so neither gets round the checks, also under python -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _REBUILT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.split() == ["ValueError"] * 2 + ["ClassGroupError"] * 2 + (
        ["ValueError"] * 4) + ["True"] * 4
