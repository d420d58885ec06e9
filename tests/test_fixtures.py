import json

import pytest

from classtower.fixtures import FixtureRow, load_fixtures, verify_fixtures, verify_row

EXPECTED_ROW_COUNTS = {"4": 8, "5": 6, "6": 6, "7": 6, "8": 6, "34": 8, "35": 8}


def test_corpus_shape():
    fixtures = load_fixtures()
    assert {t: len(rows) for t, rows in fixtures.items()} == EXPECTED_ROW_COUNTS
    for rows in fixtures.values():
        for row in rows:
            assert row.d == 2 * row.p1 * row.p2


def test_caption_values_merged():
    fixtures = load_fixtures()
    assert all(r.values["pi"] == -1 for r in fixtures["5"])
    assert all(r.values["legendre"] == 1 for r in fixtures["7"])
    assert all(r.values["m"] == 2 for r in fixtures["7"])
    # per-row pi in the legendre = -1 tables
    assert {r.values["pi"] for r in fixtures["34"]} == {1, -1}


def test_row_invariant_validation():
    with pytest.raises(ValueError, match="2\\*p1\\*p2"):
        FixtureRow("4", 100, 5, 13, {}, {})
    with pytest.raises(ValueError):
        FixtureRow(
            "5", 130, 5, 13, {}, {f"cl_K{j}": (0, 2) for j in range(1, 8)}
        )  # 0 is not a cyclic order


def test_verify_single_row():
    row = load_fixtures()["4"][0]
    result = verify_row(row)
    assert result.passed
    names = [c.column for c in result.columns]
    assert names.count("cross_validation") == 1
    assert "disc" in names and "coclass" in names


def test_verify_full_corpus():
    results = verify_fixtures()
    assert len(results) == sum(EXPECTED_ROW_COUNTS.values())
    bad = [r for r in results if not r.passed]
    assert not bad, [(r.table, r.d, r.failures()) for r in bad]


def test_verify_filters():
    results = verify_fixtures(table="4")
    assert len(results) == 8 and all(r.passed for r in results)
    results = verify_fixtures(filter_d=130)
    assert {r.table for r in results} == {"4", "34", "35"}
    assert verify_fixtures(filter_d=99) == []
    with pytest.raises(ValueError, match="unknown fixture table"):
        verify_fixtures(table="99")


def test_fixture_mismatch_detected(tmp_path, monkeypatch):
    # corrupt copy of the corpus: flip one q value
    import importlib.resources as resources

    text = resources.files("classtower").joinpath("data/fixtures_v1.json").read_text()
    doc = json.loads(text)
    doc["tables"]["4"]["rows"][0]["q"] = 1  # true value is 2 for d = 130
    bad_path = tmp_path / "bad_fixtures.json"
    bad_path.write_text(json.dumps(doc))
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(bad_path))
    results = verify_fixtures(table="4", filter_d=130)
    assert len(results) == 1 and not results[0].passed
    assert [c.column for c in results[0].failures()] == ["q"]


def test_bad_version_rejected(tmp_path, monkeypatch):
    bad = tmp_path / "v0.json"
    bad.write_text(json.dumps({"version": "fixtures_v0", "tables": {}}))
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(bad))
    with pytest.raises(ValueError, match="version"):
        load_fixtures()
