import json

import pytest

import latspec.cache as cache
from latspec.cache import cache_lookup, cache_store, signature_of, table_hash
from latspec.catalog import cyclic, parse_group_spec, symmetric


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


class TestSignature:
    def test_fields(self):
        sig = signature_of(symmetric(3))
        assert sig["order"] == 6
        assert sig["element_orders"] == [[1, 1], [2, 3], [3, 2]]
        assert len(sig["table_hash"]) == 64

    def test_distinct_groups_distinct_hashes(self):
        assert table_hash(cyclic(4)) != table_hash(cyclic(5))

    def test_same_group_same_hash(self):
        assert table_hash(symmetric(3)) == table_hash(parse_group_spec("S3").group)


class TestRoundTrip:
    def test_store_then_lookup(self, cache_dir):
        group = symmetric(3)
        sections = {"structure": {"lattice": {"size": 6}}, "report": {"ok": True}}
        cache_store(cache_dir, group, sections)
        assert cache_lookup(cache_dir, group) == sections

    def test_lookup_miss(self, cache_dir):
        assert cache_lookup(cache_dir, symmetric(3)) is None

    def test_stored_json_is_byte_stable(self, cache_dir):
        group = cyclic(6)
        sections = {"structure": {"x": [1, 2, 3]}}
        cache_store(cache_dir, group, sections)
        first = next(cache_dir.glob("*.json")).read_bytes()
        cache_store(cache_dir, group, sections)
        second = next(cache_dir.glob("*.json")).read_bytes()
        assert first == second

    def test_update_replaces_entry(self, cache_dir):
        group = cyclic(6)
        cache_store(cache_dir, group, {"structure": {"v": 1}})
        cache_store(cache_dir, group, {"structure": {"v": 2}})
        assert cache_lookup(cache_dir, group) == {"structure": {"v": 2}}
        data = json.loads(next(cache_dir.glob("*.json")).read_text())
        assert len(data["entries"]) == 1


class TestVersioning:
    def test_version_bump_misses(self, cache_dir, monkeypatch):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        monkeypatch.setattr(cache, "TOOL_VERSION", "999.0.0")
        assert cache_lookup(cache_dir, group) is None

    def test_corrupt_file_warns_and_recomputes(self, cache_dir, capsys):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        path = next(cache_dir.glob("*.json"))
        path.write_text("{not json")
        assert cache_lookup(cache_dir, group) is None
        assert "corrupt" in capsys.readouterr().err
        # a fresh store repairs the file
        cache_store(cache_dir, group, {"report": {"ok": True}})
        assert cache_lookup(cache_dir, group) == {"report": {"ok": True}}


class TestHashCollision:
    def test_colliding_groups_stored_separately(self, cache_dir, monkeypatch):
        # force every group into the same cache file: the full element-table
        # comparison must still keep the entries apart
        monkeypatch.setattr(cache, "table_hash", lambda group: "0" * 64)
        g1 = cyclic(4)
        g2 = parse_group_spec("C2xC2").group  # same order, different table
        cache_store(cache_dir, g1, {"report": {"who": "C4"}})
        cache_store(cache_dir, g2, {"report": {"who": "V4"}})
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert cache_lookup(cache_dir, g1) == {"report": {"who": "C4"}}
        assert cache_lookup(cache_dir, g2) == {"report": {"who": "V4"}}


class TestTolerance:
    def test_entry_answers_only_its_own_tol(self, cache_dir):
        group = symmetric(3)
        cache_store(cache_dir, group, {"structure": {"v": 1}}, tol=0.3)
        assert cache_lookup(cache_dir, group, tol=0.3) == {"structure": {"v": 1}}
        assert cache_lookup(cache_dir, group) is None

    def test_store_at_another_tol_keeps_both_entries(self, cache_dir):
        group = symmetric(3)
        cache_store(cache_dir, group, {"structure": {"v": 1}}, tol=0.3)
        cache_store(cache_dir, group, {"structure": {"v": 2}})
        assert cache_lookup(cache_dir, group) == {"structure": {"v": 2}}
        assert cache_lookup(cache_dir, group, tol=0.3) == {"structure": {"v": 1}}
        assert cache_lookup(cache_dir, group, tol=1e-10) is None
        data = json.loads(next(cache_dir.glob("*.json")).read_text())
        assert sorted(e["tol"] for e in data["entries"]) == [1e-12, 0.3]
        # a second store at one tol replaces only that tol's entry
        cache_store(cache_dir, group, {"structure": {"v": 3}}, tol=0.3)
        assert cache_lookup(cache_dir, group, tol=0.3) == {"structure": {"v": 3}}
        assert cache_lookup(cache_dir, group) == {"structure": {"v": 2}}
        assert len(json.loads(next(cache_dir.glob("*.json")).read_text())["entries"]) == 2

    def test_entry_without_tol_misses(self, cache_dir):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        path = next(cache_dir.glob("*.json"))
        data = json.loads(path.read_text())
        del data["entries"][0]["tol"]
        path.write_text(json.dumps(data))
        assert cache_lookup(cache_dir, group) is None
