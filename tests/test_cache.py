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
        [path] = cache_dir.glob("*.json")
        assert json.loads(path.read_text())["sections"] == {"structure": {"v": 2}}

    def test_file_holds_one_entry_named_by_its_key(self, cache_dir):
        group = cyclic(6)
        cache_store(cache_dir, group, {"structure": {"v": 1}}, tol=0.3)
        [path] = cache_dir.glob("*.json")
        assert path.name == f"6-{table_hash(group)}-0.3.json"
        data = json.loads(path.read_text())
        assert sorted(data) == ["degree", "elements", "schema", "sections", "tol"]
        assert (data["schema"], data["tol"]) == (cache.CACHE_SCHEMA, 0.3)

    def test_store_never_reads_a_file(self, cache_dir, monkeypatch):
        group = symmetric(3)
        cache_store(cache_dir, group, {"structure": {"v": 1}})

        def refuse(*args, **kwargs):
            raise AssertionError("cache_store opened a file to read it")

        monkeypatch.setattr(cache, "open", refuse, raising=False)
        cache_store(cache_dir, group, {"structure": {"v": 2}})
        cache_store(cache_dir, group, {"structure": {"v": 3}}, tol=0.3)
        monkeypatch.undo()
        assert cache_lookup(cache_dir, group) == {"structure": {"v": 2}}
        assert cache_lookup(cache_dir, group, tol=0.3) == {"structure": {"v": 3}}


class TestVersioning:
    def test_version_bump_misses(self, cache_dir, monkeypatch, capsys):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        monkeypatch.setattr(cache, "CACHE_SCHEMA", cache.CACHE_SCHEMA + 1)
        assert cache_lookup(cache_dir, group) is None
        assert capsys.readouterr().err == ""

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
    def test_colliding_groups_never_read_each_others_entry(self, cache_dir, monkeypatch,
                                                            capsys):
        # force every group of one order onto the same file name: the full
        # element-table comparison must turn the collision into a miss
        monkeypatch.setattr(cache, "table_hash", lambda group: "0" * 64)
        g1 = cyclic(4)
        g2 = parse_group_spec("C2xC2").group  # same order, different table
        cache_store(cache_dir, g1, {"report": {"who": "C4"}})
        assert cache_lookup(cache_dir, g2) is None
        cache_store(cache_dir, g2, {"report": {"who": "V4"}})
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert cache_lookup(cache_dir, g1) is None
        assert cache_lookup(cache_dir, g2) == {"report": {"who": "V4"}}
        assert capsys.readouterr().err == ""


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
        files = sorted(cache_dir.glob("*.json"))
        assert sorted(json.loads(path.read_text())["tol"] for path in files) == [1e-12, 0.3]
        # a second store at one tol replaces only that tol's file
        cache_store(cache_dir, group, {"structure": {"v": 3}}, tol=0.3)
        assert cache_lookup(cache_dir, group, tol=0.3) == {"structure": {"v": 3}}
        assert cache_lookup(cache_dir, group) == {"structure": {"v": 2}}
        assert sorted(cache_dir.glob("*.json")) == files

    def test_entry_without_tol_misses(self, cache_dir):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        path = next(cache_dir.glob("*.json"))
        data = json.loads(path.read_text())
        del data["tol"]
        path.write_text(json.dumps(data))
        assert cache_lookup(cache_dir, group) is None

    def test_a_file_copied_to_another_tols_name_misses(self, cache_dir, capsys):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}}, tol=0.3)
        cache_store(cache_dir, group, {"report": {"ok": False}})
        [loose] = cache_dir.glob("*-0.3.json")
        [default] = cache_dir.glob("*-1e-12.json")
        default.write_bytes(loose.read_bytes())
        assert cache_lookup(cache_dir, group) is None
        assert cache_lookup(cache_dir, group, tol=0.3) == {"report": {"ok": True}}
        assert capsys.readouterr().err == ""
