import hashlib
import json

import pytest

import latspec.cache as cache
from latspec.cache import cache_lookup, cache_store, decode_section, signature_of, table_hash
from latspec.catalog import CATALOG_NAMES, cyclic, parse_group_spec, symmetric
from latspec.lattice import enumerate_subgroups
from latspec.perm import generate_group

from conftest import decode_lookup, read_cache_file, write_cache_file


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


class TestDigest:
    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)",))
    def test_table_hash_is_hashlib_sha256_of_the_element_table(self, name):
        group = parse_group_spec(name).group
        text = str(group.degree) + "".join(
            "|" + ",".join(map(str, p.images)) for p in group.elements)
        assert table_hash(group) == hashlib.sha256(text.encode()).hexdigest()

    def test_a_restricted_group_hashes_as_its_closure_once(self, monkeypatch):
        # the digest is kept on the group: a second call hashes nothing
        top = enumerate_subgroups(parse_group_spec("S4").group)
        [rep] = [sid for sid, s in enumerate(top.subgroups) if s.order == 12]
        cut = top.standalone_group(rep)
        closed = generate_group(4, [top.group.elements[g] for g in top.minimal_generators(rep)])
        hashes = []
        real = cache.sha256
        monkeypatch.setattr(cache, "sha256", lambda *a: hashes.append(a) or real(*a))
        assert table_hash(cut) == table_hash(closed) == table_hash(cut) == table_hash(closed)
        assert len(hashes) == 2

    def test_digest_comes_from_the_built_in_module(self):
        # hashlib's OpenSSL-backed sha256 lives in _hashlib
        assert cache.sha256.__module__ in ("_sha2", "_sha256")

    def test_s4_digest_is_pinned(self):
        # part of every S4 cache file name; a new digest would orphan old files
        assert table_hash(parse_group_spec("S4").group) == (
            "3693d4bf0d32f8edcef8788290d94bb58707f0d40829eb7efb5469ff68cb25aa")


class TestRoundTrip:
    def test_store_then_lookup(self, cache_dir):
        group = symmetric(3)
        sections = {"structure": {"lattice": {"size": 6}}, "report": {"ok": True}}
        cache_store(cache_dir, group, sections)
        assert decode_lookup(cache_lookup(cache_dir, group)) == sections

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
        assert decode_lookup(cache_lookup(cache_dir, group)) == {"structure": {"v": 2}}
        [path] = cache_dir.glob("*.json")
        assert read_cache_file(path)[1] == {"structure": {"v": 2}}

    def test_file_holds_one_entry_named_by_its_key(self, cache_dir):
        group = cyclic(6)
        cache_store(cache_dir, group, {"structure": {"v": 1}})
        [path] = cache_dir.glob("*.json")
        assert path.name == f"6-{table_hash(group)}.json"
        key, sections = read_cache_file(path)
        assert sorted(key) == ["degree", "elements", "schema"]
        assert key["schema"] == cache.CACHE_SCHEMA == 5
        assert sections == {"structure": {"v": 1}}

    def test_store_never_reads_a_file(self, cache_dir, monkeypatch):
        group = symmetric(3)
        cache_store(cache_dir, group, {"structure": {"v": 1}})

        def refuse(*args, **kwargs):
            raise AssertionError("cache_store opened a file to read it")

        monkeypatch.setattr(cache, "open", refuse, raising=False)
        cache_store(cache_dir, group, {"structure": {"v": 2}})
        monkeypatch.undo()
        assert decode_lookup(cache_lookup(cache_dir, group)) == {"structure": {"v": 2}}


class TestSectionLines:
    def test_layout_is_a_key_line_then_one_sorted_line_per_section(self, cache_dir):
        group = cyclic(3)
        cache_store(cache_dir, group, {"report": {"ok": True}, "graph": [1, {"b": 2, "a": 1}]})
        [path] = cache_dir.glob("*.json")
        assert path.read_text().split("\n") == [
            '{"degree":3,"elements":[[0,1,2],[1,2,0],[2,0,1]],"schema":%d}'
            % cache.CACHE_SCHEMA,
            'graph\t[1,{"a":1,"b":2}]',
            'report\t{"ok":true}',
            "",
        ]

    def test_lookup_decodes_the_key_line_and_each_section_on_first_read(self, cache_dir,
                                                                        monkeypatch):
        group = symmetric(3)
        cache_store(cache_dir, group, {"graph": {"v": 1}, "report": {"ok": True}})
        decoded = []
        real = json.loads

        def recording(text, *args, **kwargs):
            decoded.append(text.partition(",")[0])
            return real(text, *args, **kwargs)

        monkeypatch.setattr(cache.json, "loads", recording)
        sections = cache_lookup(cache_dir, group)
        assert decoded == ['{"degree":3']
        assert sections == {"graph": '{"v":1}', "report": '{"ok":true}'}
        assert decode_section(sections["report"]) == {"ok": True}
        assert decoded == ['{"degree":3', '{"ok":true}']

    def test_a_line_that_does_not_decode_reads_as_none(self, cache_dir, capsys):
        group = symmetric(3)
        cache_store(cache_dir, group, {"graph": {"v": 1}, "report": {"ok": True}})
        [path] = cache_dir.glob("*.json")
        path.write_text(path.read_text().replace('graph\t{"v":1}', "graph\t{not json"))
        assert decode_lookup(cache_lookup(cache_dir, group)) == {"graph": None, "report": {"ok": True}}
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("line", ["graph", 'report\t{"ok":false}'],
                             ids=["no_tab", "repeated_name"])
    def test_a_section_line_without_a_name_or_a_repeated_name_is_malformed(
            self, cache_dir, capsys, line):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        [path] = cache_dir.glob("*.json")
        path.write_text(path.read_text() + line + "\n")
        assert cache_lookup(cache_dir, group) is None
        assert "ignoring malformed cache file" in capsys.readouterr().err

    def test_a_schema_2_file_is_a_silent_miss(self, cache_dir, capsys):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        [path] = cache_dir.glob("*.json")
        key, sections = read_cache_file(path)
        path.write_text(json.dumps({**key, "schema": 2, "sections": sections}) + "\n")
        assert cache_lookup(cache_dir, group) is None
        assert capsys.readouterr().err == ""

    def test_a_wrong_key_line_is_a_silent_miss(self, cache_dir, capsys):
        group = symmetric(3)
        cache_store(cache_dir, group, {"report": {"ok": True}})
        [path] = cache_dir.glob("*.json")
        key, sections = read_cache_file(path)
        key["elements"][1], key["elements"][2] = key["elements"][2], key["elements"][1]
        write_cache_file(path, key, sections)
        assert cache_lookup(cache_dir, group) is None
        assert capsys.readouterr().err == ""


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
        assert decode_lookup(cache_lookup(cache_dir, group)) == {"report": {"ok": True}}


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
        assert decode_lookup(cache_lookup(cache_dir, g2)) == {"report": {"who": "V4"}}
        assert capsys.readouterr().err == ""

