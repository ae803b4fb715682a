import json
import random
import sys
from collections import OrderedDict, UserList
from enum import IntEnum

import pytest

import sncx as S
from sncx import gallery as G
from sncx import serialize
from sncx.errors import DescriptorInvalid
from sncx.serialize import (
    complex_from_dict,
    complex_to_dict,
    dumps,
    dumps_complex,
    loads_complex,
    script_from_list,
    script_to_list,
)

from conftest import random_simplicial_complex, with_random_levels, without_delta
from oracles import stdlib_dumps


def filtered_fixture():
    rng = random.Random(1)
    return with_random_levels(rng, random_simplicial_complex(rng))


class TestComplexRoundTrip:
    def test_write_read_write_byte_identical(self):
        for c in (G.triangle_boundary(), G.octahedron_boundary(),
                  G.real_projective_plane(), filtered_fixture(),
                  S.CombinatorialComplex([])):
            text = dumps_complex(c)
            again = dumps_complex(loads_complex(text))
            assert text == again

    def test_round_trip_preserves_structure(self):
        c = filtered_fixture()
        back = loads_complex(dumps_complex(c))
        assert back == c
        assert back.has_levels == c.has_levels
        assert back.has_delta == c.has_delta

    def test_reader_canonicalizes_face_order(self):
        c = G.triangle_boundary()
        doc = complex_to_dict(c)
        shuffled = {"faces": list(reversed(doc["faces"]))}
        assert complex_from_dict(shuffled) == c

    def test_label_only_emitted_when_distinct(self):
        recs = [{"id": "v", "dim": 0, "facets": [], "label": "origin"}]
        c = S.new_complex(recs)
        doc = complex_to_dict(c)
        assert doc["faces"][0]["label"] == "origin"
        plain = complex_to_dict(G.point_complex())
        assert "label" not in plain["faces"][0]

    @pytest.mark.parametrize("doc", [
        [], [{"id": "u", "dim": 0}], {}, {"faces": {"id": "u"}},
        {"faces": None}, {"faces": "u"}])
    def test_document_shape_checked(self, doc):
        with pytest.raises(DescriptorInvalid, match="^a complex is an object "
                           "whose 'faces' is a list of face records$"):
            complex_from_dict(doc)

    def test_canonical_key_order(self):
        text = dumps_complex(G.triangle_boundary())
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def records_json(c) -> str:
    """The stdlib encoder's bytes for ``complex_to_dict(c)``."""
    return json.dumps(complex_to_dict(c), indent=2, sort_keys=True) + "\n"


# each id is one of these pieces and a serial number: quotes, backslashes,
# control characters, non-ASCII and a lone surrogate all need escaping
ODD_IDS = ["v", '"', "\\", "\x00", "\x1f\n\t", "é", "日本", "😀", "\ud800", "a b", ""]


def renamed(rng, c) -> S.CombinatorialComplex:
    """``c`` with its ids drawn from :data:`ODD_IDS` and about a third of
    its labels set apart from the ids."""
    new = {f: rng.choice(ODD_IDS) + str(i) for i, f in enumerate(c.face_ids)}
    recs = []
    for rec in c.to_records():
        rec["id"] = new[rec["id"]]
        rec["facets"] = [new[g] for g in rec["facets"]]
        if "delta_order" in rec:
            rec["delta_order"] = [new[g] for g in rec["delta_order"]]
        rec.pop("label", None)
        if rng.random() < 0.35:
            rec["label"] = rng.choice(ODD_IDS + list(new.values()))
        recs.append(rec)
    return S.CombinatorialComplex(recs)


class TestComplexWriter:
    """``dumps`` writes a complex from its own maps, with the bytes of the
    stdlib encoder on ``complex_to_dict``; in a larger document, with the
    bytes of the stdlib encoder whose ``default`` calls it."""

    @staticmethod
    def random_complexes(rng):
        c = random_simplicial_complex(rng, max_verts=7, max_facets=5, max_dim=3)
        filtered = with_random_levels(rng, c)
        for x in (c, without_delta(c), filtered, without_delta(filtered)):
            yield x
            yield renamed(rng, x)

    def test_randomized_agreement(self):
        rng = random.Random(28)
        kinds = set()
        for _ in range(150):
            for c in self.random_complexes(rng):
                kinds.add((c.has_delta, c.has_levels,
                           any(c.label(f) != f for f in c.face_ids)))
                assert dumps(c) == records_json(c)
                assert dumps_complex(c) == dumps(c)
        assert len(kinds) == 8

    def test_gallery_and_edge_cases(self):
        vertex = S.new_complex([{"id": "v", "dim": 0, "facets": []}])
        named = S.new_complex([{"id": "\"v\"", "dim": 0, "facets": [],
                                "label": "é\\"}])
        for c in (S.CombinatorialComplex([]), vertex, named, G.point_complex(),
                  G.triangle_boundary(), G.real_projective_plane(),
                  G.multi_edge_complex(3), G.full_simplex(4)):
            assert dumps(c) == records_json(c)
        assert dumps(S.CombinatorialComplex([])) == '{\n  "faces": []\n}\n'

    def test_nested_at_every_depth(self):
        rng = random.Random(7)
        odd = renamed(rng, filtered_fixture())
        for c in (S.CombinatorialComplex([]), G.point_complex(), odd):
            for depth in range(67):
                doc = c
                for i in range(depth):
                    doc = [doc, 1] if i % 2 else {"k": doc, "a": "x"}
                assert dumps(doc) == stdlib_dumps(doc), depth

    def test_complex_beside_a_float_takes_the_fallback(self):
        class Sub(S.CombinatorialComplex):
            __slots__ = ()

        c = G.triangle_boundary()
        sub = Sub(c.to_records())
        for doc in ({"complex": c, "x": 0.5}, [c, 1.5, c], [sub],
                    {"a": [sub, c]}, {1: c}):
            assert dumps(doc) == stdlib_dumps(doc)

    def test_plain_complexes_build_no_records(self, monkeypatch):
        c = filtered_fixture()
        doc = {"report": {"complex": c, "faces": [c, S.CombinatorialComplex([])]}}
        want = stdlib_dumps(doc)

        def refuse(*args, **kwargs):
            raise AssertionError("a complex went through its records")

        monkeypatch.setattr(serialize.json, "dumps", refuse)
        monkeypatch.setattr(S.CombinatorialComplex, "to_records", refuse)
        assert dumps(doc) == want


class TestFileHelpers:
    def test_write_read_files(self, tmp_path):
        from sncx.serialize import read_complex, write_complex
        path = tmp_path / "c.json"
        c = G.real_projective_plane()
        write_complex(path, c)
        assert read_complex(path) == c
        assert path.read_text() == dumps_complex(c)


class TestScriptRoundTrip:
    def test_all_move_kinds(self):
        script = (
            S.BlowupMove(case=1),
            S.BlowupMove(case=2, face="e0"),
            S.BlowupMove(case=3, base="v2", attach=("v2", "e1"), vertex="v2",
                         new_vertex="E", level=2),
            S.BlowupMove(case="attach", new_vertex="w", attach=("v0",)),
        )
        doc = script_to_list(script)
        back = script_from_list(json.loads(json.dumps(doc)))
        assert back == script


class TestReportWriter:
    """``dumps`` writes the bytes of the stdlib encoder, or raises its
    exception with its message."""

    @staticmethod
    def outcome(fn, doc):
        try:
            return fn(doc)
        except Exception as exc:  # noqa: BLE001 - compared with the oracle's
            return type(exc), str(exc)

    def assert_same(self, doc):
        want = self.outcome(stdlib_dumps, doc)
        assert self.outcome(dumps, doc) == want
        return want

    @staticmethod
    def random_doc(rng, depth=0):
        pick = rng.randrange(9 if depth < 5 else 5)
        if pick == 0:
            return rng.choice(["", "a", "dim", "v0<e1", "é", "\n\t\"\\",
                               "\x00\x1f", "\ud800", "😀", "日本"])
        if pick == 1:
            return rng.choice([0, 1, -1, 7, 2 ** 64, -(10 ** 30)])
        if pick == 2:
            return rng.choice([True, False, None])
        if pick == 3:
            return [rng.choice(["a", "b", "é"]) for _ in range(rng.randrange(4))]
        if pick == 4:
            return [rng.randrange(-5, 5) for _ in range(rng.randrange(4))]
        n = rng.randrange(5)
        if pick in (5, 6):
            return {rng.choice(["id", "dim", "facets", "é", "", "a b", "\x01"])
                    + str(rng.randrange(3)): TestReportWriter.random_doc(rng, depth + 1)
                    for _ in range(n)}
        items = [TestReportWriter.random_doc(rng, depth + 1) for _ in range(n)]
        return tuple(items) if pick == 7 else items

    def test_randomized_agreement(self):
        rng = random.Random(13)
        for _ in range(2000):
            doc = self.random_doc(rng)
            assert isinstance(self.assert_same(doc), str)

    def test_random_reports_with_shared_keys(self):
        # many dicts share their keys, as a report's records and rows do;
        # some reports also hold one of the cases left to json.dumps, often
        # after a plain dict with equal keys: a str subclass key that sorts
        # the other way round, a non-str key, keys of mixed types, a float,
        # or nesting past the depth limit
        class Backwards(str):
            def __lt__(self, other):
                return str.__gt__(self, other)

        rng = random.Random(2604)
        fell_back = 0
        for _ in range(400):
            keys = rng.sample(["id", "dim", "facets", "level", "label", "é"],
                              rng.randint(1, 4))
            rows = [{k: self.random_doc(rng, 3) for k in rng.sample(keys, len(keys))}
                    for _ in range(rng.randint(1, 6))]
            odd = rng.randrange(7)
            if odd == 0:
                # equal to the plain dict before it, but sorting backwards
                rows += [dict.fromkeys(keys, 1), {Backwards(k): 1 for k in keys}]
            elif odd == 1:
                rows.append({i: "x" for i in range(len(keys))})
            elif odd == 2:
                rows.append({(k if i else 3): "x" for i, k in enumerate(keys)})
            elif odd == 3:
                rows.append(dict.fromkeys(keys, 0.5))
            elif odd == 4:
                deep = dict.fromkeys(keys, 1)
                for _ in range(serialize._MAX_DEPTH):
                    deep = {keys[0]: deep}
                rows.append(deep)
            doc = {"report": {"first": rows, "then": rows[::-1]}}
            want = self.assert_same(doc)
            fell_back += odd < 5
            assert isinstance(want, str) or odd == 2 and want[0] is TypeError
        assert fell_back > 250

    def test_plain_documents_skip_the_stdlib_encoder(self, monkeypatch):
        doc = {"report": {"f_vector": [3, 3], "faces": ("v0", "v1"),
                          "ok": True, "none": None, "nested": [[], {}, [1, "a"]]}}
        want = stdlib_dumps(doc)

        def refuse(*args, **kwargs):
            raise AssertionError("a plain document reached json.dumps")

        monkeypatch.setattr(serialize.json, "dumps", refuse)
        assert dumps(doc) == want

    @pytest.mark.parametrize("text", [
        "é", "日本語", "😀", "\x00\x01\x1f\x7f", "tab\there\nnew", "\"quoted\" \\",
        "\ud800", "\udfff", "x\ud83dy", "  ",
    ])
    def test_strings(self, text):
        for doc in (text, [text], [text, text, 1], {text: text},
                    {"k": [text, "plain"]}):
            self.assert_same(doc)

    def test_non_str_keys(self):
        for doc in ({1: "a", 2: "b"}, {3: [1], -1: {}}, {True: 1, False: 2},
                    {None: 0}, {1.5: "x"}, {"a": {2: "b"}}):
            assert isinstance(self.assert_same(doc), str)

    @pytest.mark.parametrize("doc", [{1: "a", "b": 2}, {"a": {"b": 1, 2: 3}},
                                     [{None: 1, "x": 2}]])
    def test_mixed_keys_raise_the_same_type_error(self, doc):
        kind, message = self.assert_same(doc)
        assert kind is TypeError and "not supported between instances" in message

    def test_bools_ints_floats_and_enums(self):
        class Level(IntEnum):
            LOW = 1
            HIGH = 3

        class Name(str):
            pass

        for doc in ([True, 1, False, 0], [1, True], {"a": True, "b": 1},
                    [2 ** 200, -(2 ** 70)], 10 ** 1000, [1.5, -0.0, 1e300],
                    [float("nan"), float("inf"), float("-inf")], {"x": 0.1},
                    Level.HIGH, [Level.LOW, Level.HIGH], {"level": Level.LOW},
                    {Level.HIGH: "key"}, Name("sub"), [Name("a"), "b"],
                    OrderedDict([("b", 1), ("a", 2)]), UserList([1, 2])):
            self.assert_same(doc)

    def test_int_past_the_digit_limit(self):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("no limit on int to str conversion before 3.11")
        big = 10 ** (sys.get_int_max_str_digits() + 1)
        kind, _message = self.assert_same([big])
        assert kind is ValueError

    def test_empty_containers_at_depth(self):
        for doc in ([], {}, (), [[]], {"a": {}}, {"a": [[], {}, [{}], ()]},
                    [[[[[]]]]], {"b": {"c": {"d": {}}}}):
            self.assert_same(doc)

    @pytest.mark.parametrize("depth", [1, serialize._MAX_DEPTH - 1,
                                       serialize._MAX_DEPTH,
                                       serialize._MAX_DEPTH + 1, 200])
    def test_nesting(self, depth):
        for leaf in ([1, "a"], {}, {"k": "v"}):
            doc = leaf
            for i in range(depth):
                doc = [doc] if i % 2 else {"k": doc}
            assert isinstance(self.assert_same(doc), str)

    def test_cycles(self):
        loop = []
        loop.append(loop)
        ring = {"a": [1]}
        ring["a"].append(ring)
        for doc in (loop, ring, {"x": [loop]}):
            assert self.assert_same(doc) == (ValueError,
                                             "Circular reference detected")

    def test_unserializable_objects(self):
        for doc in (object(), {"a": {1, 2}}, [b"bytes"], {"f": len}):
            kind, message = self.assert_same(doc)
            assert kind is TypeError and "is not JSON serializable" in message
