import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

import sncx as S
import sncx.cli as cli
from sncx import complexes as C
from sncx import gallery as G
from sncx.cli import main
from sncx.serialize import complex_to_dict, dumps_complex, read_complex

from conftest import close_under_subsets
from oracles import presentation_wedge_certificate, replay_collapse, stdlib_dumps


@pytest.fixture(autouse=True)
def writer_matches_stdlib(monkeypatch):
    """Every document a CLI test writes is checked against the stdlib
    encoder's bytes."""
    real = cli.dumps

    def checked(doc):
        out = real(doc)
        assert out == stdlib_dumps(doc)
        return out

    monkeypatch.setattr(cli, "dumps", checked)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_any(argv):
    """``(exit code, stdout, stderr)`` of one ``main`` call, usage errors,
    ``--help`` and ``--version`` included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    paths["triangle"] = tmp_path / "triangle.json"
    paths["triangle"].write_text(dumps_complex(G.triangle_boundary()))
    paths["quadric"] = tmp_path / "quadric.json"
    paths["quadric"].write_text(json.dumps([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    paths["script"] = tmp_path / "script.json"
    paths["script"].write_text(json.dumps([{"case": 2, "face": "e0"}]))
    paths["strata"] = tmp_path / "strata.json"
    paths["strata"].write_text(json.dumps({
        "components": [{"label": "L1"}, {"label": "L2"}, {"label": "L3"}],
        "strata": [
            {"indices": [0, 1], "label": "P12", "parents": {"0": "L2", "1": "L1"}},
            {"indices": [0, 2], "label": "P13", "parents": {"0": "L3", "2": "L1"}},
            {"indices": [1, 2], "label": "P23", "parents": {"1": "L3", "2": "L2"}},
        ]}))
    paths["fan"] = tmp_path / "fan.json"
    fan = G.product_of_lines_fan(3)
    paths["fan"].write_text(json.dumps(
        {"rays": [list(r) for r in fan.rays],
         "cones": [sorted(c) for c in fan.cones]}))
    paths["subsets"] = tmp_path / "subsets.json"
    paths["subsets"].write_text(json.dumps(
        [[0], [1], [2], [0, 1], [0, 2], [1, 2]]))
    paths["square"] = tmp_path / "square.json"
    paths["square"].write_text(json.dumps([[0, 0], [2, 0], [0, 2], [2, 2]]))
    return paths


class TestSubcommands:
    def test_homology(self, inputs):
        code, out = run_cli(["homology", str(inputs["triangle"])])
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]["reports"][0]
        assert [r["betti"] for r in rep["homology"]] == [1, 1]
        assert rep["f_vector"] == [3, 3]
        assert doc["version"] == S.__version__

    def test_homology_reduced(self, inputs):
        code, out = run_cli(["homology", str(inputs["triangle"]), "--reduced"])
        rep = json.loads(out)["report"]["reports"][0]
        assert [r["betti"] for r in rep["homology"]] == [0, 1]

    def test_transform(self, inputs):
        code, out = run_cli(["transform", str(inputs["triangle"]),
                             str(inputs["script"])])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["final"]["f_vector"] == [4, 4]
        assert rep["log"]["homology_constant"] is True

    def test_dual(self, inputs):
        code, out = run_cli(["dual", str(inputs["strata"])])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["f_vector"] == [3, 3]

    def test_toric_link(self, inputs):
        code, out = run_cli(["toric-link", str(inputs["fan"])])
        assert code == 0
        assert json.loads(out)["report"]["f_vector"] == [6, 12, 8]

    def test_realize(self, inputs):
        code, out = run_cli(["realize", str(inputs["subsets"])])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["f_vector"] == [6, 6]
        assert len(rep["script"]) == 6

    def test_realize_with_explicit_ground(self, tmp_path):
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"faces": [[0]], "n": 1}))
        code, out = run_cli(["realize", str(doc)])
        assert code == 0
        assert json.loads(out)["report"]["f_vector"] == [1]

    def test_newton(self, inputs):
        code, out = run_cli(["newton", str(inputs["quadric"]),
                             "--variant", "interior"])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["predicted_count"] == 0
        assert rep["computed_top_count"] == 0
        assert rep["wedge_certificate"]["status"] == "certified-wedge"
        assert rep["wedge_certificate"]["count"] == 0
        assert rep["variants_agree"] is False

    def test_torus_boundary(self, inputs):
        code, out = run_cli(["torus-boundary", str(inputs["square"])])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["f_vector"] == [8]
        assert rep["reduced_homology"][0]["betti"] == 7

    def test_torus_boundary_homology_computed_once(self, inputs, monkeypatch):
        calls = []
        real = cli.homology

        def counted(c, reduced=False):
            calls.append(reduced)
            return real(c, reduced)

        monkeypatch.setattr(cli, "homology", counted)
        code, out = run_cli(["torus-boundary", str(inputs["square"])])
        assert code == 0 and calls == [False]
        rep = json.loads(out)["report"]
        assert rep["homology"] == [{"degree": 0, "betti": 8, "torsion": []}]
        assert rep["reduced_homology"] == [
            {"degree": 0, "betti": 7, "torsion": []}]

    def test_homology_components_from_h0(self, tmp_path, monkeypatch):
        from conftest import without_delta
        fixtures = {"empty": S.CombinatorialComplex([]),
                    "s0": G.two_point_sphere(),
                    "two_triangles": S.disjoint_union(G.triangle_boundary(),
                                                      G.triangle_boundary()),
                    "rp2_poset": without_delta(G.real_projective_plane())}
        expected = {}
        for name, c in fixtures.items():
            (tmp_path / f"{name}.json").write_text(dumps_complex(c))
            expected[name] = len(c.connected_components())

        def refuse(self):
            raise AssertionError("the report counts components twice")

        monkeypatch.setattr(S.CombinatorialComplex, "connected_components",
                            refuse)
        for name, count in expected.items():
            path = str(tmp_path / f"{name}.json")
            for flags in ([], ["--reduced"]):
                code, out = run_cli(["homology", path] + flags)
                assert code == 0
                rep = json.loads(out)["report"]["reports"][0]
                assert rep["components"] == count
                code, out = run_cli(["homology", path, "--format", "text"]
                                    + flags)
                assert code == 0 and f"components: {count}" in out

    def test_certify(self, inputs):
        code, out = run_cli(["certify", str(inputs["triangle"]),
                             "--sphere-dim", "1"])
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "certified-wedge(1)"

    def test_certify_simplex_skeleton(self, tmp_path):
        path = tmp_path / "skel.json"
        path.write_text(dumps_complex(S.skeleton(G.full_simplex(6), 4)))
        code, out = run_cli(["certify", str(path), "--sphere-dim", "4"])
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "certified-wedge(6)"

    def test_certify_collapse_witness_replays(self, tmp_path):
        # the witness of a contractible input is a sequence of elementary
        # collapses to one vertex, checked by a replay on the covering
        # relation of the complex read back from the same file
        items = {"simplex": G.full_simplex(7),
                 "cone": S.cone(G.octahedron_boundary().order_complex()),
                 "skeleton-cone": S.cone(S.skeleton(G.full_simplex(5), 1))}
        for name, c in items.items():
            path = tmp_path / f"{name}.json"
            path.write_text(dumps_complex(c))
            code, out = run_cli(["certify", str(path), "--sphere-dim", "2"])
            report = json.loads(out)["report"]
            assert code == 0 and report["verdict"] == "certified-wedge(0)"
            seq = report["witness"]["collapse"]
            assert 2 * len(seq) + 1 == sum(c.f_vector())
            assert replay_collapse(read_complex(path), seq)

    def test_certify_reads_the_matching_not_a_presentation(self, tmp_path,
                                                           monkeypatch):
        # the certify-skeleta items that the matching decides, with the same
        # bytes as the presentation route and one coreduction per call
        def skel(n, k):
            return S.skeleton(G.full_simplex(n), k)

        octahedron = G.octahedron_boundary()
        items = [(skel(4, 2), 2), (skel(5, 3), 3), (skel(6, 4), 4),
                 (octahedron, 2), (octahedron.order_complex(), 2),
                 (G.cycle_complex(40), 1), (skel(12, 1), 1)]
        H = importlib.import_module("sncx.homology")
        for i, (c, d) in enumerate(items):
            path = tmp_path / f"item{i}.json"
            path.write_text(dumps_complex(c))
            argv = ["certify", str(path), "--sphere-dim", str(d)]
            with monkeypatch.context() as m:
                m.setattr(cli, "wedge_certificate",
                          presentation_wedge_certificate)
                want = run_cli(argv)
            with monkeypatch.context() as m:
                def refuse(c):
                    raise AssertionError("certify built a presentation")

                calls = []
                m.setattr(H, "fundamental_group_presentation", refuse)
                m.setattr(H, "_coreduce",
                          lambda *a, real=H._coreduce: calls.append(a) or real(*a))
                assert run_cli(argv) == want
                assert len(calls) == 1
            assert json.loads(want[1])["report"]["status"] == "certified-wedge"

    def test_homology_and_certify_read_their_numbering(self, tmp_path, monkeypatch):
        # a complex read from records carries its numbering, so neither
        # subcommand numbers a complex again or compacts its lists: Delta
        # complexes, a face poset, and an input whose certificate takes
        # the presentation
        poset = [{k: v for k, v in r.items() if k != "delta_order"}
                 for r in G.real_projective_plane().order_complex().to_records()]
        docs = {"sd1-octahedron": dumps_complex(G.octahedron_boundary().order_complex()),
                "sd1-rp2-poset": json.dumps({"faces": poset}),
                "rp2": dumps_complex(G.real_projective_plane())}
        made = []
        for name in ("_cofaces", "_compacted"):
            monkeypatch.setattr(C, name, lambda *a, real=getattr(C, name), name=name:
                                made.append(name) or real(*a))
        for name, text in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for argv in (["homology", str(path)],
                         ["certify", str(path), "--sphere-dim", "2"]):
                made.clear()
                assert run_cli(argv)[0] == 0
                assert made == ["_cofaces"], (argv, made)      # the read's only

    def test_text_format(self, inputs):
        code, out = run_cli(["homology", str(inputs["triangle"]),
                             "--format", "text"])
        assert code == 0
        assert out.startswith("command: homology")

    @pytest.mark.parametrize("argv, key", [
        (["transform", "triangle", "script"], "final_complex"),
        (["dual", "strata"], "complex"),
        (["toric-link", "fan"], "complex"),
        (["realize", "subsets"], "complex"),
        (["newton", "quadric"], "model_complex"),
        (["torus-boundary", "square"], "complex"),
    ])
    def test_text_format_renders_a_complex_as_its_records(self, inputs, argv, key):
        argv = [argv[0], *(str(inputs[name]) for name in argv[1:])]
        args = cli.build_parser().parse_args(argv)
        report = getattr(cli, "_run_" + args.command.replace("-", "_"))(args)
        assert type(report[key]) is S.CombinatorialComplex
        report[key] = complex_to_dict(report[key])
        doc = {"tool": "sncx", "version": S.__version__,
               "command": argv[0], "report": report}
        code, out = run_cli([*argv, "--format", "text"])
        assert code == 0
        assert out == cli._render_text(doc) + "\n"


class TestErrors:
    def test_domain_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"faces": [
            {"id": "e", "dim": 1, "facets": ["ghost"]}]}))
        code, out = run_cli(["homology", str(bad)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "DanglingFace"
        assert "ghost" in err["message"]

    def test_not_regular_cw_exit_one(self, tmp_path):
        bad = tmp_path / "loop.json"
        bad.write_text(json.dumps({"faces": [
            {"id": "v", "dim": 0, "facets": []},
            {"id": "e", "dim": 1, "facets": ["v"]}]}))
        code, out = run_cli(["homology", str(bad)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotRegularCW"

    def test_unparseable_exit_one(self, tmp_path):
        bad = tmp_path / "mangled.json"
        bad.write_text("{nope")
        code, _out = run_cli(["homology", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("raw, reason", [
        (b"{nope", "Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)"),
        (b"[1, 2\xff]", "'utf-8' codec can't decode byte 0xff in position 5: "
                        "invalid start byte"),
    ])
    def test_undecodable_input_is_descriptor_invalid(self, tmp_path, raw, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        code, out, err = run_any(["newton", str(bad)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {
            "type": "DescriptorInvalid",
            "message": f"input {bad} is not UTF-8 JSON: {reason}"}}

    def test_too_deep_input_is_descriptor_invalid(self, tmp_path):
        # the decoder's recursion limit, in this process and in a fresh one
        import os
        import subprocess
        import sys
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        want = {"error": {
            "type": "DescriptorInvalid",
            "message": f"input {deep} nests too deeply to read: maximum "
                       "recursion depth exceeded while decoding a JSON array "
                       "from a unicode string"}}
        code, out, err = run_any(["newton", str(deep)])
        assert (code, err) == (1, "")
        assert json.loads(out) == want
        src = os.path.dirname(os.path.dirname(os.path.abspath(S.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "sncx.cli", "newton", str(deep)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout == out

    def test_missing_file_exit_two(self, tmp_path):
        code, _out = run_cli(["homology", str(tmp_path / "absent.json")])
        assert code == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify"])
        assert exc.value.code == 2

    def test_text_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"faces": [
            {"id": "e", "dim": 1, "facets": ["ghost"]}]}))
        code, out = run_cli(["homology", str(bad), "--format", "text"])
        assert code == 1
        assert "DanglingFace" in out

    def test_script_error_names_step(self, inputs, tmp_path):
        script = tmp_path / "bad_script.json"
        script.write_text(json.dumps([{"case": 2, "face": "e0"},
                                      {"case": 2, "face": "e0"}]))
        code, out = run_cli(["transform", str(inputs["triangle"]), str(script)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ScriptError"
        assert "step 2" in err["message"]


class TestNonIntegerCoordinates:
    """Coordinates that are not integers are rejected where the points are
    read, not truncated; an integral float reads as its integer."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["newton"], [[2.7, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]],
         "exponent vector [2.7, 0, 0] has a non-integer coordinate 2.7"),
        (["newton"], [[True, 0, 0], [0, 2, 0], [0, 0, 2]],
         "exponent vector [True, 0, 0] has a non-integer coordinate True"),
        (["newton"], {"points": [["2", 0, 0], [0, 2, 0], [0, 0, 2]]},
         "exponent vector ['2', 0, 0] has a non-integer coordinate '2'"),
        (["toric-link"], {"rays": [[1.9, 0], [0, 1]], "cones": [[0], [1], [0, 1]]},
         "ray [1.9, 0] has a non-integer coordinate 1.9"),
        (["torus-boundary"], [[0, 0], [2, 0], [0, 2], [0.5, 1]],
         "lattice point [0.5, 1] has a non-integer coordinate 0.5"),
    ])
    def test_rejected(self, tmp_path, argv, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([*argv, str(path)])
        assert code == 1
        assert json.loads(out) == {"error": {"type": "DescriptorInvalid",
                                             "message": message}}

    def test_integral_floats_read_as_integers(self, tmp_path):
        for argv, ints, floats in [
                (["newton"], [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]],
                 [[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2], [1, 1, 1.0]]),
                (["toric-link"],
                 {"rays": [[1, 0], [0, 1]], "cones": [[0], [1], [0, 1]]},
                 {"rays": [[1.0, 0], [0, 1.0]], "cones": [[0], [1], [0, 1]]}),
                (["torus-boundary"], [[0, 0], [2, 0], [0, 2], [2, 2]],
                 [[0, 0], [2.0, 0], [0, 2], [2, 2.0]])]:
            reports = []
            for doc in (ints, floats):
                path = tmp_path / "in.json"
                path.write_text(json.dumps(doc))
                code, out = run_cli([*argv, str(path)])
                assert code == 0
                report = json.loads(out)["report"]
                del report["sha256"]
                reports.append(report)
            assert reports[0] == reports[1]


STRATA = {"components": [{"label": "L1"}, {"label": "L2"}],
          "strata": [{"indices": [0, 1], "label": "P",
                      "parents": {"0": "L2", "1": "L1"}}]}


def strata_with_indices(indices):
    doc = json.loads(json.dumps(STRATA))
    doc["strata"][0]["indices"] = indices
    return doc


class TestNonIntegerIndices:
    """Cone indices, stratum indices and realize vertices are read by the
    rule that reads coordinates: an integral float reads as its integer,
    a bool, a string or a fractional float is rejected, naming the entry."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["toric-link"], {"rays": [[1, 0], [0, 1]], "cones": [[0], [True], [0, 1]]},
         "cone [True] has a non-integer index True"),
        (["toric-link"], {"rays": [[1, 0], [0, 1]], "cones": [[0], [1.5], [0, 1]]},
         "cone [1.5] has a non-integer index 1.5"),
        (["dual"], strata_with_indices([0, True]),
         "stratum 'P' indices [0, True] has a non-integer index True"),
        (["dual"], strata_with_indices([0, "1"]),
         "stratum 'P' indices [0, '1'] has a non-integer index '1'"),
        (["realize"], [[0], ["a"], [0, "a"]],
         "face ['a'] has a non-integer vertex 'a'"),
        (["realize"], {"faces": [[0], [1], [0.5]]},
         "face [0.5] has a non-integer vertex 0.5"),
    ])
    def test_rejected(self, tmp_path, argv, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([*argv, str(path)])
        assert code == 1
        assert json.loads(out) == {"error": {"type": "DescriptorInvalid",
                                             "message": message}}

    def test_integral_floats_read_as_integers(self, tmp_path):
        for argv, ints, floats in [
                (["toric-link"],
                 {"rays": [[1, 0], [0, 1]], "cones": [[0], [1], [0, 1]]},
                 {"rays": [[1, 0], [0, 1]], "cones": [[0], [1.0], [0.0, 1]]}),
                (["dual"], strata_with_indices([0, 1]), strata_with_indices([0, 1.0])),
                (["realize"], [[0], [1], [2], [0, 1], [1, 2]],
                 [[0], [1.0], [2], [0, 1], [1.0, 2.0]])]:
            reports = []
            for doc in (ints, floats):
                path = tmp_path / "in.json"
                path.write_text(json.dumps(doc))
                code, out = run_cli([*argv, str(path)])
                assert code == 0
                report = json.loads(out)["report"]
                del report["sha256"]
                reports.append(report)
            assert reports[0] == reports[1]


def strata_with_parents(parents):
    doc = json.loads(json.dumps(STRATA))
    doc["strata"][0]["parents"] = parents
    return doc


class TestGroundBoundAndParentKeys:
    """The ground set bound ``n`` of ``realize`` is read by the same rule,
    and a stratum's parent keys must be indices written in decimal."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["realize"], {"faces": [[0], [1]], "n": True},
         "ground set bound n [True] has a non-integer value True"),
        (["realize"], {"faces": [[0], [1]], "n": "3"},
         "ground set bound n ['3'] has a non-integer value '3'"),
        (["realize"], {"faces": [[0], [1]], "n": 2.5},
         "ground set bound n [2.5] has a non-integer value 2.5"),
        (["dual"], strata_with_parents({"0": "L2", "1.0": "L1"}),
         "stratum 'P' parents ['0', '1.0'] has a non-integer key '1.0'"),
        (["dual"], strata_with_parents({"0": "L2", "01": "L1"}),
         "stratum 'P' parents ['0', '01'] has a non-integer key '01'"),
        (["dual"], strata_with_parents({"0": "L2", " 1": "L1"}),
         "stratum 'P' parents ['0', ' 1'] has a non-integer key ' 1'"),
    ])
    def test_rejected(self, tmp_path, argv, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([*argv, str(path)])
        assert code == 1
        assert json.loads(out) == {"error": {"type": "DescriptorInvalid",
                                             "message": message}}

    def test_integral_float_bound_reads_as_integer(self, tmp_path):
        reports = []
        for n in (3, 3.0):
            path = tmp_path / "in.json"
            path.write_text(json.dumps({"faces": [[0], [1], [0, 1]], "n": n}))
            code, out = run_cli(["realize", str(path)])
            assert code == 0
            report = json.loads(out)["report"]
            del report["sha256"]
            reports.append(report)
        assert reports[0] == reports[1]
        path.write_text(json.dumps({"faces": [[0], [1], [0, 1]], "n": 0.0}))
        code, out = run_cli(["realize", str(path)])
        assert code == 1
        assert json.loads(out)["error"]["message"] == "a face uses a vertex above 0"

    def test_decimal_parent_keys_are_read(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(strata_with_parents({"1": "L1", "0": "L2"})))
        code, out = run_cli(["dual", str(path)])
        assert code == 0
        assert json.loads(out)["report"]["f_vector"] == [2, 1]


class TestMalformedRecords:
    """Face records that are not objects are the domain error
    DescriptorInvalid, naming their position, and a vertex that covers
    faces is DanglingFace or GradingViolation, with exit code 1."""

    @pytest.mark.parametrize("faces, error", [
        (["x"], {"type": "DescriptorInvalid",
                 "message": "face record 0 is not an object: 'x'"}),
        ([1], {"type": "DescriptorInvalid",
               "message": "face record 0 is not an object: 1"}),
        ([{"id": "v", "dim": 0, "facets": ["ghost"]}],
         {"type": "DanglingFace",
          "message": "face 'v' covers unknown face 'ghost'"}),
        ([{"id": "w", "dim": 0}, {"id": "v", "dim": 0, "facets": ["w"]}],
         {"type": "GradingViolation",
          "message": "face 'v' (dim 0) covers 'w' of dim 0"}),
    ])
    def test_error_object(self, tmp_path, faces, error):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"faces": faces}))
        for argv in (["homology", str(bad)], ["certify", "--sphere-dim", "1", str(bad)]):
            code, out = run_cli(argv)
            assert code == 1
            assert json.loads(out) == {"error": error}


class TestDocumentShape:
    """A complex document must be an object whose ``faces`` is a list, a
    strata description an object whose ``components`` and ``strata`` are
    lists of labelled objects (a component level an integer), a fan an
    object whose ``rays`` (all of one length) and ``cones`` are lists, and
    a support, polytope or subsets document a list or an object holding
    one; anything else is DescriptorInvalid, exit code 1."""

    COMPLEX = {"error": {"type": "DescriptorInvalid", "message":
                         "a complex is an object whose 'faces' is a list of face records"}}

    @pytest.mark.parametrize("doc", [
        [], [{"id": "u", "dim": 0}], {"faces": {"id": "u"}}, {}, {"faces": None}])
    def test_complex(self, tmp_path, inputs, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        for argv in (["homology", str(path)],
                     ["certify", "--sphere-dim", "1", str(path)],
                     ["transform", str(path), str(inputs["script"])]):
            code, out = run_cli(argv)
            assert code == 1
            assert json.loads(out) == self.COMPLEX

    @pytest.mark.parametrize("doc, message", [
        ([], "a strata description is an object"),
        ([STRATA], "a strata description is an object"),
        ({**STRATA, "strata": 3},
         "strata description field 'strata' must be a list, got 3"),
        ({**STRATA, "strata": STRATA["strata"][0]},
         "strata description field 'strata' must be a list, got "
         "{'indices': [0, 1], 'label': 'P', 'parents': {'0': 'L2', '1': 'L1'}}"),
        ({**STRATA, "components": None},
         "strata description field 'components' must be a list, got None"),
        ({"components": "L1"},
         "strata description field 'components' must be a list, got 'L1'"),
    ])
    def test_strata(self, tmp_path, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_any(["dual", str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "DescriptorInvalid",
                                             "message": message}}

    @pytest.mark.parametrize("doc, message", [
        ({"strata": [{"indices": [0], "label": "P", "parents": []}]},
         "stratum 'P' parents must be an object whose values are labels, got []"),
        ({"components": [3]},
         "component record 3 must be an object with a string 'label'"),
        ({"components": [{"level": 1}]},
         "component record {'level': 1} must be an object with a string 'label'"),
        ({**STRATA, "strata": [7]},
         "stratum record 7 must be an object with a string 'label'"),
        ({**STRATA, "strata": [{"indices": [0, 1], "label": 5}]},
         "stratum record {'indices': [0, 1], 'label': 5} must be an object "
         "with a string 'label'"),
        ({**STRATA, "strata": [{"indices": [0, 1], "label": "P",
                                "parents": {"0": ["L2"], "1": "L1"}}]},
         "stratum 'P' parents must be an object whose values are labels, "
         "got {'0': ['L2'], '1': 'L1'}"),
        ({**STRATA, "strata": [{"label": "P", "parents": {}}]},
         "stratum 'P' indices None is not a list"),
    ])
    def test_strata_records(self, tmp_path, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_any(["dual", str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "DescriptorInvalid",
                                             "message": message}}

    FAN = "a fan is an object whose {!r} is a list of integer lists"

    @pytest.mark.parametrize("command, doc, message", [
        ("toric-link", [], FAN.format("rays")),
        ("toric-link", {}, FAN.format("rays")),
        ("toric-link", {"rays": [[1, 0]]}, FAN.format("cones")),
        ("toric-link", {"rays": [[1, 0]], "cones": 5}, FAN.format("cones")),
        ("toric-link", {"rays": [5], "cones": []}, "ray 5 is not a list"),
        ("toric-link", {"rays": [[1, 0]], "cones": [[0, None]]},
         "cone [0, None] has a non-integer index None"),
        ("realize", {}, "a subsets document is a list of faces, or an object "
                        "whose 'faces' is one"),
        ("realize", {"faces": 5}, "a subsets document is a list of faces, or "
                                  "an object whose 'faces' is one"),
        ("realize", [[0], 5], "face 5 is not a list"),
        ("realize", [[0], [[1]]], "face [[1]] has a non-integer vertex [1]"),
        ("newton", {}, "a support is a list of points, or an object whose "
                       "'points' is one"),
        ("newton", {"points": 5}, "a support is a list of points, or an object "
                                  "whose 'points' is one"),
        ("newton", [[1, 0], "10"], "exponent vector '10' is not a list"),
        ("torus-boundary", {}, "a polytope is a list of points, or an object "
                               "whose 'points' is one"),
        ("torus-boundary", {"points": 5}, "a polytope is a list of points, or "
                                          "an object whose 'points' is one"),
        ("toric-link", {"rays": [[1, 0], [1]], "cones": [[0, 1]]},
         "ray 1 [1] has 1 coordinates, ray 0 has 2"),
        ("toric-link", {"rays": [[1, 0], [0, 1], [1, 1, 1], []], "cones": []},
         "ray 2 [1, 1, 1] has 3 coordinates, ray 0 has 2"),
        ("newton", [[2, 0, 0], [0, 2]],
         "exponent vector [0, 2] has 2 coordinates, exponent vector [2, 0, 0] has 3"),
        ("torus-boundary", [[2, 0, 0], [0, 2]],
         "lattice point [0, 2] has 2 coordinates, lattice point [2, 0, 0] has 3"),
        # a negative entry is found as the point is read, before the lengths
        ("newton", [[2, 0, 0], [0, -1]], "exponent vector [0, -1] has a negative entry"),
    ])
    def test_point_and_subset_documents(self, tmp_path, command, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_any([command, str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "DescriptorInvalid",
                                             "message": message}}

    @staticmethod
    def leveled(level):
        # two components, the first at ``level``, and a stratum over both
        doc = json.loads(json.dumps(STRATA))
        doc["components"][0]["level"] = level
        doc["components"][1]["level"] = 1
        return doc

    @pytest.mark.parametrize("level", ["x", "1", 2.0, 2.5, [1], {"level": 1}])
    def test_component_level_not_an_integer(self, tmp_path, level):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(self.leveled(level)))
        code, out, err = run_any(["dual", str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {
            "type": "DescriptorInvalid",
            "message": f"component 'L1' level must be an integer, got {level!r}"}}

    @pytest.mark.parametrize("level", [True, 0, -3])
    def test_component_level_below_one(self, tmp_path, level):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(self.leveled(level)))
        code, out, err = run_any(["dual", str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {
            "type": "LevelNotDownwardClosed",
            "message": f"face 'L1' has invalid level {level!r}; levels start at 1"}}

    def test_absent_strata_fields_are_empty(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({}))
        code, out = run_cli(["dual", str(path)])
        assert code == 0
        assert json.loads(out)["report"]["f_vector"] == []


EDGE = [{"id": "u", "dim": 0, "facets": []}, {"id": "v", "dim": 0, "facets": []},
        {"id": "e", "dim": 1, "facets": ["u", "v"], "delta_order": ["v", "u"]}]


def edge_with(**fields):
    """The edge u-v with the given fields of the edge record replaced."""
    return {"faces": EDGE[:2] + [{**EDGE[2], **fields}]}


class TestRecordFields:
    """Face record fields are read by the integer rule and the list rule:
    a bool is not an integer, a list of ids must be a list, and a null
    field counts as absent."""

    @pytest.mark.parametrize("doc, error", [
        (edge_with(dim=True), ("GradingViolation", "face 'e' has invalid dim True")),
        ({"faces": [{"id": "u", "dim": 0, "facets": [], "level": True}]},
         ("LevelNotDownwardClosed",
          "face 'u' has invalid level True; levels start at 1")),
        (edge_with(facets="uv", delta_order="vu"),
         ("DescriptorInvalid",
          "face 'e' field 'facets' must be a list of face ids, got 'uv'")),
        (edge_with(delta_order="vu"),
         ("DescriptorInvalid",
          "face 'e' field 'delta_order' must be a list of face ids, got 'vu'")),
        (edge_with(facets={"u": 0, "v": 1}),
         ("DescriptorInvalid", "face 'e' field 'facets' must be a list of face "
                               "ids, got {'u': 0, 'v': 1}")),
        (edge_with(facets=None),
         ("GradingViolation", "face 'e' has dim 1 but no codimension-one faces")),
        (edge_with(facets=["u", 1]),
         ("DescriptorInvalid", "face 'e' field 'facets' must be a list of face "
                               "ids, got ['u', 1]")),
        (edge_with(delta_order=["v", 0]),
         ("DescriptorInvalid", "face 'e' field 'delta_order' must be a list of "
                               "face ids, got ['v', 0]")),
        ({"faces": [{"id": "u", "dim": 0}, {"id": "e", "dim": 1, "facets": [["u"], "u"]}]},
         ("DescriptorInvalid", "face 'e' field 'facets' must be a list of face "
                               "ids, got [['u'], 'u']")),
        ({"faces": [EDGE[0], 7]},
         ("DescriptorInvalid", "face record 1 is not an object: 7")),
        ({"faces": [EDGE[0], ["v", 0]]},
         ("DescriptorInvalid", "face record 1 is not an object: ['v', 0]")),
    ])
    def test_rejected(self, tmp_path, doc, error):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["homology", str(path)])
        assert code == 1
        assert json.loads(out) == {"error": dict(zip(("type", "message"), error))}

    @pytest.mark.parametrize("nulls", [
        {"label": None}, {"level": None}, {"delta_order": None, "label": None}])
    def test_null_fields_are_absent(self, tmp_path, nulls):
        def report(faces):
            path = tmp_path / "in.json"
            path.write_text(json.dumps({"faces": faces}))
            code, out = run_cli(["homology", str(path)])
            assert code == 0
            report = json.loads(out)["report"]["reports"][0]
            del report["sha256"], report["input"]
            return report

        absent = {k: v for k, v in EDGE[2].items() if k not in nulls}
        vertex = {"id": "w", "dim": 0}
        assert report(EDGE + [{**vertex, "facets": None}]) == report(EDGE + [vertex])
        assert report(EDGE[:2] + [{**EDGE[2], **nulls}]) == report(EDGE[:2] + [absent])
        c = S.new_complex(EDGE[:2] + [{**EDGE[2], **nulls}])
        assert c.label("e") == "e" and c == S.new_complex(EDGE[:2] + [absent])


def filtered(c):
    recs = []
    for f in c.face_ids:
        rec = c._record(f)
        rec["level"] = 1
        recs.append(rec)
    return S.new_complex(recs)


class TestScriptSchema:
    """Malformed script steps are rejected where the JSON is read."""

    @pytest.mark.parametrize("script", [
        {"case": 2, "face": "e0"},
        [3],
        [{"face": "e0"}],
        [{"case": 4}],
        [{"case": 2.0, "face": "e0"}],
        [{"case": True}],
        [{"case": 2, "face": 7}],
        [{"case": 3, "base": ["v0"], "attach": ["v0"]}],
        [{"case": 3, "base": "v0", "attach": ["v0"], "vertex": 0}],
        [{"case": 2, "face": "e0", "new_vertex": 5}],
        [{"case": "attach", "new_vertex": "x", "attach": "v0"}],
        [{"case": "attach", "new_vertex": "x", "attach": ["v0", 1]}],
        [{"case": "attach", "new_vertex": "x", "attach": ["v0"], "level": "2"}],
        [{"case": "attach", "new_vertex": "x", "attach": ["v0"], "level": 0}],
        [{"case": "attach", "new_vertex": "x", "attach": ["v0"], "level": True}],
    ])
    def test_rejected(self, inputs, tmp_path, script):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        code, out = run_cli(["transform", str(inputs["triangle"]), str(path)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DescriptorInvalid"

    def test_attach_string_is_not_split(self, tmp_path):
        # "ab" once coned over the vertices a and b, making a circle
        c = S.simplicial_complex_from_subsets([{0}, {1}, {0, 1}])
        cpath = tmp_path / "edge.json"
        cpath.write_text(dumps_complex(c))
        for attach, code_want in (("01", 1), (["0.1"], 0)):
            path = tmp_path / "script.json"
            path.write_text(json.dumps(
                [{"case": "attach", "new_vertex": "x", "attach": attach}]))
            code, out = run_cli(["transform", str(cpath), str(path)])
            assert code == code_want
        final = json.loads(out)["report"]["final"]
        assert [r["betti"] for r in final["homology"]] == [1, 0, 0]

    def test_level_on_a_filtered_complex(self, tmp_path):
        cpath = tmp_path / "ftri.json"
        cpath.write_text(dumps_complex(filtered(G.triangle_boundary())))
        move = {"case": 3, "base": "v0", "attach": ["v0"], "vertex": "v0"}
        for level, code_want in (("2", 1), (2, 0)):
            path = tmp_path / "script.json"
            path.write_text(json.dumps([dict(move, level=level)]))
            code, out = run_cli(["transform", str(cpath), str(path)])
            assert code == code_want
            if code:
                assert json.loads(out)["error"]["type"] == "DescriptorInvalid"
        assert json.loads(out)["report"]["log"]["homology_constant"]

    def test_null_fields_are_absent(self, inputs, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"case": 2, "face": "e0", "base": None,
                                     "attach": None, "level": None}]))
        code, _out = run_cli(["transform", str(inputs["triangle"]), str(path)])
        assert code == 0


class TestEntryPoint:
    def test_module_invocation(self, inputs):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "sncx.cli", "homology",
             str(inputs["triangle"])],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "homology"

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0


class TestBatch:
    """``main`` called many times in one process: the parser is built once,
    and each call gives the bytes and exit code of a freshly built one."""

    @staticmethod
    def batch(inputs):
        tri, quadric = str(inputs["triangle"]), str(inputs["quadric"])
        bad = inputs["triangle"].parent / "dangling.json"
        bad.write_text(json.dumps({"faces": [
            {"id": "e", "dim": 1, "facets": ["ghost"]}]}))
        return [
            ["homology", tri, "--reduced"],
            ["homology", tri],
            ["newton", quadric, "--variant", "interior"],
            ["newton", quadric],
            ["certify"],                                # usage error
            ["homology", tri, "--format", "text"],
            ["homology", tri],
            ["newton", quadric, "--variant", "literal", "--format", "text"],
            ["certify", "--sphere-dim", "7"],           # usage error
            ["newton", quadric],
            ["certify", tri, "--sphere-dim", "1", "--format", "text"],
            ["certify", tri, "--sphere-dim", "1"],
            ["homology", str(bad)],                     # domain error
            ["homology", tri, "--reduced", "--format", "text"],
            ["homology", tri],
            ["--help"],
            ["newton", "--help"],
            ["homology", tri, "--bogus"],               # usage error
            ["torus-boundary", str(inputs["square"])],
            ["transform", tri, str(inputs["script"])],
            ["--version"],
            ["realize", str(inputs["subsets"]), "--format", "text"],
            ["realize", str(inputs["subsets"])],
        ]

    def test_no_option_leaks_between_calls(self, inputs, monkeypatch):
        argvs = self.batch(inputs)
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_any(argv))
        monkeypatch.setattr(cli, "_parser", None)
        interleaved = [run_any(argv) for argv in argvs]
        for argv, want, got in zip(argvs, fresh, interleaved):
            assert got == want, argv
        codes = [code for code, _out, _err in interleaved]
        assert codes.count(2) == 3 and codes.count(1) == 1
        assert {code for code, _out, _err in interleaved} == {0, 1, 2}
        reduced, plain = (json.loads(interleaved[i][1])["report"]["reports"][0]
                          for i in (0, 1))
        assert reduced["reduced"] and not plain["reduced"]
        interior, both = (json.loads(interleaved[i][1])["report"]
                          for i in (2, 3))
        assert interior["predicted_variant"] == "interior"
        assert "predicted_variant" not in both
        assert interleaved[5][1].startswith("command: homology")
        assert json.loads(interleaved[6][1])["command"] == "homology"
        assert json.loads(interleaved[12][1])["error"]["type"] == "DanglingFace"

    def test_parser_built_once(self, inputs, monkeypatch):
        builds = []
        real = cli.build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        tri = str(inputs["triangle"])
        for argv in (["homology", tri], ["certify", tri, "--sphere-dim", "1"],
                     ["homology", tri, "--reduced"]):
            assert run_cli(argv)[0] == 0
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_runner_looked_up_at_call_time(self, inputs, monkeypatch):
        tri = str(inputs["triangle"])
        assert run_cli(["homology", tri])[0] == 0   # the parser exists now
        monkeypatch.setattr(cli, "_run_homology", lambda args: {"stub": True})
        code, out = run_cli(["homology", tri])
        assert code == 0 and json.loads(out)["report"] == {"stub": True}


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, inputs):
        outs = {run_cli(["newton", str(inputs["quadric"])])[1] for _ in range(5)}
        assert len(outs) == 1

    def test_stable_across_hash_seeds(self, inputs, tmp_path):
        import os
        import subprocess
        import sys
        fan = tmp_path / "fan.json"
        fan.write_text(inputs["fan"].read_text())
        # a filtered complex and a script of cases 2 and 3
        sphere = S.simplicial_complex_from_subsets(
            [s for s in close_under_subsets([{0, 1, 2, 3}]) if len(s) < 4])
        recs = [dict(sphere._record(f), level=2 if "3" in sphere.vertices_of(f) else 1)
                for f in sphere.face_ids]
        filtered_sphere = tmp_path / "filtered.json"
        filtered_sphere.write_text(dumps_complex(S.new_complex(recs)))
        script = tmp_path / "script.json"
        script.write_text(json.dumps([
            {"case": 2, "face": "0.1.2"},
            {"case": 3, "base": "0.1", "attach": ["0.1", "0.1.3"], "vertex": "0",
             "level": 2},
            {"case": 2, "face": "2.3"}]))
        # a poset without a Delta structure
        poset = tmp_path / "poset.json"
        poset.write_text(json.dumps({"faces": [
            {k: v for k, v in sphere._record(f).items() if k != "delta_order"}
            for f in sphere.face_ids]}))
        runs = (["toric-link", str(fan)],
                ["transform", str(filtered_sphere), str(script)],
                ["certify", "--sphere-dim", "2", str(poset)])
        for argv in runs:
            outs = set()
            for seed in ("0", "1", "31337"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                proc = subprocess.run([sys.executable, "-m", "sncx.cli", *argv],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stdout
                outs.add(proc.stdout)
            assert len(outs) == 1, argv
        log = json.loads(run_cli(runs[1])[1])["report"]["log"]
        assert [s["move"]["case"] for s in log["steps"][1:]] == [2, 3, 2]
        assert log["homology_constant"]
        assert set(log["steps"][-1]["per_level"]) == {"1", "2"}
        assert json.loads(outs.pop())["report"]["status"] == "certified-wedge"


class TestDependencies:
    def test_cli_imports_neither_numpy_nor_fractions(self):
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(os.path.abspath(S.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = ("import sys, sncx.cli; "
                 "print(sorted({'numpy', 'fractions'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
