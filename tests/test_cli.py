import argparse
import hashlib
import io
import json

import pytest

from nodecurves import generators, nodes, verify
from nodecurves.cli import _build_parser, main
from nodecurves.nodes import NodeSet

SQUARE = '{"nodes": [["0","0"],["1","0"],["0","1"],["1","1"]]}'
FOUR = '{"nodes": [["0","0"],["1","0"],["2","0"],["0","1"]]}'
COLLINEAR = '{"nodes": [["0","0"],["1","0"],["2","0"]]}'


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dstar_exact_output(capsys):
    code, out, _ = run(capsys, "dstar", "-n", "5", "-k", "3")
    assert code == 0
    assert out == '{"d": 15, "K": 13}\n'


def test_indep_collinear(capsys):
    code, out, _ = run(capsys, "indep", "-n", "1", COLLINEAR)
    assert code == 0
    assert json.loads(out) == {"independent": False, "hilbert": 2}


def test_poised(capsys):
    code, out, _ = run(capsys, "poised", "-n", "1",
                       '{"nodes": [["0","0"],["1","0"],["0","1"]]}')
    assert code == 0
    assert json.loads(out) == {"poised": True}


def test_basis_dimension(capsys):
    code, out, _ = run(capsys, "basis", "-n", "2", FOUR)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2
    assert len(data["basis"]) == 2


def test_indep_rejects_json_booleans(capsys):
    # bool is an int subclass; true/false must not pass as coordinates
    code, out, err = run(capsys, "indep", "-n", "1",
                         '{"nodes": [[true, 0], [0, false]]}')
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("doc", [
    '{"nodes": ["12", "34"]}',  # each string used to unpack into a node
    '{"nodes": {"12": 0}}',  # an object used to give its keys
    '{"nodes": {}}',  # and an empty object an empty set
    '{"nodes": [["0", "0"], ["1", "0", "2"]]}',
])
def test_malformed_node_lists_are_refused(capsys, doc):
    code, out, err = run(capsys, "indep", "-n", "1", doc)
    assert code == 1
    assert out == ""
    assert "nodes" in json.loads(err)["error"]


@pytest.mark.parametrize("args", [
    # an array used to be indexed by "nodes" and fail with a TypeError
    ["indep", "-n", "1", "[1,2]"],
    ["verify", "twocurves", "-k", "2", "--at=1,1", "[1]"],
    ["indep", "-n", "1", '{"n": 1}'],
])
def test_node_set_json_must_be_an_object_with_nodes(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == (
        'node-set JSON must be an object with a "nodes" array')


@pytest.mark.parametrize("args", [
    # int() used to truncate 2.5 to 2 and read true as 1
    ["indep", '{"n": 2.5, "nodes": [[0,0],[1,0],[0,1]]}'],
    ["indep", '{"n": true, "nodes": [[0,0],[1,0],[0,1]]}'],
    ["indep", '{"n": "2", "nodes": [[0,0],[1,0],[0,1]]}'],
    ["render", FOUR, "--curve", '{"n": 1.0, "coeffs": ["0", "1", "0"]}'],
    ["render", FOUR, "--curve",
     '{"degree": true, "poly": {"n": 1, "coeffs": ["0", "1", "0"]}}'],
])
def test_non_integer_json_fields_are_refused(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("args", [
    ["indep", "-n", "1", '{"nodes": [["1/0", "0"]]}'],
    ["verify", "twocurves", "-k", "2", "--at=1/0,1", FOUR],
    ["extend", "-n", "1", "--on-curve", '{"a": "1/0", "b": "1", "c": "0"}',
     '{"nodes": []}'],
    ["render", FOUR, "--curve", '{"n": 1, "coeffs": ["0", "1/0", "0"]}'],
], ids=["node", "at", "on-curve", "curve"])
def test_zero_denominator_is_named(capsys, args):
    # Fraction("1/0") used to leak as {"error": "Fraction(1, 0)"}
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "zero denominator in '1/0'"


@pytest.mark.parametrize("args", [
    ["indep", "-n", "1", '{"nodes": [["1e10000000", "0"]]}'],
    ["verify", "twocurves", "-k", "2", "--at=1e10000000,1", FOUR],
    ["extend", "-n", "1", "--on-curve",
     '{"a": "1e10000000", "b": "1", "c": "0"}', '{"nodes": []}'],
    ["render", FOUR, "--curve",
     '{"n": 1, "coeffs": ["0", "1e10000000", "0"]}'],
], ids=["node", "at", "on-curve", "curve"])
def test_decimal_exponent_is_refused(capsys, args):
    # Fraction("1e10000000") builds a ten-million-digit integer
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "decimal exponent in '1e10000000'"


DEEP = '{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("source", ["stdin", "file", "inline"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, monkeypatch,
                                       source):
    # json.loads raises RecursionError, which used to end in a traceback
    arg = DEEP
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP))
        arg = "-"
    elif source == "file":
        path = tmp_path / "deep.json"
        path.write_text(DEEP, encoding="utf-8")
        arg = str(path)
    code, out, err = run(capsys, "indep", "-n", "1", arg)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "JSON nested too deeply"}


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("args", [
    ["render", '{"nodes": [["%s", "0"]]}' % HUGE],
    ["render", FOUR, "--curve", '{"n": 1, "coeffs": ["0", "%s", "1"]}' % HUGE],
], ids=["node", "curve"])
def test_render_beyond_float_range_exits_1(capsys, args):
    # the figure is drawn in floats; OverflowError used to end in a
    # traceback
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "error" in json.loads(err)


def test_fund_polynomial_and_null(capsys):
    code, out, _ = run(capsys, "fund", "-n", "1", "--node", "0",
                       '{"nodes": [["0","0"],["1","0"],["0","1"]]}')
    assert code == 0
    assert json.loads(out) == {"n": 1, "coeffs": ["1", "-1", "-1"]}
    # no fundamental on a dependent collinear triple
    code, out, _ = run(capsys, "fund", "-n", "1", "--node", "0", COLLINEAR)
    assert code == 0
    assert out == "null\n"


def test_fund_index_out_of_range(capsys):
    code, _, err = run(capsys, "fund", "-n", "1", "--node", "7", COLLINEAR)
    assert code == 1
    assert "error" in json.loads(err)


def test_degree_from_file_when_flag_absent(capsys):
    code, out, _ = run(capsys, "indep", '{"n": 1, "nodes": [["0","0"]]}')
    assert code == 0
    assert json.loads(out)["independent"] is True
    code, _, err = run(capsys, "indep", '{"nodes": [["0","0"]]}')
    assert code == 1
    assert "error" in json.loads(err)


def test_gen_br_meta_and_shape(capsys):
    code, out, _ = run(capsys, "gen", "br", "-n", "3", "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert len(data["nodes"]) == 10
    meta = data["meta"]
    assert meta["kind"] == "br" and meta["seed"] == 5
    assert len(meta["lines"]) == 4
    assert meta["counts"] == [4, 3, 2, 1]


def test_gen_defect_meta(capsys):
    code, out, _ = run(capsys, "gen", "defect", "-n", "2", "-k", "2",
                       "--seed", "7")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["kind"] == "defect"
    assert meta["mu"]["degree"] == 1
    assert meta["outlier_index"] == 3


def test_gen_defect_requires_k(capsys):
    code, _, err = run(capsys, "gen", "defect", "-n", "2", "--seed", "7")
    assert code == 1
    assert "error" in json.loads(err)


def test_gen_verify_roundtrip(capsys):
    code, out, _ = run(capsys, "gen", "defect", "-n", "3", "-k", "2",
                       "--seed", "19")
    assert code == 0
    generated = out
    meta = json.loads(generated)["meta"]
    code, out, _ = run(capsys, "verify", "defect", "-n", "3", "-k", "2",
                       generated)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["dim"] == 2
    assert report["outlier_index"] == meta["outlier_index"]


def test_gen_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "gen", "poised", "-n", "3", "--seed", "2")
    _, second, _ = run(capsys, "gen", "poised", "-n", "3", "--seed", "2")
    assert first == second


def test_extend_to_poised(capsys):
    code, out, _ = run(capsys, "extend", "-n", "1", '{"nodes": []}')
    assert code == 0
    assert json.loads(out)["nodes"] == [["0", "0"], ["1", "0"], ["0", "1"]]


def test_extend_on_curve(capsys):
    code, out, _ = run(capsys, "extend", "-n", "2", "--on-curve",
                       '{"a":"0","b":"1","c":"0"}', '{"nodes": [["0","0"]]}')
    assert code == 0
    assert json.loads(out)["nodes"] == [["0", "0"], ["1", "0"], ["-1", "0"]]


def test_extend_on_curve_line_list(capsys):
    lines = '[{"a":"0","b":"1","c":"0"}, {"a":"1","b":"0","c":"0"}]'
    code, out, _ = run(capsys, "extend", "-n", "2", "--on-curve", lines,
                       '{"nodes": []}')
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 5


@pytest.mark.parametrize("args, message", [
    (["verify", "uniqueness", "-n", "2", FOUR], "-k"),
    (["verify", "defect", "-n", "2", FOUR], "-k"),
    (["verify", "twocurves", "--at=1,1", FOUR], "-k"),
    (["verify", "twocurves", "-k", "2", FOUR], "--at"),
    (["verify", "twocurves", "-k", "2", "--at=1,1,1", FOUR], "two"),
])
def test_verify_argument_errors_exit_1(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert message in json.loads(err)["error"]


BR = object()  # stands for the output of `gen br -n 3 --seed 5`


@pytest.mark.parametrize("args, flag", [
    # the three commands that used to drop a flag without a word
    (["verify", "lineusage", "-n", "3", "-k", "99", "--at", "5,5", BR], "-k"),
    (["verify", "twocurves", "-n", "1", "-k", "2", "--at=1,1", FOUR], "-n"),
    (["gen", "poised", "-n", "2", "-k", "7", "--seed", "1"], "-k"),
    # one case per refused flag
    (["gen", "br", "-n", "3", "-k", "2", "--seed", "1"], "-k"),
    (["gen", "poised", "-n", "3", "-k", "2", "--seed", "1"], "-k"),
    (["verify", "lineusage", "-n", "3", "-k", "2", BR], "-k"),
    (["verify", "uniqueness", "-n", "2", "-k", "2", "--at=1,1", FOUR],
     "--at"),
    (["verify", "defect", "-n", "2", "-k", "2", "--at=1,1", FOUR], "--at"),
    (["verify", "lineusage", "-n", "3", "--at=1,1", BR], "--at"),
    (["verify", "twocurves", "-n", "2", "-k", "2", "--at=1,1", FOUR], "-n"),
])
def test_unread_flags_exit_1(capsys, args, flag):
    br = json.dumps(generators.berzolari_radon(3, 5).nodes.to_json(3))
    code, out, err = run(capsys, *[br if a is BR else a for a in args])
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"].endswith(f"does not read {flag}")


def test_search_over_budget_exits_1(capsys, monkeypatch):
    # the spiral starts at (0, 0), whose row repeats the set's first one;
    # with no budget for rejections the search gives up there
    monkeypatch.setattr(nodes, "SEARCH_BUDGET", 0)
    code, out, err = run(capsys, "extend", "-n", "1",
                         '{"nodes": [["0","0"],["1","0"]]}')
    assert code == 1
    assert out == ""
    assert "budget" in json.loads(err)["error"]


def test_verify_twocurves(capsys):
    code, out, _ = run(capsys, "verify", "twocurves", "-k", "2", "--at=1,1",
                       FOUR)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["curve"]["poly"]["coeffs"] == \
        ["0", "0", "-1", "0", "0", "1"]


def test_verify_uniqueness_size_precondition(capsys):
    code, _, err = run(capsys, "verify", "uniqueness", "-n", "2", "-k", "2",
                       FOUR)
    assert code == 1
    assert "error" in json.loads(err)


def test_verify_uniqueness_surplus_curve_is_exit_2(capsys, monkeypatch):
    # the verifier sees the 2-dimensional conic space of FOUR
    generic = '{"nodes": [[0,0],[1,0],[0,1],[1,1],[2,3]]}'
    four = NodeSet([(0, 0), (1, 0), (2, 0), (0, 1)])
    real = verify.curves_through
    monkeypatch.setattr(verify, "curves_through",
                        lambda _xs, k: real(four, k))
    code, out, err = run(capsys, "verify", "uniqueness", "-n", "2", "-k",
                         "2", generic)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_verify_defect_square_is_no_split_exit_0(capsys):
    # at k = n dimension 2 without any single off-curve node is legal
    code, out, _ = run(capsys, "verify", "defect", "-n", "2", "-k", "2",
                       SQUARE)
    assert code == 0
    assert json.loads(out) == {
        "theorem": "defect", "params": {"n": 2, "k": 2}, "dim": 2,
        "outlier_index": None, "mu": None, "ok": True}


def test_verify_lineusage(capsys):
    _, generated, _ = run(capsys, "gen", "br", "-n", "3", "--seed", "5")
    code, out, _ = run(capsys, "verify", "lineusage", "-n", "3", generated)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    for entry in report["reports"]:
        assert len(entry["nodes_on_line"]) == 3
        assert len(entry["users"]) in (1, 3)


def test_invalid_arguments_exit_1(capsys):
    code, _, err = run(capsys, "dstar", "-n", "5")
    assert code == 1
    assert json.loads(err.splitlines()[-1]) == {"error": "invalid arguments"}
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_reused_parser_keeps_no_state(capsys):
    # one parser serves every call in a process; a flag or an error seen
    # by an earlier call must not leak into a later one
    with_n = '{"n": 2, "nodes": [["0","0"],["1","0"],["2","0"]]}'
    first = run(capsys, "indep", with_n)
    assert first[0] == 0
    run(capsys, "indep", "-n", "1", with_n)
    run(capsys, "dstar", "-n", "5")
    run(capsys, "verify", "twocurves", "-k", "2", "--at=1,1", FOUR)
    assert run(capsys, "indep", with_n) == first
    code, _, _ = run(capsys, "verify", "twocurves", "-k", "2", FOUR)
    assert code == 1


def test_file_and_stdin_inputs(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nodes.json"
    path.write_text(FOUR)
    code, from_file, _ = run(capsys, "basis", "-n", "2", str(path))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(FOUR))
    code, from_stdin, _ = run(capsys, "basis", "-n", "2", "-")
    assert code == 0
    assert from_file == from_stdin


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "dstar", "-n", "5", "-k", "3",
                       "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == '{"d": 15, "K": 13}\n'


def test_unwritable_output_file_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "dstar", "-n", "3", "-k", "2",
                         "-o", str(target))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "error" in json.loads(err)
    assert not target.exists()


def test_render_svg(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "render", FOUR, "--curve",
                       '{"n":2,"coeffs":["0","0","-1","0","0","1"]}',
                       "-o", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 4
    assert "<path" in text
    again = tmp_path / "fig2.svg"
    run(capsys, "render", FOUR, "--curve",
        '{"n":2,"coeffs":["0","0","-1","0","0","1"]}', "-o", str(again))
    assert again.read_text() == text


def test_render_accepts_line_and_curve_objects(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", FOUR, "--curve",
                     '{"a":"0","b":"1","c":"0"}', "--curve",
                     '{"degree":2,"poly":{"n":2,"coeffs":'
                     '["0","0","-1","0","0","1"]}}', "-o", str(target))
    assert code == 0
    assert target.read_text().count("<path") == 2


@pytest.mark.parametrize("curve", ['[1, 2]', '[]'])
def test_render_refuses_a_curve_that_is_not_an_object(capsys, curve):
    code, out, err = run(capsys, "render", '{"nodes": [["0","0"]]}',
                         "--curve", curve)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("curve, field", [
    ('{"n": 1, "coeffs": "011"}', "coeffs"),  # used to draw x + y
    # used to give x + 2*y
    ('{"n": 1, "coeffs": {"0": 1, "1": 2, "2": 3}}', "coeffs"),
    ('{"degree": 1, "poly": {"n": 1, "coeffs": "011"}}', "coeffs"),
    ('{"degree": 1, "poly": "011"}', "poly"),
])
def test_render_names_a_malformed_polynomial_field(capsys, curve, field):
    code, out, err = run(capsys, "render", '{"nodes": [["0","0"]]}',
                         "--curve", curve)
    assert code == 1
    assert out == ""
    assert field in json.loads(err)["error"]


@pytest.mark.parametrize("lines", [
    '["abc"]',
    '[{"a":"0","b":"1","c":"0"}, 5]',
    '[["0", "1", "0"]]',
])
def test_extend_refuses_on_curve_items_that_are_not_objects(capsys, lines):
    code, out, err = run(capsys, "extend", "-n", "2", "--on-curve", lines,
                         '{"nodes": []}')
    assert code == 1
    assert out == ""
    assert "--on-curve" in json.loads(err)["error"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# each action as (option strings or dest, required, default, type,
# choices, metavar, help)
HELP = (("-h", "--help"), False, argparse.SUPPRESS, None, None, None,
        "show this help message and exit")
N = (("-n",), False, None, int, None, None, "total degree bound")
N_REQUIRED = (("-n",), True, None, int, None, None, "total degree bound")
NODES = ("nodes", True, None, None, None, None,
         "node-set JSON: a file path, inline JSON, or - for stdin")
OUTPUT = (("-o", "--output"), False, None, None, None, None,
          "write output to a file instead of stdout")
CLI_SURFACE = [
    ("indep", "independence and Hilbert function", [HELP, N, NODES, OUTPUT]),
    ("poised", "unisolvence check for a set", [HELP, N, NODES, OUTPUT]),
    ("basis", "vanishing-space basis of a set", [HELP, N, NODES, OUTPUT]),
    ("fund", "fundamental polynomial of one node", [
        HELP, N, (("--node",), True, None, int, None, None, "node index"),
        NODES, OUTPUT]),
    ("dstar", "on-curve node maximum and the uniqueness threshold", [
        HELP, N_REQUIRED,
        (("-k",), True, None, int, None, None, "curve degree"), OUTPUT]),
    ("gen", "deterministic seeded set generators", [
        HELP, ("kind", True, None, None, ["br", "poised", "defect"], None,
               None),
        N_REQUIRED,
        (("-k",), False, None, int, None, None, "curve degree (defect only)"),
        (("--seed",), True, None, int, None, None, None), OUTPUT]),
    ("extend", "grow a set to a distinguished size", [
        HELP, N, (("--on-curve",), False, None, None, None, "LINES",
                  "line or line-list JSON; extend along that curve"),
        NODES, OUTPUT]),
    ("verify", "structure checks with JSON reports", [
        HELP, ("theorem", True, None, None,
               ["uniqueness", "defect", "lineusage", "twocurves"], None, None),
        N, (("-k",), False, None, int, None, None, "curve degree"),
        (("--at",), False, None, None, None, "X,Y",
         "extra point for twocurves"),
        NODES, OUTPUT]),
    ("render", "SVG figure of nodes and curves", [
        HELP, (("--curve",), False, None, None, None, "CURVE",
               "curve JSON to draw; may repeat"),
        NODES, OUTPUT]),
]


def test_cli_surface_is_pinned():
    # --help text differs across Python versions ("optional arguments:"
    # before 3.10), so every subcommand's actions are compared instead
    [sub] = [a for a in _build_parser()._actions if a.dest == "command"]
    got = [
        (choice.dest, choice.help, [
            (tuple(a.option_strings) or a.dest, a.required, a.default,
             a.type, a.choices, a.metavar, a.help)
            for a in sub.choices[choice.dest]._actions
        ])
        for choice in sub._choices_actions
    ]
    assert got == CLI_SURFACE


def test_verify_output_bytes_are_pinned(capsys):
    # verify reports are a documented format: pin the sha256 of stdout
    _, br, _ = run(capsys, "gen", "br", "-n", "3", "--seed", "5")
    _, spiral, _ = run(capsys, "extend", "-n", "3", '{"nodes": []}')
    _, defect, _ = run(capsys, "gen", "defect", "-n", "3", "-k", "2",
                       "--seed", "19")
    threshold = ('{"nodes": [["0","0"],["7","17/3"],["-7","-17/3"],'
                 '["14","34/3"],["1","0"],["0","1"]]}')
    cases = [
        (["uniqueness", "-n", "3", "-k", "2", threshold],
         "f93fb0d6f965a4f942d7ce51c7810ddae2a4352c67549fe6996b5f547cbac3a4"),
        (["defect", "-n", "3", "-k", "2", defect],
         "b6ed4f16d5f5c9792c5c682fdf8d66a8033445fd68a073c9c7a609220a915ea0"),
        (["lineusage", "-n", "3", br],
         "703dfdfce682035cc4b5f28a8ddd164c13a840f4cadf6f0bc8a014c6988d4a4d"),
        # four 3-node lines, with 1 and with 3 users
        (["lineusage", "-n", "3", spiral],
         "46a64ebbcd1c33c3f3816dc36da499ad86f45e675413db9d8b8711948bc2960b"),
        (["twocurves", "-k", "2", "--at=1,1", FOUR],
         "47c15f0fd2cdbafbc2d75785060d42fa5c9e8fa048c543b7e56e74bc5b8e65b4"),
    ]
    for args, digest in cases:
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args[0]


def test_fund_output_bytes_are_pinned(capsys):
    # sha256 of the concatenated fund stdout per group: every node of
    # random poised sets (square, so the certified solve), one node at
    # n=8 and n=10, and sets the exact elimination answers: a non-square
    # set with null and non-null answers, and a square dependent one
    mixed = '{"nodes": [["0","0"],["1","0"],["2","0"],["3","0"],["0","1"]]}'
    groups = [
        ([(n, json.dumps(xs.to_json()), i)
          for n in range(2, 7) for seed in (1, 2)
          for xs in [generators.random_poised(n, seed)]
          for i in range(len(xs))],
         "482656ac683a77cc5bdcf580482928d940e50dbb25fde925d22967e60708e297"),
        ([(8, json.dumps(generators.random_poised(8, 1).to_json()), 17)],
         "6f703a16188b7fe3cca2590fb86c85324214669a935237b9eb63dd5ff1320ffa"),
        ([(10, json.dumps(generators.random_poised(10, 1).to_json()), 40)],
         "7c4c8e1e3600ff131ac05151e06eb061bb25cf691963f0d9948ddfc5ccf6f581"),
        ([(2, mixed, i) for i in range(5)] + [(1, COLLINEAR, 1)],
         "b4cafc859af77ffd7b63f59fd815d75b4f33f31c447482a0bbfe9ef3d97a96dc"),
    ]
    for calls, want in groups:
        digest = hashlib.sha256()
        for n, doc, i in calls:
            code, out, _ = run(capsys, "fund", "-n", str(n), "--node", str(i),
                               doc)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == want


def test_gen_and_extend_output_bytes_are_pinned(capsys):
    # sha256 of the concatenated stdout per group: every node search
    # (random draws, the defect set's on-curve phase and outlier scan,
    # the spiral, line samplers) decides what these print
    axis = '{"a":"0","b":"1","c":"0"}'
    lines = ('[{"a":"0","b":"1","c":"0"}, {"a":"1","b":"0","c":"0"}, '
             '{"a":"1","b":"-1","c":"1"}]')
    groups = [
        ([["gen", kind, "-n", str(n), "--seed", str(seed)]
          for kind in ("poised", "br") for n in range(2, 7)
          for seed in (1, 2)],
         "3939e1098c80992b7fd360397f6624b9b4a820152bdbf9a42f2eed53ad82c560"),
        ([["gen", "defect", "-n", str(n), "-k", str(k), "--seed", "1"]
          for n in range(3, 7) for k in range(2, n)],
         "27d38f6d317c74070e6e8c801ee8d1474d563fdd80a41a03f84d23ad2ae29f67"),
        ([["extend", "-n", str(n), '{"nodes": []}'] for n in range(1, 6)]
         + [["extend", "-n", "3", FOUR]]
         + [["extend", "-n", str(n), "--on-curve", axis, doc]
            for n in (2, 4)
            for doc in ('{"nodes": []}', '{"nodes": [["3","0"],["0","0"]]}')]
         + [["extend", "-n", str(n), "--on-curve", lines, '{"nodes": []}']
            for n in (3, 5)],
         "e075fe6999f193bf7abf6ca6f40114eaeae0a71e25673e66e52fa646817b938c"),
        # deeper into the shared streams: BR at n = 10 and 12, defect sets
        # on 5 to 7 lines, whose rank decider reads a union stream, and
        # spiral rings past those n <= 5 reaches
        ([["gen", "br", "-n", str(n), "--seed", str(seed)]
          for n in (10, 12) for seed in (1, 2)]
         + [["gen", "defect", "-n", "8", "-k", str(k), "--seed", "1"]
            for k in (6, 7, 8)]
         + [["extend", "-n", str(n), '{"nodes": []}'] for n in (8, 10)],
         "5a6a8084b8ad51ad5cf5ff60366f26a26be0777d88133e5c4f78457eb1cd9a9e"),
    ]
    for calls, want in groups:
        digest = hashlib.sha256()
        for args in calls:
            code, out, _ = run(capsys, *args)
            assert code == 0, args
            digest.update(out.encode())
        assert digest.hexdigest() == want, calls[0]


def test_verify_lineusage_grid_bytes_are_pinned(capsys):
    # 29 sets: spiral n=3..6, BR n=3..7 seeds 1-3, random n=3/4 seeds 0-4;
    # the sha256 of their concatenated verify lineusage stdout
    sets = [(nodes.extend_to_poised(NodeSet(), n), n) for n in range(3, 7)]
    sets += [(generators.berzolari_radon(n, seed).nodes, n)
             for n in range(3, 8) for seed in (1, 2, 3)]
    sets += [(generators.random_poised(n, seed), n)
             for n in (3, 4) for seed in range(5)]
    digest = hashlib.sha256()
    for xs, n in sets:
        code, out, _ = run(capsys, "verify", "lineusage", "-n", str(n),
                           json.dumps(xs.to_json(n)))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "dda266f29fc44ffd1b575a3fd864c3d2a5809f85c8ffbf83909291a6b4905ad8")


def test_basis_and_defect_output_bytes_are_pinned(capsys):
    # sha256 of the concatenated stdout per group: the exact kernel's
    # vanishing spaces (one dimension on BR and random sets minus a node,
    # several on non-square sets) and the defect reports built on them
    def minus(xs, i):
        return xs.subset(j for j in range(len(xs)) if j != i)

    groups = [
        ([(n, minus(generators.berzolari_radon(n, seed).nodes, 0))
          for n in range(3, 9) for seed in (1, 2)],
         "534e4b996f486f1a2e204ac865a5ff608ea89132113d04ef283ed9ba28416513"),
        ([(n, minus(xs, len(xs) // 2))
          for n in range(3, 7) for seed in (1, 2)
          for xs in [generators.random_poised(n, seed)]],
         "4ee3be39785c69164ba822d5d60d97652b3548d422a79a5d4f84648aa4cddef6"),
        ([(2, NodeSet.from_json(json.loads(FOUR))[0]),
          (5, generators.random_poised(5, 1).subset(range(12))),
          (6, generators.berzolari_radon(6, 1).nodes.subset(range(20)))],
         "8be1c3e5baf95c7e0378d115fecb4a77326f5a42de2eeb5194ba43150357fa98"),
    ]
    for sets, want in groups:
        digest = hashlib.sha256()
        for n, xs in sets:
            code, out, _ = run(capsys, "basis", "-n", str(n),
                               json.dumps(xs.to_json()))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == want
    digest = hashlib.sha256()
    for n in range(4, 8):
        for k in range(3, n):
            _, doc, _ = run(capsys, "gen", "defect", "-n", str(n), "-k",
                            str(k), "--seed", "1")
            code, out, _ = run(capsys, "verify", "defect", "-n", str(n),
                               "-k", str(k), doc)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "a5f00afe107612516e1293a6140beae37d186d5eea62fa6332cf63d15a556f38")


def test_verify_defect_from_k_two_to_k_n_bytes_are_pinned(capsys):
    # 63 reports, gen defect then verify defect at every 2 <= k <= n <= 7
    # and seeds 1-3: the sha256 of their concatenated stdout, with k = 2
    # and k = n, the split's fewest and most columns at each n
    digest = hashlib.sha256()
    for n in range(2, 8):
        for k in range(2, n + 1):
            for seed in (1, 2, 3):
                _, doc, _ = run(capsys, "gen", "defect", "-n", str(n), "-k",
                                str(k), "--seed", str(seed))
                code, out, _ = run(capsys, "verify", "defect", "-n", str(n),
                                   "-k", str(k), doc)
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == (
        "cd20c22f9dc10509db87f75813ca88f7d69b5409c1e3813278099493fa71e15b")


def test_lifted_basis_and_certified_split_bytes_are_pinned(capsys):
    # the shapes where nullspace lifts and the defect split is certified
    # mod P print the exact kernel's bytes: basis on a random and a BR set
    # at n=10 minus one node, and verify defect at (8, 5), (9, 6), (10, 6)
    def minus(xs, i):
        return xs.subset(j for j in range(len(xs)) if j != i)

    random10 = generators.random_poised(10, 1)
    bases = [
        (minus(random10, len(random10) // 2),
         "83a472f60e5595065b8e387f9aa0edf112d396d0d716500a5e7d0fede8066592"),
        (minus(generators.berzolari_radon(10, 1).nodes, 0),
         "61c87d3a576512d46d873af1ae77a5d98545c047787812de3c433a241db8ed11"),
    ]
    for xs, want in bases:
        code, out, _ = run(capsys, "basis", "-n", "10",
                           json.dumps(xs.to_json()))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want
    defects = [
        (8, 5,
         "27b382de0bfca09362fe8b1d3528420fd2c89fd09668685fb8c601cc07f0188c"),
        (9, 6,
         "3c533f769a1a885c9765996f5d09803cf23d0af60f45f407eb23485dab0e4cd7"),
        (10, 6,
         "7de9f83d9592111e7839cc5fb11d728e9d936fd9d863afb9be5cc7d8f9368ada"),
    ]
    for n, k, want in defects:
        _, doc, _ = run(capsys, "gen", "defect", "-n", str(n), "-k", str(k),
                        "--seed", "1")
        code, out, _ = run(capsys, "verify", "defect", "-n", str(n), "-k",
                           str(k), doc)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, (n, k)


def test_column_pass_split_bytes_are_pinned(capsys):
    # verify defect where one column pass gives independence, the curve
    # space bound and the split: the ops of the benchmark at (6, 4) and
    # (7, 4), and (12, 11), where mu is lifted over 66 columns
    defects = [
        (6, 4,
         "b06204ac55461bf74759216011b90aeccff6f3167d132a2966034a5c4eeb9299"),
        (7, 4,
         "e9454db46981ce351ca2be90b750ea14ada77d2aef45a89101ad22d1b71bb894"),
        (12, 11,
         "55ffa32dcaf294c66b23cb36e123469eb28ce41ecca361550103646f38330044"),
    ]
    for n, k, want in defects:
        _, doc, _ = run(capsys, "gen", "defect", "-n", str(n), "-k", str(k),
                        "--seed", "1")
        code, out, _ = run(capsys, "verify", "defect", "-n", str(n), "-k",
                           str(k), doc)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, (n, k)
