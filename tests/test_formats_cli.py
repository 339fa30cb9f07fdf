import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
import simplicial.cli as cli
from simplicial import (
    InputError,
    Verdict,
    build_complex,
    cross_polytope_boundary,
    cycle,
    facet_file_text,
    parse_facet_lines,
    read_complex_file,
    read_complex_text,
    simplex_boundary,
)
from simplicial.errors import InternalInvariantError

# past the 4300 digits that int() converts from a string by default
BIG = "9" * 5000


def test_facet_file_round_trip(corpus):
    for name, cx in corpus.items():
        assert read_complex_text(facet_file_text(cx)) == cx, name


def test_facet_file_special_forms():
    assert facet_file_text(build_complex([])) == ""
    assert facet_file_text(build_complex([()])) == "*\n"
    assert read_complex_text("*\n").is_empty_complex
    assert read_complex_text("").is_void
    assert read_complex_text("# only a comment\n\n").is_void


def test_facet_parse_errors_carry_line_numbers():
    # labels are ASCII digits only: int() alone would read 2_0 as 20, the
    # Arabic-Indic digit three as 3 and the full-width digit one as 1, and
    # str.isdigit() holds for the superscript two, which int() refuses
    for text, message in [
        ("1 2 x", "line 1: 'x' is not an integer label"),
        ("1 2\n3 -1", "line 2: negative label -1"),
        ("1 2\n\n4 4", "line 3: repeated label in facet"),
        ("1 2\n1 2_0", "line 2: '2_0' is not an integer label"),
        ("1 2\n\u0663 4", "line 2: '\u0663' is not an integer label"),
        ("+1 2", "line 1: '+1' is not an integer label"),
        ("1 \u00b2", "line 1: '\u00b2' is not an integer label"),
        ("\uff11 2", "line 1: '\uff11' is not an integer label"),
        ("x -1", "line 1: 'x' is not an integer label"),
        ("-1 x", "line 1: negative label -1"),
        ("4 -0 4", "line 1: repeated label in facet"),
        (f"1 2 {BIG}", "line 1: '99999999999999999999…' (5000 characters) is not an integer label"),
    ]:
        with pytest.raises(InputError) as e:
            parse_facet_lines(text.splitlines())
        assert str(e.value) == message, text


@pytest.mark.parametrize("variant", [
    "0\t1\t7\n1\t2\t7\n0\t2\t7\n",
    "0 1 7\r\n1 2 7\r\n0 2 7\r\n",
    "0\u00a01\u00a07\n1 2\u00a07\n0 2 7\n",
    "0 1 7 # first\n1 2 7#\n0 2 7  # last",
    "0 1 007\n01 02 7\n000 2 7\n",
    "-0 1 7\n1 2 7\n-0 2 7\n",
])
def test_facet_lines_read_alike_with_any_separators(tmp_path, variant):
    """Tabs, CRLF, no-break spaces, trailing comments, leading zeros and -0
    (read as label 0) give the complex of the plain file, from text and
    from a file."""
    want = read_complex_text("0 1 7\n1 2 7\n0 2 7\n")
    path = tmp_path / "variant.txt"
    path.write_bytes(variant.encode("utf-8"))
    assert read_complex_text(variant) == read_complex_file(path) == want
    assert want.facets == ((0, 1, 7), (0, 2, 7), (1, 2, 7))


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_text_and_file_split_lines_alike(tmp_path, sep):
    """Only \\n, \\r and \\r\\n end a line, in a string as in a file;
    str.splitlines() would also break at these separators."""
    path = tmp_path / "sep.txt"
    good = f"1 2 3{sep}4 5 6\n"
    path.write_bytes(good.encode("utf-8"))
    assert read_complex_text(good) == read_complex_file(path) == build_complex([range(1, 7)])
    bad = f"1 2 3{sep}4 5 6\n1 2 x\n"
    path.write_bytes(bad.encode("utf-8"))
    with pytest.raises(InputError) as from_text:
        read_complex_text(bad)
    with pytest.raises(InputError) as from_file:
        read_complex_file(path)
    assert str(from_text.value) == str(from_file.value) == "line 2: 'x' is not an integer label"


# label tokens, good and bad, and the separators that may stand between
# them: str.split() takes each separator as whitespace, and str.splitlines()
# would also end a line at \x0b, \x0c, \x1c-\x1e, \x85 and \u2028
PARSE_TOKENS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(("007", "00", "-0", "-3", "+1", "1_0", "\uff11", "x", "*", "1#2", BIG,
                     "9" * 4000, "-" + "9" * 4000, "--1", "1-")),
)
PARSE_SEPARATORS = st.sampled_from((" ", "  ", "\t", "\u00a0", "\x0b", "\x0c", "\x1c", "\x1d",
                                    "\x1e", "\x1f", "\x85", "\u2028"))


@st.composite
def facet_texts(draw):
    """Facet file texts of such tokens, with lone * lines, blank lines and
    comments, under LF, CR and CRLF line ends."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("facet", "facet", "facet", "star", "blank", "comment")))
        if kind == "facet":
            tokens = draw(st.lists(PARSE_TOKENS, min_size=1, max_size=5))
            line = draw(PARSE_SEPARATORS).join(tokens)
            if draw(st.booleans()):
                line = draw(PARSE_SEPARATORS) + line + draw(PARSE_SEPARATORS)
        else:
            line = {"star": "*", "blank": draw(PARSE_SEPARATORS), "comment": ""}[kind]
        if kind == "comment" or draw(st.integers(0, 4)) == 0:
            line += "# " + draw(st.sampled_from(("1 2", "x", "*", "")))
        out.append(line + draw(st.sampled_from(("\n", "\r", "\r\n"))))
    text = "".join(out)
    return text[:-1] if draw(st.booleans()) else text  # maybe with no end to the last line


def _parsed(parse, lines, error):
    try:
        return parse(lines)
    except error as e:
        return str(e)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=facet_texts(), keepends=st.booleans())
def test_parse_facet_lines_matches_the_line_by_line_oracle(text, keepends):
    """Checked at once, a text and its list of lines give the facets of the
    one-token-at-a-time oracle, or raise InputError with its message."""
    for lines in (text, text.splitlines(keepends)):
        want = _parsed(O.parse_facet_lines, lines, ValueError)
        assert _parsed(parse_facet_lines, lines, InputError) == want, lines


@pytest.fixture()
def octa_file(tmp_path, octa):
    path = tmp_path / "octa.txt"
    path.write_text(facet_file_text(octa))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(out):
    return json.loads(out)


def test_cli_analyze(octa_file, capsys):
    code, out, err = _run(capsys, ["analyze", octa_file])
    assert code == 0
    rep = _report(out)
    assert rep["tool"] == "simplicial"
    assert rep["input"]["path"] == octa_file
    digest = hashlib.sha256(open(octa_file, "rb").read()).hexdigest()
    assert rep["input"]["sha256"] == digest
    res = rep["results"]
    assert res["f_vector"] == [1, 6, 12, 8]
    assert res["h_vector"] == [1, 3, 3, 1]
    assert res["flag"]["ok"] is True
    assert res["pseudomanifold"]["ok"] is True
    assert "elapsed" in err


def test_cli_analyze_homology_torus(tmp_path, torus, capsys):
    path = tmp_path / "torus.txt"
    path.write_text(facet_file_text(torus))
    code, out, _ = _run(capsys, ["analyze", str(path), "--homology", "gf2"])
    assert code == 0
    hom = _report(out)["results"]["homology"]
    assert hom["field"] == "gf2"
    assert hom["betti"] == {"start_dim": -1, "values": [0, 0, 2, 1]}
    assert hom["homology_manifold"]["ok"] is True
    assert hom["homology_sphere"]["ok"] is False


def test_cli_analyze_void(tmp_path, capsys):
    path = tmp_path / "void.txt"
    path.write_text("")
    code, out, _ = _run(capsys, ["analyze", str(path), "--homology", "gf2"])
    assert code == 0
    res = _report(out)["results"]
    assert res["complex"]["void"] is True
    assert res["f_vector"] is None
    assert res["h_vector"] is None
    assert "note" in res["homology"]


def test_cli_verify_t1(octa_file, capsys):
    code, out, _ = _run(capsys, ["verify", "t1", octa_file])
    assert code == 0
    rep = _report(out)["results"]
    assert rep["status"] == "pass"
    assert rep["details"]["connectivity"] == 4


def test_cli_verify_t1_not_applicable(tmp_path, capsys):
    path = tmp_path / "hollow.txt"
    path.write_text("1 2\n1 3\n2 3\n")
    code, out, _ = _run(capsys, ["verify", "t1", str(path)])
    assert code == 4
    rep = _report(out)["results"]
    assert rep["status"] == "not-applicable"
    failed = [h for h in rep["hypotheses"] if not h["ok"]]
    assert failed and failed[0]["name"] == "flag"


def test_cli_verify_t2_icosahedron(tmp_path, icosa, capsys):
    path = tmp_path / "icosa.txt"
    path.write_text(facet_file_text(icosa))
    code, out, _ = _run(capsys, ["verify", "t2", str(path)])
    assert code == 0
    entry = _report(out)["results"]["details"]["results"][0]
    assert entry["branch_nodes"]
    assert entry["paths"]
    code, _, _ = _run(capsys, ["verify", "t2", str(path), "--all-facets"])
    assert code == 0


def test_cli_verify_t2_explicit_facet(octa_file, capsys):
    code, out, _ = _run(capsys, ["verify", "t2", octa_file, "--facet", "2 3 4"])
    assert code == 0
    for root in ("1 2 4", "1 2", "1 2 99"):
        code, out, err = _run(capsys, ["verify", "t2", octa_file, "--facet", root])
        assert (code, out) == (2, "")
        assert "not a facet" in err


def test_cli_verify_t3_gk_lb(octa_file, capsys):
    for argv in (["verify", "t3", octa_file],
                 ["verify", "t3", octa_file, "--field", "rational"],
                 ["verify", "gk", octa_file, "--k", "1"],
                 ["verify", "lb", octa_file]):
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        assert _report(out)["results"]["status"] == "pass"


def test_cli_verify_resource_cap(octa_file, capsys):
    code, _, err = _run(capsys, ["verify", "t3", octa_file, "--cap", "1"])
    assert code == 3
    assert "cap" in err


def test_cli_walk_face_mode(octa_file, capsys):
    code, out, _ = _run(capsys,
                        ["walk", octa_file, "--from", "2", "--to", "5",
                         "--avoid", "1,4", "--mode", "face"])
    assert code == 0
    res = _report(out)["results"]
    assert res["certificate"]["nodes"] == [2, 3, 5]
    assert res["verified"] is True
    assert res["avoidance_ok"] is True


def test_cli_walk_flag_mode_worked_example(octa_file, capsys):
    code, out, _ = _run(capsys,
                        ["walk", octa_file, "--from", "2", "--to", "5",
                         "--avoid", "1,3,6"])
    assert code == 0
    res = _report(out)["results"]
    assert res["mode"] == "flag"
    assert res["verified"] and res["avoidance_ok"]
    assert not {1, 3, 6} & set(res["certificate"]["nodes"])


@pytest.mark.parametrize("avoid", ["1,4_0", "1,\u0663", "1,+4", f"1,{BIG}"])
def test_cli_walk_rejects_non_ascii_digit_labels(octa_file, capsys, avoid):
    code, out, err = _run(capsys, ["walk", octa_file, "--from", "2", "--to", "5",
                                   "--avoid", avoid, "--mode", "face"])
    assert (code, out) == (2, "")
    assert "expected integer labels" in err
    assert all(len(line) < 120 for line in err.splitlines())


@pytest.mark.parametrize("src, dst", [("\u0662", "5"), ("2", "5_0")])
def test_cli_walk_endpoints_are_ascii_digits(octa_file, capsys, src, dst):
    code, out, err = _run(capsys, ["walk", octa_file, "--from", src, "--to", dst])
    assert (code, out) == (2, "")
    assert "ASCII digits" in err


@pytest.mark.parametrize("mode", ["face", "flag"])
def test_cli_walk_needs_dimension_one(tmp_path, capsys, mode):
    path = tmp_path / "two_points.txt"
    path.write_text("1\n2\n")
    code, out, err = _run(capsys, ["walk", str(path), "--from", "1", "--to", "2",
                                   "--mode", mode])
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: walks need a complex of dimension at least one"


def test_cli_walk_zero_length(octa_file, capsys):
    code, out, _ = _run(capsys, ["walk", octa_file, "--from", "3", "--to", "3"])
    assert code == 0
    assert _report(out)["results"]["certificate"]["nodes"] == [3]


def test_cli_walk_oversized_avoid(octa_file, capsys):
    code, _, err = _run(capsys,
                        ["walk", octa_file, "--from", "1", "--to", "4",
                         "--avoid", "2,3,5,6"])
    assert code == 2
    assert "fewer than 4" in err


def test_cli_walk_flags_failed_self_verification(octa_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_strong_walk",
                        lambda cx, cert: Verdict(False, witness={"clause": "edge"}))
    code, out, _ = _run(capsys,
                        ["walk", octa_file, "--from", "2", "--to", "5"])
    assert code == 1
    res = _report(out)["results"]
    assert res["verified"] is False
    assert "suspect" in res["flag"]


def test_cli_internal_invariant_maps_to_one(octa_file, capsys, monkeypatch):
    def boom(cx, a, b, avoid, cap):
        raise InternalInvariantError("forced")

    monkeypatch.setattr(cli, "strong_walk_avoiding_set", boom)
    code, _, err = _run(capsys, ["walk", octa_file, "--from", "2", "--to", "5"])
    assert code == 1
    assert "suspect" in err


def test_cli_gen_and_round_trip(tmp_path, capsys, octa):
    code, out, _ = _run(capsys, ["gen", "cross-polytope", "3"])
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    assert read_complex_text(out) == octa
    path = tmp_path / "gen.txt"
    path.write_text(out)
    code, out2, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0
    res = _report(out2)["results"]
    assert res["flag"]["ok"] and res["pseudomanifold"]["ok"]


def test_cli_gen_icosahedron_and_derived(tmp_path, capsys):
    code, out, _ = _run(capsys, ["gen", "icosahedron"])
    assert code == 0
    assert len(out.strip().splitlines()) == 20
    src = tmp_path / "ico.txt"
    src.write_text(out)
    code, out, _ = _run(capsys, ["gen", "barycentric", "--of", str(src)])
    assert code == 0
    assert len(out.strip().splitlines()) == 120  # 20 triangles, 6 chains each
    code, out, _ = _run(capsys, ["gen", "suspension", "--of", str(src)])
    assert code == 0
    assert read_complex_text(out).dimension == 3


def test_cli_gen_misuse(octa_file, capsys):
    for argv, message in [
        (["icosahedron", "5"], "generator icosahedron takes no parameters"),
        (["torus7", "--of", octa_file], "generator torus7 takes no parameters"),
        (["cycle"], "generator cycle needs a size argument"),
        (["cycle", "--of", octa_file], "generator cycle needs a size argument"),
        (["cycle", "5", "--of", octa_file], "generator cycle does not read an input complex"),
        (["cycle", "5", "--of", ""], "generator cycle does not read an input complex"),
        (["icosahedron", "--of", ""], "generator icosahedron takes no parameters"),
        (["barycentric"], "generator barycentric needs --of FILE"),
        (["barycentric", "3"], "generator barycentric needs --of FILE"),
        (["barycentric", "3", "--of", octa_file],
         "generator barycentric takes no size argument"),
    ]:
        code, out, err = _run(capsys, ["gen"] + argv)
        assert (code, out) == (2, ""), argv
        assert err.splitlines()[0] == f"error: {message}", argv
    assert _run(capsys, ["gen", "nope"])[0] == 2
    code, out, _ = _run(capsys, ["gen", "cycle", "5", "--cap", "1"])
    assert (code, out) == (2, "")


def test_cli_negative_cap_is_a_usage_error(octa_file, capsys):
    code, out, err = _run(capsys, ["analyze", octa_file, "--cap", "-1"])
    assert (code, out) == (2, "")
    assert "--cap" in err and "0 or more" in err
    # zero parses, and trips at the first candidate nonface
    assert _run(capsys, ["analyze", octa_file, "--cap", "0"])[0] == 3


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "\u0665"],  # Arabic-Indic five
    ["gen", "cycle", "1_0"],
    ["verify", "gk", None, "--k", "\u0661"],  # Arabic-Indic one
    ["verify", "gk", None, "--k", "1_0"],
])
def test_cli_gen_size_and_k_are_ascii_digits(octa_file, capsys, argv):
    argv = [octa_file if a is None else a for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "ASCII digits" in err


@pytest.mark.parametrize("argv", [
    ["analyze", None, "--cap", BIG],
    ["verify", "gk", None, "--k", BIG],
    ["walk", None, "--from", BIG, "--to", "1"],
    ["walk", None, "--from", "1", "--to", BIG],
    ["verify", "t2", None, "--facet", f"1 2 {BIG}"],
])
def test_cli_numbers_past_the_digit_limit_are_usage_errors(octa_file, capsys, argv):
    argv = [octa_file if a is None else a for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err


def test_cli_usage_errors(octa_file, capsys):
    assert _run(capsys, ["verify", "zz", octa_file])[0] == 2
    assert _run(capsys, ["analyze", "/does/not/exist"])[0] == 2
    assert _run(capsys, ["verify", "gk", octa_file, "--k", "7"])[0] == 2


@pytest.mark.parametrize("command", [["analyze"], ["gen", "barycentric", "--of"]])
def test_cli_non_utf8_file_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2 3\n\xff\xfe1 2 4\n")
    code, out, err = _run(capsys, command + [str(path)])
    assert (code, out) == (2, "")
    assert str(path) in err and "byte 6" in err


def test_cli_parse_error_carries_line_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    for line, message in [
        ("2 2 3", "line 2: repeated label in facet"),
        (f"1 2 {BIG}", "line 2: '99999999999999999999…' (5000 characters) is not an integer label"),
    ]:
        path.write_text(f"1 2\n{line}\n")
        code, out, err = _run(capsys, ["analyze", str(path)])
        assert (code, out) == (2, ""), line
        assert err.splitlines()[0] == f"error: {message}", line
        assert all(len(err_line) < 120 for err_line in err.splitlines()), line


def test_cli_reports_are_byte_identical(octa_file, capsys):
    _, out1, _ = _run(capsys, ["analyze", octa_file, "--homology", "gf3"])
    _, out2, _ = _run(capsys, ["analyze", octa_file, "--homology", "gf3"])
    assert out1 == out2
    _, out3, _ = _run(capsys, ["verify", "t2", octa_file, "--all-facets"])
    _, out4, _ = _run(capsys, ["verify", "t2", octa_file, "--all-facets"])
    assert out3 == out4


def test_cli_out_file_matches_stdout(octa_file, tmp_path, capsys):
    dest = tmp_path / "out.txt"
    for argv in (["verify", "t1", octa_file], ["gen", "cycle", "5"]):
        code, out, _ = _run(capsys, argv + ["--out", str(dest)])
        assert (code, out) == (0, ""), argv
        _, out2, _ = _run(capsys, argv)
        assert dest.read_text() == out2, argv


def test_cli_version_flag(capsys):
    code, out, _ = _run(capsys, ["--version"])
    assert code == 0
    assert out.strip() == cli.__version__


def test_cli_seed_is_a_usage_error(octa_file, capsys):
    code, out, _ = _run(capsys, ["verify", "t1", octa_file, "--seed", "7"])
    assert code == 2
    assert out == ""


def test_read_complex_file_missing(tmp_path):
    with pytest.raises(OSError):
        read_complex_file(tmp_path / "missing.txt")


# a number of 4000 digits parses, so each message names it, cut like quote_input
LONG = "9" * 4000


def test_cli_negative_long_label_is_named_in_short(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text(f"1 2 -{LONG}\n")
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert (code, out) == (2, "")
    assert "line 1: negative label -9999999999999999999… (4001 characters)" in err
    assert all(len(line) < 120 for line in err.splitlines())


def test_cli_walk_long_avoided_label_is_named_in_short(octa_file, capsys):
    code, out, err = _run(capsys, ["walk", octa_file, "--from", "2", "--to", "5",
                                   "--avoid", f"1,{LONG}", "--mode", "face"])
    assert (code, out) == (2, "")
    assert "avoided labels [99999999999999999999… (4000 characters)] are not vertices" in err
    assert all(len(line) < 120 for line in err.splitlines())


# tokens a facet line refuses (signs, fractions, non-ASCII digits, separators
# inside a label, a * beside labels) and one it takes, a label past 2**64
JUNK_TOKENS = ("-1", "x", "1.5", "+2", "\u0663", "2_0", "*", "0x3", "9" * 30)


# spheres under 12 vertices, on which the walk and theorem checks get past
# their hypotheses
FUZZ_SPHERES = tuple(
    facet_file_text(cx).splitlines()
    for cx in (cycle(5), simplex_boundary(3), cross_polytope_boundary(3),
               cross_polytope_boundary(4))
)


@st.composite
def facet_file_bytes(draw):
    """Facet files on labels 0..11: a sphere's facet lines or random ones,
    mixed with junk tokens, comments and blank lines under any line ending,
    or arbitrary bytes."""
    kind = draw(st.sampled_from(("bytes", "random", "sphere", "sphere")))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    label = st.integers(0, 11).map(str)
    comment = st.one_of(st.just(""), st.text(max_size=10).map(lambda t: "# " + t))
    noise = st.one_of(
        st.lists(st.one_of(label, st.sampled_from(JUNK_TOKENS)), max_size=4).map(" ".join),
        comment,
        st.just("*"),
    )
    if kind == "sphere":
        lines = list(draw(st.sampled_from(FUZZ_SPHERES)))
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(comment))
    else:
        facet = st.lists(label, min_size=1, max_size=5, unique=True).map(" ".join)
        lines = draw(st.lists(st.one_of(facet, noise), max_size=8))
    if draw(st.booleans()):
        lines = [line.replace(" ", "\t") + " # facet" for line in lines]
    return draw(st.sampled_from(("\n", "\r\n", "\r"))).join(lines).encode()


@st.composite
def cli_argvs(draw, path):
    """An argv for every command, with options drawn valid or not, and a
    random --cap."""
    labels = st.lists(st.integers(0, 9).map(str), max_size=2)
    field = st.sampled_from(("gf2", "gf3", "gf5", "rational", "gf4", "real"))
    command = draw(st.sampled_from(("analyze", "verify", "walk", "gen")))
    if command == "analyze":
        argv = ["analyze", path]
        if draw(st.booleans()):
            argv += ["--homology", draw(field)]
    elif command == "verify":
        argv = ["verify", draw(st.sampled_from(("t1", "t2", "t3", "gk", "lb"))), path,
                "--field", draw(field), "--k", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv += ["--facet", " ".join(draw(labels))]
        if draw(st.booleans()):
            argv.append("--all-facets")
    elif command == "walk":
        argv = ["walk", path, "--from", str(draw(st.integers(0, 9))),
                "--to", str(draw(st.integers(0, 9))), "--avoid", ",".join(draw(labels)),
                "--mode", draw(st.sampled_from(("face", "flag")))]
    else:  # mostly the arguments the generator takes; gen has no --cap
        name = draw(st.sampled_from(("barycentric", "suspension", "cycle", "cross-polytope",
                                     "simplex-boundary", "icosahedron", "nope")))
        argv = ["gen", name]
        sized = name in ("cycle", "cross-polytope", "simplex-boundary")
        if draw(st.integers(0, 4)) == 0 or sized:
            argv.append(str(draw(st.integers(0, 5))))
        if draw(st.integers(0, 4)) == 0 or name in ("barycentric", "suspension"):
            argv += ["--of", path]
    if draw(st.integers(0, 9 if command == "gen" else 2)) == 0:
        argv += ["--cap", str(draw(st.integers(-1, 400)))]
    return argv


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "facets.txt")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_cli_front_door_exits_cleanly_on_any_input(fuzz_path, data):
    """Every command on malformed, binary and comment-laden facet files under
    12 vertices exits 0 to 4 and prints no traceback."""
    with open(fuzz_path, "wb") as fh:
        fh.write(data.draw(facet_file_bytes(), label="file"))
    argv = data.draw(cli_argvs(fuzz_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert 0 <= code <= 4, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
