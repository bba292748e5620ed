import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from eqctt import config
from eqctt.cli import main
from eqctt.parser import tokenize

from conftest import CORPUS


@pytest.fixture(autouse=True)
def reset_config():
    saved = (config.CONFIG.k_max, config.CONFIG.dim, config.CONFIG.budget,
             config.CONFIG.json_output)
    yield
    (config.CONFIG.k_max, config.CONFIG.dim, config.CONFIG.budget,
     config.CONFIG.json_output) = saved


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


NO_ENV = {"EQCTT_KMAX": None, "EQCTT_DIM": None, "EQCTT_BUDGET": None}


def test_config_defaults():
    r = run("cof", "entails", "tt", "tt", env=NO_ENV)
    assert r.exit_code == 0
    assert config.CONFIG.k_max == 4
    assert config.CONFIG.dim == 3


def test_config_flag_overrides_env():
    r = run("--kmax", "2", "cof", "entails", "tt", "tt",
            env={"EQCTT_KMAX": "3"})
    assert r.exit_code == 0
    assert config.CONFIG.k_max == 2
    r = run("cof", "entails", "tt", "tt", env={"EQCTT_KMAX": "3"})
    assert r.exit_code == 0
    assert config.CONFIG.k_max == 3


def test_config_rejects_invalid():
    r = run("--kmax", "0", "cof", "entails", "tt", "tt")
    assert r.exit_code == 2
    r = run("cof", "entails", "tt", "tt", env={"EQCTT_KMAX": "0"})
    assert r.exit_code == 2


def test_config_not_carried_between_invocations():
    assert run("--kmax", "6", "cof", "entails", "tt", "tt",
               env=NO_ENV).exit_code == 0
    assert run("cof", "entails", "tt", "tt", env=NO_ENV).exit_code == 0
    assert config.CONFIG.k_max == 4


def test_kmax_zero_is_usage_error():
    r = run("--kmax", "0", "lab", "hom-count", "1", "1")
    assert r.exit_code == 2


def test_check_corpus_ok(corpus_dir):
    r = run("check", str(corpus_dir / "funext.ectt"))
    assert r.exit_code == 0


def test_check_bad_boundary_exit1(corpus_dir):
    r = run("check", str(corpus_dir / "bad-boundary.ectt"))
    assert r.exit_code == 1
    assert "BoundaryMismatch" in r.output


def test_check_missing_file_exit2():
    r = run("check", "no-such-file.ectt")
    assert r.exit_code == 2


def test_check_parse_error_exit1(tmp_path):
    p = tmp_path / "broken.ectt"
    p.write_text("def t : U0 = =")
    r = run("check", str(p))
    assert r.exit_code == 1
    assert "SyntaxError" in r.output


def test_check_json_schema(corpus_dir):
    r = run("--json", "check", str(corpus_dir / "funext.ectt"))
    assert r.exit_code == 0
    report = json.loads(r.output)
    assert set(report) == {"file", "decls"}
    for d in report["decls"]:
        assert set(d) == {"name", "status", "diagnostics"}
        assert d["status"] == "ok"


def test_normalize(corpus_dir):
    r = run("normalize", str(corpus_dir / "comps.ectt"), "--def", "c2")
    assert r.exit_code == 0
    assert "comp^1" in r.output


def test_normalize_unknown_name(corpus_dir):
    r = run("normalize", str(corpus_dir / "comps.ectt"), "--def", "nope")
    assert r.exit_code == 1


def test_normalize_guard_top_prints_branch_at_target(tmp_path):
    p = tmp_path / "t.ectt"
    p.write_text("postulate A : U0\npostulate a : A\n"
                 "def t : A = comp^1 (i. A) [ tt -> i. a ] a : 0 ~> 1\n")
    r = run("normalize", str(p), "--def", "t")
    assert r.exit_code == 0
    assert r.output.strip() == "a"


def test_diagnostics_print_user_names(tmp_path):
    # free generated names print by their hint, whatever ran before
    p = tmp_path / "names.ectt"
    p.write_text("postulate A : U0\npostulate a : A\npostulate b : A\n"
                 "def f : (x : A) -> Path (i. A) x a = \\x. <i> b\n"
                 "def g : (y : A) -> Path (i. A) y a = \\y. <i> b\n")
    first, second = run("check", str(p)), run("check", str(p))
    assert first.exit_code == 1
    assert first.output == second.output
    assert "expected: x\n" in first.output
    assert "expected: y\n" in first.output
    assert "%" not in first.output


def test_kernel_error_is_an_internal_error(tmp_path, monkeypatch):
    from eqctt.semantics import KernelError

    def broken(env, t):
        raise KernelError("broken invariant")

    monkeypatch.setattr("eqctt.typecheck.eval_term", broken)
    p = tmp_path / "t.ectt"
    p.write_text("postulate A : U0\n")
    r = run("--json", "check", str(p))
    assert r.exit_code == 1
    assert "Traceback" not in r.output
    [decl] = json.loads(r.output)["decls"]
    assert decl["status"] == "error"
    assert [d["code"] for d in decl["diagnostics"]] == ["InternalError"]


def test_normalize_deterministic(corpus_dir):
    a = run("--json", "normalize", str(corpus_dir / "j.ectt"), "--def", "J")
    b = run("--json", "normalize", str(corpus_dir / "j.ectt"), "--def", "J")
    assert a.output == b.output


def test_cof_entails():
    r = run("cof", "entails", r"i = 0 /\ i = 1", "ff")
    assert r.exit_code == 0
    assert r.output.strip() == "true"
    r = run("cof", "entails", r"i = 0 \/ i = 1", "i = 0")
    assert r.output.strip() == "false"


def test_lab_hom_count():
    r = run("lab", "hom-count", "1", "1")
    assert r.output.strip() == "3"
    # the closed form: the 18**16 maps are counted, not built
    r = run("lab", "hom-count", "16", "16")
    assert r.exit_code == 0
    assert r.output.strip() == str(18 ** 16)


@pytest.mark.parametrize("dim", [16, 17])
def test_lab_ez_factor_of_a_large_identity(dim):
    # monos are recognized by their tables, so no hom-set is enumerated:
    # I^17 is past the hom enumeration bound
    table = ",".join(str(j) for j in range(1, dim + 1))
    r = run("--json", "lab", "ez-factor", "--dom", str(dim), "--cod", str(dim),
            "--table", table)
    assert r.exit_code == 0 and r.exception is None
    assert "Traceback" not in r.output
    report = json.loads(r.output)["result"]
    assert report["mono_cancellable"] is True and report["composes"] is True


def test_lab_reports_release_a_redirected_stdout():
    # an in-process caller that swaps a buffer in for stdout per invocation
    # gets it back: nothing keeps the buffer, so memory does not grow with
    # the number of invocations
    buf = io.StringIO()
    ref = weakref.ref(buf)
    with contextlib.redirect_stdout(buf):
        main(["--json", "lab", "hom-count", "1", "1"], standalone_mode=False)
    assert json.loads(buf.getvalue())["result"] == 3
    del buf
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "human"])
def test_check_reports_release_a_redirected_stdout(flags):
    # the same holds for check, in both output modes
    buf = io.StringIO()
    ref = weakref.ref(buf)
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit:
        main([*flags, "check", str(CORPUS / "j.ectt")], standalone_mode=False)
    assert exit.value.code == 0
    out = buf.getvalue()
    if flags:
        assert {d["name"]: d["status"]
                for d in json.loads(out)["decls"]}["J"] == "ok"
    else:
        assert "J: ok" in out.splitlines()
    del buf
    gc.collect()
    assert ref() is None


def test_lab_iso_json_golden():
    a = run("--json", "lab", "iso", "--lhs", "T(I2/S2)", "--rhs", "Delta2")
    b = run("--json", "lab", "iso", "--lhs", "T(I2/S2)", "--rhs", "Delta2")
    assert a.exit_code == 0
    assert a.output == b.output  # byte-stable in json mode
    rep = json.loads(a.output)
    assert rep["result"] == "isomorphic"
    assert "witness" in rep


def test_lab_iso_refuted():
    r = run("--json", "lab", "iso", "--lhs", "Delta1", "--rhs", "Delta2")
    rep = json.loads(r.output)
    assert rep["result"] == "not-isomorphic"
    assert "refutation" in rep


def test_lab_lift_check_identity_passes():
    r = run("--json", "--dim", "2", "lab", "lift-check", "--map", "id(I1)",
            "--nmax", "0", "--kmax", "1")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["passed"] is True


def test_lab_lift_check_horn_fails():
    r = run("--json", "lab", "lift-check", "--map", "horn->1",
            "--nmax", "1", "--kmax", "1")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["passed"] is False
    assert "refutation" in rep


def test_lab_open_box():
    r = run("--json", "lab", "open-box", "--n", "0", "--k", "1",
            "--zeta", "b", "--sub", "empty")
    rep = json.loads(r.output)
    assert rep["cell-counts"]["domain"] == [1, 1, 1, 1]
    assert rep["result"]["levelwise-injective"] is True


def test_lab_quotient():
    r = run("--json", "lab", "quotient", "I2", "S2")
    rep = json.loads(r.output)
    assert rep["cell-counts"] == [3, 6, 10, 15]


@pytest.mark.parametrize("args", [
    ("quotient", "I1*I1", "S2"), ("quotient", "I2", "S3"),
    ("quotient", "I2", "S1"), ("quotient", "1", "S1"),
    ("quotient", "Delta1", "S1"), ("triangulate", "(I1*I1)/S2")], ids=" ".join)
def test_lab_quotient_needs_matching_representable(args):
    # S<n> permutes axes only of cells that are maps into I^n
    r = run("lab", *args)
    assert r.exit_code == 2
    assert "I^" in r.output


def test_lab_budget_exceeded_exit3():
    r = run("--budget", "1", "lab", "iso", "--lhs", "T(I2/S2)",
            "--rhs", "Delta2")
    assert r.exit_code == 3


def test_lab_lift_budget_exceeded_exit3():
    # one budget caps the whole check: top candidates and uniformity nodes
    r = run("--json", "--budget", "5", "--dim", "2", "lab", "lift-check",
            "--map", "1->1", "--nmax", "1", "--kmax", "1")
    assert r.exit_code == 3
    assert json.loads(r.output)["result"] == "budget-exceeded"


@pytest.mark.parametrize("obj", ["I9", "I3*I3*I3"])
def test_lab_objects_are_charged_before_they_are_built(obj):
    # 7 780 859 action-table entries each at --dim 2
    r = run("--json", "--dim", "2", "lab", "triangulate", obj)
    assert r.exit_code == 3
    report = json.loads(r.output)
    assert report["result"] == "budget-exceeded"
    assert "7780859 action-table entries" in report["detail"]


@pytest.mark.parametrize("obj, dim, entries", [
    ("I0", "7", 9197344), ("1", "7", 9197344), ("horn", "5", 1611709),
    ("Delta1", "8", 848143)])
def test_every_lab_object_is_charged(obj, dim, entries):
    # 1 is charged as I0, horn as the I2 it sits in, Delta<n> by the table
    # size of the simplex site
    r = run("--json", "--dim", dim, "lab", "triangulate", obj)
    assert r.exit_code == 3
    assert f"{entries} action-table entries" in json.loads(r.output)["detail"]


@pytest.mark.parametrize("budget, code", [("31866", 0), ("31865", 3)])
def test_lab_object_budget_is_the_table_size(budget, code):
    # I3 at --dim 3: the sum over maps f of |I3 at f.cod| is 31 866
    r = run("--budget", budget, "--dim", "3", "lab", "triangulate", "I3")
    assert r.exit_code == code, r.output


@pytest.mark.parametrize("bounds", [("--nmax", "-1", "--kmax", "1"),
                                    ("--nmax", "0", "--kmax", "0")],
                         ids=" ".join)
def test_lab_lift_check_rejects_empty_bounds(bounds):
    # no box has n < 0 or k < 1, so these bounds would pass vacuously
    r = run("--json", "--dim", "2", "lab", "lift-check", "--map", "1->1",
            *bounds)
    assert r.exit_code == 2


def test_lab_lift_check_nmax_beyond_dim():
    # a box needs n + k <= D with k >= 1, so --nmax above D - 1 adds nothing
    reports = [json.loads(run("--json", "--dim", "2", "lab", "lift-check",
                              "--map", "1->1", "--nmax", nmax,
                              "--kmax", "1").output)
               for nmax in ("1", "3")]
    for key in ("boxes", "squares", "passed"):
        assert reports[0][key] == reports[1][key]


@pytest.mark.parametrize("args", [("hom-count", "17", "1"),
                                  ("ez-factor", "--dom", "2", "--cod", "1",
                                   "--table", "x")], ids=" ".join)
def test_lab_value_errors_are_usage_errors(args):
    r = run("lab", *args)
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    assert "Error:" in r.output


@pytest.mark.parametrize("args", [
    ("hom-count", "--", "-1", "2"), ("hom-count", "1", "-2"),
    ("ez-factor", "--dom", "-1", "--cod", "0", "--table", ""),
    ("ez-factor", "--dom", "0", "--cod", "-1", "--table", ""),
    ("open-box", "--n", "1", "--k", "0", "--zeta", ""),
    ("open-box", "--n", "-1", "--k", "1", "--zeta", "b"),
    ("automorphisms", "0")], ids=" ".join)
def test_lab_dimensions_out_of_range_are_usage_errors(args):
    r = run("lab", *args)
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    assert "Error:" in r.output


def test_lab_lift_budget_covers_subobjects():
    # the object 1 costs 296 action-table entries at --dim 3, within the
    # budget; the subobjects of I^2 cost 306 units, and tops and lifts come
    # after
    r = run("--dim", "3", "--budget", "300", "lab", "lift-check",
            "--map", "1->1", "--nmax", "2", "--kmax", "1")
    assert r.exit_code == 3
    assert "lift check exceeded budget 300" in r.output


@pytest.mark.parametrize("depth, code", [(150, 0), (600, 1)])
def test_check_deep_nesting(tmp_path, depth, code):
    # past the parser's depth limit a DepthLimit diagnostic, not a
    # RecursionError, reports the module
    body = "a"
    for _ in range(depth):
        body = f"f ({body})"
    p = tmp_path / "deep.ectt"
    p.write_text("postulate A : U0\npostulate a : A\n"
                 f"postulate f : A -> A\ndef t : A = {body}\n")
    r = run("--json", "check", str(p))
    assert r.exit_code == code
    assert r.exception is None or isinstance(r.exception, SystemExit)
    report = json.loads(r.output)
    if code:
        [decl] = report["decls"]
        assert decl["name"] == "<parse>" and decl["status"] == "error"
        assert [d["code"] for d in decl["diagnostics"]] == ["DepthLimit"]


@pytest.mark.parametrize("op", ["\\/", "/\\"])
@pytest.mark.parametrize("operands, code", [(100, 0), (600, 1)])
def test_check_long_cof_chain(tmp_path, op, operands, code):
    # each operand nests a chain one level deeper, so a guard past the
    # parser's depth limit gets a DepthLimit diagnostic, not a RecursionError
    guard = f" {op} ".join(["i = 0"] * operands)
    p = tmp_path / "chain.ectt"
    p.write_text("postulate A : U0\npostulate a : A\n"
                 "def t : Path (k. A) a (comp^1 (j. A) [] a : 0 ~> 1)\n"
                 f"  = <i> comp^1 (j. A) [{guard} -> j. a] a : 0 ~> 1\n")
    r = run("--json", "check", str(p))
    assert r.exit_code == code
    assert r.exception is None or isinstance(r.exception, SystemExit)
    [*_, decl] = json.loads(r.output)["decls"]
    if code:
        assert decl["name"] == "<parse>" and decl["status"] == "error"
        assert [d["code"] for d in decl["diagnostics"]] == ["DepthLimit"]
    else:
        assert decl["name"] == "t" and decl["status"] == "ok"


@pytest.mark.parametrize("operands, code, out", [
    (100, 0, "true"), (600, 2, "terms nest deeper than")])
def test_cof_entails_long_chain(operands, code, out):
    r = run("cof", "entails", " \\/ ".join(["i = 0"] * operands), "i = 0")
    assert r.exit_code == code
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert out in r.output


@pytest.mark.parametrize("args", [
    ("lab", "triangulate", "T(horn)"), ("lab", "quotient", "horn", "S1"),
    ("lab", "iso", "--lhs", "horn", "--rhs", "horn"),
    ("lab", "lift-check", "--map", "horn->1", "--nmax", "0", "--kmax", "1")],
    ids=" ".join)
def test_horn_beyond_dim_is_usage_error(args):
    # the horn is a box with n + k = 2, which --dim 1 truncates away
    r = run("--dim", "1", *args)
    assert r.exit_code == 2
    assert "truncation bound" in r.output


@pytest.mark.parametrize("map_expr", ["Delta1->1", "Delta0->1", "id(Delta1)",
                                      "T(I1)->1", "id(T(I1))"])
def test_lab_lift_check_needs_a_cubical_object(map_expr):
    r = run("--dim", "2", "lab", "lift-check", "--map", map_expr,
            "--nmax", "0", "--kmax", "1")
    assert r.exit_code == 2
    assert "lift-check needs a cubical object" in r.output


# ---------------------------------------------------------------------------
# fuzzing: no input ends in a traceback

_OBJECTS = ["horn", "Delta1", "Delta0", "T(I1)", "I2/S2", "I1", "1", "I0",
            "I1*I1", "T(I2/S2)", "(I1)", "I3", "Delta", "T(", "I1*", "/S2",
            "horn)", "x", ""]
_MAPS = [f"{x}->1" for x in _OBJECTS] + [f"id({x})" for x in _OBJECTS] + [
    "->1", "id(", "I1->2", "", "horn"]
_ints = st.integers(-1, 3).map(str)
_tables = st.lists(st.sampled_from(["b", "t", "1", "2", "x", ""]),
                   max_size=3).map(",".join)


def _opts(**choices):
    """Each option with a drawn value, in random order; some left out."""
    return st.tuples(*(st.one_of(st.just(()), st.tuples(st.just(f"--{o}"), v))
                       for o, v in choices.items())).flatmap(
        lambda parts: st.permutations([t for p in parts for t in p]))


def _argv(command, *parts):
    """The command, then each part: one argument or a list of them."""
    return st.tuples(*parts).map(lambda ps: [command, *(
        a for p in ps for a in ([p] if isinstance(p, str) else p))])


_LAB = st.one_of(
    _argv("hom-count", _ints, _ints),
    _argv("automorphisms", _ints),
    _argv("ez-factor", _opts(dom=_ints, cod=_ints, table=_tables)),
    _argv("quotient", st.sampled_from(_OBJECTS),
          st.sampled_from(["S1", "S2", "S3", "T2", ""])),
    _argv("triangulate", st.sampled_from(_OBJECTS)),
    _argv("iso", _opts(lhs=st.sampled_from(_OBJECTS),
                       rhs=st.sampled_from(_OBJECTS))),
    _argv("lift-check", _opts(map=st.sampled_from(_MAPS),
                              nmax=st.integers(-1, 1).map(str),
                              kmax=st.integers(0, 1).map(str))),
    _argv("open-box", _opts(n=_ints, k=_ints, zeta=_tables,
                            sub=st.sampled_from(["empty", "full", "v0", "v1",
                                                 "v2"]))))


def _exits_cleanly(r):
    assert r.exit_code in (0, 1, 2, 3), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        repr(r.exception))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["1", "2"]), st.booleans(), _LAB)
def test_lab_fuzz_exits_cleanly(dim, json_output, args):
    _exits_cleanly(run(*(["--json"] if json_output else []), "--dim", dim,
                       "lab", *args))


_CORPUS_TOKENS = [[text for _, text, _ in tokenize(p.read_text())]
                  for p in sorted(CORPUS.glob("*.ectt"))]
_VOCAB = sorted({t for ts in _CORPUS_TOKENS for t in ts}) + ["%", "#", "0x"]


@st.composite
def _token_streams(draw):
    """Random tokens, or a corpus file with a few slices cut or repeated
    and a few tokens replaced."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_VOCAB), max_size=40))
    toks = list(draw(st.sampled_from(_CORPUS_TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(toks)))
        j = draw(st.integers(i, min(len(toks), i + 8)))
        edit = draw(st.sampled_from(["cut", "repeat", "replace"]))
        if edit == "cut":
            toks[i:j] = []
        elif edit == "repeat":
            toks[i:i] = toks[i:j]
        else:
            toks[i:j] = draw(st.lists(st.sampled_from(_VOCAB), max_size=3))
    return toks


@settings(max_examples=200, deadline=None)
@given(st.booleans(), _token_streams())
def test_check_fuzz_exits_cleanly(tmp_path_factory, json_output, toks):
    p = tmp_path_factory.getbasetemp() / "fuzz.ectt"
    p.write_text(" ".join(toks))
    _exits_cleanly(run(*(["--json"] if json_output else []), "check", str(p)))
