import json

import pytest
from click.testing import CliRunner

from eqctt import config
from eqctt.cli import main


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
