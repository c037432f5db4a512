import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

import fusionring as fr
from conftest import REPO_ROOT, cli_env, on_isolation_grid, report_csv_reference, report_text_reference, same_fusion_rules, su2_ring
from fusionring import classify
from fusionring.algebraic import Quadratic
from fusionring.cli import main
from fusionring.ringfile import alg_to_dict, dumps_report, dumps_ring, load_ring, loads_ring


GOLDEN = REPO_ROOT / "tests" / "golden"


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_build_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "r.ring"
    code, out, err = run_cli(["build", "neargroup", "--group", "2,2", "--level", "4", "--out", str(path)], capsys)
    assert code == 0
    ring = load_ring(str(path))
    assert same_fusion_rules(ring, fr.near_group((2, 2), 4))
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 0 and "ok" in out


def test_build_group_and_haagerup(tmp_path, capsys):
    for args, expect in (
        (["build", "group", "--group", "2"], fr.group_ring((2,))),
        (["build", "haagerup-izumi", "--group", "3"], fr.haagerup_izumi((3,))),
        (
            ["build", "uniform", "--group", "3", "--stab", "trivial", "--theta", "inversion", "--k", "1"],
            fr.haagerup_izumi((3,)),
        ),
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 0
        assert same_fusion_rules(loads_ring(out), expect)


S3_TABLE = {
    "group_order": 6,
    "root_order": 1,
    "class_sizes": [1, 3, 2],
    "values": [[[1], [1], [1]], [[1], [-1], [1]], [[2], [0], [-1]]],
}


def test_build_charring(tmp_path, capsys):
    path = tmp_path / "s3.table"
    path.write_text(json.dumps(S3_TABLE))
    code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
    assert code == 0
    ring = loads_ring(out)
    assert ring.rank == 3


def test_build_charring_validates_the_table_once(tmp_path, capsys, monkeypatch):
    from fusionring.construct import CharacterTable

    validate = CharacterTable.validate
    calls = []
    monkeypatch.setattr(CharacterTable, "validate", lambda table: calls.append(table) or validate(table))
    path = tmp_path / "s3.table"
    path.write_text(json.dumps(S3_TABLE))
    code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("class_sizes", 6),
        ("values", 5),
        ("values", [[[1], [1], [1]], 7, [[2], [0], [-1]]]),
        ("class_sizes", ["1", 3, 2]),
    ],
    ids=["class-sizes-not-a-list", "values-not-a-list", "row-not-a-list", "class-size-a-string"],
)
def test_build_charring_malformed_table_exits_2(field, value, tmp_path, capsys):
    path = tmp_path / "bad.table"
    path.write_text(json.dumps({**S3_TABLE, field: value}))
    code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err


TRIVIAL_TABLE = {"group_order": 1, "root_order": 1, "class_sizes": [1], "values": [[[1]]]}


@pytest.mark.parametrize(
    "table",
    [
        {**TRIVIAL_TABLE, "group_order": True},
        {**S3_TABLE, "root_order": True},
        {**S3_TABLE, "class_sizes": [True, 3, 2]},
        {**S3_TABLE, "values": [[[True], [1], [1]], [[1], [-1], [1]], [[2], [0], [-1]]]},
    ],
    ids=["group-order", "root-order", "class-size", "coefficient"],
)
def test_build_charring_rejects_booleans(table, tmp_path, capsys):
    # each table is valid with its boolean read as the integer 1
    path = tmp_path / "t.table"
    path.write_text(json.dumps(table).replace("true", "1"))
    assert run_cli(["build", "charring", "--table", str(path)], capsys)[0] == 0
    path.write_text(json.dumps(table))
    code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
    assert code == 2 and out == "" and "integer" in err


def test_verify_broken_exits_2(tmp_path, capsys):
    ring = fr.group_ring((2,))
    doc = json.loads(dumps_ring(ring))
    doc["tensor"][1][1][0] = 2
    path = tmp_path / "broken.ring"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert "duality-pairing" in err


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "garbage.ring"
    path.write_text("{not json")
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"rank": 2, "labels": ["a"], "dual": [0, 1], "tensor": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
        {"rank": 1, "labels": ["e"], "dual": [0]},
        {"rank": 2, "labels": ["a", "b"], "dual": [0, "x"], "tensor": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
        {"rank": 2, "labels": ["a", "b"], "dual": [0, 1], "tensor": [[[1.5, 0], [0, 1]], [[0, 1], [1, 0]]]},
        {"rank": 2, "labels": ["a", "b"], "dual": [0, 1], "tensor": [[[1, 0], [0, 1]]]},
        [1, 2, 3],
    ],
)
def test_loader_rejects_malformed_documents(doc, tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"rank": 2, "labels": ["a", "b"], "dual": [0, 1.7]}, "dual entry 1.7 at 1"),
        ({"rank": 2, "labels": ["a", "b"], "dual": ["0", "1"]}, "dual entry '0' at 0"),
        ({"rank": 2, "labels": ["a", "b"], "dual": [False, True]}, "dual entry False at 0"),
        ({"rank": True, "labels": ["e"], "dual": [0], "tensor": [[[1]]]}, "rank must be an integer"),
    ],
    ids=["float-dual", "string-dual", "boolean-dual", "boolean-rank"],
)
def test_ring_file_rejects_non_integer_dual_and_rank(doc, message, tmp_path, capsys):
    # dual entries follow the tensor-entry rule (integral, not bool, not str):
    # 1.7 was truncated to 1, and these files verified as "ok"
    doc = {"tensor": json.loads(dumps_ring(fr.group_ring((2,))))["tensor"], **doc}
    path = tmp_path / "bad.ring"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_entries_beyond_the_limit_exit_2(tmp_path, capsys):
    # structure constants are limited to |c| < 2^63; a near-group file whose
    # rho^2 coefficient is 2^70, and that level given to build, exit 2
    doc = json.loads(dumps_ring(fr.near_group((2,), 1)))
    doc["tensor"][2][2][2] = 2**70
    path = tmp_path / "huge.ring"
    path.write_text(json.dumps(doc))
    for command in (["verify"], ["fpdim"], ["obstruct", "--json"]):
        code, out, err = run_cli([command[0], str(path), *command[1:]], capsys)
        assert code == 2 and "2^63" in err and out == "", command
    code, out, err = run_cli(["build", "neargroup", "--group", "2", "--level", str(2**70)], capsys)
    assert code == 2 and "2^63" in err and out == ""
    code, out, err = run_cli(["build", "neargroup", "--group", "2", "--level", str(2**63 - 1)], capsys)
    assert code == 0 and loads_ring(out).fusion_matrix(2)[2][2] == 2**63 - 1


def test_uniform_coefficient_beyond_the_limit_exits_2(capsys):
    # kappa = k |H| = 2^62 * 2 = 2^63: a builder's nonzeros pass the entry
    # check that a ring file's cells do
    code, out, err = run_cli(["build", "uniform", "--group", "2", "--stab", "all", "--k", str(2**62)], capsys)
    assert code == 2 and "2^63" in err and out == ""
    code, out, err = run_cli(["build", "uniform", "--group", "2", "--stab", "all", "--k", str(2**62 - 1)], capsys)
    assert code == 0 and loads_ring(out).fusion_matrix(2)[2][2] == 2**63 - 2


def test_obstruct_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.ring"
    ok.write_text(dumps_ring(fr.near_group((2, 2), 4)))
    code, out, err = run_cli(["obstruct", str(ok)], capsys)
    assert code == 0

    bad = tmp_path / "bad.ring"
    bad.write_text(dumps_ring(fr.near_group((2, 2), 8)))
    code, out, err = run_cli(["obstruct", str(bad)], capsys)
    assert code == 10


def test_obstruct_json(tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.near_group((2, 2), 2)))
    code, out, err = run_cli(["obstruct", str(path), "--json"], capsys)
    assert code == 10
    doc = json.loads(out)
    assert doc["verdicts"][0]["test"] == "noncommutative"
    assert doc["verdicts"][0]["outcome"] == "eliminates"


def test_fpdim_json_exact_triples(tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.near_group((2,), 2)))
    code, out, err = run_cli(["fpdim", str(path), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == {"a": "6", "b": "2", "D": 3}
    assert doc["dims"][2]["value"] == {"a": "1", "b": "1", "D": 3}
    assert "." not in out  # no floats in machine output


def test_fpdim_json_of_su2_prints_sine_ratios_on_the_isolation_grid(tmp_path, capsys):
    """FPdim(j/2) of SU(2)_k is sin((j+1) pi/(k+2)) / sin(pi/(k+2)), and the
    global dimension is (k+2) / (2 sin^2(pi/(k+2))): every printed value
    holds it, checked at 100 digits, and every printed interval is at most
    2^-64 wide and a cell of the grid that isolation bisects."""
    with mpmath.workdps(100):
        for k in range(1, 21):
            path = tmp_path / f"su2_{k}.ring"
            path.write_text(dumps_ring(su2_ring(k)))
            code, out, err = run_cli(["fpdim", str(path), "--json"], capsys)
            assert code == 0
            doc = json.loads(out)
            s = mpmath.sin(mpmath.pi / (k + 2))
            want = [mpmath.sin((j + 1) * mpmath.pi / (k + 2)) / s for j in range(k + 1)]
            values = [entry["value"] for entry in doc["dims"]] + [doc["total"]]
            for value, exact in zip(values, want + [(k + 2) / (2 * s * s)], strict=True):
                if "poly" in value:
                    lo, hi = Fraction(value["lo"]), Fraction(value["hi"])
                    assert 0 < hi - lo <= Fraction(1, 2**64)
                    assert on_isolation_grid(value["poly"], lo, hi), (k, value)
                    assert _mpf(lo) < exact < _mpf(hi)
                else:
                    got = _mpf(Fraction(value["a"])) + _mpf(Fraction(value["b"])) * mpmath.sqrt(value["D"])
                    assert abs(got - exact) < mpmath.mpf(10) ** -90, (k, value)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def test_codegrees_json(tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.group_ring((2, 2))))
    code, out, err = run_cli(["codegrees", str(path), "--json"], capsys)
    doc = json.loads(out)
    assert doc["spectrum"] == [{"value": {"a": "4", "b": "0", "D": 0}, "multiplicity": 4, "dim_hint": 1}]


def test_irreps_command(tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.haagerup_izumi((3,))))
    code, out, err = run_cli(["irreps", str(path), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(m["dim"] for m in doc["irreps"]) == [1, 1, 2]


def test_classify_elementary2_cli(capsys):
    code, out, err = run_cli(["classify", "elementary2", "--m", "3", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    known = [e["level"] for e in doc["levels"] if e["status"] == "categorifiable_known"]
    assert known == [0]


REFERENCE_WRITERS = {
    "--json": lambda report: dumps_report(report.to_dict()),
    "--csv": report_csv_reference,
    "text": report_text_reference,
}


def format_flag(fmt) -> list:
    return [] if fmt == "text" else [fmt]


@pytest.mark.parametrize("fmt", REFERENCE_WRITERS)
@pytest.mark.parametrize("m", range(1, 15))
def test_elementary2_streams_what_the_reference_writers_give(m, fmt, capsys):
    code, out, err = run_cli(["classify", "elementary2", "--m", str(m), *format_flag(fmt)], capsys)
    assert (code, err) == (0, "")
    assert out == REFERENCE_WRITERS[fmt](fr.classify_elementary2(m))


@pytest.mark.parametrize("fmt", REFERENCE_WRITERS)
def test_prime_and_generic_reports_stream_what_the_reference_writers_give(fmt, tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.near_group((2, 2), 8)))
    for argv, report in (
        (["prime", "--p", "7", "--kmax", "2000", "--no-filter"], classify.scan_prime_levels(7, 2000)),
        (["generic", str(path)], classify.classify_generic(load_ring(path))),
    ):
        code, out, err = run_cli(["classify", *argv, *format_flag(fmt)], capsys)
        assert out == REFERENCE_WRITERS[fmt](report)


@pytest.mark.parametrize("fmt", REFERENCE_WRITERS)
def test_run_that_disagrees_with_its_rule_exits_3_before_any_output(fmt, capsys, monkeypatch):
    # at m = 3 the noncommutativity run is levels 1..6; break the rule at 6
    rule = classify.noncom_verdict

    def broken(r, s, h):
        verdict = rule(r, s, h)
        return replace(verdict, test_name="other") if r == 6 else verdict

    monkeypatch.setattr(classify, "noncom_verdict", broken)
    code, out, err = run_cli(["classify", "elementary2", "--m", "3", *format_flag(fmt)], capsys)
    assert (code, out) == (3, "")
    assert err == "internal invariant breach: run of levels 1..6 differs from its rule at 6\n"


# the arguments of each command, and what the reader takes before it closes
# the pipe: None closes it before the child starts, so the whole output
# waits in the buffer for the last flush; else the first line, or the first
# 100 bytes of a one-line document, while the output streams
CLOSED_PIPE_CASES = {
    **{
        f"{fmt}-{m}": (["classify", "elementary2", "--m", str(m), *format_flag(fmt)], None if m == 3 else 100 if fmt == "--json" else "line")
        for fmt in REFERENCE_WRITERS
        for m in (3, 15)
    },
    # outputs larger than a pipe buffer: a 16 MB ring file, and 69,694 bytes of models
    "build-group-200": (["build", "group", "--group", "200"], 100),
    "irreps-hi-c15-json": (["irreps", str(GOLDEN / "haagerup_izumi_c15.ring"), "--json"], 100),
}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", CLOSED_PIPE_CASES)
def test_closed_pipe_exits_2_with_one_error_line(case, buffered):
    args, take = CLOSED_PIPE_CASES[case]
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "fusionring.cli", *args]
    if take is None:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
    else:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.readline() if take == "line" else proc.stdout.read(take)
        proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=30), err) == (2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "text"])
def test_irreps_with_a_failing_model_exits_3_before_any_output(fmt, capsys, monkeypatch):
    # the last model fails its check, after every other one has passed
    from fusionring import represent

    verify = represent.verify_irrep

    def broken(ring, model):
        return [(0, 0)] if model.source_tag == represent.SOURCE_D_MINUS else verify(ring, model)

    monkeypatch.setattr(represent, "verify_irrep", broken)
    code, out, err = run_cli(["irreps", str(GOLDEN / "haagerup_izumi_c15.ring"), *fmt], capsys)
    assert (code, out) == (3, "")
    assert err == f"internal invariant breach: {represent.SOURCE_D_MINUS} model is not a homomorphism\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["elementary2", "--m", "3", "--json", "--csv"], "--csv: not allowed with argument --json"),
        (["prime", "--p", "7", "--kmax", "10", "--csv", "--json"], "--json: not allowed with argument --csv"),
        (["generic", "ring.json", "--json", "--csv"], "--csv: not allowed with argument --json"),
        (["prime", "--p", "7", "--kmax", "10", "--residue-filter", ""], "--residue-filter: is empty"),
        (["prime", "--p", "7", "--kmax", "10", "--residue-filter", "2,,3"], "--residue-filter: '2,,3' is not a comma-separated list of integers"),
        (["prime", "--p", "7", "--kmax", "10", "--no-filter", "--residue-filter", "2"], "--residue-filter: not allowed with argument --no-filter"),
        (["prime", "--p", "7", "--kmax", "10", "--residue-filter=2", "--no-filter"], "--no-filter: not allowed with argument --residue-filter"),
    ],
    ids=["json-csv", "csv-json", "generic-json-csv", "empty-filter", "malformed-filter", "no-filter-then-filter", "filter-then-no-filter"],
)
def test_conflicting_or_empty_flags_exit_2(args, message, capsys):
    # each but the malformed list was ignored: --json won over --csv, an
    # empty --residue-filter applied p's default filter, and --no-filter
    # dropped a given filter
    with pytest.raises(SystemExit) as exc:
        main(["classify", *args])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument {message}" in err


def test_classify_prime_cli(capsys):
    code, out, err = run_cli(
        ["classify", "prime", "--p", "7", "--kmax", "100", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert [e["k"] for e in doc["levels"]] == [1, 6, 10, 96]
    assert "residue filter {2,3,5,13}" in doc["filters_applied"]

    code, out, err = run_cli(
        ["classify", "prime", "--p", "7", "--kmax", "100", "--no-filter", "--json"], capsys
    )
    doc = json.loads(out)
    assert 2 in [e["k"] for e in doc["levels"]]


@pytest.mark.parametrize("rf", ["0", "1", "-3", "3,1"])
def test_classify_prime_residue_filter_below_2_exits_2(rf, capsys):
    # 0 died with a ZeroDivisionError, 1 dropped every x, -3 printed a negative filter
    code, out, err = run_cli(["classify", "prime", "--p", "7", "--kmax", "10", f"--residue-filter={rf}"], capsys)
    assert (code, out) == (2, "")
    assert "residue filter entry" in err and "below 2" in err


def test_classify_csv(capsys):
    code, out, err = run_cli(["classify", "prime", "--p", "7", "--kmax", "100", "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,k,status,x,tag,tests,flags"
    assert len(lines) == 5


def test_classify_generic_cli(tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.near_group((3,), 4)))
    code, out, err = run_cli(["classify", "generic", str(path)], capsys)
    assert code == 10


def test_byte_identical_output():
    cmd = [sys.executable, "-m", "fusionring.cli", "classify", "elementary2", "--m", "2", "--json"]
    a = subprocess.run(cmd, capture_output=True, env=cli_env()).stdout
    b = subprocess.run(cmd, capture_output=True, env=cli_env()).stdout
    assert a and a == b


def test_build_uniform_with_explicit_stabilizer(capsys):
    code, out, err = run_cli(
        ["build", "uniform", "--group", "4", "--stab", "2", "--theta", "inversion", "--k", "1"],
        capsys,
    )
    assert code == 0
    ring = loads_ring(out)
    data = fr.two_orbit_data(ring)
    assert len(data.stabilizer) == 2 and data.uniform_k == 1


def test_build_uniform_multi_generator_stab(capsys):
    # stabilizer generated by (1,0) inside C2 x C2
    code, out, err = run_cli(
        ["build", "uniform", "--group", "2,2", "--stab", "1,0", "--theta", "identity", "--k", "2"],
        capsys,
    )
    assert code == 0
    ring = loads_ring(out)
    data = fr.two_orbit_data(ring)
    assert len(data.stabilizer) == 2 and len(data.cosets) == 2
    assert data.uniform_coeff == 4  # k * |H|


def test_classify_prime_json_levels(capsys):
    code, out, err = run_cli(["classify", "prime", "--p", "7", "--kmax", "200", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [e["k"] for e in doc["levels"]] == [1, 6, 10, 96]


def test_isolated_root_serialization():
    from fractions import Fraction

    from fusionring.algebraic import IsolatedRoot
    from fusionring.ringfile import alg_to_dict

    r = IsolatedRoot((-1, -1, 0, 1), Fraction(1), Fraction(2))
    doc = alg_to_dict(r)
    assert doc["poly"] == [-1, -1, 0, 1]
    assert "/" in doc["lo"] or doc["lo"].isdigit()


def test_classify_prime_huge_kmax():
    # the Pell scan's cost grows with log(k_max): 10^40 is as quick as 10^4
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fusionring.cli", "classify", "prime", "--p", "7", "--kmax", str(10**40), "--json"],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert time.monotonic() - t0 < 5.0
    levels = json.loads(proc.stdout)["levels"]
    assert [e["level"] for e in levels[:8]] == [7, 42, 70, 672, 10710, 49210, 170688, 2720298]
    for e in levels[1:]:
        cert = {c["test"]: c["certificate"] for c in e["certificates"]}["prime-xbound"]
        m = cert["m"]
        assert e["k"] == 2 * m <= 10**40
        assert cert["x"] * cert["y"] ** 2 == m * m * 7 + 1
        assert cert["lhs_sq"] <= cert["rhs_sq"]


def test_removed_jobs_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionring.cli", "classify", "prime", "--p", "7", "--kmax", "200", "--jobs", "2"],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 2
    assert b"unrecognized arguments: --jobs" in proc.stderr


def test_irreps_refuses_nonuniform_exit_2(tmp_path, capsys):
    path = tmp_path / "d9.ring"
    path.write_text(dumps_ring(fr.dihedral_character_ring(9)))
    code, out, err = run_cli(["irreps", str(path)], capsys)
    assert code == 2


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionring.cli", "verify", "--bogus"],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 2
    assert b"usage" in proc.stderr.lower()


def test_elementary2_m_above_limit_exits_2(capsys):
    code, out, err = run_cli(["classify", "elementary2", "--m", "21", "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "limit 20" in err


@pytest.mark.parametrize("index", [3, 99, -1, -4])
def test_fpdim_basis_out_of_range_exits_2(index, tmp_path, capsys):
    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.near_group((2,), 2)))  # rank 3
    code, out, err = run_cli(["fpdim", str(path), "--basis", str(index), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "outside [0, 3)" in err


def test_fpdim_width_bits_above_limit_exits_2(tmp_path, capsys):
    from fusionring.cli import FPDIM_MAX_WIDTH_BITS

    path = tmp_path / "r.ring"
    path.write_text(dumps_ring(fr.near_group((2,), 2)))
    code, out, err = run_cli(["fpdim", str(path), "--width-bits", str(FPDIM_MAX_WIDTH_BITS + 1)], capsys)
    assert code == 2
    assert out == ""
    assert f"limit {FPDIM_MAX_WIDTH_BITS}" in err
    code, out, err = run_cli(["fpdim", str(path), "--width-bits", str(FPDIM_MAX_WIDTH_BITS), "--json"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "group", "--group", "201"],
        ["build", "group", "--group", "3,67"],
        ["build", "neargroup", "--group", "200", "--level", "1"],
        ["build", "haagerup-izumi", "--group", "101"],  # rank 2|G|, so 202
        ["build", "uniform", "--group", "200", "--stab", "all", "--k", "1"],
    ],
)
def test_builders_above_the_rank_limit_exit_2_before_building_a_group(argv, capsys, monkeypatch):
    from fusionring import construct
    from fusionring.ring import RANK_LIMIT

    def unbuilt(*args):
        raise AssertionError("built a group or the rows of a ring above the rank limit")

    monkeypatch.setattr(construct, "abelian_group", unbuilt)
    monkeypatch.setattr(construct, "_rows", unbuilt)
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert f"above the limit {RANK_LIMIT}" in err


def test_uniform_rank_checked_before_the_tensor(capsys):
    # |G| + 1 = 102 passes the first check; |G| + |G/H| = 202 stops at _rows
    start = time.perf_counter()
    code, out, err = run_cli(["build", "uniform", "--group", "101", "--k", "1"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "rank 202 is above the limit 200" in err


def test_files_above_the_rank_limit_exit_2(tmp_path, capsys):
    from fusionring.ring import RANK_LIMIT

    n = RANK_LIMIT + 1
    ring = tmp_path / "r.ring"
    ring.write_text(json.dumps({"rank": n, "labels": [str(i) for i in range(n)], "dual": list(range(n)), "tensor": []}))
    table = tmp_path / "t.table"
    table.write_text(json.dumps({"group_order": n, "root_order": 1, "class_sizes": [1] * n, "values": []}))
    for argv in (["verify", str(ring)], ["build", "charring", "--table", str(table)]):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert f"rank {n} is above the limit {RANK_LIMIT}" in err


def test_prime_p_above_limit_exits_2(capsys):
    from fusionring.cli import PRIME_MAX_P

    start = time.perf_counter()
    code, out, err = run_cli(["classify", "prime", "--p", str(PRIME_MAX_P + 1), "--kmax", "10", "--csv"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert f"limit {PRIME_MAX_P}" in err


def test_prime_kmax_above_digit_limit_exits_2(capsys):
    from fusionring.cli import PRIME_MAX_KMAX_DIGITS

    assert PRIME_MAX_KMAX_DIGITS >= 41  # test_classify_prime_huge_kmax runs --kmax 10^40
    start = time.perf_counter()
    kmax = str(10**PRIME_MAX_KMAX_DIGITS)
    code, out, err = run_cli(["classify", "prime", "--p", "99991", "--kmax", kmax, "--csv"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert f"limit {PRIME_MAX_KMAX_DIGITS}" in err


def test_runtime_does_not_load_mpmath(tmp_path):
    # mpmath is a test dependency only, and numpy serves only the
    # FusionRing.tensor view: importing the package and running one command
    # of each subcommand, an obstruction battery included, must pull in neither
    path = tmp_path / "ng.ring"
    path.write_text(dumps_ring(fr.near_group((2, 2), 8)))
    script = (
        "import io, sys, contextlib\n"
        "import fusionring\n"
        "from fusionring.cli import main\n"
        "ring = sys.argv[1]\n"
        "for argv in (['build', 'haagerup-izumi', '--group', '3'], ['verify', ring],\n"
        "             ['fpdim', ring, '--json'], ['codegrees', ring, '--json'],\n"
        "             ['irreps', ring, '--json'], ['classify', 'generic', ring, '--csv'],\n"
        "             ['classify', 'elementary2', '--m', '3', '--json'],\n"
        "             ['classify', 'prime', '--p', '7', '--kmax', '100', '--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) in (0, 10), argv\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['obstruct', ring, '--json'])\n"
        "assert code == 10 and out.getvalue().startswith('{'), code\n"
        "print('mpmath' in sys.modules, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False False\n"


COMMANDS_WITHOUT_CONSTRUCT_OR_REPRESENT = [
    ["verify", "{ring}"],
    ["fpdim", "{ring}", "--json"],
    ["obstruct", "{ring}", "--json"],
    ["classify", "generic", "{ring}", "--csv"],
    ["classify", "elementary2", "--m", "3", "--json"],
    ["classify", "prime", "--p", "7", "--kmax", "100", "--json"],
]


def test_import_loads_no_submodule():
    # the package namespace is lazy: submodules load on first attribute use
    script = "import sys, fusionring\nprint(sorted(m for m in sys.modules if m.startswith('fusionring.')))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=cli_env())
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    COMMANDS_WITHOUT_CONSTRUCT_OR_REPRESENT,
    ids=["verify", "fpdim", "obstruct", "classify-generic", "classify-elementary2", "classify-prime"],
)
def test_commands_load_only_what_they_run(argv, tmp_path):
    # construct, cyclotomic and represent serve build, codegrees and irreps only;
    # each other command, run in a fresh interpreter, must not compile them
    path = tmp_path / "ng.ring"
    path.write_text(dumps_ring(fr.near_group((2, 2), 8)))
    script = (
        "import io, sys, contextlib\n"
        "from fusionring.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) in (0, 10)\n"
        "print(sorted(m for m in ('construct', 'cyclotomic', 'represent') if 'fusionring.' + m in sys.modules))\n"
    )
    args = [a.format(ring=path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, env=cli_env())
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


def run_cli_child(argv, timeout=30):
    """`python -m fusionring.cli argv` in a child, killed after timeout
    seconds, so that a command that no longer finishes fails the test."""
    argv = [sys.executable, "-m", "fusionring.cli", *argv]
    return subprocess.run(argv, capture_output=True, env=cli_env(), timeout=timeout)


def test_fpdim_and_codegrees_finish_at_a_large_level(tmp_path):
    # rho^2 = 1 + g + L rho: FPdim(rho) = (L + sqrt(L^2 + 8)) / 2, and the
    # top codegree is the global dimension 2 + FPdim(rho)^2
    level = 10**9
    path = tmp_path / "ng.ring"
    path.write_text(dumps_ring(fr.near_group((2,), level)))
    disc = level * level + 8
    proc = run_cli_child(["fpdim", str(path), "--json"])
    assert proc.returncode == 0, proc.stderr
    rho = json.loads(proc.stdout)["dims"][2]["value"]
    assert rho == alg_to_dict(Quadratic(Fraction(level, 2), Fraction(1, 2), disc))
    proc = run_cli_child(["codegrees", str(path), "--json"])
    assert proc.returncode == 0, proc.stderr
    values = [c["value"] for c in json.loads(proc.stdout)["spectrum"]]
    assert alg_to_dict(Quadratic(Fraction(disc, 2), Fraction(level, 2), disc)) in values


@pytest.mark.parametrize("argv", [["obstruct"], ["classify", "generic"]])
def test_obstructions_finish_at_a_level_near_2_to_the_63(argv, tmp_path):
    # r = L is odd and s = |G| = 2, so divisibility (s | r) eliminates; the
    # profile is read from integers, so L^2 + 8 is never factored
    level = 5612749431232643225
    path = tmp_path / "ng.ring"
    path.write_text(dumps_ring(fr.near_group((2,), level)))
    proc = run_cli_child([*argv, str(path), "--json"])
    assert proc.returncode == 10, proc.stderr
    assert b'"outcome":"eliminates","test":"divisibility"' in proc.stdout


def test_root_order_above_the_limit_exits_2_before_building_a_field(tmp_path, capsys, monkeypatch):
    from fusionring import cyclotomic
    from fusionring.ringfile import ROOT_ORDER_LIMIT

    path = tmp_path / "t.table"
    path.write_text(json.dumps({**TRIVIAL_TABLE, "root_order": ROOT_ORDER_LIMIT}))
    assert run_cli(["build", "charring", "--table", str(path)], capsys)[0] == 0

    def unbuilt(*args):
        raise AssertionError("built a cyclotomic value above the root-order limit")

    monkeypatch.setattr(cyclotomic, "Cyc", unbuilt)
    path.write_text(json.dumps({**TRIVIAL_TABLE, "root_order": ROOT_ORDER_LIMIT + 1}))
    start = time.perf_counter()
    code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert f"root_order {ROOT_ORDER_LIMIT + 1} is above the limit {ROOT_ORDER_LIMIT}" in err


def test_table_work_above_the_limit_exits_2_before_building_a_field(tmp_path, capsys, monkeypatch):
    # rank^4 phi(root_order) takes no value just above the limit, so these
    # are the least ranks above it over Q and over Q(zeta_1024) (phi = 512);
    # one rank less is within it and goes on to validation, which rejects
    # the empty values
    from fusionring import cyclotomic
    from fusionring.ringfile import TABLE_WORK_LIMIT

    def unbuilt(*args):
        raise AssertionError("built a cyclotomic value above the table work limit")

    monkeypatch.setattr(cyclotomic, "Cyc", unbuilt)
    path = tmp_path / "t.table"
    for rank, N, phi in ((89, 1, 1), (19, 1024, 512)):
        assert (rank - 1) ** 4 * phi <= TABLE_WORK_LIMIT < rank**4 * phi
        for n in (rank - 1, rank):
            path.write_text(json.dumps({"group_order": n, "root_order": N, "class_sizes": [1] * n, "values": []}))
            start = time.perf_counter()
            code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
            assert time.perf_counter() - start < 5
            assert code == 2
            assert out == ""
            limit = f"table work rank^4 * phi(root_order) = {n**4 * phi} is above the limit {TABLE_WORK_LIMIT}"
            assert (limit in err) == (n == rank), err
            assert n == rank or "character table must be square" in err


def test_class_sizes_below_1_exit_2(tmp_path, capsys):
    path = tmp_path / "t.table"
    path.write_text(json.dumps({**S3_TABLE, "class_sizes": [1, 5, 0]}))
    code, out, err = run_cli(["build", "charring", "--table", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "class 2 has size 0, below 1" in err
