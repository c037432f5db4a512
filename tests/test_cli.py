import json
import subprocess
import sys
import time

import pytest

import fusionring as fr
from conftest import cli_env, same_fusion_rules
from fusionring.cli import main
from fusionring.ringfile import dumps_ring, load_ring, loads_ring


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
    assert code == 0 and loads_ring(out).rows[2][2][2] == 2**63 - 1


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
