import json
import shlex
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

from qtchains import cli
from qtchains.builder import _certificate
from qtchains.cli import run
from qtchains.partitions import parse_partition


def lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_stats(capsys):
    assert run(["stats", "0122011"]) == 0
    assert lines(capsys) == [
        "0122011: reduced 0122011 partition 54^21 len 7 area 7 dinv 10 defc 4"
    ]


def test_stats_several(capsys):
    assert run(["stats", "0", "00(-2)(-1)(-1)"]) == 0
    out = lines(capsys)
    assert len(out) == 2
    assert out[1].startswith("00(-2)(-1)(-1): reduced ")


def test_stats_partition_word(capsys):
    assert run(["stats", "54^21"]) == 0
    assert lines(capsys) == [
        "54^21: reduced 0122011 partition 54^21 len 7 area 7 dinv 10 defc 4"
    ]


def test_stats_bad_word(capsys):
    assert run(["stats", "xyz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse xyz" in captured.err


def test_ti2(capsys):
    assert run(["ti2", "211"]) == 0
    assert lines(capsys) == [
        "base 001101 dinv 8 len 6",
        "extended 001222 dinv 4 len 6",
        "stage 0: 001222 dinv 4",
        "stage 1: 001211 dinv 6",
        "stage 2: 001101 dinv 8",
    ]


def test_ti2_trivial_orbit(capsys):
    assert run(["ti2", "22"]) == 0
    out = lines(capsys)
    assert out == [
        "base 00011 dinv 4 len 5",
        "extended 00011 dinv 4 len 5",
    ]


def test_tail(capsys):
    assert run(["tail", "21", "--count", "3"]) == 0
    assert lines(capsys) == [
        "00101 dinv 5",
        "012120 dinv 6",
        "011201 dinv 7",
    ]


def test_tail_plateau(capsys):
    assert run(["tail", "21", "--plateau", "2"]) == 0
    out = lines(capsys)
    assert len(out) == 6
    assert out[0] == "0121210 dinv 11"
    assert out[-1] == "0010100 dinv 16"


@pytest.mark.parametrize(
    "argv,word",
    [
        (["tail", "2x1"], "2x1"),
        (["ti2", "2x1"], "2x1"),
        (["catalan", "4", "--mu", "1y"], "1y"),
        (["tail", "3^0"], "3^0"),
        (["tail", "23^0"], "23^0"),
        (["ti2", "1^(0)"], "1^(0)"),
    ],
)
def test_bad_partition_is_usage_error(capsys, argv, word):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad partition '{word}'" in captured.err


@pytest.mark.parametrize("flag", ["--plateau", "--count"])
def test_tail_rejects_negative_counts(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["tail", "21", flag, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least 0" in captured.err


@pytest.mark.parametrize(
    "argv,arg",
    [
        (["catalan", "-3"], "n"),
        (["flagpole", "-2", "1"], "start"),
        (["flagpole", "1", "-1"], "stop"),
        (["absorb", "-2", "0"], "start"),
        (["absorb", "0", "-1"], "stop"),
        (["build", "-3"], "k"),
        (["verify", "chains.json", "--opposite", "-2"], "--opposite"),
    ],
    ids=["catalan", "flagpole-start", "flagpole-stop", "absorb-start", "absorb-stop", "build", "verify"],
)
def test_negative_integer_is_usage_error(tmp_path, monkeypatch, capsys, argv, arg):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {arg}: must be at least 0" in captured.err
    assert list(tmp_path.iterdir()) == []


LIMITS = [
    (["tail", "21", "--count"], "--count", cli.TAIL_COUNT_MAX),
    (["tail", "21", "--plateau"], "--plateau", cli.TAIL_PLATEAU_MAX),
    (["build"], "k", cli.BUILD_MAX),
    (["verify", "chains.json", "--opposite"], "--opposite", cli.OPPOSITE_MAX),
]
LIMIT_IDS = ["tail-count", "tail-plateau", "build", "verify-opposite"]


@pytest.mark.parametrize("argv,arg,limit", LIMITS, ids=LIMIT_IDS)
def test_above_a_limit_is_usage_error(tmp_path, monkeypatch, capsys, argv, arg, limit):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv + [str(limit + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {arg}: {limit + 1} is above the limit {limit}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,arg,limit", LIMITS, ids=LIMIT_IDS)
def test_limit_is_in_the_help(capsys, argv, arg, limit):
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--help"])
    assert exc.value.code == 0
    assert f"at most {limit}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["flagpole", "absorb"])
def test_empty_range_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "5", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command}: STOP 3 is below START 5" in captured.err


def test_flagpole_table(capsys):
    assert run(["flagpole", "6", "8", "--brute"]) == 0
    assert lines(capsys) == [
        "n count check bound p(n)",
        "6 4 4 2 11",
        "7 4 4 2 15",
        "8 8 8 6 22",
    ]


def test_flagpole_single(capsys):
    assert run(["flagpole", "7"]) == 0
    assert lines(capsys) == ["n count bound p(n)", "7 4 2 15"]


def test_absorb(capsys):
    assert run(["absorb", "6", "7"]) == 0
    assert lines(capsys) == [
        "k leftover2 leftover1 ratio",
        "6 36 125 0.2880",
        "7 81 235 0.3447",
    ]


def test_absorb_without_first_order_leftover(capsys):
    assert run(["absorb", "0", "1"]) == 0
    assert lines(capsys) == ["k leftover2 leftover1 ratio", "0 0 0 -", "1 0 0 -"]


def test_catalan_full(capsys):
    assert run(["catalan", "3"]) == 0
    assert lines(capsys) == ["q^3 + q^2 t + q t + q t^2 + t^3"]


def test_catalan_above_the_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["catalan", str(cli.CATALAN_MAX + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"above the limit {cli.CATALAN_MAX}" in captured.err


def test_catalan_limit_is_in_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["catalan", "--help"])
    assert exc.value.code == 0
    assert f"at most {cli.CATALAN_MAX} without --mu" in capsys.readouterr().out


def test_catalan_chain_share_has_no_limit(capsys):
    assert run(["catalan", str(cli.CATALAN_MAX + 6), "--mu", "1"]) == 0
    assert lines(capsys)[0].startswith("q^")


def test_catalan_chain_share(capsys):
    assert run(["catalan", "7", "--mu", "1111"]) == 0
    assert lines(capsys) == [
        "q^14 t^3 + q^13 t^4 + q^12 t^5 + q^11 t^6 + q^10 t^7 + q^9 t^8"
        " + q^8 t^9 + q^7 t^10 + q^6 t^11 + q^5 t^12 + q^4 t^13"
    ]


def test_catalan_missing_chain(capsys):
    assert run(["catalan", "7", "--mu", "61"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no chain stored for 61" in captured.err


def test_build_verify_export_round_trip(tmp_path, capsys):
    out = tmp_path / "c7.json"
    assert run(["build", "7", "--out", str(out)]) == 0
    assert lines(capsys) == [f"built 27 chains to deficit 7 -> {out}"]

    assert run(["verify", str(out)]) == 0
    assert lines(capsys) == ["365/365 checks passed"]

    assert run(["export", str(out)]) == 0
    rows = lines(capsys)
    assert len(rows) == 27
    assert rows[0] == "0 partner 0 start 0 generators 0"
    assert all(" partner " in row and " generators " in row for row in rows)


def test_build_below_the_base_trims_the_collection(tmp_path, capsys):
    out = tmp_path / "c3.json"
    assert run(["build", "3", "--out", str(out)]) == 0
    assert lines(capsys) == [f"built 7 chains to deficit 3 -> {out}"]
    payload = json.loads(out.read_text())
    assert payload["k_max"] == 3
    assert max(sum(parse_partition(r["mu"])) for r in payload["chains"]) == 3

    assert run(["verify", str(out)]) == 0
    assert lines(capsys)[-1] == "99/99 checks passed"


def test_verify_verbose_lists_rows(tmp_path, capsys):
    out = tmp_path / "c6.json"
    run(["build", "6", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--verbose"]) == 0
    rows = lines(capsys)
    assert rows[-1].endswith("checks passed")
    assert any(row.endswith(" ok") for row in rows)


def test_verify_rejects_damage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "chains": [{"mu": "0"}]}')
    assert run(["verify", str(bad)]) == 1
    assert "cannot load" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert run(["verify", str(missing)]) == 1
    assert "cannot load" in capsys.readouterr().err

    assert run(["export", str(bad)]) == 1
    assert "cannot load" in capsys.readouterr().err


def certified(**fields):
    """A deficit-0 record with the given fields changed, its certificate recomputed."""
    rec = {"mu": "0", "partner": "0", "start": 0, "generators": ["0"], **fields}
    return {**rec, "certificate": _certificate(rec)}


def collection(*records, k_max=5):
    return {"format": 1, "k_max": k_max, "chains": list(records)}


MALFORMED = {
    "list-payload": [],
    "chains-not-list": {"format": 1, "k_max": 5, "chains": 5},
    "record-not-object": collection("x"),
    "k_max-not-int": collection(certified(), k_max="5"),
    "start-not-int": collection(certified(start="0")),
    "generators-not-list": collection(certified(generators="0")),
    "generator-not-string": collection(certified(generators=[0])),
    "mu-not-string": collection(certified(mu=0)),
    "repeated-mu": collection(certified(), certified()),
    "deficit-above-k_max": collection(
        certified(), certified(mu="1", partner="1", start=1, generators=["001"]), k_max=0
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
@pytest.mark.parametrize("command", ["verify", "export"])
def test_malformed_file_is_a_load_error(tmp_path, capsys, command, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[name]))
    assert run([command, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot load {bad}: ")


def test_certified_record_loads(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(collection(certified(), k_max=0)))
    assert run(["verify", str(good)]) == 0
    assert lines(capsys)[-1].endswith("checks passed")


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every `qtchains ...` line of the sh block under `## Command line` in
    README.md, its comment stripped, runs with exit status 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("qtchains ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert run(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def declared_scripts():
    """The ``[project.scripts]`` table of the checkout's ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib arrived in 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def qtchains_installed():
    try:
        distribution("qtchains")
    except PackageNotFoundError:
        return False
    return True


def test_console_script_registered():
    # Checked against the project's own declaration, so it holds in a
    # checkout run with PYTHONPATH=src as well as in an install.
    value = declared_scripts().get("qtchains")
    assert value == "qtchains.cli:main"
    entry = EntryPoint(name="qtchains", value=value, group="console_scripts")
    assert entry.load() is cli.main


@pytest.mark.skipif(not qtchains_installed(), reason="no qtchains distribution installed")
def test_installed_console_script_matches_declaration():
    installed = distribution("qtchains").entry_points.select(
        group="console_scripts", name="qtchains"
    )
    assert [e.value for e in installed] == [declared_scripts()["qtchains"]]


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
