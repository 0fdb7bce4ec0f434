import contextlib
import json
import shlex
import tracemalloc
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

from qtchains import builder, cli
from qtchains.builder import _certificate
from qtchains.cli import run
from qtchains.dyck import dinv
from qtchains.flagpole import is_flagpole
from qtchains.partitions import PARTS_MAX, parse_partition, partitions_of


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


def test_stats_at_the_length_limit(capsys):
    word = f"0(-{cli.STATS_LEN_MAX - 2})"
    assert run(["stats", "0(-20000)", word]) == 0
    out = lines(capsys)
    assert out[0].endswith(" partition (20001) len 20002 area -20000 dinv 2 defc 19999")
    assert f" len {cli.STATS_LEN_MAX} " in out[1]


@pytest.mark.parametrize(
    "word", [f"0(-{cli.STATS_LEN_MAX - 1})", f"({cli.STATS_LEN_MAX})", f"1^({cli.STATS_LEN_MAX})"]
)
def test_stats_above_the_length_limit(capsys, word):
    assert run(["stats", "0122011", word]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("0122011: ")
    assert captured.out.count("\n") == 1
    assert (
        f"{word}: reduced length {cli.STATS_LEN_MAX + 1} is above the limit {cli.STATS_LEN_MAX}"
        in captured.err
    )


def test_stats_limit_is_in_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["stats", "--help"])
    assert exc.value.code == 0
    assert f"at most {cli.STATS_LEN_MAX}" in capsys.readouterr().out


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


def test_ti2_without_a_template_prints_no_stages(capsys):
    """The extended base 01012 of 3 is not a flag template, so no stage is listed."""
    assert run(["ti2", "3"]) == 0
    assert lines(capsys) == [
        "base 00001 dinv 6 len 5",
        "extended 01012 dinv 3 len 5",
    ]


def test_tail_count_not_an_integer_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tail", "21", "--count", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --count: not an integer: 'x'" in captured.err


def test_tail(capsys):
    assert run(["tail", "21", "--count", "3"]) == 0
    assert lines(capsys) == [
        "00101 dinv 5",
        "012120 dinv 6",
        "011201 dinv 7",
    ]


def test_tail_keeps_no_printed_class(capsys):
    """tail prints each class as it is built and reads its dinv off the
    partition, so the dinv cache keeps none of them."""
    before = dinv.cache_info().currsize
    assert run(["tail", "1^(300)", "--count", "700"]) == 0
    assert run(["tail", "1^(300)", "--plateau", "2"]) == 0
    assert dinv.cache_info().currsize == before
    out = lines(capsys)
    assert len(out) == 700 + 303
    assert out[0].endswith(" dinv 44851") and out[699].endswith(" dinv 45550")


class _Discard:
    """A stdout that keeps nothing it is given but the count of lines."""

    lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def test_tail_plateau_prints_while_it_walks():
    """Plateau 2 of 1^300 holds 303 classes of length 304, about 0.8 MB as
    a list; tail --plateau prints each class as it is built and holds one."""
    out = _Discard()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert run(["tail", "1^(300)", "--plateau", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.lines == 303
    assert peak < 0.3 * 2**20, peak


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
        (["tail", "", "--count", "2"], ""),
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
    out = capsys.readouterr().out
    assert f"at most {cli.CATALAN_MAX} without --mu and {cli.CATALAN_MU_N_MAX} with it" in out
    assert f"|MU| at most {cli.BUILD_MAX}" in out


def test_catalan_chain_share_runs_past_the_full_polynomial_limit(capsys):
    assert run(["catalan", str(cli.CATALAN_MAX + 6), "--mu", "1"]) == 0
    assert lines(capsys)[0].startswith("q^")


def test_ti2_above_its_limit_is_usage_error(capsys):
    for word in (f"({cli.TI2_MAX + 1})", f"1^({cli.TI2_MAX})1", f"21^({cli.TI2_MAX - 1})"):
        with pytest.raises(SystemExit) as exc:
            run(["ti2", word])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ti2: |MU| {sum(parse_partition(word))} is above the limit {cli.TI2_MAX}" in captured.err


def test_tail_above_its_limit_is_usage_error(capsys):
    """A partition above the tail limit is refused before any orbit element
    is built; the parse alone of the longest word it reads takes a fraction
    of a second."""
    for word in (f"1^({cli.TAIL_MU_MAX + 1})", f"({cli.TAIL_MU_MAX})1", f"1^({PARTS_MAX})"):
        with pytest.raises(SystemExit) as exc:
            run(["tail", word, "--count", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tail: |MU| {sum(parse_partition(word))} is above the limit {cli.TAIL_MU_MAX}" in captured.err


def test_parts_limit_is_above_every_length_limit():
    """A word of PARTS_MAX parts still reaches the limit of its command, and
    one more part forces a reduced length above STATS_LEN_MAX."""
    assert max(cli.TAIL_MU_MAX, cli.TI2_MAX, cli.BUILD_MAX) < PARTS_MAX
    assert PARTS_MAX + 2 > cli.STATS_LEN_MAX >= PARTS_MAX


@pytest.mark.parametrize("parts", [PARTS_MAX + 1, 300_000_000])
@pytest.mark.parametrize("command", [["tail"], ["ti2"], ["catalan", "3", "--mu"]])
def test_word_with_too_many_parts_is_usage_error(capsys, command, parts):
    """A short word for a long partition is refused from its runs, before
    they are expanded into 300,000,000 parts."""
    word = f"1^({parts})"
    with pytest.raises(SystemExit) as exc:
        run([*command, word])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad partition {word!r}: part count {parts} is above the limit {PARTS_MAX}" in captured.err


@pytest.mark.parametrize("parts", [PARTS_MAX + 1, 300_000_000])
def test_stats_word_with_too_many_parts_cannot_be_parsed(capsys, parts):
    word = f"1^({parts})"
    assert run(["stats", word]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot parse {word}: part count {parts} is above the limit {PARTS_MAX}\n"


def test_tail_at_its_limit_runs(capsys):
    assert run(["tail", f"({cli.TAIL_MU_MAX})", "--count", "1"]) == 0
    assert len(lines(capsys)) == 1


def test_tail_limit_is_in_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tail", "--help"])
    assert exc.value.code == 0
    assert f"|MU| at most {cli.TAIL_MU_MAX}" in capsys.readouterr().out


@pytest.mark.parametrize("mu", ["0", "1", "21", "1^4", "3^21^2"])
def test_tail_entries_match_the_printed_vectors(capsys, mu):
    for argv in (["--count", str(c)] for c in range(40)):
        entries = cli._tail_entries(parse_partition(mu), int(argv[1]), None)
        assert run(["tail", mu, *argv]) == 0
        assert entries == sum(len(line.split()[0]) for line in lines(capsys))
    for j in range(8):
        entries = cli._tail_entries(parse_partition(mu), 10, j)
        assert run(["tail", mu, "--plateau", str(j)]) == 0
        assert entries == sum(len(line.split()[0]) for line in lines(capsys))


@pytest.mark.parametrize(
    "argv",
    [["1^(1000)", "--count", "40000"], ["21", "--count", "40000"], ["0", "--plateau", "2646"]],
)
def test_tail_above_its_entries_limit_is_usage_error(capsys, argv):
    mu = parse_partition(argv[0])
    count, j = (int(argv[2]), None) if argv[1] == "--count" else (10, int(argv[2]))
    entries = cli._tail_entries(mu, count, j)
    assert entries > cli.TAIL_ENTRIES_MAX
    with pytest.raises(SystemExit) as exc:
        run(["tail", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tail: {entries} vector entries to print, above the limit {cli.TAIL_ENTRIES_MAX}" in captured.err


def test_tail_entries_limit_is_in_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tail", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"a run prints at most {cli.TAIL_ENTRIES_MAX} vector entries" in out


def test_ti2_limit_is_in_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["ti2", "--help"])
    assert exc.value.code == 0
    assert f"|MU| at most {cli.TI2_MAX}" in capsys.readouterr().out


def test_catalan_chain_share_above_its_length_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["catalan", str(cli.CATALAN_MU_N_MAX + 1), "--mu", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"catalan: N {cli.CATALAN_MU_N_MAX + 1} is above the limit {cli.CATALAN_MU_N_MAX} for --mu"
        in captured.err
    )


def test_catalan_chain_share_above_the_build_limit_is_usage_error(capsys):
    # the share needs the collection built to |MU|, so |MU| has the build limit
    with pytest.raises(SystemExit) as exc:
        run(["catalan", "3", "--mu", "7^4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"catalan: |MU| 28 is above the limit {cli.BUILD_MAX} for --mu" in captured.err


def test_catalan_chain_share(capsys):
    assert run(["catalan", "7", "--mu", "1111"]) == 0
    assert lines(capsys) == [
        "q^14 t^3 + q^13 t^4 + q^12 t^5 + q^11 t^6 + q^10 t^7 + q^9 t^8"
        " + q^8 t^9 + q^7 t^10 + q^6 t^11 + q^5 t^12 + q^4 t^13"
    ]
    assert run(["catalan", "2", "--mu", "1"]) == 0
    assert lines(capsys) == ["0"]


def test_catalan_missing_chain(capsys):
    assert run(["catalan", "7", "--mu", "61"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no chain stored for 61" in captured.err


def test_catalan_non_flagpole_answers_without_building(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("extend_all called")

    monkeypatch.setattr(builder, "extend_all", no_build)
    assert run(["catalan", "3", "--mu", "6^4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no chain stored for 6^4" in captured.err


def test_catalan_flag_type_without_chain_answers_without_building(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("extend_all called")

    monkeypatch.setattr(builder, "extend_all", no_build)
    assert run(["catalan", "3", "--mu", "921^7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no chain stored for 921^7\n"


def test_skipped_partitions_get_no_chain(coll16):
    # `catalan --mu` skips the build only where extend_all gives no chain:
    # through deficit 16, at the 14 flagpole partitions whose flag type has none
    skipped = [
        mu
        for n in range(6, 17)
        for mu in partitions_of(n)
        if is_flagpole(mu) and not cli._may_get_chain(mu)
    ]
    assert len(skipped) == 14
    assert not set(skipped) & set(coll16.chains)
    assert all(cli._may_get_chain(mu) for mu in coll16.chains)


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


def test_verify_formats_only_the_rows_it_prints(tmp_path, capsys, monkeypatch):
    """Without --verbose a passing file prints the summary and formats no row."""
    out = tmp_path / "c7.json"
    assert run(["build", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    formatted = []
    real = cli.report_lines
    monkeypatch.setattr(cli, "report_lines", lambda rows: formatted.extend(rows) or real(rows))
    assert run(["verify", str(out)]) == 0
    assert lines(capsys) == ["365/365 checks passed"]
    assert formatted == []
    assert run(["verify", str(out), "--verbose"]) == 0
    assert len(lines(capsys)) == 366 and len(formatted) == 365


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


def test_verify_rejects_a_missing_chain(tmp_path, capsys):
    out = tmp_path / "c16.json"
    assert run(["build", "16", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["chains"] = [r for r in payload["chains"] if r["mu"] != "5"]
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert lines(capsys) == [
        "deficit 5: disjoint FAIL chains hold 0 of the 1 classes at dinv 1",
        "3130/3131 checks passed",
    ]


def test_verify_rejects_an_empty_collection(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"format": 1, "k_max": 0, "chains": []}')
    assert run(["verify", str(empty)]) == 1
    assert lines(capsys) == [
        "deficit 0: disjoint FAIL chains hold 0 of the 1 classes at dinv 0",
        "0/1 checks passed",
    ]


def test_verify_fails_an_unreduced_generator(tmp_path, capsys):
    """A generator stored as a longer vector of its class loads and fails basic-a,
    with the stored vector as witness; every other row reads the class."""
    out = tmp_path / "c6.json"
    assert run(["build", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    rec = next(r for r in payload["chains"] if r["mu"] == "1^4")
    assert rec["generators"][1] == "001221"
    rec["generators"][1] = "0112332"
    rec["certificate"] = _certificate(rec)
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert lines(capsys) == [
        "1^4: basic-a FAIL element (0, 1, 1, 2, 3, 3, 2) at slot 5",
        "313/314 checks passed",
    ]


def test_verify_fails_a_chain_stored_above_its_amh_horizon(tmp_path, capsys):
    """A chain that starts past its amh horizon holds no element to check: it
    gets its single failing basic-a row, not a traceback."""
    out = tmp_path / "c6.json"
    assert run(["build", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    rec = next(r for r in payload["chains"] if r["mu"] == "1")
    rec["start"] = 6  # the amh horizon of 1 is 5
    rec["certificate"] = _certificate(rec)
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert lines(capsys) == [
        "1: basic-a FAIL Chain(1, start=6) starts above its amh horizon 5",
        "deficit 1: disjoint FAIL chains hold 0 of the 1 classes at dinv 17",
        "299/301 checks passed",
    ]


def test_verify_opposite_witness_names_the_first_difference(tmp_path, capsys, coll16):
    """The 1 chain of the deficit-16 file stored at start 6 fails every opposite
    row from n = 3; each witness names the first differing term, the side that
    holds it and the two term counts, not both path sums (284 KB of output)."""
    out = tmp_path / "c16.json"
    builder.save_collection(coll16, out)
    payload = json.loads(out.read_text())
    rec = next(r for r in payload["chains"] if r["mu"] == "1")
    rec["start"] = 6
    rec["certificate"] = _certificate(rec)
    out.write_text(json.dumps(payload))
    assert run(["verify", str(out), "--opposite", "40"]) == 1
    text = capsys.readouterr().out
    assert len(text.encode()) < 8192
    rows = text.splitlines()
    assert rows[1] == (
        "1: opposite-n3 FAIL q^6 t^-4 first differs, in the swapped partner sum; 1 vs 1 terms"
    )
    assert rows[-1] == "9452/9492 checks passed"


def test_negative_start_is_a_load_error(tmp_path, capsys):
    """A dinv is never negative, so a stored start below 0 is refused on load,
    before verify could walk |start| elements toward dinv 0."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(collection(certified(start=-100_000), k_max=0)))
    assert run(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot load {bad}: 0 has start -100000, below the least dinv 0\n"


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
    "negative-k_max": {"format": 1, "k_max": -1, "chains": []},
    "negative-start": collection(certified(start=-1)),
    "size-changing-pairing": collection(
        certified(mu="1", partner="1^2", start=2, generators=["001"]),
        certified(mu="1^2", partner="1", start=1, generators=["0011"]),
        k_max=2,
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


@pytest.mark.parametrize(
    "word,message",
    [
        ("0,0", "unexpected ',' in '0,0'"),
        ("0013", "not a quasi-Dyck vector: (0, 0, 1, 3)"),
        ("", "not a quasi-Dyck vector: ()"),
    ],
    ids=["comma", "rise-of-2", "empty"],
)
@pytest.mark.parametrize("mu", ["21", "421^7"])  # digit words only; a parenthesized word first
@pytest.mark.parametrize("command", ["verify", "export"])
def test_bad_generator_in_a_certified_record(tmp_path, capsys, coll16, command, mu, word, message):
    """A bad generator word that passes the certificate check fails the load
    with the message of that word read alone."""
    payload = builder.collection_payload(coll16)
    rec = next(r for r in payload["chains"] if r["mu"] == mu)
    assert ("(" in rec["generators"][0]) == (mu == "421^7")
    rec["generators"][len(rec["generators"]) // 2] = word
    rec["certificate"] = _certificate(rec)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run([command, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot load {bad}: {message}\n"


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


def test_readme_python_block_runs():
    """The python block under `## Library` in README.md runs, and the values
    its comments state hold."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["c"] == (0, 1, 2, 2, 0, 1, 1)
    assert (scope["dinv"](scope["c"]), scope["defc"](scope["c"])) == (10, 4)
    assert scope["coll"].k_max == 12


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
