"""Byte-for-byte stdout of the subcommands that no other test pins, the
top-level `symdyn` paths, and the --help and usage errors of every
subcommand, which the parser of one subcommand prints as the full parser
does."""

from __future__ import annotations

import sys

import pytest

from symdyn import cli

_STDOUT = [
    (["graph-speed", "--family", "cayley_zd", "--D", "2", "--vertex", "0,0",
      "--shift", "1,0", "--nmax", "8"],
     '# config: {"D": 2, "cap": 32, "family": "cayley_zd", "nmax": 8, "shift": "1,0", '
     '"vertex": "0,0"}\n'
     '# summary: {"cap": 32, "inf_proxy": 1.0, "unknown": 0}\n'
     "n,value\n1,1.0\n2,1.0\n3,1.0\n4,1.0\n5,1.0\n6,1.0\n7,1.0\n8,1.0\n"),
    # past the cap a distance is unknown: an empty CSV cell, left out of inf_proxy
    (["graph-speed", "--family", "cayley_zd", "--D", "2", "--vertex", "0,0",
      "--shift", "3,0", "--cap", "8", "--nmax", "6"],
     '# config: {"D": 2, "cap": 8, "family": "cayley_zd", "nmax": 6, "shift": "3,0", '
     '"vertex": "0,0"}\n'
     '# summary: {"cap": 8, "inf_proxy": 3.0, "unknown": 4}\n'
     "n,value\n1,3.0\n2,3.0\n3,\n4,\n5,\n6,\n"),
    (["sys-odometer-chain", "--system", "odometer", "--m", "2", "--windows", "0|0;1",
      "--horizon", "8"],
     '# config: {"horizon": 8, "m": "2", "system": "odometer", "windows": "0|0;1"}\n'
     '# summary: {"all_permutations": true}\n'
     "window,envelope,trajectories,shift_is_permutation\n"
     "0,0,2,true\n0|1,0|1,4,true\n"),
    (["entropy-tau", "--system", "full_shift", "--alphabet", "2", "--base", "0",
      "--shift", "1", "--nmax", "10"],
     '# config: {"alphabet": 2, "base": "0", "nmax": 10, "shift": "1", '
     '"system": "full_shift"}\n'
     '# summary: {"final_value": 1.1}\n'
     "n,log2_count,value,region_size\n"
     "1,2.0,2.0,2\n2,3.0,1.5,3\n3,4.0,1.3333333333333333,4\n4,5.0,1.25,5\n"
     "5,6.0,1.2,6\n6,7.0,1.1666666666666667,7\n7,8.0,1.1428571428571428,8\n"
     "8,9.0,1.125,9\n9,10.0,1.1111111111111112,10\n10,11.0,1.1,11\n"),
    (["cex-propagation", "--T", "12"],
     '# config: {"T": 12}\n'
     '# summary: {"lower_bound_ok": true}\n'
     "t,rho,floor\n"
     "0,1,1\n1,3,2\n2,5,4\n3,8,7\n4,12,11\n5,16,15\n6,21,20\n7,27,26\n8,33,32\n"
     "9,40,39\n10,48,47\n11,56,55\n12,65,64\n"),
    (["metric-dim", "--system", "full_shift", "--alphabet", "2", "--estuary", "0",
      "--lam", "2", "--eps-min-pow", "8", "--eps-max-pow", "16"],
     '# config: {"alphabet": 2, "eps_max_pow": 16, "eps_min_pow": 8, "eps_step": 2, '
     '"estuary": "0", "lam": 2.0, "scheme": "finite", "system": "full_shift"}\n'
     '# summary: {"lower_slope": 0.9175821972343337, "upper_slope": 0.8480245023417677}\n'
     "eps,scale,log2_cover_lower,log2_cover_upper\n"
     "0.00390625,8.0,9.0,10.0\n0.0009765625,10.0,11.0,12.0\n"
     "0.000244140625,12.0,13.0,14.0\n6.103515625e-05,14.0,15.0,16.0\n"
     "1.52587890625e-05,16.0,17.0,18.0\n"),
    # JSON, with the three flags whose text is read as lists: --m, --estuary
    # and --coeffs
    (["metric-dim", "--system", "odometer", "--m", "2,3", "--estuary", "0;1",
      "--coeffs", "1,0.5", "--eps-min-pow", "2", "--eps-max-pow", "6", "--format", "json"],
     '{"config": {"coeffs": "1,0.5", "eps_max_pow": 6, "eps_min_pow": 2, "eps_step": 2, '
     '"estuary": "0;1", "lam": 2.0, "m": "2,3", "scheme": "finite", "system": "odometer"}, '
     '"rows": [{"eps": 0.25, "log2_cover_lower": 2.584962500721156, '
     '"log2_cover_upper": 2.584962500721156, "scale": 2.0}, {"eps": 0.0625, '
     '"log2_cover_lower": 2.584962500721156, "log2_cover_upper": 2.584962500721156, '
     '"scale": 4.0}, {"eps": 0.015625, "log2_cover_lower": 2.584962500721156, '
     '"log2_cover_upper": 2.584962500721156, "scale": 6.0}], '
     '"summary": {"lower_slope": 0.0, "upper_slope": 0.0}}\n'),
]


@pytest.mark.parametrize("argv,stdout", _STDOUT,
                         ids=[f"{argv[0]}-{argv[-1]}" for argv, _ in _STDOUT])
def test_stdout_pinned(capsys, argv, stdout):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


_COMMANDS = [
    "graph-ball", "graph-dim", "graph-speed", "sys-propagation", "sys-panorama",
    "sys-equicontinuity", "sys-odometer-chain", "entropy-ball", "entropy-tau",
    "cex-roundtrip", "cex-propagation", "metric-dim", "metric-lipschitz", "holder-check",
]


def test_every_subcommand_is_listed():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", _COMMANDS)
def test_subcommand_help_exits_0(capsys, command):
    assert cli.run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: symdyn {command} ")
    assert "--format {csv,json}" in out and "--out OUT" in out


# -- the top-level paths, which build every subcommand ----------------------------

_USAGE = (
    "usage: symdyn [-h]\n"
    "              {" + ",".join(_COMMANDS) + "}\n"
    "              ...\n"
)

_HELP = _USAGE + (
    "\n"
    "Finite-window analysis of symbolic dynamics on digraphs\n"
    "\n"
    "positional arguments:\n"
    "  {" + ",".join(_COMMANDS) + "}\n"
    "    graph-ball          in-neighbor ball sizes\n"
    "    graph-dim           ball-growth exponent estimate\n"
    "    graph-speed         subisometry displacement speed\n"
    "    sys-propagation     light-cone growth at a vertex\n"
    "    sys-panorama        determined-cell layers of a window\n"
    "    sys-equicontinuity  envelope certification\n"
    "    sys-odometer-chain  factor-chain certificate\n"
    "    entropy-ball        pattern density over balls\n"
    "    entropy-tau         pattern growth along a shift orbit\n"
    "    cex-roundtrip       simulate+decode round trips\n"
    "    cex-propagation     quadratic cone growth profile\n"
    "    metric-dim          cylinder-cover dimension bracket\n"
    "    metric-lipschitz    one-step expansion ratios\n"
    "    holder-check        sampled Holder inequality check\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)


def _top_level(argv):
    # argparse of Python 3.12.8 and 3.13.1 on lists invalid choices unquoted
    invalid = "symdyn: error: argument command: invalid choice: 'bogus' (choose from {})\n"
    return {
        (): (2, "", {_USAGE + "symdyn: error: the following arguments are required: command\n"}),
        ("bogus",): (2, "", {_USAGE + invalid.format(", ".join(names)) for names in
                             (map(repr, _COMMANDS), _COMMANDS)}),
        ("--help",): (0, _HELP, {""}),
        ("-h",): (0, _HELP, {""}),
    }[tuple(argv)]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"], ["-h"]], ids=repr)
def test_top_level_pinned(monkeypatch, capsys, argv):
    """`symdyn` alone, with an unknown subcommand and with --help: exit
    code, stdout and stderr, by `run(argv)` and by `run()` on sys.argv."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, errs = _top_level(argv)
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out and captured.err in errs
    monkeypatch.setattr(sys, "argv", ["symdyn", *argv])
    assert cli.run() == code
    assert capsys.readouterr() == captured


def test_run_builds_only_the_named_subcommand(monkeypatch, capsys):
    """`run` builds the parser of its subcommand alone when the first
    argument names one, and of every subcommand otherwise."""
    built, build = [], cli.build_parser

    def recorded(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    for argv in (["cex-propagation", "--T", "3"], ["cex-propagation", "--bogus"],
                 ["bogus"], [], ["--help"], ["--T", "cex-propagation"]):
        cli.run(argv)
    monkeypatch.setattr(sys, "argv", ["symdyn", "cex-propagation", "--T", "2"])
    assert cli.run() == 0
    assert built == ["cex-propagation"] * 2 + [None] * 4 + ["cex-propagation"]
    sub = next(a for a in build("cex-propagation")._actions if a.dest == "command")
    assert list(sub.choices) == ["cex-propagation"]
    capsys.readouterr()


def _parse(parser, argv, capsys):
    """What parsing `argv` gives: the namespace, or the exit code, stdout
    and stderr of a help or a usage error."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("command", _COMMANDS)
def test_one_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, command):
    """--help, a missing required flag (where there is one), a bad --format,
    a bad integer and an unknown flag print the same bytes under both
    parsers."""
    monkeypatch.setenv("COLUMNS", "80")
    cases = [[command, "--help"], [command, "-h"], [command], [command, "--format", "xml"],
             [command, "--format"], [command, "--T", "x"], [command, "--bogus"]]
    for argv in cases:
        full = _parse(cli.build_parser(), argv, capsys)
        assert _parse(cli.build_parser(command), argv, capsys) == full
