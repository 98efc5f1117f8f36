"""Pinned bytes of the command line: the help texts, the transcripts of
fresh ``python -m coinvest`` processes, and the sha256 of the files ``run``
writes for a few configs. ``test_config_cli`` checks the program against them."""

import json

import pytest

from coinvest import __version__

_TOP_HELP = """\
Usage: coinvest [OPTIONS] COMMAND [ARGS]...

  Plan a capacity coinvestment: solve it, split the payoff, settle the bill.

Options:
  --version  Show the version and exit.
  --help     Show this message and exit.

Commands:
  presets  List the configuration presets shipped with the package.
  run      Solve the configured scenario and write records.csv, summary.json, meta.json.
  verify   Run the property suite on the configured instances and report pass/fail.
"""

_RUN_HELP = """\
Usage: coinvest run [OPTIONS] CONFIG

  Solve the configured scenario and write records.csv, summary.json, meta.json.

  CONFIG is a preset name, a JSON file path, or inline JSON.

Options:
  --out TEXT            Output directory (overrides the config).
  --strict              Exit nonzero if any property check fails.
  --seed INTEGER        Random seed (overrides the config).
                        [0<=x<=9223372036854775807]
  --method [closed|sample]
                        Shapley method (overrides the config).
  --help                Show this message and exit.
"""

_VERIFY_HELP = """\
Usage: coinvest verify [OPTIONS] CONFIG

  Run the property suite on the configured instances and report pass/fail.

  Properties: supermodularity of every instance, core membership of the
  Shapley payoffs, agreement of the three Shapley routes, and settlement
  balance. Up to the enumeration bound, the core and supermodularity are
  decided both structurally and by brute force, and must agree; past it,
  only the sampler checks the closed form. A property that passed without
  one of its legs on some instances also gets a line on stderr, with the
  count and the first such instance's reason. CONFIG is a preset name, a
  JSON file path, or inline JSON.

Options:
  --help  Show this message and exit.
"""

_PRESETS_HELP = """\
Usage: coinvest presets [OPTIONS]

  List the configuration presets shipped with the package.

Options:
  --help  Show this message and exit.
"""


def _refused(usage: str, message: str) -> str:
    """The stderr of a usage error: ``usage`` starts with the program name."""
    prog = usage.partition(" [")[0]
    return f"Usage: {usage}\nTry '{prog} --help' for help.\n\nError: {message}\n"


_TOP = "coinvest [OPTIONS] COMMAND [ARGS]..."
_RUN = "coinvest run [OPTIONS] CONFIG"

# (argv, exit code, stdout, stderr) of a fresh ``python -m coinvest`` in an
# empty directory with COLUMNS=80, byte for byte
TRANSCRIPTS = [
    pytest.param([], 1, "", _TOP_HELP, id="bare"),
    pytest.param(["--help"], 0, _TOP_HELP, "", id="help"),
    pytest.param(["run", "--help"], 0, _RUN_HELP, "", id="run-help"),
    pytest.param(["verify", "--help"], 0, _VERIFY_HELP, "", id="verify-help"),
    pytest.param(["presets", "--help"], 0, _PRESETS_HELP, "", id="presets-help"),
    pytest.param(["--version"], 0, f"coinvest, version {__version__}\n", "", id="version"),
    # the first of --help and --version given wins
    pytest.param(["--help", "--version"], 0, _TOP_HELP, "", id="help-version"),
    pytest.param(["--version=1"], 1, "",
                 _refused(_TOP, "Option '--version' does not take a value."), id="version=1"),
    pytest.param(["--help=1"], 1, "",
                 _refused(_TOP, "Option '--help' does not take a value."), id="help=1"),
    pytest.param(["--bogus"], 1, "", _refused(_TOP, "No such option '--bogus'."), id="top-bogus"),
    pytest.param(["--version", "--bogus"], 1, "", _refused(_TOP, "No such option '--bogus'."),
                 id="version-then-bogus"),
    pytest.param(["run", "fig1", "--bogus"], 1, "", _refused(_RUN, "No such option '--bogus'."),
                 id="run-bogus"),
    pytest.param(["bogus"], 1, "", _refused(_TOP, "No such command 'bogus'."), id="bogus"),
    pytest.param(["bogus", "--help"], 1, "", _refused(_TOP, "No such command 'bogus'."),
                 id="bogus-help"),
    pytest.param(["--help", "bogus"], 0, _TOP_HELP, "", id="help-bogus"),
    pytest.param(["--", "--"], 1, "", _refused(_TOP, "No such command '--'."), id="dashes"),
    pytest.param(["-", "x"], 1, "", _refused(_TOP, "No such command '-'."), id="dash"),
    pytest.param(["run", "fig1", "--meth", "sample"], 1, "",
                 _refused(_RUN, "No such option '--meth'."), id="option-prefix"),
    pytest.param(["run", "--version"], 1, "", _refused(_RUN, "No such option '--version'."),
                 id="run-version"),
    pytest.param(["run"], 1, "", _refused(_RUN, "Missing argument 'CONFIG'."), id="run"),
    pytest.param(["verify"], 1, "",
                 _refused("coinvest verify [OPTIONS] CONFIG", "Missing argument 'CONFIG'."),
                 id="verify"),
    pytest.param(["run", "fig1", "extra"], 1, "",
                 _refused(_RUN, "Got unexpected extra argument (extra)"), id="extra"),
    pytest.param(["presets", "x", "y"], 1, "",
                 _refused("coinvest presets [OPTIONS]", "Got unexpected extra arguments (x y)"),
                 id="presets-extras"),
    pytest.param(["run", "fig1", "--out"], 1, "",
                 _refused(_RUN, "Option '--out' requires an argument."), id="out-no-value"),
    pytest.param(["run", "fig1", "--strict=1"], 1, "",
                 _refused(_RUN, "Option '--strict' does not take a value."), id="strict=1"),
    pytest.param(["run", "fig1", "--seed", "abc"], 1, "",
                 _refused(_RUN, "Invalid value for '--seed': 'abc' is not a valid integer."),
                 id="seed-abc"),
    pytest.param(["run", "fig1", "--seed", "-1"], 1, "",
                 _refused(_RUN, "Invalid value for '--seed': -1 is not in the range "
                                "0<=x<=9223372036854775807."), id="seed-negative"),
    pytest.param(["run", "fig1", "--method", "xx"], 1, "",
                 _refused(_RUN, "Invalid value for '--method': 'xx' is not one of "
                                "'closed', 'sample'."), id="method-xx"),
    # values are checked in the order run lists its options, before CONFIG
    pytest.param(["run", "--method", "xx", "--seed", "abc"], 1, "",
                 _refused(_RUN, "Invalid value for '--seed': 'abc' is not a valid integer."),
                 id="method-xx-seed-abc"),
    pytest.param(["run", "--seed", "abc"], 1, "",
                 _refused(_RUN, "Invalid value for '--seed': 'abc' is not a valid integer."),
                 id="seed-abc-no-config"),
    pytest.param(["run", "--", "fig1"], 0, "wrote 10 records to out/records.csv\n", "",
                 id="dashes-config"),
    pytest.param(["run", "fig1", "--", "--strict"], 1, "",
                 _refused(_RUN, "Got unexpected extra argument (--strict)"), id="dashes-extra"),
    # the "--" goes with CONFIG only right beside it, as argparse read it
    pytest.param(["run", "fig1", "--strict", "--", "x"], 1, "",
                 _refused(_RUN, "Got unexpected extra arguments (-- x)"), id="dashes-apart"),
    pytest.param(["presets", "--"], 1, "",
                 _refused("coinvest presets [OPTIONS]", "Got unexpected extra argument (--)"),
                 id="presets-dashes"),
    pytest.param(["run", "fig1", "--out="], 0, "wrote 10 records to records.csv\n", "",
                 id="out="),
    pytest.param(["run", "fig1", "--out", "-x", "--strict", "--method=closed"], 0,
                 "wrote 10 records to -x/records.csv\n", "", id="out-dash-x"),
    # a value of "--" is a value too
    pytest.param(["run", "fig1", "--out=--"], 0, "wrote 10 records to --/records.csv\n", "",
                 id="out=--"),
    pytest.param(["run", "fig1", "--seed", "--"], 1, "",
                 _refused(_RUN, "Invalid value for '--seed': '--' is not a valid integer."),
                 id="seed-dashes"),
    # the last value given wins, and only it is checked
    pytest.param(["run", "fig1", "--seed", "abc", "--seed", "7", "--out", "o"], 0,
                 "wrote 10 records to o/records.csv\n", "", id="seed-repeated"),
    pytest.param(["run", "fig1", "--seed", "abc", "--help"], 0, _RUN_HELP, "",
                 id="help-wins-over-a-bad-value"),
    pytest.param(["run", "--help", "--bogus"], 1, "", _refused(_RUN, "No such option '--bogus'."),
                 id="unknown-option-wins-over-help"),
    pytest.param(["run", "fig1", "--strict=1", "--bogus"], 1, "",
                 _refused(_RUN, "No such option '--bogus'."), id="unknown-wins-over-flag-value"),
    pytest.param(["run", "fig1", "--strict=1", "--help=1"], 1, "",
                 _refused(_RUN, "Option '--strict' does not take a value."),
                 id="first-flag-value"),
    pytest.param(["run", "--help", "--strict=1"], 1, "",
                 _refused(_RUN, "Option '--strict' does not take a value."),
                 id="flag-value-wins-over-help"),
]


_PINNED_CUSTOM = json.dumps({
    "scenario": "custom",
    "market": {"T": 4},
    "custom_sps": [
        {"id": "A", "beta": 2e-6, "loads": [3.0e4, 1.0e4, 0.0, 2.5e4]},
        {"id": "B", "beta": 0.0, "loads": [1.0e4, 1.0e4, 1.0e4, 1.0e4]},
        {"id": "C", "beta": 3e-6, "daily_total": 5.0e4},
    ],
})


# (run arguments, sha256 of records.csv, summary.json and meta.json)
PINNED_OUTPUTS = [
    pytest.param(
        ["fig1"],
        ("bc31a25bb1b89f6f10c620a13229d8b7de1698fae5f89c372458b6d5151eb9f3",
         "8c2420242b36db8f9f2f4540215eff49ee972218ffabac136891a59382a63dac",
         "3b93d3d42eaf39f32e6d07f2e8c69f5624a669eab576b41775d77600e36e9c84"),
        id="fig1",
    ),
    pytest.param(
        ["fig6"],
        ("9cf7d9a55e4901c7e6b0319be45966c88da3f5388baa0fe83a3af65943d47351",
         "ddc888d9bf8302067e1c45dad0ff7a988781348ffcf2bec8210898393d508c89",
         "e8914e7fc077411502b0c582744863e2f4ef0233884b4e631220c664c53c05b2"),
        id="fig6",
    ),
    pytest.param(
        ["fig1", "--method", "sample", "--seed", "3"],
        ("bfa578f370dfebb7b3a202138d997e2974ab7565331bbf214d81ae744eb228cd",
         "ce3787bcb657fc9c1eb1b0637418e73ca812bb080944aba39a6097f05c4cbb2d",
         "85e689e953b6a6001509c2b0a2e4d529d01a0adb0d940c79834848426670a389"),
        id="fig1-sample-seed3",
    ),
    pytest.param(
        # explicit loads, and null providers: B has beta 0, A too little
        [_PINNED_CUSTOM],
        ("69f3089f482f1230eb0bb9de7185b48af65a9298d2736c384ade759c33f93b96",
         "7b32c8996529736627d7e221ec894c18112e5576ebbd86943dc738f898bb1bcf",
         "fc7af420866a5dbd3bcac022890a822b9897e01e94ca3f0f7efe9206a088147b"),
        id="custom-null-providers",
    ),
    pytest.param(
        ['{"l_total_grid": [0.0, 1e308]}'],
        ("44bd595a1485fe42ef2e78255c7b0f822604b7d8374a72e21b792a10d7f7355f",
         "225b380a9874e6050318f0504f7bddcb74e05c614beb4867ab6cea741bab6867",
         "18bfa25f4bf4a25182fb061139110bff388015c0fc0e254bce0de355d0a83b31"),
        id="zero-and-huge-load",
    ),
]
