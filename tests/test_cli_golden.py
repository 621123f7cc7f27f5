"""The README's command-line examples, compared byte for byte with stored
outputs.

Each example runs ``main(argv)`` in-process; its JSON output, without the
run-dependent ``elapsedSeconds``, must equal ``golden_cli/<name>.json``
exactly, so a refactor that changes any printed digit, field or verdict
fails here.  ``repro`` is left out (it is a battery, not an example).
"""
import json
import pathlib

import pytest

from heightforge.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli"


def _fixture(name: str) -> str:
    return str(ROOT / "fixtures" / name)


EXAMPLES = {
    "height": ["height", "--family", _fixture("unicritical2.json"), "--t", "-1", "--z", "0"],
    "green": ["green", "--family", _fixture("unicritical2.json"), "--t", "1/9",
              "--place", "3", "--z", "1/3"],
    "pairing": ["pairing", "--family", _fixture("unicritical2.json"), "--t", "0",
                "--place", "inf", "--x", "2", "--y", "3"],
    "constants": ["constants", "--family", _fixture("unicritical4.json"), "--bad-places", "0"],
    "resultant": ["resultant", "--family", _fixture("weighted632.json"), "--t", "5/7"],
    "obstruct": ["obstruct", "--family", _fixture("unicritical2.json"), "--t", "1/8"],
    "certify": ["certify", "--family", _fixture("unicritical2.json"), "--t", "1/3", "--z", "1/2"],
    "criterion": ["criterion", "--d", "2", "--m", "4", "--t", "1"],
    "cover": ["cover", "--cover", _fixture("quintic_cover.json"), "--e", "2", "--t", "1"],
    "scan": ["scan", "--family", _fixture("unicritical2.json"), "--t-bound", "1.2",
             "--z-bound", "1.7"],
    # odd e, so -z gets its own orbit
    "scan_weighted632": ["scan", "--family", _fixture("weighted632.json"), "--t-bound", "1.7",
                         "--z-bound", "2.5"],
    # even e, so -z's event is read from z's orbit
    "scan_unicritical4": ["scan", "--family", _fixture("unicritical4.json"), "--t-bound", "1.7",
                          "--z-bound", "2.5"],
}


def render(capsys, argv: list[str]) -> str:
    """The example's JSON as the CLI prints it, minus elapsedSeconds."""
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    out.pop("elapsedSeconds", None)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_golden(capsys, tmp_path, name):
    argv = list(EXAMPLES[name])
    if name == "scan":
        csv_path = tmp_path / "findings.csv"
        argv += ["--csv", str(csv_path)]
    assert render(capsys, argv) == (GOLDEN / f"{name}.json").read_text()
    if name == "scan":
        assert csv_path.read_text() == (GOLDEN / "scan.csv").read_text()
