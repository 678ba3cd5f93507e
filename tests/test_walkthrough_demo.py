"""The walkthrough demo (``demos/homology_sphere_walkthrough.py``) prints
its golden, ``tests/data/walkthrough.out``, byte for byte."""

from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "walkthrough.out"


def test_walkthrough_prints_its_golden(capsys, walkthrough_demo):
    walkthrough_demo.main()
    assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()
