from pathlib import Path

import linrestrict


def test_every_export_resolves_once():
    names = linrestrict.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(linrestrict, name)]
    assert missing == []


def test_piece_rules_live_in_their_modules():
    """The step-state protocol is written and read in exactline.py alone,
    the kernels' ratio mapping stays private to _kernels.py, and analysis
    takes nothing from attributions."""
    src = {p.name: p.read_text(encoding="utf-8")
           for p in Path(linrestrict.__file__).parent.glob("*.py")}
    assert "from .attributions" not in src["analysis.py"]
    assert [name for name, text in src.items() if "_states" in text] == ["exactline.py"]
    assert [name for name, text in src.items() if "_global_ratios" in text] == [
        "_kernels.py"
    ]
