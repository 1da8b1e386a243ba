import linrestrict


def test_every_export_resolves_once():
    names = linrestrict.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(linrestrict, name)]
    assert missing == []
