import ap3


def test_every_export_resolves():
    missing = [name for name in ap3.__all__ if not hasattr(ap3, name)]
    assert missing == []
    assert len(set(ap3.__all__)) == len(ap3.__all__)
