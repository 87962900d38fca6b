import legendrian_lab


def test_every_exported_name_resolves():
    missing = [name for name in legendrian_lab.__all__ if not hasattr(legendrian_lab, name)]
    assert missing == []
    assert len(set(legendrian_lab.__all__)) == len(legendrian_lab.__all__)
