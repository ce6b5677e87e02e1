import ilc_sos


def test_every_exported_name_resolves():
    assert len(set(ilc_sos.__all__)) == len(ilc_sos.__all__)
    missing = [name for name in ilc_sos.__all__ if not hasattr(ilc_sos, name)]
    assert missing == []
