import qsoftbayes


def test_each_exported_name_is_listed_once_and_resolves():
    names = qsoftbayes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qsoftbayes, name), name
