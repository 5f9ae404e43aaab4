import eploop


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from eploop import *", namespace)  # AttributeError if __all__ names something eploop lacks
    assert sorted(set(eploop.__all__) - set(namespace)) == []
    assert len(set(eploop.__all__)) == len(eploop.__all__)
