import umda_lab


def test_star_import_provides_every_public_name():
    namespace = {}
    exec("from umda_lab import *", namespace)  # a star import is only allowed at module level
    assert [name for name in umda_lab.__all__ if not hasattr(umda_lab, name)] == []
    assert set(umda_lab.__all__) <= set(namespace)
