"""Test ids: a `tag` parameter reads as its group's name in an id
('tetra' as 'tetrahedral', 'fuchsian' as 'fuchsian-inf-inf-inf'), so each
parametrized test keeps the id it has always had."""

_GROUP_IDS = {"tetra": "tetrahedral", "octa": "octahedral",
              "icosa": "icosahedral", "fuchsian": "fuchsian-inf-inf-inf"}


def pytest_make_parametrize_id(config, val, argname):
    return _GROUP_IDS.get(val) if argname == "tag" else None
