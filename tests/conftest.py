import pytest

from p5tensor import compute_record, validate

from tables import TableGroup, _rmul1


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run the slow sweeps: the collector and the pc sequences "
             "against the tables at p = 11, every row at every prime up to "
             "101, every parameter value at 1009, 1013, 1019 and 1039, and "
             "random presentations at p = 5 and 7 that hit every catalog "
             "key",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def records():
    """Validated invariant records, computed once per (family, prime).

    Several test modules walk the same rows; building a group and taking
    its census is the expensive part, so share the results session-wide.
    """
    cache = {}

    def get(family, p, **params):
        key = (str(family), p, tuple(sorted(params.items())))
        if key not in cache:
            rec = compute_record(str(family), p, dict(params) or None)
            validate(rec)
            cache[key] = rec
        return cache[key]

    return get


@pytest.fixture(scope="session")
def collector_mismatches():
    """First (element, j) where the collector's x * g_j differs from the
    table R[j], or None when they agree on all p^5 elements.

    Agreement everywhere implies that the collector closes the
    generators to all p^5 elements: from the identity, right
    multiplication by g1, ..., g5 in turn reaches every normal form
    through R.
    """

    def first(P):
        g = TableGroup(P)
        digs = [g.exps_of(idx) for idx in range(g.n)]
        R = [None] + [g.R[j].tolist() for j in range(1, 6)]
        for idx, e in enumerate(digs):
            for j in range(1, 6):
                if _rmul1(P, e, j) != digs[R[j][idx]]:
                    return e, j
        return None

    return first
