"""The rows of a census, rebuilt from its classes and class index: the
table T[s, w] the kernel counted, one row per census row, and each row's
weight (-1 where no vector of weight <= wmax reaches it)."""
from types import SimpleNamespace

import numpy as np


def rows_of(census):
    """SimpleNamespace(table, weights): the int64 census table and the
    weight of each of its rows, read through census.index."""
    table = np.array([c.distribution.counts for c in census.classes], dtype=np.int64)
    weights = np.array([c.weight for c in census.classes], dtype=np.int64)
    return SimpleNamespace(table=table[census.index], weights=weights[census.index])
