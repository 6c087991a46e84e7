"""The acceptance suite's trial grid, `_grid`, on a toy work function.

The full suite runs in test_acceptance.py; this checks the grid's own
contract quickly: blocks come back grouped per cell and in block order, each
block sees the stream Rng(seed, (crit, *cell)), every parallel_map item
survives pickle, and the worker count does not change the output.
"""

import pickle

from threshlab import suite
from threshlab.core import Rng
from threshlab.suite import _BLOCK, _Ctx, _grid

CELLS = [(0, 1), (), (2,)]  # criterion 6 runs the one empty cell
BLOCKS = 3


def toy_block(rng, cell, b):
    return rng.path, cell, b, int(rng.substream(b).generator.integers(1 << 30))


def test_grid_blocks_per_cell_in_order_through_pickle(monkeypatch):
    calls = []
    real_map = suite.parallel_map

    def pickling_map(fn, items, *, workers):
        calls.append(workers)
        fn = pickle.loads(pickle.dumps(fn))
        items = [pickle.loads(pickle.dumps(x)) for x in items]
        return real_map(fn, items, workers=workers)

    monkeypatch.setattr(suite, "parallel_map", pickling_map)
    one = _grid(_Ctx(7, 1), 42, toy_block, CELLS, BLOCKS * _BLOCK)
    two = _grid(_Ctx(7, 2), 42, toy_block, CELLS, BLOCKS * _BLOCK)
    assert calls == [1, 2]
    assert one == two
    assert one == [
        [
            ((42, *cell), cell, b,
             int(Rng(7, (42, *cell, b)).generator.integers(1 << 30)))
            for b in range(BLOCKS)
        ]
        for cell in CELLS
    ]

