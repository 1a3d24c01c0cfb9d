"""Oracle for `theta`: the walk over the whole p x p grid.

Each column is read top to bottom, row by row, with one cell lookup and
one subset lookup per grid square, as the library did before it read
each column's word once and worked on row bitmasks.
"""


def theta_grid_walk(d, subset):
    members = set(subset)
    total = 0
    for c in range(1, d.p + 1):
        open_count = 0
        for r in range(1, d.p + 1):
            in_diagram = (r, c) in d.cells
            in_subset = r in members
            if in_diagram and in_subset:
                total += 1
            elif in_diagram:
                if open_count > 0:
                    open_count -= 1
                    total += 1
            elif in_subset:
                open_count += 1
    return total
