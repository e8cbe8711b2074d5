"""Fault injection for the equation checks' negative controls.

The kernel, H and root checks read only the dp's packed layer stream,
``walks.layers``, so a negative control bumps that stream where the checks
read it: ``bumped_stream`` patches ``walks.layers`` for the length of a
``with`` block, and every layer it yields is a copy with the bumps added.
The tests build the dict reference for the same bump with
``series.bump_coeff`` on ``series.build_G``, outside the block, since
``build_G`` reads the same stream.
"""

from contextlib import contextmanager
from unittest import mock

from gesselwalks import walks


@contextmanager
def bumped_stream(bumps):
    """Within the block, ``walks.layers`` yields each layer m as a copy with
    d added to the slot of cell (m, n1, n2), for each (m, n1, n2): d in the
    mapping ``bumps``.

    A cell must be reachable and its bumped count F(m; n1, n2) + d in
    0..F(m; n1, n2) + 9, so that the slot stays a nonnegative count well
    inside the widths the dp and the checks choose; a bump outside that
    domain raises ``ValueError`` before anything is patched.
    """
    bumps = dict(bumps)
    for (m, n1, n2), d in bumps.items():
        if not (walks.reachable(m, n1, n2) and -walks.count_walks(m, n1, n2) <= d <= 9):
            raise ValueError(f"bump {d} at {(m, n1, n2)} is outside the stream's domain")
    layers = walks.layers

    def bumped(*args):
        for m, (width, layer) in enumerate(layers(*args)):
            layer = list(layer)
            for (bm, n1, n2), d in bumps.items():
                if bm == m:
                    layer[n1] += d << width * n2
            yield width, layer

    with mock.patch.object(walks, "layers", bumped):
        yield
