"""Fault injection for the equation checks' negative controls.

The kernel and H checks read only the dp's packed layer stream,
``walks.layers``, and the root check only the axis memo ``walks.WalkTable``
it builds, so a negative control bumps both where the checks read them:
``bumped_stream`` patches ``walks.layers`` and ``walks.WalkTable`` for the
length of a ``with`` block.  Every layer the stream yields is a copy with
the bumps added, and every table built has them added to its axes.  The
tests build the dict reference for the same bump with ``bump_coeff`` on
``series.build_G``, outside the block, since ``build_G`` reads the same
stream.
"""

from contextlib import contextmanager
from unittest import mock

from gesselwalks import walks
from gesselwalks.series import make_series


@contextmanager
def bumped_stream(bumps):
    """Within the block, ``walks.layers`` yields each layer m as a copy with
    d added to the slot of cell (m, n1, n2), for each (m, n1, n2): d in the
    mapping ``bumps``, and ``walks.WalkTable(m_max)`` builds a table with d
    added to that axis cell for each m <= m_max (a later ``extend`` adds
    layers unbumped).

    A cell must be reachable and its bumped count F(m; n1, n2) + d in
    0..F(m; n1, n2) + 9, so that the slot stays a nonnegative count well
    inside the widths the dp and the checks choose; a bump outside that
    domain raises ``ValueError`` before anything is patched.
    """
    bumps = dict(bumps)
    for (m, n1, n2), d in bumps.items():
        if not (walks.reachable(m, n1, n2) and -walks.count_walks(m, n1, n2) <= d <= 9):
            raise ValueError(f"bump {d} at {(m, n1, n2)} is outside the stream's domain")
    layers, table = walks.layers, walks.WalkTable

    def bumped(*args):
        for m, (width, layer) in enumerate(layers(*args)):
            layer = list(layer)
            for (bm, n1, n2), d in bumps.items():
                if bm == m:
                    layer[n1] += d << width * n2
            yield width, layer

    def bumped_table(m_max=0):
        built = table(m_max)
        for (m, n1, n2), d in bumps.items():
            if m <= m_max and not (n1 and n2):
                row, column = built._axes[m]
                if not n2:
                    row[n1] += d
                if not n1:
                    column[n2] += d
        return built

    with mock.patch.object(walks, "layers", bumped), \
            mock.patch.object(walks, "WalkTable", bumped_table):
        yield


def bump_coeff(series, mono, delta=1):
    """Copy of a ``series.TruncSeries3`` with the coefficient of ``mono``
    shifted by delta: the dict reference of one stream bump."""
    return make_series(series.caps, [*series.coeffs.items(), (mono, delta)])
