"""A fixed amount of CPU-bound work that does not touch ``gesselwalks``.

The driver runs it as a child after every job.  Its time tracks how fast the
host is running at that moment, so the driver can scale job times to a fixed
host pace (see ``run.py``).  The work is the reference recurrence, so it is
the same kind of work the jobs do: Python loops over big-integer adds.
"""

from reference import walk_layers

for _ in walk_layers(100):
    pass
