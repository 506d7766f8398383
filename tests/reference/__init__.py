"""Deliberately naive twins of CLASH's incremental paths, for tests only.

Production code keeps one path for each of the balance pass, the ring repair
and the period's rate assignment.  :mod:`reference.naive_clash` keeps the
slow, obviously right version of each and installs it onto a real
``ClashSystem`` or ``FlowSimulator``; the equivalence suites run the two side
by side and require identical output.  Nothing here is collected as a test.
"""
