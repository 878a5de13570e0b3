import os
import random

import pytest

from mucrit.fp import FpSet


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_subset(rng, p, size, avoid=()):
    pool = [x for x in range(p) if x not in avoid]
    return FpSet(p, rng.sample(pool, size))


def root_multiplicity(f, a):
    """Multiplicity of a as a root of the polynomial f (0 if not a root), by
    repeated synthetic division: an oracle for the package's pole orders."""
    m = 0
    while f:
        q, r = f.synth_div(a)
        if r:
            break
        m, f = m + 1, q
    return m


def allow_cpus(monkeypatch, n):
    """Let ``search._fan_out`` see n usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch):
    """Wrap os.fork in a counter that still forks; return the counter."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks
