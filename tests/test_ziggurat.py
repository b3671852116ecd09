"""The compiled loops' normal against numpy's, branch by branch.

``_stepkernel._SOURCE`` carries a copy of numpy's ``random_standard_normal``
(``normal``).  Here both run on one ``bitgen_t`` whose ``next_uint64``
replays chosen raw words, and each draw must give the same bits from the
same number of words.  A raw word is ``idx | sign << 8 | rabs << 9``; a
uniform double is a word's top 53 bits, as numpy's Philox makes it.  The
words used tell the branch: one word is the accept branch, two the wedge's
accept, and after a wedge rejection the draw goes on to a next word that
the replay always supplies as an accepting one.  The tail (``idx == 0``)
takes one word and then two uniforms per try.
"""

import ctypes
import struct

import pytest

from noisycycles import _stepkernel

from conftest import requires_compiler

_SHIM = r"""
double random_standard_normal(bitgen_t *);

double shim_numpy(bitgen_t *gen) { return random_standard_normal(gen); }
double shim_copy(bitgen_t *gen) { return normal(gen); }
const uint64_t *shim_ki(void) { return ki_double; }
"""

_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    # numpy/random/bitgen.h
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _U64),
        ("next_uint32", _U32),
        ("next_double", _DOUBLE),
        ("next_raw", _U64),
    ]


class _Replay:
    """A ``bitgen_t`` that hands out ``words`` in order; what a draw asks
    for beyond them, or through another member, is recorded as misuse.
    Beyond them it hands out 1 << 63, which accepts as a raw word (x = 0)
    and as both uniforms of a tail try (0.5), so a wrong draw ends."""

    def __init__(self):
        self.words, self.used, self.misuse = [], 0, []
        self._callbacks = (_U64(self._next), _U32(self._other), _DOUBLE(self._double),
                           _U64(self._other))
        self.bitgen = _BitGen(None, *self._callbacks)

    def _next(self, _):
        if self.used == len(self.words):
            self.misuse.append("ran out of words")
            return _U_HALF
        self.used += 1
        return self.words[self.used - 1]

    def _double(self, state):
        return (self._next(state) >> 11) * (1.0 / 9007199254740992.0)

    def _other(self, _):
        self.misuse.append("next_uint32 or next_raw")
        return 0

    def draw(self, fn, words):
        self.words, self.used, self.misuse = list(words), 0, []
        value = fn(ctypes.byref(self.bitgen))
        assert not self.misuse, self.misuse
        return struct.pack("<d", value), self.used


def _word(idx, sign, rabs, high=0b101):
    # the three unused top bits are set, which the draw must ignore
    return idx | sign << 8 | rabs << 9 | high << 61


def _uniform(u):
    # the word whose double is u rounded down to a multiple of 2^-53
    return int(u * (1 << 53)) << 11


_MAX_RABS = (1 << 52) - 1
_U_ZERO, _U_HALF, _U_TOP = 0, 1 << 63, (1 << 64) - 1


@pytest.fixture(scope="module")
def shim(tmp_path_factory):
    target = tmp_path_factory.mktemp("ziggurat") / "shim.so"
    _stepkernel._build(str(target), _stepkernel._SOURCE + _SHIM)
    lib = ctypes.CDLL(str(target))
    for name in ("shim_numpy", "shim_copy"):
        getattr(lib, name).argtypes = [ctypes.c_void_p]
        getattr(lib, name).restype = ctypes.c_double
    lib.shim_ki.restype = ctypes.POINTER(ctypes.c_uint64)
    return lib


def _same_draws(shim, cases):
    """Each case's words drawn by numpy and by the copy: equal bits and
    words used; returns the words used per case."""
    replay, used = _Replay(), []
    for words in cases:
        expected = replay.draw(shim.shim_numpy, words)
        assert replay.draw(shim.shim_copy, words) == expected, [hex(w) for w in words]
        used.append(expected[1])
    return used


@requires_compiler
def test_every_branch_of_the_ziggurat_gives_numpys_bits(shim):
    ki = shim.shim_ki()[:256]
    accept = _word(5, 0, 0)
    assert ki[5] > 0
    for idx in range(256):
        for sign in (0, 1):
            # the accept branch, at its edge; a strip with ki 0 has none
            edges = [_word(idx, sign, r) for r in (0, ki[idx] - 1) if 0 <= r < ki[idx]]
            assert _same_draws(shim, [[w] for w in edges]) == [1] * len(edges)
            assert edges or idx == 1
            if idx == 0:
                continue
            # the wedge: one uniform, then the accepting word after a rejection
            cases = [
                [_word(idx, sign, r), u, accept]
                for r in (ki[idx], (ki[idx] + _MAX_RABS) // 2, _MAX_RABS)
                for u in (_U_ZERO, _U_HALF, _U_TOP)
            ]
            assert set(_same_draws(shim, cases)) == {2, 3}, f"idx {idx}: a wedge branch missed"
    for rabs in (ki[0], ki[0] | 1 << 8, _MAX_RABS, _MAX_RABS ^ 1 << 8):
        for sign in (0, 1):
            head = [_word(0, sign, rabs)]
            used = _same_draws(shim, [
                # the tail's first try accepts
                head + [_U_ZERO, _U_HALF],
                head + [_U_HALF, _U_TOP],
                # xx about 1 and yy about 0.75: yy + yy > xx^2 > yy
                head + [_uniform(0.9741), _uniform(0.5276)],
                # it rejects (yy = 0) and then accepts
                head + [_U_HALF, _U_ZERO, _U_ZERO, _U_HALF],
                head + [_U_TOP, _U_ZERO, 1 << 62, _U_TOP],
            ])
            assert used == [3, 3, 3, 5, 5]
