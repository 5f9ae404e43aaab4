import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eploop.streams import spawn_words, substreams

# entropy of 1 to 7 32-bit words: past 4 words SeedSequence mixes the extra words into its pool
_ENTROPY = st.one_of(st.integers(0, 2**200), st.integers(2**128, 2**200),
                     st.sampled_from([0, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200]))
_KEY_ENTRY = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**31, 2**32 - 2, 2**32 - 1]))
# 1 to 6 rows of one key length, 1 to 3 entries
_KEYS = st.integers(1, 3).flatmap(lambda k: st.lists(st.tuples(*[_KEY_ENTRY] * k), min_size=1, max_size=6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(entropy=_ENTROPY, keys=_KEYS, n_words=st.integers(1, 4))
def test_spawn_words_is_seedsequence_generate_state(entropy, keys, n_words):
    words = spawn_words(entropy, keys, n_words)
    assert words.shape == (len(keys), n_words) and words.dtype == np.uint64
    for row, key in zip(words, keys):
        expected = np.random.SeedSequence(entropy=entropy, spawn_key=key).generate_state(n_words, np.uint64)
        assert np.array_equal(row, expected)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(entropy=_ENTROPY, keys=_KEYS)
def test_substreams_start_in_the_seedsequence_state(entropy, keys):
    generators = list(substreams(entropy, keys))
    assert len(generators) == len(keys)
    for g, key in zip(generators, keys):
        reference = np.random.PCG64(np.random.SeedSequence(entropy=entropy, spawn_key=key))
        assert g.bit_generator.state == reference.state
        assert np.array_equal(g.integers(0, 2**63, 8), np.random.Generator(reference).integers(0, 2**63, 8))


def test_spawn_words_rejects_what_seedsequence_would_read_otherwise():
    with pytest.raises(ValueError, match="spawn-key entries"):
        spawn_words(0, [(2**32,)])
    with pytest.raises(ValueError, match="spawn-key entries"):
        spawn_words(0, [(1, -1)])
    with pytest.raises(ValueError, match="entropy"):
        spawn_words(-1, [(0,)])
    with pytest.raises(ValueError, match="keys"):
        spawn_words(0, np.zeros((3, 0), dtype=int))
    with pytest.raises(ValueError, match="keys"):
        spawn_words(0, [(0.5,)])
    with pytest.raises(ValueError, match="n_words"):
        spawn_words(0, [(0,)], 0)
    with pytest.raises(ValueError, match="entropy"):
        next(substreams(-1, [(0,)]))


@pytest.mark.parametrize("argv", [
    ["surface"],
    ["find-ep"],
    ["evolve", "--n-steps", "4"],
    ["evolve", "--n-steps", "4", "--format", "json", "--record-steps"],
    ["compile-optics", "--target", "walk-step"],
    ["reproduce", "fig1b"],
    ["reproduce", "fig2"],
], ids=lambda argv: "-".join(word.lstrip("-") for word in argv))
def test_commands_that_draw_nothing_leave_numpy_random_unimported(argv, tmp_path):
    # importing numpy.random costs about 6 MB of resident memory; streams imports it when it loads
    code = ("import contextlib, io, sys; from eploop.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n"
            "print('numpy.random' in sys.modules, 'eploop.streams' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         cwd=tmp_path)  # reproduce writes its files under reports/ in the working directory
    assert out.stdout.strip() == "False False"
