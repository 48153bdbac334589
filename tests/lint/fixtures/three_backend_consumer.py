"""B804 seeds: direct imports bypassing the dispatch facade."""

from three_backend_pkg import native_backend
from three_backend_pkg import pure
from three_backend_pkg.native_backend import pack_words


def use():
    return native_backend, pure, pack_words
