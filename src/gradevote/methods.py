"""The grade methods by name: the one place that maps a method to its rules.

* :data:`RANKERS` — each method's public ranker, a :func:`results.ranked` wrapper.
* :data:`KEYS` — ``(keys, rejects)`` per method: the key function that ranker
  sorts by and its rejection rule (None if it never rejects), from which the
  harness decides outcomes without a ranking.  The ``mj3`` key is the
  three-grade majority gauge: ``search_cross_method_disagreements`` checks,
  for every pair of tallies of an electorate size, that it compares like the
  ``mj`` key, which makes every election order and tie alike.
* :func:`method_scale` — a method's default scale, or the refusal of a scale;
  it lives in :mod:`gradevote.results`, where the ranking builder applies it.
"""

from .approval import approval_keys, approval_rank, approval_rejected
from .core import GradeScale
from .mj import _rank_keys, mj_rank
from .mj3 import mj3_keys, mj3_rank
from .results import APPROVAL_SCALE, method_scale

RANKERS = {"mj": mj_rank, "mj3": mj3_rank, "approval3": approval_rank}
KEYS = {
    "mj": (_rank_keys, None),
    "mj3": (mj3_keys, None),
    "approval3": (approval_keys, approval_rejected),
}


def resolve_method(method: str, scale: GradeScale) -> str:
    """``method``, ``auto`` read from ``scale``, once :func:`method_scale` accepts it."""
    if method == "auto":
        method = "approval3" if scale == APPROVAL_SCALE else "mj3" if scale.size == 3 else "mj"
    method_scale(method, scale)
    return method
