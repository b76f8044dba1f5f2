"""The grade methods by name: the one place that maps a method to its rules.

* :data:`RANKERS` — each method's public ranker, a :func:`results.ranked` wrapper.
* :data:`KEYS` — ``(keys, rejects)`` per method: the key function that ranker
  sorts by and its rejection rule (None if it never rejects), from which the
  harness decides outcomes without a ranking.  The ``mj3`` key is the
  three-grade majority gauge: ``search_cross_method_disagreements`` checks by
  enumeration that it orders and ties like the ``mj`` key.
* :func:`method_scale` — a method's default scale, or the refusal of a scale.
"""

from .approval import APPROVAL_SCALE, approval_keys, approval_rank, approval_rejected
from .core import ConfigError, GradeScale
from .mj import _rank_keys, mj_rank
from .mj3 import MJ3_SCALE, mj3_keys, mj3_rank

RANKERS = {"mj": mj_rank, "mj3": mj3_rank, "approval3": approval_rank}
KEYS = {
    "mj": (_rank_keys, None),
    "mj3": (mj3_keys, None),
    "approval3": (approval_keys, approval_rejected),
}


def method_scale(method: str, scale: GradeScale | None) -> GradeScale:
    """The scale ``method`` ranks: ``scale``, or the method's default if None.
    Raises :class:`ConfigError` for an unknown method or a scale it cannot rank."""
    if method not in RANKERS:
        raise ConfigError(f"unknown ranking method {method!r}")
    if method == "approval3":
        if scale not in (None, APPROVAL_SCALE):
            raise ConfigError(
                f"method approval3 uses the fixed scale {APPROVAL_SCALE.labels!r}"
            )
        return APPROVAL_SCALE
    if method == "mj3" and scale is not None and scale.size != 3:
        raise ConfigError("method mj3 needs a 3-grade scale")
    return MJ3_SCALE if scale is None else scale


def resolve_method(method: str, scale: GradeScale) -> str:
    """``method``, ``auto`` read from ``scale``, once :func:`method_scale` accepts it."""
    if method == "auto":
        method = "approval3" if scale == APPROVAL_SCALE else "mj3" if scale.size == 3 else "mj"
    method_scale(method, scale)
    return method
