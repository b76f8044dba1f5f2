"""The grade-based rankers, by the method name a config or ``--method`` gives."""

from .approval import approval_rank
from .mj import mj_rank
from .mj3 import mj3_rank

RANKERS = {"mj": mj_rank, "mj3": mj3_rank, "approval3": approval_rank}
