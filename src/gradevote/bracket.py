"""Binary-bracket election baseline.

One ballot carries everything: an accept-the-ballot mark plus, for every
internal node of a fixed halving tree over the candidate list, a mark for the
half the voter prefers.  For ``k`` candidates that is exactly ``k`` marks
(1 accept + ``k - 1`` internal nodes).  All marks are counted simultaneously
in a single round:

* the ballot is accepted iff a strict majority marks accept; otherwise the
  election elects nobody (the half marks are still tallied but moot);
* starting from the root (the full candidate list, split into an upper first
  half of ``ceil(k/2)`` names and a lower second half), the half with more
  marks survives; a tie keeps the upper half and is flagged;
* repeat inside the surviving half until one candidate remains.

Rejecting voters' half marks count like everyone else's — the whole ballot is
filled in before anyone knows whether it is accepted.

The tree is enumerated in preorder (node, upper subtree, lower subtree), and
ballot half-marks are aligned with that enumeration.  Nodes, ballots, node
decisions and results are frozen records (:func:`gradevote.core.record`); a
ballot refuses a half mark other than ``upper`` and ``lower``.
"""

from collections import Counter
from collections.abc import Mapping, Sequence

from .core import Candidate, ValidationError, VoteError, record

UPPER = "upper"
LOWER = "lower"


@record(frozen=True)
class BracketNode:
    """One internal node: a candidate span split into its two halves."""

    candidates: tuple[str, ...]
    upper: tuple[str, ...]
    lower: tuple[str, ...]


def bracket_tree(candidate_ids: Sequence[str]) -> tuple[BracketNode, ...]:
    """All internal nodes of the halving tree, in preorder.

    For ``k`` candidates there are ``k - 1`` nodes; each splits its span into
    an upper half of ``ceil(len/2)`` names and a lower half of the rest.
    """
    ids = tuple(candidate_ids)
    if len(ids) < 2:
        raise VoteError("a bracket needs at least two candidates")
    nodes: list[BracketNode] = []

    def visit(span: tuple[str, ...]) -> None:
        half = (len(span) + 1) // 2
        node = BracketNode(span, span[:half], span[half:])
        nodes.append(node)
        if len(node.upper) >= 2:
            visit(node.upper)
        if len(node.lower) >= 2:
            visit(node.lower)

    visit(ids)
    return tuple(nodes)


@record(frozen=True)
class BracketBallot:
    """One voter's bracket ballot.

    ``half_choices`` holds one of ``"upper"``/``"lower"`` per internal node,
    aligned with the preorder enumeration of :func:`bracket_tree`.  Together
    with ``accept`` that is exactly one mark per candidate.
    """

    voter_id: str
    accept: bool
    half_choices: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_choices", tuple(self.half_choices))
        bad = [c for c in self.half_choices if c not in (UPPER, LOWER)]
        if bad:
            raise ValidationError(
                f"ballot {self.voter_id!r} has invalid half marks {bad!r}"
            )

    @property
    def n_marks(self) -> int:
        return 1 + len(self.half_choices)


@record(frozen=True)
class NodeDecision:
    """The tallied outcome at one node of the winning path."""

    node: BracketNode
    votes_upper: int
    votes_lower: int
    chosen: str
    tie: bool

    @property
    def surviving(self) -> tuple[str, ...]:
        return self.node.upper if self.chosen == UPPER else self.node.lower

    @property
    def eliminated(self) -> tuple[str, ...]:
        return self.node.lower if self.chosen == UPPER else self.node.upper


@record(frozen=True)
class BracketResult:
    """Outcome of a bracket election."""

    candidates: tuple[str, ...]
    accept_yes: int
    accept_no: int
    ballot_accepted: bool
    elimination_trace: tuple[NodeDecision, ...]
    winner: str | None

    @property
    def had_tie(self) -> bool:
        return any(d.tie for d in self.elimination_trace)


def bracket_elect(
    candidates: Sequence[Candidate], ballots: Sequence[BracketBallot]
) -> BracketResult:
    """Run the single-round bracket election.

    Every ballot must mark every node (``k - 1`` half marks for ``k``
    candidates) and every voter may vote once.  The ballots are counted and
    decided by :func:`bracket_from_counts`.
    """
    nodes = _tree(candidates)
    seen: set[str] = set()
    for ballot in ballots:
        if ballot.voter_id in seen:
            raise ValidationError(f"duplicate voter_id {ballot.voter_id!r}")
        seen.add(ballot.voter_id)
        if len(ballot.half_choices) != len(nodes):
            raise ValidationError(
                f"ballot {ballot.voter_id!r} marks {len(ballot.half_choices)} nodes, "
                f"expected {len(nodes)}"
            )
    return bracket_from_counts(candidates, *_count_marks(ballots))


def _count_marks(
    ballots: Sequence[BracketBallot],
) -> tuple[int, Counter[tuple[str, ...]]]:
    """The accept marks of the ballots and how many carry each tuple of half
    marks, as :func:`bracket_from_counts` takes them."""
    return sum(b.accept for b in ballots), Counter(b.half_choices for b in ballots)


def bracket_from_counts(
    candidates: Sequence[Candidate],
    accept_yes: int,
    kinds: Mapping[tuple[str, ...], int],
) -> BracketResult:
    """Decide the bracket election from its counts alone.

    ``kinds`` maps each tuple of half marks (aligned with the preorder of
    :func:`bracket_tree`) to the number of ballots that carry it, and
    ``accept_yes`` counts the accept marks.  The elimination trace holds the
    decisions along the winning path, root first; the winner is ``None`` iff
    the ballot is rejected.  Only the nodes on that path are tallied, each
    over the distinct tuples: at most ``min(ballots, 2 ** (k - 1))`` of them.
    """
    nodes = _tree(candidates)
    n_ballots = sum(kinds.values())
    if not n_ballots:
        raise VoteError("cannot run a bracket election without ballots")
    if any(len(kind) != len(nodes) for kind in kinds):
        raise ValidationError(f"every tuple of half marks must mark {len(nodes)} nodes")
    if not 0 <= accept_yes <= n_ballots:
        raise ValidationError(f"accept marks must lie between 0 and {n_ballots}")
    accepted = 2 * accept_yes > n_ballots

    trace: list[NodeDecision] = []
    i, span = 0, nodes[0].candidates
    while len(span) >= 2:
        node = nodes[i]
        up = sum(n for kind, n in kinds.items() if kind[i] == UPPER)
        down = n_ballots - up
        chosen = UPPER if up >= down else LOWER
        trace.append(NodeDecision(node, up, down, chosen, up == down))
        span = node.upper if chosen == UPPER else node.lower
        # in preorder the upper subtree's len(upper) - 1 nodes follow node i
        i += 1 if chosen == UPPER else len(node.upper)

    return BracketResult(
        candidates=nodes[0].candidates,
        accept_yes=accept_yes,
        accept_no=n_ballots - accept_yes,
        ballot_accepted=accepted,
        elimination_trace=tuple(trace),
        winner=span[0] if accepted else None,
    )


def _tree(candidates: Sequence[Candidate]) -> tuple[BracketNode, ...]:
    """The halving tree over the registered ids, which must be distinct."""
    ids = tuple(c.id for c in candidates)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate candidate ids registered")
    return bracket_tree(ids)


def sincere_ballot(
    voter_id: str,
    preference_order: Sequence[str],
    candidates: Sequence[Candidate],
    accept: bool = True,
) -> BracketBallot:
    """Derive the sincere bracket ballot of a voter with a full ranking.

    At every node the voter marks the half containing their highest-ranked
    candidate of that node's span.  ``preference_order`` must rank every
    registered candidate exactly once.
    """
    ids = tuple(c.id for c in candidates)
    if sorted(preference_order) != sorted(ids):
        raise ValidationError(
            f"preference order of {voter_id!r} must rank every candidate exactly once"
        )
    position = {cid: i for i, cid in enumerate(preference_order)}
    marks = []
    for node in bracket_tree(ids):
        best = min(node.candidates, key=position.__getitem__)
        marks.append(UPPER if best in node.upper else LOWER)
    return BracketBallot(voter_id, accept, tuple(marks))
