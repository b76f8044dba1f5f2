"""Expected outputs, computed apart from gradevote.

Nothing here imports the program.  Every rule is taken from the method's
documented definition (or the paper's closed forms), so a check that compares
the program against these functions tests the program, not a copy of it.

Counts are always per-grade tuples, best grade first.
"""

from functools import cmp_to_key
from math import comb


# --------------------------------------------------------------------------
# majority judgement: the Balinski-Laraki majority gauge
# --------------------------------------------------------------------------

def majority_position(counts):
    """Grade position of the lower middlemost ballot, ballots sorted best first."""
    middle = sum(counts) // 2
    seen = 0
    for position, count in enumerate(counts):
        seen += count
        if seen > middle:
            return position
    raise ValueError("empty profile has no majority grade")


def gauge(counts):
    """Majority gauge ``(alpha, -p if p > q else q)``; smaller is better.

    ``alpha`` is the majority grade position, ``p`` the ballots strictly
    better than it and ``q`` the ballots strictly worse.
    """
    alpha = majority_position(counts)
    p = sum(counts[:alpha])
    q = sum(counts[alpha + 1:])
    return (alpha, -p if p > q else q)


def _removal_sequence(counts):
    """Lazily yield the iterated-removal majority grades of one profile."""
    counts = list(counts)
    total = sum(counts)
    while total:
        middle, seen = total // 2, 0
        for position, count in enumerate(counts):
            seen += count
            if seen > middle:
                break
        yield position
        counts[position] -= 1
        total -= 1


def compare_mj(a, b):
    """-1 when counts ``a`` rank above ``b``, 1 when below, 0 when tied.

    Gauges decide; only equal gauges fall back to walking both removal
    sequences in step until they differ.
    """
    ga, gb = gauge(a), gauge(b)
    if ga != gb:
        return -1 if ga < gb else 1
    if tuple(a) == tuple(b):
        return 0
    for x, y in zip(_removal_sequence(a), _removal_sequence(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def _order_and_ties(ids, counts_by_id, cmp):
    """Stable best-first order plus tie groups (size >= 2, registration order)."""
    key = cmp_to_key(lambda x, y: cmp(counts_by_id[x], counts_by_id[y]))
    order = sorted(ids, key=key)
    groups, current = [], [order[0]]
    for prev, cid in zip(order, order[1:]):
        if cmp(counts_by_id[prev], counts_by_id[cid]) == 0:
            current.append(cid)
        else:
            if len(current) > 1:
                groups.append(tuple(current))
            current = [cid]
    if len(current) > 1:
        groups.append(tuple(current))
    return tuple(order), tuple(groups)


def mj_order(ids, counts_by_id):
    """Majority-judgement order and tie groups of any-scale tallies."""
    return _order_and_ties(ids, counts_by_id, compare_mj)


# --------------------------------------------------------------------------
# three grades: the paper's (S, T) score form
# --------------------------------------------------------------------------

def score_st(counts):
    """``(S, T)`` of a positive/neutral/negative tally; larger is better."""
    pos, _, neg = counts
    if pos > neg:
        return (pos, -neg)
    return (-neg, pos)


def _cmp_st(a, b):
    sa, sb = score_st(a), score_st(b)
    return (sa < sb) - (sa > sb)


def mj3_order(ids, counts_by_id):
    """Order by descending ``(S, T)``; equal pairs are ties."""
    return _order_and_ties(ids, counts_by_id, _cmp_st)


def unique_st_top(ids, counts_by_id):
    """The id with the strictly largest ``(S, T)``, or None on a tie."""
    scored = sorted((score_st(counts_by_id[cid]) for cid in ids), reverse=True)
    if len(scored) > 1 and scored[0] == scored[1]:
        return None
    return max(ids, key=lambda cid: score_st(counts_by_id[cid]))


# --------------------------------------------------------------------------
# strong / weak approval with blocks and rejection
# --------------------------------------------------------------------------

STRONG, ELECTABLE, UNELECTABLE = "strong_majority", "electable", "unelectable"


def approval_block(counts):
    """Block of a (strong, weak, none) tally, as the approval docstring states."""
    strong, weak, none = counts
    if strong > none:
        return STRONG
    if 2 * (strong + weak) > strong + weak + none:
        return ELECTABLE
    return UNELECTABLE


def _approval_key(counts):
    strong, weak, _ = counts
    if approval_block(counts) == STRONG:
        return (0, -strong, -(strong + weak))
    return (1, -(strong + weak), -strong)


def _cmp_approval(a, b):
    ka, kb = _approval_key(a), _approval_key(b)
    return (ka > kb) - (ka < kb)


def approval_order(ids, counts_by_id):
    """Strong-majority block by strong approvals first, then the rest by any approval."""
    return _order_and_ties(ids, counts_by_id, _cmp_approval)


def approval_rejected(counts_by_id):
    """True when nobody is approved by a strict majority of the ballots."""
    return not any(2 * (s + w) > s + w + n for s, w, n in counts_by_id.values())


#: method name -> function giving (order, tie groups) of its tallies
ORDER = {"mj": mj_order, "mj3": mj3_order, "approval3": approval_order}


# --------------------------------------------------------------------------
# rendering and the bracket baseline
# --------------------------------------------------------------------------

def percent_half_up(count, total):
    """100 * count / total rounded to a whole percent, halves rounded up."""
    whole, rest = divmod(100 * count, total)
    return whole + (1 if 2 * rest >= total else 0)


def bracket_nodes(ids):
    """Preorder halving tree: (span, upper half, lower half) per internal node."""
    nodes = []

    def visit(span):
        half = (len(span) + 1) // 2
        nodes.append((span, span[:half], span[half:]))
        for part in (span[:half], span[half:]):
            if len(part) >= 2:
                visit(part)

    visit(tuple(ids))
    return nodes


def bracket_path(ids, upper_votes, n_ballots, accept_yes):
    """Winning path of a bracket election from per-node upper-half votes.

    Returns (winner or None, [(span, upper votes, lower votes, chosen), ...]).
    A tie keeps the upper half.
    """
    nodes = bracket_nodes(ids)
    index = {span: i for i, (span, _, _) in enumerate(nodes)}
    span, path = tuple(ids), []
    while len(span) >= 2:
        i = index[span]
        up = upper_votes[i]
        down = n_ballots - up
        chosen = "upper" if up >= down else "lower"
        path.append((span, up, down, chosen))
        span = nodes[i][1] if chosen == "upper" else nodes[i][2]
    return (span[0] if 2 * accept_yes > n_ballots else None), path


# --------------------------------------------------------------------------
# enumeration sizes of the property sweeps
# --------------------------------------------------------------------------

def tallies_of(n, grades=3):
    """Number of per-candidate tallies of ``n`` ballots on ``grades`` grades."""
    return comb(n + grades - 1, grades - 1)


def no_show_instances(max_voters):
    """Two-candidate, three-grade elections with 1..max_voters ballots."""
    return sum(tallies_of(n) ** 2 for n in range(1, max_voters + 1))


def no_show_additions(max_voters):
    """Every instance meets each of the 3^2 possible extra ballots."""
    return 9 * no_show_instances(max_voters)


def cross_method_instances(max_voters, max_candidates):
    """Three-grade elections with 1..max_candidates candidates and 1..max_voters ballots."""
    return sum(
        tallies_of(n) ** k
        for k in range(1, max_candidates + 1)
        for n in range(1, max_voters + 1)
    )


def labeled_partitions(n):
    """Unordered splits of ``n`` labeled ballots into two non-empty parts."""
    return 2 ** (n - 1) - 1


def multiset_splits(multiplicities):
    """Unordered splits of a ballot multiset into two non-empty parts."""
    total = 1
    for m in multiplicities:
        total *= m + 1
    # drop the two empty-part splits; every other split is counted twice,
    # except the one that halves every multiplicity exactly
    halvable = 1 if all(m % 2 == 0 for m in multiplicities) else 0
    return (total - 2 - halvable) // 2 + halvable
