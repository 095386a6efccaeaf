"""Independent models of the benchmark's games and inputs.

Nothing here imports cgl: every expected answer the benchmark checks the
program's outputs against is computed from the games' rules with plain
integers and exact `Fraction` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)

# ---------------------------------------------------------------------------
# Misere subtraction (nim.cgl): remove 1..3, leave the counter positive; a
# player with no move loses.

MOVES = (1, 2, 3)


def nim_mover_wins(c: int) -> bool:
    """Minimax value of counter c for the player about to move."""
    win = [False] * (c + 1)
    for n in range(1, c + 1):
        win[n] = any(n - k > 0 and not win[n - k] for k in MOVES)
    return win[c]


def dnim_lines(c: int, depth: int):
    """Adversary lines of [Nim*] c mod 4 = 1 from c when the adversary may
    repeat at most `depth` times, against the mirroring strategy of dNim.

    Returns (lines, all_win).  Each repetition the adversary may stop (the
    goal is checked) or continue: it removes k; a move that leaves c <= 0
    fails its test and ends the line as an adversary violation; otherwise
    the strategy removes 4 - k and must itself leave c > 0.
    """
    memo = {}

    def go(c, it):
        key = (c, it)
        if key in memo:
            return memo[key]
        lines, ok = 1, c % 4 == 1
        if it < depth:
            for k in MOVES:
                if c - k <= 0:
                    lines += 1
                    continue
                c2 = c - k - (4 - k)
                if c2 <= 0:
                    return memo.setdefault(key, (lines + 1, False))
                n, w = go(c2, it + 1)
                lines, ok = lines + n, ok and w
        memo[key] = (lines, ok)
        return memo[key]

    return go(c, 0)


def anim_move(c: int) -> int:
    """aNim's strategy: leave the counter at 1 mod 4."""
    return {0: 3, 2: 1, 3: 2}[c % 4]


def anim_lines(c: int):
    """Adversary lines of <Nim*> (c = 2 | c = 3 | c = 4) from c against
    aNim's strategy, which stops once (c - 2) div 4 = 0.  Returns
    (lines, all_win)."""
    memo = {}

    def go(c):
        if c in memo:
            return memo[c]
        if (c - 2) // 4 == 0:
            return memo.setdefault(c, (1, c in (2, 3, 4)))
        c1 = c - anim_move(c)
        if c1 <= 0:
            return memo.setdefault(c, (1, False))
        lines, ok = 0, True
        for k in MOVES:
            if c1 - k <= 0:
                lines += 1
                continue
            n, w = go(c1 - k)
            lines, ok = lines + n, ok and w
        memo[c] = (lines, ok)
        return memo[c]

    return go(c)


def dnim_play(c: int, ks) -> int:
    """Final counter of a dNim play: the adversary removes each k in turn,
    the strategy answers 4 - k, then the adversary stops."""
    for k in ks:
        if c - k <= 0:
            raise ValueError(f"adversary move {k} from {c} leaves no counter")
        c -= 4
    return c


def anim_play(c: int, ks) -> int:
    """Final counter of an aNim play, which must use every adversary move."""
    ks = list(ks)
    i = 0
    while (c - 2) // 4 != 0:
        c -= anim_move(c)
        c -= ks[i]
        i += 1
    if i != len(ks):
        raise ValueError(f"play ends after {i} of {len(ks)} adversary moves")
    return c


# ---------------------------------------------------------------------------
# Cut and choose (cake.cgl)


def chooser_piece(x: Fraction) -> Fraction:
    """The chooser's piece when the cake is cut at x: the larger one."""
    return max(x, 1 - x)


def is_cut(x: Fraction) -> bool:
    """The adversary's test ?(0 <= x & x <= 1)."""
    return 0 <= x <= 1


# ---------------------------------------------------------------------------
# Linear sequents  rho -> goal  over rationals.  A constraint is
# (coeffs, bound), read  sum coeffs[j] * v_j <= bound.


def lin_value(coeffs, point) -> Fraction:
    return sum((Fraction(a) * v for a, v in zip(coeffs, point)), Fraction(0))


def holds(constraint, point) -> bool:
    coeffs, bound = constraint
    return lin_value(coeffs, point) <= bound


def falsifies(rho, goal, point) -> bool:
    """point satisfies every hypothesis and violates the goal."""
    return all(holds(c, point) for c in rho) and not holds(goal, point)
