"""Constructions built from 2x2 blocks with uniform line products.

The workhorse block family M^p over D_2l,

        r^(2p+1)    r^(-2p)*s
        r^(2p+1)*s  r^(2p)

has row product rs (left-to-right) and column product s (bottom-to-top)
for every p, and the l blocks p = 0..l-1 together cover D_2l exactly.
Tiling them yields linearly magic rectangle sets for all even m, n.
Squares with side 8k become fully magic by steering which blocks sit on
the two diagonals: the diagonal of M^p contributes the rotation
r^(4p+1), and one closed-form plan (`diagonal_plan`) picks, for every
k, two disjoint sets of 4k blocks whose sums telescope both diagonals
to r^0.  A second block family with mixed rotation and reflection
diagonals handles squares of side n = 4k in the orderable sense.
"""

from __future__ import annotations

from operator import itemgetter

from . import dihedral
from .designs import Rectangle, RectangleSet
from .dihedral import DihedralElement


def _block_rows(blocks: int, odd, reflect: bool):
    """Rows 1 and 2 of the 2x2 blocks p = 0..blocks-1 laid end to end over
    D_(2*blocks), each row a tuple of 2*blocks cells.  Block p is

        r^odd[p]      r^(-2p)*s
        r^odd[p]*s    r^(2p)

    with reflect=False; reflect=True moves each row's s to its other cell.
    Block p sits in columns 2p and 2p + 1, so a run of consecutive blocks
    is a slice of both rows.  All cells are made in one pass.
    """
    width = 2 * blocks
    exponents = [0] * (2 * width)
    exponents[0:width:2] = exponents[width::2] = odd
    exponents[3:width:2] = range(width - 2, 0, -2)  # -2p for p >= 1
    exponents[width + 1::2] = range(0, width, 2)
    flags = ((reflect, not reflect) * blocks
             + (not reflect, reflect) * blocks)
    cells = tuple(map(dihedral._new_element, zip(flags, exponents)))
    return cells[:width], cells[width:]


def _lemma_rows(blocks: int):
    """Rows 1 and 2 of M^0, M^1, ..., M^(blocks-1) over D_(2*blocks)."""
    return _block_rows(blocks, range(1, 2 * blocks, 2), False)


def lemma_block(p: int, l: int) -> Rectangle:
    """The 2x2 block M^p over D_2l (exponents reduced mod 2l); p must
    be a plain int (TypeError otherwise)."""
    if type(p) is not int:
        raise TypeError(f"block index must be a plain int, got "
                        f"{type(p).__name__}")
    if not 0 <= p < l:
        raise ValueError(f"block index {p} out of range [0, {l})")
    modulus = dihedral.check_group_order(2 * l)
    return Rectangle(((DihedralElement(False, (2 * p + 1) % modulus),
                       DihedralElement(True, -2 * p % modulus)),
                      (DihedralElement(True, (2 * p + 1) % modulus),
                       DihedralElement(False, 2 * p % modulus))))


def lmrs_2_2(l: int) -> RectangleSet:
    """Linearly magic set of l blocks M^0..M^(l-1) over D_2l: k = l arrays
    of shape 2x2 with row product rs and column product s."""
    if l <= 1:
        raise ValueError(f"the 2x2 block family needs l > 1, got {l}")
    return lmrs_even(2, 2, l)


def lmrs_even(m: int, n: int, k: int) -> RectangleSet:
    """Linearly magic rectangle set for even m and n, any k, over the
    dihedral group of order m*n*k.

    Each of the k arrays is an (m/2) x (n/2) grid of consecutive blocks
    M^p assigned row-major; rows multiply to (rs)^(n/2) and columns to
    s^(m/2).
    """
    if m < 2 or n < 2 or m % 2 or n % 2:
        raise ValueError(f"m and n must be even and >= 2, got {m}x{n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    blocks = m * n * k // 4
    if blocks <= 1:
        raise ValueError("m*n*k must exceed 4 (the block family needs at "
                         "least two blocks)")
    modulus = dihedral.check_group_order(2 * blocks)
    top, bottom = _lemma_rows(blocks)
    rows = []
    for start in range(0, 2 * blocks, n):
        rows += [top[start:start + n], bottom[start:start + n]]
    return RectangleSet(modulus, tuple(Rectangle(tuple(rows[i:i + m]))
                                       for i in range(0, m * k, m)))


def diagonal_plan(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Block indices (main, back) for the two diagonals of an 8k x 8k
    square, in the order `lsms` places them.

    With c = 8k^2, main is (0, 2, 6, 7) for k = 1.  For k >= 2 it is the
    pairs (j, c-j) for j = 1..2k-1, with the pair j = k replaced by
    (2k, c-2k), followed by 0 and c-k.  back is main shifted by c.

    The plan is valid for every k.  For k >= 2 the low entries are 0..2k
    without k and the high ones are c-2k..c-1, and c > 4k keeps the two
    runs apart, so main holds 4k distinct blocks of [0, c).  Each of the
    2k-1 pairs sums to c, so sum(main) = c - k = -k (mod c).  (For k = 1,
    0+2+6+7 = 15 = -1 mod 8.)  back lies in [c, 2c), so it is disjoint
    from main, and sum(back) = -k (mod c) too.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    c = 8 * k * k
    if k == 1:
        main = (0, 2, 6, 7)
    else:
        lows = [2 * k if j == k else j for j in range(1, 2 * k)]
        main = tuple(x for j in lows for x in (j, c - j)) + (0, c - k)
    return main, tuple(a + c for a in main)


def lsms(n: int) -> RectangleSet:
    """Linearly semi-magic square of side n = 0 mod 4; fully magic in the
    fixed-diagonal sense when n = 0 mod 8.

    For n = 4 mod 8 this is the plain even tiling (rho = sigma = r^0
    because n/2 is even).  For n = 8k the blocks named by
    `diagonal_plan(k)` are parked on the two diagonals (main and back,
    each in list order) and the rest fill the remaining positions
    row-major in ascending index order; row and column products do not
    depend on placement, and the diagonals telescope to r^0.
    """
    if n < 4 or n % 4:
        raise ValueError(f"side must be >= 4 and divisible by 4, got {n}")
    if n % 8 == 4:
        return lmrs_even(n, n, 1)
    main, back = diagonal_plan(n // 8)
    side = n // 2
    blocks = n * n // 4
    modulus = dihedral.check_group_order(2 * blocks)
    top, bottom = _lemma_rows(blocks)
    assignment = [[-1] * side for _ in range(side)]
    for g, (a, b) in enumerate(zip(main, back)):
        assignment[g][g] = a
        assignment[g][side - 1 - g] = b
    rest = iter(sorted(set(range(blocks)) - set(main) - set(back)))
    for bi in range(side):
        for bj in range(side):
            if assignment[bi][bj] < 0:
                assignment[bi][bj] = next(rest)
    rows = []
    for block_row in assignment:
        block_cells = itemgetter(*[c for p in block_row
                                   for c in (2 * p, 2 * p + 1)])
        rows += [block_cells(top), block_cells(bottom)]
    return RectangleSet(modulus, (Rectangle(tuple(rows)),))


def ms_block(p: int, l: int) -> Rectangle:
    """2x2 block of the orderable magic-square family over D_l, l = 8k^2.

    low  (p in [0, l/4)):   r^(2p-1)*s  r^(-2p)     high is the same pair
                            r^(2p-1)    r^(2p)*s    of rows swapped, used
    high (p in [l/4, l/2)): r^(2p-1)    r^(2p)*s    for the second half of
                            r^(2p-1)*s  r^(-2p)     the indices.

    Both variants have column product s (in the appropriate reading) and
    diagonal products {r, r^-1}, swapped between the variants, so stacking
    equal counts of each cancels the diagonals.  p must be a plain int
    (TypeError otherwise).
    """
    if type(p) is not int:
        raise TypeError(f"block index must be a plain int, got "
                        f"{type(p).__name__}")
    if l % 4:
        raise ValueError(f"ambient modulus must be divisible by 4, got {l}")
    if not 0 <= p < l // 2:
        raise ValueError(f"block index {p} out of range [0, {l // 2})")
    dihedral.check_group_order(l)
    low = ((DihedralElement(True, (2 * p - 1) % l),
            DihedralElement(False, -2 * p % l)),
           (DihedralElement(False, (2 * p - 1) % l),
            DihedralElement(True, 2 * p % l)))
    return Rectangle(low if p < l // 4 else low[::-1])


def ms(n: int) -> RectangleSet:
    """Magic square of side n = 4k over the dihedral group of order n^2.

    A 2k x 2k grid of blocks: the first k block rows take the low variant
    (indices 0..2k^2-1 row-major), the last k the high variant
    (2k^2..4k^2-1).  Rows and columns reach r^0 in the orderable sense;
    the fixed-order diagonals (main read bottom-up, backward top-down)
    both equal r^0.
    """
    if n < 4 or n % 4:
        raise ValueError(f"side must be >= 4 and divisible by 4, got {n}")
    k = n // 4
    modulus = dihedral.check_group_order(8 * k * k)
    blocks = modulus // 2
    # (2p - 1) mod l for p = 0..l/2-1
    top, bottom = _block_rows(blocks, [modulus - 1, *range(1, modulus - 2, 2)],
                              True)
    rows = []
    for start in range(0, 2 * blocks, n):
        pair = [top[start:start + n], bottom[start:start + n]]
        rows += pair if start < blocks else pair[::-1]  # the high half
    return RectangleSet(modulus, (Rectangle(tuple(rows)),))
