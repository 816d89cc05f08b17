"""Independent brute-force oracles used to check the engines.

The Life oracle here is a naive dense double-buffer implementation on a
padded bounded region, written directly from the birth/survival rule
text and sharing no code with the engines.
"""

import numpy as np

MOORE = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0))
# Axial hexagonal neighborhood of (q, r): (q +- 1, r), (q, r +- 1),
# (q + 1, r - 1) and (q - 1, r + 1).
HEX = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def dense_step(
    board: np.ndarray, birth=frozenset({3}), survival=frozenset({2, 3}), neighborhood=MOORE
) -> np.ndarray:
    """One generation of a board indexed [x, y]; cells outside it are dead."""
    padded = np.zeros((board.shape[0] + 2, board.shape[1] + 2), dtype=np.int16)
    padded[1:-1, 1:-1] = board
    counts = np.zeros(board.shape, dtype=np.int16)
    for dx, dy in neighborhood:
        counts += padded[1 + dx : 1 + dx + board.shape[0], 1 + dy : 1 + dy + board.shape[1]]
    nxt = np.zeros_like(board)
    for count in birth:
        nxt |= (board == 0) & (counts == count)
    for count in survival:
        nxt |= (board == 1) & (counts == count)
    return nxt.astype(board.dtype)


def dense_run(
    cells, generations, pad=16, birth=frozenset({3}), survival=frozenset({2, 3}), neighborhood=MOORE
):
    """Run a cell set on a zero-padded board; returns one cell set per
    generation. The board's dead border makes it equivalent to the
    unbounded lattice as long as nothing reaches the outermost ring; if
    that happens the run restarts with doubled padding (growth is at most
    one cell per generation, so ``generations + 2`` always suffices)."""
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    if not xs:
        return [set() for _ in range(generations + 1)]
    min_x, min_y = min(xs), min(ys)
    while True:
        width = max(xs) - min_x + 2 * pad + 1
        height = max(ys) - min_y + 2 * pad + 1
        board = np.zeros((width, height), dtype=np.uint8)
        for x, y in cells:
            board[x - min_x + pad, y - min_y + pad] = 1
        out = []
        touched = False
        for _ in range(generations + 1):
            live = np.argwhere(board == 1).tolist()
            out.append({(x + min_x - pad, y + min_y - pad) for x, y in live})
            if board[0, :].any() or board[-1, :].any() or board[:, 0].any() or board[:, -1].any():
                touched = True
                break
            board = dense_step(board, birth, survival, neighborhood)
        if not touched:
            return out
        pad = min(pad * 2, generations + 2)
