"""A fixed reference workload that measures how fast this host runs right now.

    python3 perfbench/calibrate.py

It does the same kinds of work as the chebgcn commands, without chebgcn:
small NumPy and SciPy calls on a 600-node sparse graph (the per-call
overhead of the training loop), a GEMM on a 1,000 x 1,000 dense matrix (the
dense path), and float formatting and parsing in pure Python (the CSV and
edge-list readers and writers). Its inputs and its amount of work are
fixed, so its wall time changes only with the speed of the host. run.py
times it right before each CLI command and divides the command's wall time
by it. Prints a checksum so that no part of the work can be skipped.
"""

import numpy as np
import scipy.sparse

NODES = 600
WIDTH = 16
SPARSE_ROUNDS = 250
DENSE = 1000
DENSE_ROUNDS = 15
TEXT_ROWS = 10000


def sparse_rounds(rng) -> float:
    adj = scipy.sparse.random(NODES, NODES, density=0.02, random_state=1, format="csr")
    adj = (adj + adj.T).tocsr()
    x = rng.standard_normal((NODES, WIDTH))
    w = rng.standard_normal((WIDTH, WIDTH)) * 0.1
    total = 0.0
    for _ in range(SPARSE_ROUNDS):
        t1 = adj @ x
        t2 = 2.0 * (adj @ t1) - x
        h = x @ w + t1 @ w + t2 @ w
        e = np.exp(h - h.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        total += float(p[0, 0])
    return total


def dense_rounds(rng) -> float:
    a = rng.standard_normal((DENSE, DENSE)) / DENSE
    x = rng.standard_normal((DENSE, WIDTH))
    for _ in range(DENSE_ROUNDS):
        x = a @ (a @ x)
        x /= np.abs(x).max()
    return float(x.sum())


def text_rounds(rng) -> float:
    values = rng.standard_normal((TEXT_ROWS, 4)).tolist()
    lines = [",".join(repr(v) for v in row) for row in values]
    return sum(float(cell) for line in lines for cell in line.split(","))


def main() -> None:
    rng = np.random.default_rng(0)
    print(sparse_rounds(rng) + dense_rounds(rng) + text_rounds(rng))


if __name__ == "__main__":
    main()
