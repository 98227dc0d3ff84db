"""Small exact linear-algebra helpers over the rationals.

Matrices are tuples of row tuples.  Everything here works with
``fractions.Fraction`` (integers are accepted and promoted), which keeps
all computations exact; the ranks involved never exceed 8, so no effort
is spent on asymptotics.
"""

from fractions import Fraction

Vector = tuple
Matrix = tuple


def mat_vec(m: Matrix, v: Vector) -> Vector:
    if len(m[0]) != len(v):
        raise ValueError(f"dimension mismatch: {len(m[0])}x matrix, {len(v)} vector")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inv(m: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det(m: Matrix) -> Fraction:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return result
