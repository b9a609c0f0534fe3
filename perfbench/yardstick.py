"""A fixed amount of pure-Python work that measures the machine's speed.

    python3 perfbench/yardstick.py

It multiplies quaternions held as tuples, the same kind of interpreter work
as quatcalc's scalar arithmetic, and touches nothing of the package.  The
benchmark runs it between run processes on the same CPU; how long it takes
tells how fast the shared machine is running at that moment.
"""

PRODUCTS = 400_000


def mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def main() -> None:
    p, q = (0.6, 0.0, 0.8, 0.0), (0.0, 0.6, 0.0, 0.8)
    kept = []
    for _ in range(PRODUCTS):
        p = mul(p, q)
        kept.append(p)
        if len(kept) > 1000:
            kept.clear()


if __name__ == "__main__":
    main()
