"""Hand-pinned worked-example databases shared across the test suite.

Each database is written in the sectioned text format the library parses.
The expected numbers asserted on these instances (lengths, cut values,
model sizes) are hand-verified in the tests that use them.  The path
builders at the end make arbitrarily deep instances of two shapes.
"""

from provfact.provenance import Database

# 2-star query R(x), S(x,y), T(y).  Provenance
#   r1 s11 t1 ∨ r1 s12 t2 ∨ r2 s23 t3 ∨ r3 s33 t3
# which is read-once: r1(s11 t1 ∨ s12 t2) ∨ (r2 s23 ∨ r3 s33) t3.
FIG2A = """\
[R]
1
2
3
[S]
1,1
1,2
2,3
3,3
[T]
1
2
3
"""

# Adding s13 creates a fifth witness and forces one repeated literal:
# minimum length 12 over 11 distinct tuples.
FIG2A_S13 = FIG2A + "[S]\n1,3\n"

# 3-chain query R(x,y), S(y,z), T(z,u) with two witnesses
# (x1,y1,z1,u1) and (x1,y1,z1,u2): provenance r11 s11 t11 ∨ r11 s11 t12,
# minimum factorization r11 s11 (t11 ∨ t12) of length 4.
APPB1 = """\
[R]
1,1
[S]
1,1
[T]
1,1
1,2
"""

# Triangle query R(x,y), S(y,z), T(z,x) with two witnesses sharing t00:
# minimum factorization t00 (r00 s00 ∨ r01 s10) of length 5, which the
# flow heuristic finds exactly.
FIG7D = """\
[R]
0,0
0,1
[S]
0,0
1,0
[T]
0,0
"""

# Triangle query, four witnesses with tuple pattern
#   {r0 s0 t0,  r1 s1 t0,  r2 s1 t1,  r2 s2 t2}
# (indices here name the distinct tuples per relation).  The minimum
# factorization t0(r0 s0 ∨ r1 s1) ∨ r2(s1 t1 ∨ s2 t2) has length 10 with
# one repeat (s1), while the flow graph leaks on some plan orderings and
# returns 11 there.
LEAKAGE = """\
[R]
0,0
0,1
2,1
[S]
0,0
1,0
1,2
[T]
0,0
0,2
2,2
"""

# Triangle query, two witnesses whose (y,z) prefix instances y=1z,z=2 and
# y=1,z=z2 both serialize as "y1zz2": the instances must be told apart by
# their paths, not by that string.  Each witness shares no tuple with the
# other, so every factorization has length 6.
SERIAL_COLLISION = """\
[R]
1,1z
1,1
[S]
1z,2
1,z2
[T]
2,1
z2,1
"""

# 2-star query R(x), S(x,y), T(y).  Witnesses (x=1_y2, y=3) and (x=1, y=2_y3)
# both have the key `x1_y2_y3`; each needs its own choice variables, so the
# model optimum is 10, not 11.
WITNESS_KEY_COLLISION = """\
[R]
1_y2
1
7
[S]
1_y2,3
1_y2,5
1,2_y3
7,2_y3
[T]
3
5
2_y3
"""


def _c(k):
    return f"{k:04d}"


def path_q2star(n):
    """Two-star witnesses forming one alternating path x1-y1-x2-y2-…-xn-yn:
    2n-1 witnesses whose augmenting paths grow to length n."""
    ks = range(1, n + 1)
    S = [(_c(1), _c(1))] + [p for k in ks[1:] for p in ((_c(k), _c(k - 1)), (_c(k), _c(k)))]
    return Database.from_dict({"R": [(_c(k),) for k in ks], "S": S, "T": [(_c(k),) for k in ks]})


def path_triangle_unary(n):
    """Unary-triangle witnesses (k, k, k) and (k+1, k, k): every binary
    tuple occurs once, and the x / yz graph is one path of 2n-1 edges."""
    ks = range(1, n + 1)
    return Database.from_dict({
        "U": [(_c(k),) for k in ks],
        "R": [(_c(k), _c(k)) for k in ks] + [(_c(k), _c(k - 1)) for k in ks[1:]],
        "S": [(_c(k), _c(k)) for k in ks],
        "T": [(_c(k), _c(k)) for k in ks] + [(_c(k - 1), _c(k)) for k in ks[1:]],
    })
