"""
Tensor structures from general-position subspaces
=================================================

A dimension-rn vector space acquires a unique tensor-product structure
making n+1 general codimension-r subspaces "type (r, n-1)".  The
structure is pinned down by a distinguished dual basis, unique up to the
Kronecker-factored group G_{r,n}.
"""

import random
import sys
from fractions import Fraction as F

from rncgeom.gstructure import construct_structure, grn_relation, is_type_subspace
from rncgeom.linalg import kron, nullspace, rank
from rncgeom.sampling import rand_vector

r, n = 2, 3
dim = r * n
rng = random.Random(8)


def random_codim_r():
    while True:
        rows = [rand_vector(rng, dim) for _ in range(dim - r)]
        if rank(rows, dim) == dim - r:
            return rows


subspaces = [random_codim_r() for _ in range(n + 1)]
structure = construct_structure(subspaces)
print(f"built a type-({r},{n}) structure on Q^{dim}")

# each input subspace is recovered with its point of P^{n-1}
for idx, sub in enumerate(subspaces):
    t = is_type_subspace(structure, sub)
    print(f"  F_{idx} -> parameter {tuple(str(x) for x in t)}")

# a random subspace of the right codimension is typically not of type
w = random_codim_r()
print("random subspace of codim r is of type:", is_type_subspace(structure, w))

# uniqueness up to G_{r,n}: a re-built structure differs by C (x) A
other = construct_structure(subspaces, rng=rng)
c, a = grn_relation(structure, other)
print("transition factors as C (x) A with C, A of sizes",
      (c.nrows, a.nrows))
if kron(c, a) @ structure.m != other.m:
    sys.exit("the transition does not factor as C (x) A")

# type (r, n-1) and type (r-1, n) subspaces always meet in excess:
# their intersection has dimension (r-1)(n-1)
t_rows = structure.type_subspace_rows((F(1), F(2), F(3)))
u_rows = structure.left_type_subspace((F(1), F(1)))
meet = nullspace(list(t_rows) + list(u_rows), dim)
print(f"intersection dimension {len(meet)} = (r-1)(n-1) = {(r - 1) * (n - 1)}")
