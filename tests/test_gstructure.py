import contextlib
import functools
import math
import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import gstructure, linalg
from rncgeom.errors import (
    DimensionMismatchError,
    GeneralPositionError,
    GenericityError,
    RncGeomError,
)
from rncgeom.gstructure import (
    TensorStructure,
    construct_structure,
    grn_relation,
    is_type_subspace,
)
from rncgeom.linalg import QMatrix, combine_rows, kron, nullspace, rank
from rncgeom.poly import clear_denominators
from rncgeom.sampling import rand_invertible_matrix, rand_vector


def random_codim_r(rng, r, n):
    dim = r * n
    while True:
        rows = [rand_vector(rng, dim) for _ in range(dim - r)]
        if rank(rows, dim) == dim - r:
            return rows


@pytest.fixture(autouse=True)
def fresh_frame(monkeypatch):
    """Each test starts with no frame kept from an earlier one."""
    monkeypatch.setattr(gstructure, "_last_frame", None)


def forget_frame():
    gstructure._last_frame = None


def general_position_family(rng, r, n):
    for _ in range(20):
        subs = [random_codim_r(rng, r, n) for _ in range(n + 1)]
        try:
            return subs, construct_structure(subs)
        except GeneralPositionError:
            continue
    raise AssertionError("could not sample a general-position family")


class TestConstruct:
    def test_lines_in_plane(self):
        # r = 1, n = 2: any three distinct lines of Q^2 work and every
        # line is of type (1, 1)
        rng = random.Random(1)
        subs, structure = general_position_family(rng, 1, 2)
        for sub in subs:
            assert is_type_subspace(structure, sub) is not None

    def test_planes_in_q4(self):
        rng = random.Random(2)
        subs, structure = general_position_family(rng, 2, 2)
        for sub in subs:
            assert is_type_subspace(structure, sub) is not None

    def test_inputs_recover_coordinate_points(self):
        rng = random.Random(3)
        subs, structure = general_position_family(rng, 2, 3)
        # F_alpha for alpha >= 1 sits at the alpha-th coordinate point
        for alpha in range(1, 4):
            t = is_type_subspace(structure, subs[alpha])
            expected = tuple(F(1) if i == alpha - 1 else F(0) for i in range(3))
            assert t == expected
        # F_0 sits at the all-ones point
        t0 = is_type_subspace(structure, subs[0])
        assert all(x == t0[0] != 0 for x in t0)

    @pytest.mark.parametrize("defect", ["row dropped", "row repeated"])
    def test_wrong_codimension(self, defect):
        # F_2 with dim - r rows but codimension r + 1 is rejected as well
        # as one with a row too few
        subs, _ = general_position_family(random.Random(17), 2, 3)
        subs[2] = subs[2][:-1] + ([subs[2][0]] if defect == "row repeated" else [])
        with pytest.raises(DimensionMismatchError, match="subspace 2 .* codimension r=2"):
            construct_structure(subs)

    @pytest.mark.parametrize("empty", [0, 1, 3])
    def test_empty_basis(self, empty):
        subs, _ = general_position_family(random.Random(19), 2, 3)
        subs[empty] = []
        with pytest.raises(DimensionMismatchError, match=f"subspace {empty} has an empty basis"):
            construct_structure(subs)

    def test_empty_ambient(self):
        # rows of length 0 give no r >= 1; nothing is row-reduced
        with mock.patch.object(linalg, "_echelon", side_effect=AssertionError):
            with pytest.raises(DimensionMismatchError, match="ambient dimension must be positive"):
                construct_structure([[()], [()], [()]])

    def test_general_position_witness(self):
        rng = random.Random(4)
        sub = random_codim_r(rng, 2, 2)
        with pytest.raises(GeneralPositionError):
            construct_structure([sub, sub, sub])


class TestTypeSubspace:
    def test_round_trip(self):
        rng = random.Random(5)
        _, structure = general_position_family(rng, 2, 3)
        t = (F(1), F(1), F(1))
        rows = structure.type_subspace(t)
        recovered = is_type_subspace(structure, rows)
        assert recovered == t

    def test_random_subspace_usually_absent(self):
        rng = random.Random(6)
        _, structure = general_position_family(rng, 2, 3)
        hits = 0
        for _ in range(5):
            w = random_codim_r(rng, 2, 3)
            if is_type_subspace(structure, w) is not None:
                hits += 1
        assert hits == 0

    def test_dimension_validated(self):
        rng = random.Random(7)
        _, structure = general_position_family(rng, 2, 2)
        with pytest.raises(DimensionMismatchError):
            is_type_subspace(structure, [rand_vector(rng, 4)])


def reference_is_type_subspace(structure, subspace_rows):
    """The type check as first written: every nonzero coefficient row is
    ranked against t, and the u's are ranked for independence."""
    r, n = structure.r, structure.n
    dim = r * n
    ann = nullspace(subspace_rows, dim)
    if len(ann) != r:
        raise DimensionMismatchError("subspace must have codimension r")
    minv = structure.m_inverse
    coefficient_mats = []
    for psi in ann:
        coords = combine_rows(psi, minv)
        coefficient_mats.append([coords[j * n : (j + 1) * n] for j in range(r)])

    t = None
    for mat in coefficient_mats:
        for row in mat:
            if any(row):
                if t is None:
                    t = row
                elif rank([t, row], n) != 1:
                    return None
    if t is None:
        return None
    us = []
    for mat in coefficient_mats:
        pivot = next(i for i, x in enumerate(t) if x != 0)
        u = [row[pivot] / t[pivot] for row in mat]
        for uj, row in zip(u, mat):
            if any(row[i] != uj * t[i] for i in range(n)):
                return None
        us.append(u)
    if rank(us, r) != r:
        return None
    pivot = next(i for i, x in enumerate(t) if x != 0)
    return tuple(x / t[pivot] for x in t)


@functools.lru_cache(maxsize=None)
def cached_structure(r, n, remixed):
    subs, structure = general_position_family(random.Random(200 + 10 * r + n), r, n)
    return construct_structure(subs, rng=random.Random(7)) if remixed else structure


def _outcome(check, structure, rows):
    try:
        return check(structure, rows)
    except DimensionMismatchError as exc:
        return str(exc)


SHAPES = [(r, n) for r in range(1, 4) for n in range(2, 5)]
PARAMETER = st.lists(st.integers(-2, 2), min_size=4, max_size=4).filter(any)


class TestTypeCheckOracle:
    """``is_type_subspace`` against the reference that ranks what it checks."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        remixed=st.booleans(),
        kind=st.sampled_from(["type", "random", "mixed"]),
        t=PARAMETER,
        t_other=PARAMETER,
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, shape, remixed, kind, t, t_other, seed):
        r, n = shape
        structure = cached_structure(r, n, remixed)
        t, t_other = t[:n], t_other[:n]
        rng = random.Random(seed)
        if kind == "type" and not any(t):
            # a zero t[:n] is no point of P^{n-1}
            with pytest.raises(DimensionMismatchError, match="parameter must be nonzero"):
                structure.type_subspace(t)
            return
        if kind == "type":
            rows = structure.type_subspace(t)
        elif kind == "random":
            rows = random_codim_r(rng, r, n)
        else:
            # annihilator rows u_j (x) t, the first of them u_0 (x) t'
            ann = [
                combine_rows(
                    [u * x for u in rand_vector(rng, r) for x in (t_other if j == 0 else t)],
                    structure.m,
                )
                for j in range(r)
            ]
            rows = nullspace(ann, r * n)
        got = _outcome(is_type_subspace, structure, rows)
        assert got == _outcome(reference_is_type_subspace, structure, rows)
        if kind == "type":
            assert got is not None and rank([got, t], n) == 1

    @pytest.mark.parametrize("r, n", [(1, 2), (2, 3), (3, 4)])
    @pytest.mark.parametrize("kind", ["type", "random"])
    def test_one_elimination_per_check(self, r, n, kind):
        structure = cached_structure(r, n, False)
        rng = random.Random(300 + r)
        if kind == "type":
            rows = structure.type_subspace(rand_vector(rng, n))
        else:
            rows = random_codim_r(rng, r, n)
        calls = []
        original = linalg._echelon

        def counting(rows, ncols=None):
            calls.append(rows)
            return original(rows, ncols)

        with mock.patch.object(linalg, "_echelon", counting):
            result = is_type_subspace(structure, rows)
        assert (result is not None) == (kind == "type" or r == 1)
        assert len(calls) == 1


class TestGrnRelation:
    def test_identity(self):
        rng = random.Random(8)
        _, structure = general_position_family(rng, 2, 3)
        c, a = grn_relation(structure, structure)
        assert kron(c, a) == QMatrix.identity(6)

    def test_recovers_kronecker_factors(self):
        rng = random.Random(9)
        _, structure = general_position_family(rng, 2, 3)
        c = rand_invertible_matrix(rng, 2)
        a = rand_invertible_matrix(rng, 3)
        moved = kron(c, a) @ structure.m
        result = grn_relation(structure, TensorStructure(2, 3, moved))
        assert result is not None
        c2, a2 = result
        assert kron(c2, a2) == kron(c, a)

    def test_unrelated_bases_absent(self):
        rng = random.Random(10)
        _, structure = general_position_family(rng, 2, 3)
        scrambled = rand_invertible_matrix(rng, 6) @ structure.m
        assert grn_relation(structure, TensorStructure(2, 3, scrambled)) is None

    def test_independent_constructions_related(self):
        rng = random.Random(11)
        subs, structure = general_position_family(rng, 2, 3)
        other = construct_structure(subs, rng=random.Random(99))
        assert grn_relation(structure, other) is not None


def reference_construct_structure(subspaces, rng=None):
    """The construction on Fraction matrices: the stack and the blocks are
    inverted as ``QMatrix`` and m, m^-1 are combined row by row."""
    n = len(subspaces) - 1
    for idx, sub in enumerate(subspaces):
        if not len(sub):
            raise DimensionMismatchError(f"subspace {idx} has an empty basis")
    dim = len(subspaces[0][0])
    r = dim // n
    annihilators = []
    for idx, sub in enumerate(subspaces):
        ann = nullspace(sub, dim)
        if len(ann) != r:
            raise DimensionMismatchError(f"subspace {idx} does not have codimension r={r}")
        annihilators.append(QMatrix(ann))

    def not_spanning(omitted):
        witness = tuple(i for i in range(n + 1) if i != omitted)
        return GeneralPositionError(
            f"annihilators {witness} do not span the dual", witness=witness
        )

    try:
        change = QMatrix([row for ann in annihilators[1:] for row in ann.entries]).inverse()
    except RncGeomError:
        raise not_spanning(0) from None
    phis = annihilators[0]
    if rng is not None:
        phis = rand_invertible_matrix(rng, r) @ phis
    coords = (phis @ change).entries
    block_inverses = []
    for alpha in range(n):
        block = QMatrix([row[alpha * r : (alpha + 1) * r] for row in coords])
        try:
            block_inverses.append(block.inverse())
        except RncGeomError:
            raise not_spanning(alpha + 1) from None
    m_rows = [
        combine_rows(row[alpha * r : (alpha + 1) * r], annihilators[1 + alpha])
        for row in coords
        for alpha in range(n)
    ]
    inverse_rows = []
    for row in change.entries:
        parts = [
            combine_rows(row[alpha * r : (alpha + 1) * r], block_inverses[alpha])
            for alpha in range(n)
        ]
        inverse_rows.append([parts[alpha][j] for j in range(r) for alpha in range(n)])
    return QMatrix(m_rows), QMatrix(inverse_rows)


def reference_grn_relation(sa, sb):
    """The Kronecker factorization on the Fraction transition sb.m sa.m^-1."""
    r, n = sa.r, sa.n
    transition = (sb.m @ sa.m_inverse).entries
    flat = {
        (j, k): [
            transition[j * n + alpha][k * n + beta] for alpha in range(n) for beta in range(n)
        ]
        for j in range(r)
        for k in range(r)
    }
    a_flat = next((values for values in flat.values() if any(values)), None)
    if a_flat is None:
        return None
    pivot = next(i for i, x in enumerate(a_flat) if x != 0)
    a_flat = [x / a_flat[pivot] for x in a_flat]
    c_entries = [[F(0)] * r for _ in range(r)]
    for (j, k), values in flat.items():
        coeff = values[pivot]
        if any(values[i] != coeff * a_flat[i] for i in range(n * n)):
            return None
        c_entries[j][k] = coeff
    a = QMatrix([a_flat[i * n : (i + 1) * n] for i in range(n)])
    c = QMatrix(c_entries)
    if not a.is_invertible() or not c.is_invertible():
        return None
    return c, a


def defective_family(rng, r, n, defect):
    """A family of n + 1 subspaces of Q^{rn}: general, or with one defect.

    ``shared``: two annihilators share a row; ``sum``: a row of one
    annihilator is the sum of rows of two others; ``repeated`` and
    ``dropped``: one basis repeats a row in place of its last, or loses it.
    """
    dim = r * n
    subs = [random_codim_r(rng, r, n) for _ in range(n + 1)]
    if defect in ("shared", "sum"):
        anns = [[list(row) for row in nullspace(sub, dim)] for sub in subs]
        a, b, c = rng.sample(range(n + 1), 3)
        anns[a][0] = anns[b][0] if defect == "shared" else [
            x + y for x, y in zip(anns[b][0], anns[c][-1])
        ]
        subs = [nullspace(ann, dim) for ann in anns]
    elif defect in ("repeated", "dropped"):
        k = rng.randrange(n + 1)
        subs[k] = subs[k][:-1] + ([subs[k][0]] if defect == "repeated" else [])
    return subs


def _construction(build, subs, mix):
    try:
        m, m_inverse = build(subs, None if mix is None else random.Random(mix))
    except (DimensionMismatchError, GeneralPositionError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return m, m_inverse


def _built(subs, rng):
    structure = construct_structure(subs, rng=rng)
    return structure.m, structure.m_inverse


def _relation(check, sa, sb):
    result = check(sa, sb)
    return None if result is None else (result[0].entries, result[1].entries)


class TestConstructionOracle:
    """The integer-row construction and relation against the Fraction ones."""

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 3),
        n=st.integers(2, 4),
        mix=st.one_of(st.none(), st.integers(0, 2**16)),
        defect=st.sampled_from(["none", "none", "shared", "sum", "repeated", "dropped"]),
        relation=st.sampled_from(["remix", "kronecker", "scrambled"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, r, n, mix, defect, relation, seed):
        rng = random.Random(seed)
        subs = defective_family(rng, r, n, defect)
        got = _construction(_built, subs, mix)
        assert got == _construction(reference_construct_structure, subs, mix)
        if not isinstance(got[0], QMatrix):
            return
        sa = TensorStructure(r, n, got[0])
        if relation == "remix":
            sb = construct_structure(subs, rng=random.Random(seed + 1))
        elif relation == "kronecker":
            moved = kron(rand_invertible_matrix(rng, r), rand_invertible_matrix(rng, n))
            sb = TensorStructure(r, n, moved @ sa.m)
        else:
            sb = TensorStructure(r, n, rand_invertible_matrix(rng, r * n) @ sa.m)
        expected = _relation(reference_grn_relation, sa, sb)
        assert _relation(grn_relation, sa, sb) == expected
        # for r = 1 every transition is 1 (x) A
        assert (expected is None) == (relation == "scrambled" and r > 1)


@contextlib.contextmanager
def recording_inversions():
    """Record the left half A of each ``[A | I]`` handed to the elimination
    core, in call order."""
    calls = []
    original = linalg._echelon

    def recording(rows, ncols=None):
        k = len(rows)
        if ncols == 2 * k and all(
            list(row[k:]) == [int(i == j) for j in range(k)] for i, row in enumerate(rows)
        ):
            calls.append([list(row[:k]) for row in rows])
        return original(rows, ncols)

    with mock.patch.object(linalg, "_echelon", recording):
        yield calls


def parallel(u, v) -> bool:
    """Whether two nonzero vectors are multiples of each other."""
    return any(u) and any(v) and rank([u, v], len(u)) == 1


class TestCachedInverse:
    def test_inverts_m(self):
        rng = random.Random(13)
        _, structure = general_position_family(rng, 2, 3)
        assert structure.m_inverse @ structure.m == QMatrix.identity(6)

    def test_inversions_per_construction(self):
        # cold, the construction inverts the stack S of the annihilators of
        # F_1..F_n and the n r x r blocks C_alpha with m = D S, nothing
        # else.  Warm, n + 1 type checks and a relation invert nothing
        # more, and a remix inverts only its own n blocks: S once in all.
        # S and the blocks are handed over as integer rows scaled row by
        # row, so each row of m is a nonzero multiple of the row rebuilt
        # as D S.
        rng = random.Random(14)
        r, n = 2, 3
        subs, _ = general_position_family(rng, r, n)
        other = construct_structure(subs, rng=random.Random(98))
        stack = [row for sub in subs[1:] for row in nullspace(sub, r * n)]
        forget_frame()
        with recording_inversions() as calls:
            structure = construct_structure(subs)
            assert [len(a) for a in calls] == [r * n] + [r] * n
            for sub in subs:
                assert is_type_subspace(structure, sub) is not None
            assert grn_relation(structure, other) is not None
            remixed = construct_structure(subs, rng=random.Random(98))
        assert len(subs) == n + 1
        assert [len(a) for a in calls] == [r * n] + [r] * n + [r] * n
        assert remixed.m == other.m and remixed.m_inverse == other.m_inverse
        assert all(parallel(got, want) for got, want in zip(calls[0], stack))
        for built, blocks in ((structure, calls[1 : n + 1]), (remixed, calls[n + 1 :])):
            for alpha, block in enumerate(blocks):
                for j in range(r):
                    rebuilt = [
                        sum(block[j][i] * calls[0][alpha * r + i][k] for i in range(r))
                        for k in range(r * n)
                    ]
                    assert parallel(rebuilt, built.m.entries[j * n + alpha])

    def test_inverted_rows_are_primitive(self):
        # bit growth: the stack of annihilator rows and every block row are
        # divided by their content before they are inverted, so the left
        # half of each row of [A | I] is an integer row of content 1.  A
        # cold construction inverts S and the blocks, a warm one the blocks.
        for r, n in ((2, 3), (3, 3), (2, 4)):
            subs, _ = general_position_family(random.Random(60 + 10 * r + n), r, n)
            for mix, again in ((None, random.Random(r * n)), (random.Random(r * n), None)):
                forget_frame()
                with recording_inversions() as calls:
                    construct_structure(subs, rng=mix)
                    assert [len(a) for a in calls] == [r * n] + [r] * n
                    construct_structure(subs, rng=again)
                assert [len(a) for a in calls] == [r * n] + [r] * n + [r] * n
                for a in calls:
                    for row in a:
                        assert all(type(x) is int for x in row)
                        assert math.gcd(*row) == 1

    def test_m_never_row_reduced(self):
        # m^-1 is assembled from the inverses of S and of the blocks; no
        # elimination receives a row of m, plain or remixed, in the
        # construction, the type checks or a relation
        subs, _ = general_position_family(random.Random(15), 3, 3)
        reduced = []
        original = linalg._echelon

        def counting(rows, ncols=None):
            reduced.append([tuple(row) for row in rows])
            return original(rows, ncols)

        with mock.patch.object(linalg, "_echelon", counting):
            structure = construct_structure(subs)
            other = construct_structure(subs, rng=random.Random(97))
            for sub in subs:
                assert is_type_subspace(structure, sub) is not None
            assert grn_relation(structure, other) is not None
        dim = structure.m.nrows
        m_rows = set(structure.m.entries) | set(other.m.entries)
        assert reduced
        assert not any(tuple(row[:dim]) in m_rows for rows in reduced for row in rows)

    def test_each_subspace_row_reduced_once(self):
        # the kernel of F_i gives its codimension; F_i is not also
        # row-reduced for its rank.  Cold, a construction and a type check
        # each reduce F_i once.  Across a job's construction, its n + 1 type
        # checks and its remix, F_i and the stack [S | I] are reduced once.
        r, n = 2, 3
        subs, _ = general_position_family(random.Random(18), r, n)
        given = [[tuple(F(x) for x in row) for row in sub] for sub in subs]
        reduced = []
        original = linalg._echelon

        def counting(rows, ncols=None):
            reduced.append([tuple(F(x) for x in row) for row in rows])
            return original(rows, ncols)

        def stacks():
            return sum(len(rows) == r * n and len(rows[0]) == 2 * r * n for rows in reduced)

        forget_frame()
        with mock.patch.object(linalg, "_echelon", counting):
            structure = construct_structure(subs)
            assert [reduced.count(sub) for sub in given] == [1] * len(subs)
            forget_frame()
            reduced.clear()
            for sub in subs:
                assert is_type_subspace(structure, sub) is not None
            assert [reduced.count(sub) for sub in given] == [1] * len(subs)
            forget_frame()
            reduced.clear()
            structure = construct_structure(subs)
            for sub in subs:
                assert is_type_subspace(structure, sub) is not None
            construct_structure(subs, rng=random.Random(3))
        assert [reduced.count(sub) for sub in given] == [1] * len(subs)
        assert stacks() == 1

    @pytest.mark.parametrize("r, n", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)])
    def test_each_defect_raises_its_witness(self, r, n):
        # for k = 0, ann_1 shares a row with ann_2; for k >= 1, the first
        # row of ann_0 lies in the sum of the ann_beta with beta not in
        # {0, k}.  The first failing witness in the order 0, 1, ..., n is
        # raised, with or without a remix.
        dim = r * n
        subs, _ = general_position_family(random.Random(40 + 10 * r + n), r, n)
        for k in range(n + 1):
            anns = [[list(row) for row in nullspace(sub, dim)] for sub in subs]
            if k == 0:
                anns[1][0] = anns[2][0]
            else:
                anns[0][0] = [
                    sum(col) for col in zip(*(anns[b][0] for b in range(1, n + 1) if b != k))
                ]
            family = [nullspace(ann, dim) for ann in anns]
            failing = [
                omitted
                for omitted in range(n + 1)
                if rank([row for i, ann in enumerate(anns) if i != omitted for row in ann], dim)
                != dim
            ]
            assert failing[0] == k and (k == 0 or failing == [k])
            witness = tuple(i for i in range(n + 1) if i != k)
            message = re.escape(f"annihilators {witness} do not span the dual")
            for mix in (None, random.Random(k)):
                with pytest.raises(GeneralPositionError, match=f"^{message}$") as info:
                    construct_structure(family, rng=mix)
                assert info.value.witness == witness


def echelon_inputs():
    """Record the rows of each call to the elimination core, as tuples."""
    reduced = []
    original = linalg._echelon

    def recording(rows, ncols=None):
        reduced.append([tuple(row) for row in rows])
        return original(rows, ncols)

    return reduced, mock.patch.object(linalg, "_echelon", recording)


def job(subs, mix, cold):
    """What a tensor job reads: m and m^-1 of a construction and of a remix,
    the t of each subspace and of two others, and the relation.  ``cold``
    forgets the frame before every call."""

    def call(fn, *args, **kwargs):
        if cold:
            forget_frame()
        try:
            return fn(*args, **kwargs)
        except (DimensionMismatchError, GeneralPositionError) as exc:
            return type(exc), str(exc)

    structure = call(construct_structure, subs)
    if not isinstance(structure, TensorStructure):
        return structure
    other = call(construct_structure, subs, rng=random.Random(mix))
    r, n = structure.r, structure.n
    probes = subs + [structure.type_subspace([1] * n), random_codim_r(random.Random(mix), r, n)]
    got = structure.m, structure.m_inverse, [call(is_type_subspace, structure, p) for p in probes]
    if not isinstance(other, TensorStructure):
        return got, other
    return got, other.m, other.m_inverse, grn_relation(structure, other)


class TestFrameMemo:
    """``construct_structure`` keeps the kernels and S^-1 of its latest input."""

    def test_mutated_input_is_not_stale(self):
        subs, _ = general_position_family(random.Random(30), 2, 3)
        subs = [[list(row) for row in sub] for sub in subs]
        before = construct_structure(subs)
        subs[0][0][0] += 1
        subs[1], subs[2] = subs[2], subs[1]
        got = construct_structure(subs)
        t = is_type_subspace(got, subs[0])
        forget_frame()
        fresh = construct_structure(subs)
        assert got.m != before.m
        assert (got.m, got.m_inverse) == (fresh.m, fresh.m_inverse)
        forget_frame()
        assert t == is_type_subspace(fresh, subs[0])

    def test_value_equal_rows_hit(self):
        # int rows and Fraction rows with the same values are one input:
        # the second construction reduces no subspace and inverts no S
        r, n = 2, 3
        subs, _ = general_position_family(random.Random(31), r, n)
        ints = [[clear_denominators(row)[0] for row in sub] for sub in subs]
        fracs = [[tuple(F(x) for x in row) for row in sub] for sub in ints]
        first = construct_structure(ints)
        types = [is_type_subspace(first, sub) for sub in ints]
        reduced, patch = echelon_inputs()
        with patch:
            second = construct_structure(fracs)
            again = [is_type_subspace(second, sub) for sub in fracs]
        assert [len(rows) for rows in reduced] == [r] * n  # the blocks alone
        assert second.m == first.m and second.m_inverse == first.m_inverse
        assert again == types and all(t is not None for t in types)

    def test_other_dimension_misses(self):
        # a subspace of the kept frame, checked against a structure on
        # another space, is rejected as it is with no frame kept
        _, small = general_position_family(random.Random(34), 2, 2)
        subs, _ = general_position_family(random.Random(35), 2, 3)
        with pytest.raises(DimensionMismatchError, match="ragged"):
            is_type_subspace(small, subs[1])

    @pytest.mark.parametrize("defect", ["stack", "codimension", "block"])
    def test_raising_input(self, defect):
        # an input whose frame raises (S singular, or a subspace of the
        # wrong codimension) raises again on every call, eliminating afresh,
        # and leaves the kept frame in place.  One whose frame holds but a
        # block C_alpha is singular keeps its frame and raises again from it.
        r, n = 2, 3
        dim = r * n
        subs, _ = general_position_family(random.Random(32), r, n)
        kept = gstructure._last_frame
        anns = [[list(row) for row in nullspace(sub, dim)] for sub in subs]
        if defect == "stack":
            anns[1][0] = anns[2][0]
        elif defect == "block":
            anns[0][0] = [x + y for x, y in zip(anns[2][0], anns[3][0])]
        bad = [nullspace(ann, dim) for ann in anns]
        if defect == "codimension":
            bad[2] = bad[2][:-1]
        error = DimensionMismatchError if defect == "codimension" else GeneralPositionError
        for call in range(2):
            reduced, patch = echelon_inputs()
            with patch:
                with pytest.raises(error) as info:
                    construct_structure(bad)
            if call == 0:
                message = str(info.value)
            assert str(info.value) == message
            if defect == "block":
                assert "(0, 2, 3)" in message
                assert gstructure._last_frame[0] == tuple(map(tuple, bad))
                # cold: n + 1 kernels, S and C_0; warm: C_0 alone
                assert len(reduced) == (1 if call else n + 3)
            else:
                assert gstructure._last_frame is kept
                assert reduced[0] == [tuple(row) for row in bad[0]]

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(1, 3),
        n=st.integers(2, 4),
        defect=st.sampled_from(["none", "none", "shared", "repeated"]),
        seed=st.integers(0, 2**16),
    )
    def test_warm_matches_cold(self, r, n, defect, seed):
        subs = defective_family(random.Random(seed), r, n, defect)
        forget_frame()
        warm = job(subs, seed + 1, cold=False)
        assert warm == job(subs, seed + 1, cold=True)


class TestAssembledInverse:
    @pytest.mark.parametrize("r", range(1, 5))
    @pytest.mark.parametrize("n", range(2, 5))
    def test_matches_row_reduction(self, r, n):
        # the rref route of QMatrix.inverse is the oracle
        rng = random.Random(70 + 10 * r + n)
        subs, plain = general_position_family(rng, r, n)
        remixed = construct_structure(subs, rng=random.Random(5))
        for structure in (plain, remixed):
            assert structure.m_inverse == structure.m.inverse()
            assert structure.m_inverse @ structure.m == QMatrix.identity(r * n)

    def test_m_inverse_cleared_once(self):
        # a construction, its n + 1 type checks and a relation clear the
        # entries of m^-1 to integers once, all of them together
        subs, _ = general_position_family(random.Random(16), 2, 3)
        other = construct_structure(subs, rng=random.Random(98))
        cleared = []
        original = linalg.clear_denominators

        def recording(values):
            values = list(values)
            cleared.append(values)
            return original(values)

        with mock.patch.object(linalg, "clear_denominators", recording):
            structure = construct_structure(subs)
            for sub in subs:
                assert is_type_subspace(structure, sub) is not None
            assert grn_relation(structure, other) is not None
        dim = structure.m.nrows
        rows = set(structure.m_inverse.entries)
        touching = [
            values
            for values in cleared
            if any(tuple(values[i : i + dim]) in rows for i in range(0, len(values), dim))
        ]
        assert touching == [[x for row in structure.m_inverse.entries for x in row]]

    @pytest.mark.parametrize("r, n", [(1, 2), (2, 3), (3, 4)])
    def test_remix_draws_once(self, r, n):
        subs, _ = general_position_family(random.Random(80 + r), r, n)
        rng = random.Random(123)
        construct_structure(subs, rng=rng)
        fresh = random.Random(123)
        rand_invertible_matrix(fresh, r)
        assert rng.getstate() == fresh.getstate()

    def test_exhausted_remix_is_a_genericity_error(self):
        # every draw of this generator is the zero matrix
        class Zeros(random.Random):
            def randint(self, a, b):
                return 0

        with pytest.raises(GenericityError, match="invertible matrix"):
            rand_invertible_matrix(Zeros(0), 2)
        subs, _ = general_position_family(random.Random(81), 2, 2)
        with pytest.raises(GenericityError):
            construct_structure(subs, rng=Zeros(0))


class TestTypeRows:
    @pytest.mark.parametrize("r, n", [(1, 2), (2, 2), (3, 2), (2, 4)])
    def test_match_the_definition(self, r, n):
        # row j of the type-(r, n-1) rows is sum_alpha t_alpha m_{j,alpha};
        # row alpha of the type-(r-1, n) rows is sum_j u_j m_{j,alpha}
        rng = random.Random(90 + 10 * r + n)
        _, structure = general_position_family(rng, r, n)
        m = structure.m.entries
        t, u = rand_vector(rng, n), rand_vector(rng, r)
        assert structure.type_subspace_rows(t) == [
            tuple(sum(t[a] * m[j * n + a][k] for a in range(n)) for k in range(r * n))
            for j in range(r)
        ]
        assert structure.left_type_subspace(u) == [
            tuple(sum(u[j] * m[j * n + a][k] for j in range(r)) for k in range(r * n))
            for a in range(n)
        ]


    def test_zero_parameter_is_no_point(self):
        _, structure = general_position_family(random.Random(91), 2, 3)
        with pytest.raises(DimensionMismatchError, match="parameter must be nonzero"):
            structure.type_subspace_rows((0, F(0), 0))
        with pytest.raises(DimensionMismatchError, match="parameter must be nonzero"):
            structure.type_subspace((0, 0, 0))
        with pytest.raises(DimensionMismatchError, match="parameter must be nonzero"):
            structure.left_type_subspace((F(0), 0))


class TestIntersectionLaw:
    def test_dimension_law(self):
        # type (r, n-1) and type (r-1, n) spaces meet in dim (r-1)(n-1)
        rng = random.Random(12)
        for r, n in ((2, 2), (2, 3), (3, 3)):
            _, structure = general_position_family(rng, r, n)
            t_rows = structure.type_subspace_rows(tuple(F(1) for _ in range(n)))
            u_rows = structure.left_type_subspace(tuple(F(1) for _ in range(r)))
            meet = nullspace(list(t_rows) + list(u_rows), r * n)
            assert len(meet) == (r - 1) * (n - 1)
