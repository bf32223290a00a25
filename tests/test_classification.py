import random
from dataclasses import replace

import pytest

from cyclicblocks.brauer_tree import (
    NEGATIVE,
    POSITIVE,
    BlockDescriptor,
    Edge,
    group_algebra_block,
    predecessor,
    star_tree,
    successor,
)
from cyclicblocks.characters import character_of
from cyclicblocks.classification import (
    ClassificationError,
    PathDescriptor,
    _anchor_paths,
    _anchors,
    _verdicts,
    admitted_anchors,
    enumerate_projective,
    enumerate_trivial_source,
    m1_enumerate,
)
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    restricted_cap_params,
)
from cyclicblocks.oracle import (
    block_params_for,
    cap_dim_recursive,
    det1_char_by_recursion,
    induce_character,
    perm_module_character,
    random_block_descriptor,
)

W = EndoPermParams


def path_block(signs=(1, -1, 1), w=(1,)):
    # A - B - exc, p = 3, n = 2, e = 2
    return BlockDescriptor(
        p=3,
        n=2,
        e=2,
        vertices=("A", "B", "exc"),
        signs={"A": signs[0], "B": signs[1], "exc": signs[2]},
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "exc"))),
        cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "exc": ("E2",)},
        exceptional="exc",
        w=W(w),
    )


def candidates(desc, i):
    # every candidate path at vertex index i with the verdict of its
    # anchor's class, as a list so that a repeated path still shows
    ell = cap_dim(desc.w, CyclicGroupData(desc.p, desc.n), i)
    table = _verdicts(desc.p, desc.n, desc.e, ell, i)
    return [
        (PathDescriptor(*fields), table.get(key))
        for key, anchor in _anchors(desc)
        for fields in _anchor_paths(desc, anchor)
    ]


def by_type(pairs):
    out = {}
    for path, verdict in pairs:
        out.setdefault(path.type_tag, []).append((path, verdict))
    return out


def hook_verdicts(desc, i):
    return [verdict for _, verdict in by_type(candidates(desc, i))[1]]


def test_candidate_shapes_on_star():
    star = star_tree(2, 3, 2, W(()), -1)
    shapes = by_type(candidates(star, 1))
    assert len(shapes.get(2, [])) == 2  # one per leaf
    assert len(shapes.get(7, [])) == 2  # ordered consecutive pairs at centre
    # one hook per positive leaf, proposed and rejected below i = n
    assert [verdict for _, verdict in shapes[1]] == [None, None]
    for tag in (3, 4, 5, 6):
        assert tag not in shapes


def test_candidate_shapes_on_self_block():
    kd = group_algebra_block(3, 2)
    shapes = by_type(candidates(kd, 1))
    assert len(shapes.get(2, [])) == 1
    assert len(shapes.get(3, [])) == 1
    assert set(shapes) == {1, 2, 3}
    # the hook at the positive plain vertex is rejected: e = 1
    assert hook_verdicts(kd, 2) == [None]


def test_hook_candidates_only_at_full_vertex_with_trivial_parameter():
    # hooks are proposed at every vertex index and admitted only at i = n
    # with W = ()
    star = star_tree(2, 3, 2, W(()), -1)
    assert hook_verdicts(star, 1) == [None, None]
    assert hook_verdicts(star, 2) == [(None, None), (None, None)]
    shifted = star_tree(2, 3, 2, W((1,)), -1)
    assert hook_verdicts(shifted, 2) == [None, None]


def test_candidates_on_path_tree_shapes():
    desc = path_block()
    shapes = by_type(candidates(desc, 1))
    assert len(shapes[2]) == 1  # leaf A
    assert len(shapes[3]) == 1  # exceptional vertex is a leaf
    assert len(shapes[4]) == 1 and shapes[4][0][0].extra_edges == ("E1",)
    assert len(shapes[5]) == 1 and shapes[5][0][0].extra_edges == ("E1",)
    assert 6 not in shapes  # needs degree >= 3
    assert 7 not in shapes  # exceptional vertex is a leaf


def test_admissible_star_examples():
    star = star_tree(2, 3, 2, W(()), -1)
    _, two = by_type(candidates(star, 1))[2][0]
    assert two == ("ii", 2)

    flipped = star_tree(2, 3, 2, W(()), 1)
    _, seven = by_type(candidates(flipped, 1))[7][0]
    assert seven == ("i", 3)


def test_admissible_type7_needs_matching_divisibility():
    star = star_tree(2, 3, 2, W(()), -1)
    sevens = by_type(candidates(star, 1)).get(7, [])
    assert len(sevens) == 2
    for _, verdict in sevens:
        assert verdict is None


def test_enumerate_star_and_self_block():
    star = star_tree(2, 3, 2, W(()), -1)
    modules = enumerate_trivial_source(star, 1)
    assert [m.type_tag for m in modules] == [2, 2]
    assert {m.spine_vertices[0] for m in modules} == {"v1", "v2"}

    hooks = enumerate_trivial_source(star, 2)
    assert [m.type_tag for m in hooks] == [1, 1]
    assert {m.spine_vertices[0] for m in hooks} == {"v1", "v2"}

    kd = group_algebra_block(3, 2)
    for i in (1, 2):
        assert len(enumerate_trivial_source(kd, i)) == 1


def test_hooks_at_positive_exceptional_vertex_afford_the_bundle():
    flipped = star_tree(2, 3, 2, W(()), 1)
    hooks = enumerate_trivial_source(flipped, 2)
    assert [m.type_tag for m in hooks] == [1, 1]
    assert all(m.spine_vertices == ("exc",) for m in hooks)
    for m in hooks:
        char = character_of(flipped, 2, m)
        assert char.nonexceptional == (0, 0)
        assert char.exceptional == (1, 1, 1, 1)


def test_enumerate_path_tree_both_orientations():
    genuine = path_block(signs=(1, -1, 1))
    assert [m.type_tag for m in enumerate_trivial_source(genuine, 1)] == [2, 3]
    assert [m.type_tag for m in enumerate_trivial_source(genuine, 2)] == [4, 5]

    flipped = path_block(signs=(-1, 1, -1))
    assert [m.type_tag for m in enumerate_trivial_source(flipped, 1)] == [4, 5]


def test_unrealisable_orientation_is_surfaced_not_suppressed():
    # exceptional leaf, negative, with the cap dimension at the full group
    # equal to e: no block realises this, and the enumeration says so
    flipped = path_block(signs=(-1, 1, -1))
    with pytest.raises(ClassificationError) as err:
        enumerate_trivial_source(flipped, 2)
    assert err.value.expected == 2
    assert [m.type_tag for m in err.value.paths] == [2]


def test_enumerated_paths_are_pairwise_distinct():
    star = star_tree(6, 7, 2, W((1,)), -1)
    for i in (1, 2):
        modules = enumerate_trivial_source(star, i)
        assert len(set(modules)) == len(modules)


def test_characters_of_enumerated_modules_are_01():
    for w in (W(()), W((1,))):
        for signs in ((1, -1, 1), (-1, 1, -1)):
            desc = path_block(signs=signs, w=w.indices)
            for i in (1, 2):
                try:
                    modules = enumerate_trivial_source(desc, i)
                except ClassificationError:
                    continue
                for m in modules:
                    assert character_of(desc, i, m).is_zero_one


def test_self_block_closure_small():
    kd = group_algebra_block(3, 2)
    g = CyclicGroupData(3, 2)
    for i in (1, 2):
        module = enumerate_trivial_source(kd, i)[0]
        char = character_of(kd, i, module)
        relabelled = (char.nonexceptional[0],) + char.exceptional
        assert relabelled == perm_module_character(g, i).mults


def test_enumerate_projective():
    star = star_tree(3, 7, 1, W(()), -1)
    pims = enumerate_projective(star)
    assert len(pims) == 3
    for pim in pims:
        assert sum(pim.character.nonexceptional) == 1
        assert pim.character.exceptional == (1,) * star.m

    kd = group_algebra_block(3, 1)
    (pim,) = enumerate_projective(kd)
    assert pim.character.nonexceptional == (1,)
    assert pim.character.exceptional == (1, 1)


def test_m1_enumeration():
    m1 = BlockDescriptor(
        p=3,
        n=1,
        e=2,
        vertices=("A", "B", "C"),
        signs={"A": 1, "B": -1, "C": 1},
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "C"))),
        cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "C": ("E2",)},
        exceptional=None,
        w=W(()),
    )
    result = m1_enumerate(m1)
    assert len(result.pims) == 2
    assert len(result.hooks) == 4
    assert all(h.character.exceptional == () for h in result.hooks)
    with pytest.raises(ValueError):
        m1_enumerate(group_algebra_block(3, 1))
    with pytest.raises(
        ValueError, match="m = 1 blocks are enumerated by m1_enumerate"
    ):
        enumerate_trivial_source(m1, 1)


def test_index_table_agrees_with_independent_sources():
    # per descriptor, one sweep over W gives every vertex index its cap
    # dimension, verdicts and xi level pair; each agrees with a source that
    # does not share the sweep: the Heller recursion, the verdicts at the
    # cap dimension checked per index, and the correspondent induced from
    # the recursive determinant-1 character, whose levels below n are xi's
    cases = 0
    for p in (3, 5, 7):
        es = [e for e in range(1, p) if (p - 1) % e == 0]
        for n in range(1, 7):
            g = CyclicGroupData(p, n)
            for w in block_params_for(n):
                expected = {}
                for i in range(1, n + 1):
                    local = restricted_cap_params(w, g, i)
                    levels = induce_character(
                        g, i, det1_char_by_recursion(local, p, i)
                    ).levels[:n]
                    xi_pair = bytes(levels), bytes(1 - c for c in levels)
                    expected[i] = cap_dim_recursive(w, g, i), xi_pair
                for e in es:
                    if (p**n - 1) // e == 1:
                        continue
                    table = star_tree(e, p, n, w, -1).index_table
                    assert sorted(table) == list(range(1, n + 1))
                    for i, entry in table.items():
                        assert (entry.cap_dim, entry.xi_levels) == expected[i]
                        ell = cap_dim(w, g, i)
                        assert entry.verdicts == _verdicts(p, n, e, ell, i)
                        cases += 1
    # 321 = sum of n * 2^(n-1), the (W, i) pairs for n <= 6, at each of the
    # 2, 3 and 4 values of e, less the one e = p - 1 at n = 1 (m = 1)
    assert cases == (2 + 3 + 4) * 321 - 3


def _path_tree(p, n, e, w):
    # v0 - v1 - ... - v(e-1) - exc, signs alternating to a positive exc
    names = [f"v{k}" for k in range(e)] + ["exc"]
    edges = tuple(Edge(f"E{k + 1}", (names[k], names[k + 1])) for k in range(e))
    return BlockDescriptor(
        p=p, n=n, e=e,
        vertices=tuple(names),
        signs={v: (-1) ** (e - k) for k, v in enumerate(names)},
        edges=edges,
        cyclic_order={v: tuple(x.id for x in edges if v in x.ends) for v in names},
        exceptional="exc",
        w=w,
    )


def test_the_hook_verdict_reads_w_as_trivial():
    # the table admits hooks where i = n and the cap dimension is 1: at
    # i = n that is dim W, which is 1 exactly when W = ()
    cases = 0
    for p in (3, 5, 7, 11):
        for n in range(1, 8):
            g = CyclicGroupData(p, n)
            for w in block_params_for(n):
                for i in range(1, n + 1):
                    at_one = i == n and cap_dim(w, g, i) == 1
                    assert at_one == (i == n and w.indices == ())
                    cases += 1
    # 4 primes times 769 = sum of n * 2^(n-1), the (W, i) pairs for n <= 7
    assert cases == 3076
    # so a descriptor admits its hooks exactly at e > 1, i = n and W = ()
    descs = [group_algebra_block(p, n) for p, n in ((3, 1), (3, 3), (5, 2))]
    for p, n, e in ((3, 2, 1), (3, 2, 2), (3, 3, 2), (5, 2, 4), (5, 3, 2), (7, 2, 3)):
        for w in block_params_for(n):
            descs += [star_tree(e, p, n, w, sign) for sign in (1, -1)]
            descs.append(_path_tree(p, n, e, w))
    admitted = set()
    for desc in descs:
        for i in range(1, desc.n + 1):
            verdicts = desc.index_entry(i).verdicts
            assert (1, NEGATIVE, 0) not in verdicts
            expected = desc.e > 1 and i == desc.n and desc.w.indices == ()
            assert verdicts[1, POSITIVE, 0] == ((None, None) if expected else None)
            admitted.add(expected)
    assert admitted == {True, False}


def test_vertex_index_bounds():
    star = star_tree(2, 3, 2, W(()), -1)
    with pytest.raises(ValueError, match=r"vertex index 0 outside 1\.\.2"):
        enumerate_trivial_source(star, 0)
    with pytest.raises(ValueError, match=r"vertex index 3 outside 1\.\.2"):
        enumerate_trivial_source(star, 3)


def _all_labelled_trees(nv):
    # every labelled tree on nv vertices, decoded from its Pruefer sequence
    from itertools import product

    if nv == 2:
        yield [(0, 1)]
        return
    for seq in product(range(nv), repeat=nv - 2):
        degree = [1] * nv
        for v in seq:
            degree[v] += 1
        pool = sorted(v for v in range(nv) if degree[v] == 1)
        edges = []
        for v in seq:
            leaf = pool.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                k = 0
                while k < len(pool) and pool[k] < v:
                    k += 1
                pool.insert(k, v)
        edges.append((pool[0], pool[1]))
        yield edges


def test_exhaustive_small_trees_have_e_modules():
    # every labelled tree on 3 and 5 vertices, every exceptional placement,
    # every planar order at the busiest vertex, both sign orientations and
    # both parameters: the admissible set has size e, except in the single
    # configuration no block realises (negative exceptional leaf with cap
    # dimension e at the full vertex), which must fail loudly with e - 1
    from itertools import permutations

    from cyclicblocks.local_reps import cap_dim

    p, n = 5, 2
    g = CyclicGroupData(p, n)
    for e in (2, 4):
        nv = e + 1
        for pairs in _all_labelled_trees(nv):
            names = [f"v{k}" for k in range(nv)]
            edges = tuple(
                Edge(f"E{k + 1}", (names[a], names[b]))
                for k, (a, b) in enumerate(pairs)
            )
            incident = {
                v: [ed.id for ed in edges if v in ed.ends] for v in names
            }
            hub = max(names, key=lambda v: len(incident[v]))
            for hub_order in permutations(incident[hub]):
                cyclic = {v: tuple(incident[v]) for v in names}
                cyclic[hub] = hub_order
                for exc in names:
                    depth = {exc: 0}
                    stack = [exc]
                    while stack:
                        v = stack.pop()
                        for eid in cyclic[v]:
                            ed = next(x for x in edges if x.id == eid)
                            other = ed.ends[1] if ed.ends[0] == v else ed.ends[0]
                            if other not in depth:
                                depth[other] = depth[v] + 1
                                stack.append(other)
                    for orientation in (1, -1):
                        signs = {
                            v: orientation * (-1) ** (depth[v] % 2) for v in names
                        }
                        for w in (W(()), W((1,))):
                            desc = BlockDescriptor(
                                p=p, n=n, e=e,
                                vertices=tuple(names), signs=signs, edges=edges,
                                cyclic_order=cyclic, exceptional=exc, w=w,
                            )
                            guarded = (
                                len(incident[exc]) == 1
                                and signs[exc] == -1
                                and cap_dim(w, g, n) == e
                            )
                            for i in (1, 2):
                                try:
                                    assert len(enumerate_trivial_source(desc, i)) == e
                                except ClassificationError as err:
                                    assert guarded and i == n
                                    assert len(err.paths) == e - 1


# The enumeration as it stood before the verdict table, kept as the
# reference: every candidate is built, judged on its own and completed with
# `_replace`.


def _reference_candidates(desc):
    # the same at every vertex index, the hooks first
    exc = desc.exceptional
    out = [
        PathDescriptor(1, (v,), (edge.id,), (), (1, 1))
        for edge in desc.edges
        for v in edge.ends
        if desc.signs[v] > 0
    ]
    if desc.e == 1:
        plain = desc.nonexceptional_vertices[0]
        edge = desc.edges[0].id
        return out + [
            PathDescriptor(2, (plain,), (edge,), (), (1, -1)),
            PathDescriptor(3, (), (edge,), (), (-1, 1)),
        ]
    for x0 in desc.nonexceptional_vertices:
        spine_v, spine_e = desc.spines[x0]
        if desc.is_leaf(x0):
            out.append(PathDescriptor(2, spine_v, spine_e, (), (1, -1)))
            continue
        first = spine_e[0]
        out.append(
            PathDescriptor(4, spine_v, spine_e, (successor(desc, x0, first),), (1, 1))
        )
        out.append(
            PathDescriptor(
                5, spine_v, spine_e, (predecessor(desc, x0, first),), (-1, -1)
            )
        )
        order = desc.cyclic_order[x0]
        for e1, e2 in zip(order, order[1:] + order[:1]):
            if e1 != first and e2 != first and e1 != e2:
                out.append(PathDescriptor(6, spine_v, spine_e, (e1, e2), (-1, 1)))
    if desc.is_leaf(exc):
        out.append(PathDescriptor(3, (), (desc.cyclic_order[exc][0],), (), (-1, 1)))
    else:
        order = desc.cyclic_order[exc]
        for e1, e2 in zip(order, order[1:] + order[:1]):
            if e1 != e2:
                out.append(PathDescriptor(7, (), (), (e1, e2), (-1, 1)))
    return out


def _reference_admissible(desc, i, path):
    ell = cap_dim(desc.w, CyclicGroupData(desc.p, desc.n), i)
    dim = ell * desc.p ** (desc.n - i)
    pos_ok, neg_ok = (dim - 1) % desc.e == 0, ell % desc.e == 0
    m = desc.m
    e = desc.e
    if path.type_tag == 1:
        # a hook is trivial source only at the full-order vertex of a block
        # with trivial parameter
        admitted = e > 1 and i == desc.n and desc.w.indices == ()
        return (None, None) if admitted else None
    if e == 1:
        if path.type_tag != 2:
            return None
        plain = desc.nonexceptional_vertices[0]
        if desc.signs[plain] > 0:
            return "i", dim
        return "ii", desc.p ** desc.n - dim
    if path.type_tag in (2, 4, 5, 6):
        sign = desc.signs[path.spine_vertices[0]]
        spine_parity = (len(path.spine_vertices) - 1) % 2
        if sign > 0 and pos_ok:
            count = (dim - 1) // e
            case, mu = ("i", m + 1 - count) if spine_parity else ("ii", count + 1)
        elif sign < 0 and neg_ok:
            count = dim // e
            case, mu = ("iii", count + 1) if spine_parity else ("iv", m + 1 - count)
        else:
            return None
        return (case, mu) if 2 <= mu <= m else None
    sign = desc.signs[desc.exceptional]
    if sign > 0 and pos_ok:
        case, mu = "i", m - (dim - 1) // e
    elif sign < 0 and neg_ok:
        case, mu = "ii", dim // e
    else:
        return None
    low = 2 if path.type_tag == 3 else 1
    return (case, mu) if low <= mu <= m - 1 else None


def _reference_enumeration(desc, i):
    found = []
    for cand in _reference_candidates(desc):
        verdict = _reference_admissible(desc, i, cand)
        if verdict is not None:
            case, mu = verdict
            found.append(cand._replace(case_tag=case, multiplicity=mu))
    return found


def _reference_corpus():
    # random trees up to e = 100, each in both sign orientations (the twin
    # of a negative exceptional leaf can be the unrealisable case), plus
    # the one-edge blocks
    rng = random.Random(2024)
    sizes = (
        (3, 2, 1), (7, 2, 1), (3, 4, 2), (5, 3, 4), (7, 3, 6), (13, 2, 12),
        (7, 2, 3), (41, 2, 40), (71, 2, 70), (101, 2, 100),
    )
    out = [group_algebra_block(3, 3), group_algebra_block(5, 2)]
    for _ in range(4):
        for p, n, e in sizes:
            desc = random_block_descriptor(rng, p, n, e)
            out += [desc, replace(desc, signs={v: -s for v, s in desc.signs.items()})]
    return out


def test_enumeration_matches_generate_and_filter():
    errors = 0
    for desc in _reference_corpus():
        for i in range(1, desc.n + 1):
            expected = _reference_enumeration(desc, i)
            if len(expected) == desc.e:
                assert enumerate_trivial_source(desc, i) == expected
                continue
            errors += 1
            with pytest.raises(ClassificationError) as err:
                enumerate_trivial_source(desc, i)
            assert err.value.paths == expected
            assert str(err.value) == (
                f"enumeration at vertex index {i} returned {len(expected)} "
                f"modules, expected e = {desc.e}"
            )
    assert errors > 0


def test_anchor_classes_read_the_table_like_the_reference():
    seen = set()
    for desc in _reference_corpus():
        for i in range(1, desc.n + 1):
            pairs = candidates(desc, i)
            assert [path for path, _ in pairs] == _reference_candidates(desc)
            for path, verdict in pairs:
                assert verdict == _reference_admissible(desc, i, path)
                seen.add((desc.e == 1, path.type_tag, verdict is None))
    # every shape met both verdicts somewhere in the corpus
    for shape in (1, 2, 3, 4, 5, 6, 7):
        assert {(False, shape, True), (False, shape, False)} <= seen
    assert {(True, 1, True), (True, 2, False), (True, 3, True)} <= seen


def test_admitted_anchor_groups_share_spine_verdict_and_character():
    # a group is one anchor's paths under one verdict: they share their
    # spine lists and so their character, and each hook stands alone
    for desc in _reference_corpus():
        for i in range(1, desc.n + 1):
            for (case, mu), paths in admitted_anchors(desc, i):
                assert paths
                assert len({fields[1:3] for fields in paths}) == 1
                if paths[0][0] == 1:
                    assert len(paths) == 1
                chars = {
                    character_of(desc, i, PathDescriptor(*fields, mu, case))
                    for fields in paths
                }
                assert len(chars) == 1
