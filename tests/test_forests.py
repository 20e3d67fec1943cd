import itertools

import pytest

from diagcx.forests import (
    ColoredForest,
    ForestPoset,
    PlantedForest,
    blocks_as_pairs,
    build_gamma_Fn,
    decomposition_report,
    enumerate_forests,
    forest_from_poset,
    gamma_forest,
    mu,
    orbit_decomposition,
    poset_from_forest,
    prufer_decode,
    prufer_encode,
)
from diagcx.series import circle_series, cyclic_classifying_series


def brute_force_forests(n):
    """All acyclic parent arrays, independent of the word bijection."""
    out = []
    for parent in itertools.product(range(n + 1), repeat=n):
        if any(parent[v - 1] == v for v in range(1, n + 1)):
            continue
        ok = True
        for v in range(1, n + 1):
            seen = set()
            w = v
            while w != 0 and ok:
                if w in seen:
                    ok = False
                seen.add(w)
                w = parent[w - 1]
        if ok:
            out.append(parent)
    return out


def test_forest_validation():
    with pytest.raises(ValueError):
        PlantedForest(2, (2, 1))  # 2-cycle
    with pytest.raises(ValueError):
        PlantedForest(2, (1, 0))  # self parent
    with pytest.raises(ValueError):
        PlantedForest(2, (0, 5))  # out of range
    f = PlantedForest.of(3, {2: 1, 3: 1})
    assert f.roots() == (1,)
    assert f.children(1) == (2, 3)
    assert f.out_degree(1) == 2 and f.out_degree(2) == 0
    assert f.edges() == ((1, 2), (1, 3))


def test_forest_json():
    f = PlantedForest.of(3, {2: 1})
    assert f.to_json() == [-1, 1, -1]
    assert PlantedForest.from_json([-1, 1, -1]) == f


def test_poset_from_forest_single_edge():
    f = PlantedForest.of(2, {2: 1})
    assert poset_from_forest(f).pairs == frozenset({(1, 2)})


def test_poset_from_forest_chain():
    # root 3, child 2, grandchild 1
    f = PlantedForest.of(3, {2: 3, 1: 2})
    assert poset_from_forest(f).pairs == frozenset({(3, 2), (3, 1), (2, 1)})


def test_poset_from_forest_branching():
    # root 3 with children 2 and 4; vertex 2 has child 1
    f = PlantedForest.of(4, {1: 2, 2: 3, 4: 3})
    assert poset_from_forest(f).pairs == frozenset({(2, 1), (3, 1), (3, 2), (3, 4)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poset_forest_roundtrip(n):
    for f in enumerate_forests(n):
        assert forest_from_poset(poset_from_forest(f)) == f


def test_forest_poset_invariants():
    with pytest.raises(ValueError):
        ForestPoset.of(3, [(1, 2), (2, 1)])  # antisymmetry
    with pytest.raises(ValueError):
        ForestPoset.of(3, [(3, 2), (2, 1)])  # not transitively closed
    with pytest.raises(ValueError):
        ForestPoset.of(3, [(1, 3), (2, 3)])  # ancestors of 3 not a chain
    with pytest.raises(ValueError):
        ForestPoset.of(2, frozenset())  # empty


def test_mu():
    chain = ForestPoset.of(3, [(3, 2), (3, 1), (2, 1)])
    assert mu(chain, 3, 2) == (3, 2)
    assert mu(chain, 3, 1) == (3, 2)
    assert mu(chain, 2, 1) == (2, 1)
    with pytest.raises(ValueError):
        mu(chain, 1, 2)


def test_gamma_forest_examples():
    single = ForestPoset.of(2, [(1, 2)])
    assert blocks_as_pairs(gamma_forest(single), 2) == (((1, 2),),)
    # the branching example: one block per edge, chains grouped by first step
    u = poset_from_forest(PlantedForest.of(4, {1: 2, 2: 3, 4: 3}))
    blocks = set(map(frozenset, blocks_as_pairs(gamma_forest(u), 4)))
    assert blocks == {
        frozenset({(2, 1)}),
        frozenset({(3, 1), (3, 2)}),
        frozenset({(3, 4)}),
    }
    cherry = poset_from_forest(PlantedForest.of(3, {2: 1, 3: 1}))
    assert set(map(frozenset, blocks_as_pairs(gamma_forest(cherry), 3))) == {
        frozenset({(1, 2)}),
        frozenset({(1, 3)}),
    }


def test_block_count_is_edge_count():
    for n in (2, 3, 4):
        for f in enumerate_forests(n):
            u = poset_from_forest(f)
            assert len(gamma_forest(u).blocks) == f.edge_count()


def test_build_gamma_F2():
    fc = build_gamma_Fn(2)
    index = {pair: k for k, pair in enumerate(fc.pairs)}
    assert set(fc.complex.gamma) == {
        frozenset([index[(1, 2)]]),
        frozenset([index[(2, 1)]]),
    }


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 15), (4, 124)])
def test_build_gamma_Fn_counts(n, expected):
    fc = build_gamma_Fn(n)
    assert len(fc.complex.gamma) == expected
    assert fc.complex.validate().ok
    assert fc.complex.is_proper()


def test_build_gamma_Fn_cap():
    with pytest.raises(ValueError):
        build_gamma_Fn(7)
    with pytest.raises(ValueError):
        build_gamma_Fn(0)


def test_two_edge_breakdown_n3():
    fc = build_gamma_Fn(3)
    sizes = {}
    for part in fc.complex.gamma.values():
        sizes[len(part.blocks)] = sizes.get(len(part.blocks), 0) + 1
    assert sizes == {1: 6, 2: 9}


def test_labels_are_first_coordinates():
    fc = build_gamma_Fn(3)
    for k, (i, _) in enumerate(fc.pairs):
        assert fc.labelling.labels[k] == i


def test_monomial_is_out_degrees():
    fc = build_gamma_Fn(4)
    for f in enumerate_forests(4):
        simplex = fc.simplex_of_poset(poset_from_forest(f))
        monomial = fc.complex.monomial(fc.labelling, simplex)
        expected = {
            v: f.out_degree(v) for v in range(1, 5) if f.out_degree(v) > 0
        }
        assert monomial == expected


def test_levels_in_forest_complex():
    fc = build_gamma_Fn(3)
    one_edge = fc.simplex_of_poset(poset_from_forest(PlantedForest.of(3, {2: 1})))
    cherry = fc.simplex_of_poset(poset_from_forest(PlantedForest.of(3, {2: 1, 3: 1})))
    chain = fc.simplex_of_poset(poset_from_forest(PlantedForest.of(3, {2: 3, 1: 2})))
    assert fc.complex.level(one_edge) == 0
    assert fc.complex.level(cherry) == 1
    assert fc.complex.level(chain) == 2
    level0 = fc.complex.filtration(0)
    assert set(level0.gamma) == {frozenset([k]) for k in range(len(fc.pairs))}


def test_gamma_matches_partition_map():
    fc = build_gamma_Fn(3)
    for f in enumerate_forests(3):
        u = poset_from_forest(f)
        assert fc.complex.gamma_of(fc.simplex_of_poset(u)) == gamma_forest(u)


@pytest.mark.parametrize("n", [3, 4])
def test_coarse_filtration_skeleton(n):
    # simplices of coarse level one have singleton blocks only (they come
    # from depth-one forests), and the plain level-one part is exactly
    # their one-skeleton: the members with at most two elements
    c = build_gamma_Fn(n).complex
    coarse_one = {u for u in c.gamma if c.level(u, coarse=True) <= 1}
    plain_one = {u for u in c.gamma if c.level(u) <= 1}
    for u in coarse_one:
        assert all(len(b) == 1 for b in c.gamma_of(u).blocks)
        assert forest_from_poset(_poset_of(c, u, n)).edges() == tuple(
            sorted(_pairs_of(u, n))
        )
    assert plain_one == {u for u in coarse_one if len(u) <= 2}


def _pairs_of(simplex, n):
    from diagcx.forests import x_n_pairs

    pairs = x_n_pairs(n)
    return [pairs[k] for k in simplex]


def _poset_of(complex_, simplex, n):
    return ForestPoset.of(n, _pairs_of(simplex, n))


def test_filtration_exhausts_forest_complex():
    c = build_gamma_Fn(3).complex
    top = c.max_level()
    assert top == 2
    union = set()
    for k in range(top + 1):
        union |= set(c.filtration(k).gamma)
    assert union == set(c.gamma)


def test_single_vertex_complex_is_empty():
    fc = build_gamma_Fn(1)
    assert fc.complex.ground_size == 0
    assert len(fc.complex.gamma) == 0
    assert fc.complex.validate().ok
    assert fc.complex.is_proper()


# -- Prufer ---------------------------------------------------------------


def test_prufer_worked_example():
    f = PlantedForest.of(6, {1: 2, 6: 2, 4: 1, 3: 5})
    assert f.roots() == (2, 5)
    assert prufer_encode(f) == (2, 1, 5, 0, 2)


def test_prufer_empty_forest():
    empty = PlantedForest(4, (0, 0, 0, 0))
    assert prufer_encode(empty) == (0, 0, 0)
    assert prufer_decode((0, 0, 0)) == empty


def test_prufer_single_edge():
    f = PlantedForest.of(2, {2: 1})
    assert prufer_encode(f) == (1,)


def test_prufer_letter_validation():
    with pytest.raises(ValueError):
        prufer_decode((5, 0))  # alphabet for n=3 is 0..3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_prufer_decode_encode_identity(n):
    for f in enumerate_forests(n, include_empty=True):
        assert prufer_decode(prufer_encode(f)) == f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prufer_encode_decode_identity(n):
    for word in itertools.product(range(n + 1), repeat=n - 1):
        assert prufer_encode(prufer_decode(word)) == word


@pytest.mark.parametrize("n,with_empty,without", [(2, 3, 2), (3, 16, 15), (5, 1296, 1295)])
def test_enumeration_counts(n, with_empty, without):
    assert len(enumerate_forests(n, include_empty=True)) == with_empty
    assert len(enumerate_forests(n)) == without


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_brute_force(n):
    via_words = {f.parent for f in enumerate_forests(n, include_empty=True)}
    assert via_words == set(brute_force_forests(n))


def test_enumeration_builds_each_forest_once(monkeypatch):
    # 6^4 = 1296 words at n=5, less the empty one; decoding validates each forest
    calls = []
    validate = PlantedForest.__post_init__

    def counting(self):
        calls.append(self.parent)
        validate(self)

    monkeypatch.setattr(PlantedForest, "__post_init__", counting)
    forests = enumerate_forests(5)
    assert len(forests) == 1295
    assert len(calls) == 1295


def test_enumeration_worker_count_invariance():
    # n=5 is over the sharding threshold, so worker processes really run
    single = enumerate_forests(5, workers=1)
    multi = enumerate_forests(5, workers=3)
    assert single == multi


# -- orbits -----------------------------------------------------------------


def test_orbits_two_vertices():
    rows = orbit_decomposition(2, (2,))
    assert len(rows) == 1
    assert rows[0].orbit_size == 2
    assert rows[0].stabilizer_order == 1


def test_orbits_trivial_coloring_n3():
    rows = orbit_decomposition(3, (3,))
    assert len(rows) == 3
    assert sorted((r.orbit_size, r.stabilizer_order) for r in rows) == [
        (3, 2),  # the two-child star
        (6, 1),  # single edge plus isolated vertex
        (6, 1),  # three-vertex chain
    ]


def test_orbits_two_one_coloring_matches_displayed_list():
    rows = orbit_decomposition(3, (2, 1))
    assert len(rows) == 8
    group_order = 2
    reps = set()
    for row in rows:
        assert row.orbit_size * row.stabilizer_order == group_order
        assert row.representative.colors == (0, 0, 1)
        reps.add(tuple(row.representative.forest.to_json()))
    assert reps == {
        (-1, -1, 1),  # like-coloured root with the odd vertex below
        (-1, 1, -1),  # edge inside the colour class
        (-1, 3, -1),  # odd-coloured root with a like-coloured child
        (-1, 1, 1),   # star rooted in the colour class
        (-1, 1, 2),   # chain, odd vertex on top
        (-1, 3, 1),   # chain, odd vertex in the middle
        (2, 3, -1),   # chain rooted at the odd vertex
        (3, 3, -1),   # star rooted at the odd vertex, children swap
    }
    by_parent = {tuple(r.representative.forest.to_json()): r for r in rows}
    assert by_parent[(3, 3, -1)].stabilizer_order == 2


def test_orbit_sizes_sum_to_forest_count():
    for n in (2, 3, 4):
        rows = orbit_decomposition(n, (n,))
        assert sum(r.orbit_size for r in rows) == (n + 1) ** (n - 1) - 1


def test_orbit_input_validation():
    with pytest.raises(ValueError):
        orbit_decomposition(3, (2, 2))


def test_colored_forest_validation():
    with pytest.raises(ValueError):
        ColoredForest(PlantedForest.of(2, {2: 1}), (0,))


# -- decomposition report ----------------------------------------------------


def test_decomposition_single_color_circle():
    report = decomposition_report(2, (2,), [circle_series(4)])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.aut_order == 1
    assert row.edge_count == 1
    # the module is the reduced circle: a single Z in degree 1
    assert [c.free_rank for c in row.module.coeffs] == [0, 1, 0, 0, 0]
    assert not row.sign_twist


def test_decomposition_cherry_and_chain():
    report = decomposition_report(3, (3,), [cyclic_classifying_series(2, 6)])
    by_parent = {tuple(r.representative.forest.to_json()): r for r in report.rows}
    cherry = by_parent[(-1, 1, 1)]
    assert cherry.aut_order == 2
    assert cherry.sign_twist
    chain = by_parent[(-1, 1, 2)]
    assert chain.aut_order == 1
    assert not chain.sign_twist
    assert cherry.exponents == (2,)


def test_decomposition_input_validation():
    with pytest.raises(ValueError):
        decomposition_report(2, (2,), [circle_series(4), circle_series(4)])
    with pytest.raises(ValueError):
        decomposition_report(3, (2, 1), [circle_series(4), circle_series(5)])


def test_decomposition_json_and_text():
    report = decomposition_report(2, (2,), [circle_series(3)])
    data = report.to_json()
    assert data["n"] == 2 and len(data["rows"]) == 1
    assert "module" in report.render_text().splitlines()[0]
