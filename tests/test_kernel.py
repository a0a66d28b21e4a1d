"""Axis-wise evaluation on probe grids and torus shells against pointwise
evaluation, batched orbit images against one index at a time, and stacked
runs of Blaschke leaves against one leaf at a time.

Trees and automorphisms evaluate on a ``PointAxes`` (one array per
coordinate, broadcasting together). The claim is that this changes no bit:
every point goes through the floating-point operations of pointwise
evaluation, at any array size. The reference below is that pointwise
evaluation on the expanded (m, n) grid, column by column, so every
comparison is exact.
"""

import math

import numpy as np
import pytest

from innerorbit import (
    BlaschkeFactor,
    Composed,
    CompactProbe,
    Constant,
    Coordinate,
    GeneratedSequence,
    MobiusFactor,
    PointAxes,
    PolydiskAutomorphism,
    Power,
    Product,
    good_inner_integral_detail,
    radial_modulus_report,
    transform_batch,
)
from innerorbit import inner_tools
from innerorbit.errors import DimensionMismatch, PoleHit, ValidityError

from util import random_interior_points, random_mobius


def factor_arrays(autos):
    """``transform_batch``'s permutation, alphas and phases for automorphisms
    that share one permutation, read off their factors."""
    return (autos[0].perm,
            np.array([[f.alpha for f in phi.factors] for phi in autos]),
            np.array([[f.phase for f in phi.factors] for phi in autos]))


def reference_transform(phi, pts):
    out = np.empty_like(pts)
    for j in range(phi.dimension):
        out[:, j] = phi.factors[j](pts[:, phi.perm[j]])
    return out


def reference_eval(f, pts):
    if isinstance(f, Constant):
        return np.full(pts.shape[0], f.value, dtype=complex)
    if isinstance(f, Coordinate):
        return pts[:, f.index - 1]
    if isinstance(f, BlaschkeFactor):
        return f.factor(pts[:, f.coord - 1])
    if isinstance(f, Product):
        out = reference_eval(f.children[0], pts)
        for c in f.children[1:]:
            out = np.multiply(out, reference_eval(c, pts))
        return out
    if isinstance(f, Power):
        return reference_eval(f.child, pts) ** f.exponent
    if isinstance(f, Composed):
        return reference_eval(f.outer, reference_transform(f.auto, pts))
    raise TypeError(type(f).__name__)


def shuffled_automorphism(rng, n):
    """Random automorphism whose permutation moves a coordinate when n > 1."""
    perm = tuple(range(n))
    while n > 1 and perm == tuple(range(n)):
        perm = tuple(int(p) for p in rng.permutation(n))
    factors = tuple(random_mobius(rng) for _ in range(n))
    return PolydiskAutomorphism(factors=factors, perm=perm)


def random_tree(rng, n, depth=3):
    kinds = ["constant", "coordinate", "blaschke"]
    if depth > 0:
        kinds += ["product", "product", "power", "composed"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "constant":
        r = rng.uniform(0.0, 1.0)
        return Constant(r * complex(math.cos(r * 7.0), math.sin(r * 7.0)), n)
    if kind == "coordinate":
        return Coordinate(int(rng.integers(1, n + 1)), n)
    if kind == "blaschke":
        return BlaschkeFactor(random_mobius(rng), int(rng.integers(1, n + 1)), n)
    if kind == "product":
        count = int(rng.integers(2, 5))
        return Product(tuple(random_tree(rng, n, depth - 1) for _ in range(count)))
    if kind == "power":
        return Power(random_tree(rng, n, depth - 1), int(rng.integers(1, 5)))
    return Composed(shuffled_automorphism(rng, n), random_tree(rng, n, depth - 1))


PROBES = [
    CompactProbe.create(0.3, 1),
    CompactProbe.create(0.45, 2, points_per_dim=8),
    CompactProbe.create(0.25, 3, points_per_dim=5),
    CompactProbe.create(0.25, 3),
]


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"n{p.dimension}q{p.points_per_dim}")
def test_tree_on_axes_equals_pointwise(probe):
    rng = np.random.default_rng(1000 + 10 * probe.dimension + probe.points_per_dim)
    axes, grid = probe.axes(), probe.grid()
    layout = (probe.points_per_dim,) * probe.dimension
    assert axes.shape == grid.shape
    for _ in range(40):
        f = random_tree(rng, probe.dimension)
        expected = reference_eval(f, grid)
        broadcast = np.broadcast_to(f._eval(axes), layout).ravel(order="C")
        assert np.array_equal(broadcast, expected)
        assert np.array_equal(f.eval_grid(grid), expected)


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"n{p.dimension}q{p.points_per_dim}")
def test_transform_on_axes_equals_pointwise(probe):
    rng = np.random.default_rng(2000 + 10 * probe.dimension + probe.points_per_dim)
    axes, grid = probe.axes(), probe.grid()
    for _ in range(10):
        phi = shuffled_automorphism(rng, probe.dimension)
        psi = shuffled_automorphism(rng, probe.dimension)
        expected = reference_transform(psi, reference_transform(phi, grid))
        image = psi.transform(phi.transform(axes))
        assert image.shape == grid.shape
        assert np.array_equal(image.to_array(), expected)
        assert np.array_equal(psi.transform(phi.transform(grid)), expected)


def test_axes_lay_each_coordinate_on_its_own_dimension():
    probe = CompactProbe.create(0.5, 3, points_per_dim=4)
    axes = probe.axes()
    assert [c.shape for c in axes.coords] == [(4, 1, 1), (1, 4, 1), (1, 1, 4)]
    assert axes.layout == (4, 4, 4)
    assert np.array_equal(axes.to_array(), probe.grid())
    # a permutation moves coordinates between array dimensions, not values
    swap = PolydiskAutomorphism.identity(3)
    swap = PolydiskAutomorphism(swap.factors, (2, 0, 1))
    assert [c.shape for c in swap.transform(axes).coords] == [
        (1, 1, 4), (4, 1, 1), (1, 4, 1)
    ]


def test_eval_grid_returns_one_value_per_point():
    pts = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.25], [0.0, 0.9]])
    for f in (Constant(0.5j, 2), Coordinate(2, 2), Product((Constant(0.5, 2),))):
        values = f.eval_grid(pts)
        assert values.shape == (3,)
        assert np.array_equal(values, reference_eval(f, pts))


def chunked_eval(f, pts, size=1000):
    """eval_grid on consecutive slices of ``size`` points."""
    parts = [f.eval_grid(pts[lo : lo + size]) for lo in range(0, len(pts), size)]
    return np.concatenate(parts)


def test_values_do_not_depend_on_array_size():
    # from 16 384 points up numpy may reuse a temporary operand and swap the
    # operands of a complex product, which changes the last bit
    rng = np.random.default_rng(3000)
    pts = random_interior_points(rng, 20_000, 2, radius=0.9)
    nested = Product((
        BlaschkeFactor(random_mobius(rng), 1, 2),
        BlaschkeFactor(random_mobius(rng), 2, 2),
        Product((BlaschkeFactor(random_mobius(rng), 1, 2), Coordinate(2, 2))),
        Power(Product((BlaschkeFactor(random_mobius(rng), 2, 2),) * 2), 2),
    ))
    trees = [nested] + [random_tree(rng, 2) for _ in range(20)]
    for f in trees:
        assert np.array_equal(f.eval_grid(pts), chunked_eval(f, pts))


def unit_circle_grid(q, n):
    """The q^n torus grid as an (m, n) array, in meshgrid "ij" order."""
    circle = np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
    mesh = np.meshgrid(*([circle] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


#: shells of more than 16 384 points at n = 1, 2 and 3
SHELLS = [(1, 16_400), (2, 160), (3, 26)]
RADII = (0.6, 0.95)
CLAMP = 2.0


def shell_reference(f, q, r):
    """(deviation, clamp count, torus mean) from pointwise evaluation of
    the expanded shell in small chunks."""
    vals = chunked_eval(f, r * unit_circle_grid(q, f.dimension))
    mods = np.abs(vals)
    floor = math.exp(-CLAMP)
    deviation = float(np.max(np.abs(1.0 - mods)))
    clamped = int(np.count_nonzero(mods <= floor))
    mean = float(np.sum(np.log(np.maximum(mods, floor)))) / len(vals)
    return deviation, clamped, mean


@pytest.mark.parametrize("n,q", SHELLS, ids=lambda v: str(v))
def test_torus_shells_equal_pointwise(n, q):
    rng = np.random.default_rng(4000 + n)
    trees = [random_tree(rng, n) for _ in range(6)]
    trees.append(Composed(shuffled_automorphism(rng, n), trees[0]))
    for f in trees:
        expected = [shell_reference(f, q, r) for r in RADII]
        report = radial_modulus_report(f, RADII, q)
        assert np.array_equal(report.deviations, [e[0] for e in expected])
        for r, (_, clamped, mean) in zip(RADII, expected):
            got = good_inner_integral_detail(f, r, q, CLAMP)
            assert got == (mean, clamped)


# the block sums add up in a Python float, so the mean moves by a few ulp
# per block: 27 blocks at chunk 1000, 160 at chunk 100
@pytest.mark.parametrize("chunk,tol", [(1000, 1e-15), (100, 1e-14)])
def test_torus_shell_row_blocks_count_every_point_once(monkeypatch, chunk, tol):
    n, q = 2, 160
    rng = np.random.default_rng(5000)
    trees = [random_tree(rng, n) for _ in range(6)]
    whole = [
        (radial_modulus_report(f, RADII, q).deviations,
         [good_inner_integral_detail(f, r, q, CLAMP) for r in RADII])
        for f in trees
    ]
    monkeypatch.setattr(inner_tools, "_CHUNK", chunk)
    # 1000 is not a multiple of a row (160 points), so blocks hold 6 rows;
    # a chunk below one row gives blocks of one row
    rows = max(1, chunk // q)
    circle = np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
    blocks = list(inner_tools._shell_blocks(circle, n))
    assert [b.shape[0] for b in blocks] == [
        min(rows, q - lo) * q for lo in range(0, q, rows)
    ]
    cloud = np.concatenate([b.to_array() for b in blocks])
    assert np.array_equal(cloud, unit_circle_grid(q, n))
    for f, (deviations, details) in zip(trees, whole):
        assert np.array_equal(radial_modulus_report(f, RADII, q).deviations, deviations)
        for r, (mean, clamped) in zip(RADII, details):
            got_mean, got_clamped = good_inner_integral_detail(f, r, q, CLAMP)
            assert got_clamped == clamped
            assert abs(got_mean - mean) <= tol


# ---------------------------------------------------------------------------
# orbit images of several indices on one leading axis


def shared_perm_autos(rng, n, count):
    """Automorphisms of one non-identity permutation (when n > 1): random
    ones and members of a generated sequence, some close to the boundary."""
    perm = shuffled_automorphism(rng, n).perm
    autos = [
        PolydiskAutomorphism(tuple(random_mobius(rng) for _ in range(n)), perm)
        for _ in range(count)
    ]
    seq = GeneratedSequence(
        direction=tuple(complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
                        for _ in range(n)),
        rate=rng.uniform(0.5, 1.0),
        theta_cycle=(tuple(rng.uniform(-math.pi, math.pi, size=n)),),
        perm_cycle=(perm,),
    )
    autos += [seq.at(k) for k in (1, 2, 7, 250, 10**6, 10**9)]
    return autos


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"n{p.dimension}q{p.points_per_dim}")
def test_batched_orbit_images_equal_one_index_at_a_time(probe):
    rng = np.random.default_rng(6000 + 10 * probe.dimension + probe.points_per_dim)
    axes = probe.axes()
    layout = axes.layout
    autos = shared_perm_autos(rng, probe.dimension, 3)
    batch = transform_batch(*factor_arrays(autos), axes)
    assert batch.layout == (len(autos),) + layout
    for k, phi in enumerate(autos):
        single = phi.transform(axes)
        for got, expected in zip(batch.coords, single.coords):
            assert np.array_equal(got[k], expected)
    for _ in range(30):
        f = random_tree(rng, probe.dimension)
        values = np.broadcast_to(f._eval(batch), batch.layout)
        for k, phi in enumerate(autos):
            expected = np.broadcast_to(f._eval(phi.transform(axes)), layout)
            assert np.array_equal(values[k], expected)


def test_transform_batch_needs_one_permutation():
    rng = np.random.default_rng(6100)
    axes = CompactProbe.create(0.3, 2).axes()
    _, alphas, phases = factor_arrays([shuffled_automorphism(rng, 2)])
    for perm in ((0, 0), (1,), (0, 1, 2)):
        with pytest.raises(ValidityError, match="permutation"):
            transform_batch(perm, alphas, phases, axes)
    with pytest.raises(DimensionMismatch, match="alphas"):
        transform_batch((1, 0), alphas[:, :1], phases[:, :1], axes)
    with pytest.raises(DimensionMismatch, match="alphas"):
        transform_batch((1, 0), alphas, phases[:0], axes)


def test_pole_names_the_factor_that_hit_it():
    # z = 2 is the pole of the factor with alpha = 0.5
    z = PointAxes((np.array([0.0, 2.0 + 0j]),))
    with pytest.raises(PoleHit, match=r"alpha=\(0\.5\+0j\)"):
        MobiusFactor(0.5, 0.3)(z.coords[0])
    autos = [PolydiskAutomorphism((MobiusFactor(a, 0.3),), (0,)) for a in (0.25, 0.5)]
    with pytest.raises(PoleHit, match=r"alpha=\(0\.5\+0j\)"):
        transform_batch(*factor_arrays(autos), z)


# ---------------------------------------------------------------------------
# runs of same-coordinate Blaschke leaves in one stacked Moebius evaluation


def unstacked_eval(f, pts):
    """Tree evaluation on a PointAxes with every Blaschke leaf evaluated on
    its own and every product folded one child at a time."""
    if isinstance(f, Product):
        out = unstacked_eval(f.children[0], pts)
        for c in f.children[1:]:
            out = np.multiply(out, unstacked_eval(c, pts))
        return out
    if isinstance(f, Power):
        return unstacked_eval(f.child, pts) ** f.exponent
    if isinstance(f, Composed):
        return unstacked_eval(f.outer, f.auto.transform(pts))
    return f._eval(pts)


def leaf_run(rng, n, coord, length):
    return [BlaschkeFactor(random_mobius(rng), coord, n) for _ in range(length)]


def run_product(rng, n, depth=2):
    """A product of runs of same-coordinate Blaschke leaves (lengths 1-17,
    16 being the engine's stage approximant), broken up by constants,
    coordinates, powers, compositions, nested products and leaves on other
    coordinates."""
    children = []
    for _ in range(int(rng.integers(1, 5))):
        coord = int(rng.integers(1, n + 1))
        children += leaf_run(rng, n, coord, int(rng.choice([1, 2, 5, 16, 17])))
        breaker = int(rng.integers(6 if depth > 0 else 4))
        if breaker == 0:
            children.append(Constant(0.9 * complex(math.cos(coord), math.sin(coord)), n))
        elif breaker == 1:
            children.append(Coordinate(coord, n))
        elif breaker == 2 and n > 1:
            other = coord % n + 1
            children += leaf_run(rng, n, other, int(rng.integers(1, 4)))
        elif breaker == 3:
            children.append(Power(Product(tuple(leaf_run(rng, n, coord, 3))), 2))
        elif breaker == 4:
            children.append(Composed(shuffled_automorphism(rng, n),
                                     run_product(rng, n, depth - 1)))
        elif breaker == 5:
            children.append(run_product(rng, n, depth - 1))
    if len(children) == 1:
        children += leaf_run(rng, n, 1, 2)
    return Product(tuple(children))


def stage_shaped_product(rng, n):
    """P[P[B1 x 16], B1], the shape of every stage approximant the engine
    builds, with a trailing leaf on the last coordinate."""
    inner = Product(tuple(leaf_run(rng, n, 1, 16)))
    return Product((inner, BlaschkeFactor(random_mobius(rng), 1, n),
                    BlaschkeFactor(random_mobius(rng), n, n)))


def stack_layouts(rng):
    """(name, PointAxes) for every layout the library evaluates on."""
    layouts = []
    for n in (1, 2):
        one = random_interior_points(rng, 1, n)
        layouts.append((f"point-n{n}", PointAxes.of_array(one)))
        cloud = random_interior_points(rng, 300, n)
        layouts.append((f"cloud-n{n}", PointAxes.of_array(cloud)))
    for n, q in ((1, 64), (2, 6), (3, 3), (4, 2)):
        layouts.append((f"tensor-n{n}", CompactProbe.create(0.3, n, points_per_dim=q).axes()))
    for n in (1, 2, 3):
        axes = CompactProbe.create(0.3, n, points_per_dim=3).axes()
        batch = transform_batch(*factor_arrays(shared_perm_autos(rng, n, 4)), axes)
        layouts.append((f"batch-n{n}", batch))
    return layouts


@pytest.mark.parametrize("stack", ["default", "one", "not_dividing"])
def test_stacked_runs_equal_one_leaf_at_a_time(monkeypatch, stack):
    from innerorbit import holo

    rng = np.random.default_rng(8000)
    for name, pts in stack_layouts(rng):
        n = len(pts.coords)
        size = max(c.size for c in pts.coords)
        if stack == "one":
            monkeypatch.setattr(holo, "_STACK_ELEMENTS", 1)
        elif stack == "not_dividing":
            # sub-stacks of 3 leaves on the largest coordinate array; the
            # runs here are 16 and 17 leaves long
            monkeypatch.setattr(holo, "_STACK_ELEMENTS", 3 * size + 1)
        trees = [stage_shaped_product(rng, n)] + [run_product(rng, n) for _ in range(8)]
        for f in trees:
            got = f._eval(pts)
            expected = unstacked_eval(f, pts)
            assert got.shape == expected.shape, name
            assert np.array_equal(got, expected), name


def test_runs_group_consecutive_leaves_on_one_coordinate():
    rng = np.random.default_rng(8100)
    a, b = leaf_run(rng, 2, 1, 3), leaf_run(rng, 2, 2, 2)
    c = Coordinate(1, 2)
    f = Product((a[0], a[1], c, a[2], b[0], b[1], a[0], a[1]))
    kinds = [r if isinstance(r, (Coordinate, BlaschkeFactor)) else (r[0], len(r[1]))
             for r in f._runs]
    assert kinds == [(1, 2), c, a[2], (2, 2), (1, 2)]
    coord, alphas, phases = f._runs[0]
    assert alphas.tolist() == [a[0].factor.alpha, a[1].factor.alpha]
    assert phases.tolist() == [a[0].factor.phase, a[1].factor.phase]
    # the single-point eval path goes through the stack too
    point = (0.2 + 0.1j, -0.3j)
    expected = unstacked_eval(f, PointAxes.of_array(np.array([point])))
    assert f.eval(point) == complex(expected[0])


@pytest.mark.parametrize("elements", [None, 1])
def test_pole_inside_a_stack_names_its_leaf(monkeypatch, elements):
    from innerorbit import holo

    if elements is not None:
        monkeypatch.setattr(holo, "_STACK_ELEMENTS", elements)
    # z = 2 is the pole of the leaf with alpha = 0.5, the third of four
    leaves = tuple(BlaschkeFactor(MobiusFactor(a, 0.3)) for a in (0.25, -0.1j, 0.5, 0.125))
    z = PointAxes((np.array([0.0, 0.3j, 2.0 + 0j]),))
    with pytest.raises(PoleHit, match=r"alpha=\(0\.5\+0j\)"):
        Product(leaves)._eval(z)
