"""Resolution builders: Koszul complexes, minimal models, acyclic closures.

The staged constructions follow one recipe.  Stage 1 adjoins exterior
variables (killing the ring variables for a closure, a minimal
generating set of the kernel ideal for a model).  Stage n >= 2 computes
the homology of the current tower in homological degree n-1 through the
internal-degree bound, picks cycle representatives whose classes
minimally generate it as a module over the ground ring (graded Nakayama:
ascending by internal degree, a new generator is anything outside
boundaries + ground-monomial multiples of the generators found in lower
degrees), and adjoins one variable per generator with that cycle as
differential value.  Boundaries are the columns of d_n as they stand, so a
stage takes one kernel, of d_{n-1}, per internal degree, forward only, and
a degree with no cycles costs that kernel alone.  From stage 3 on, the
kernel eliminates only the rows of d_{n-1} at the free columns of d_{n-2}
that the stage before found (``ExtensionTower.kernel``): d^2 = 0 makes
them cut out the same kernel, and since stage n-1 killed H_{n-2} through
the bound they are a row basis, so each row eliminated adds a pivot.
Stage 2 eliminates every row of d_1.  Boundaries and
multiples are reduced only in the free coordinates of the kernel of
d_{n-1}, which fix a cycle, and only until they span all of them; kernel
vectors are solved only for the new generators.

All reported counts are certified only through the internal-degree
bound D: homology generators of internal degree > D are invisible.
"""

from itertools import chain

from . import linalg
from .extensions import ExtensionTower


class ResolutionError(ValueError):
    pass


def kernel_generators(pres):
    """Minimal homogeneous generators of the kernel of base ->> pres.

    Returns [(degree, reduced ground element)] ascending by degree; the
    choice is canonical (echelon representatives of the per-degree ideal
    span, taken in order).  In degree d the decomposable part (m*I)_d is
    spanned by the multiples of the generators found below d.  An ideal
    generated in degrees <= e needs no minimal generator above e, so the
    scan is finite.
    """
    ground = pres.free_base()
    raw = [g for g in map(ground.from_int_poly, pres.relators[len(ground.relators):])
           if g]
    top = max((ground.degree_of(next(iter(g))) for g in raw), default=1)
    gens = []
    for d in range(2, top + 1):
        pivots, red = linalg.rref(ground.ideal_span(raw, d), ground.field)
        sub = linalg.Echelon(ground.field)
        for row in ground.ideal_span([g for _, g in gens], d):
            sub.add(row)
        for p in pivots:
            if sub.add(red[p]) is not None:
                gens.append((d, ground.element(red[p], d)))
    return gens


def koszul_complex(pres, D=None):
    """Exterior tower over the base with one degree-1 variable per relator
    beyond the base, in relator order, with the relator as differential."""
    ground = pres.free_base()
    rels = pres.relators[len(ground.relators):]
    tower = ExtensionTower(ground, "plain", nmax=None, dmax=D)
    for i, f in enumerate(rels):
        g = ground.from_int_poly(f)
        d = pres.degree_of(next(iter(f)))
        tower.adjoin("y%d" % (i + 1), 1, d, tower.ground_element(g))
    return tower


def koszul_on_minimal_generators(pres, D=None):
    """Koszul tower on a minimal generating set of the kernel ideal."""
    ground = pres.free_base()
    tower = ExtensionTower(ground, "plain", nmax=None, dmax=D)
    for i, (d, g) in enumerate(kernel_generators(pres)):
        tower.adjoin("y%d" % (i + 1), 1, d, tower.ground_element(g))
    return tower


def minimal_generators(tower, q, D):
    """Cycle lifts of a minimal generating set of H_q over the ground ring.

    Scans internal degrees 0..D ascending; in degree d the new generators
    are a complement basis, inside the cycle space, of the boundaries
    (the columns of the differential out of (q+1, d), unsolved) plus the
    multiples s*g of the generators g found below d by the standard ground
    monomials s of degree d - deg(g).  Returns [(d, Element)].

    A cycle is fixed by its coordinates at the free columns of d_q, and the
    canonical kernel vector of free column f is 1 at f, 0 at the other free
    columns and supported below f.  So the boundaries and multiples are
    reduced in free coordinates alone, with leads at the highest free
    column, and the kernel vectors kept are those whose free column is not
    a lead: the same cycles, in the same order, that a greedy complement of
    ascending kernel vectors on full coordinates picks.  The kernel of d_q
    is one forward elimination of its rows at the free columns of d_{q-1}
    that the stage before found, of all rows for q = 1
    (``ExtensionTower.kernel``): with d^2 = 0 they fix the same kernel, and
    with H_{q-1} killed through D they are a row basis of d_q.  Kernel
    vectors are solved only for the new generators.  A degree without
    cycles reads no boundaries, and reduction stops once the span fills
    every free coordinate.
    """
    ground = tower.ground
    gens = []
    for d in range(0, D + 1):
        kernel = tower.kernel(q, d)
        if not kernel.free:
            continue
        # free column -> position, highest first
        nfree = len(kernel.free)
        pos = {f: nfree - 1 - i for i, f in enumerate(kernel.free)}
        sub = linalg.Echelon(tower.field)
        multiples = (tower.coords(tower.times_monomial(g, s), q, d)
                     for e, g in gens for s in ground.quotient_basis(d - e))
        for v in chain(tower.matrix(q + 1, d)[0], multiples):
            sub.add({pos[k]: c for k, c in v.items() if k in pos})
            if len(sub.rows) == nfree:
                break
        gens += [(d, tower.element(kernel.vector(f), q, d)) for f in kernel.free
                 if pos[f] not in sub.rows]
    return gens


def _build_stages(ground, flavor, prefix, stage1, N, D):
    """Tower over ground through stage N and internal degree D, variables
    named prefix{n}_{i}: stage 1 kills the reduced ground elements of
    stage1, [(degree, element)], and stage n kills minimal generators of
    H_{n-1}."""
    if N < 1:
        raise ResolutionError("stage bound must be >= 1")
    tower = ExtensionTower(ground, flavor, nmax=N, dmax=D)
    for i, (d, g) in enumerate(stage1):
        tower.adjoin("%s1_%d" % (prefix, i + 1), 1, d, tower.ground_element(g))
    for n in range(2, N + 1):
        for i, (d, z) in enumerate(minimal_generators(tower, n - 1, D)):
            tower.adjoin("%s%d_%d" % (prefix, n, i + 1), n, d, z)
    return tower


def build_minimal_model(pres, N, D):
    """Minimal model of pres.free_base() ->> pres through stage N, degree D.

    Plain flavor: stage-1 exterior variables kill a minimal generating
    set of the kernel ideal; stage n kills minimal generators of H_{n-1}.
    The differential is decomposable by construction.
    """
    return _build_stages(pres.free_base(), "plain", "y", kernel_generators(pres), N, D)


def build_acyclic_closure(pres, N, D):
    """Acyclic closure of the residue field over pres through stage N.

    Gamma flavor: even-degree variables carry divided powers, which is
    what makes the construction correct in positive characteristic.
    Stage 1 kills the ring variables (they minimally generate the
    maximal ideal since all relators have degree >= 2).
    """
    nvars = len(pres.names)
    variables = [(w, {tuple(int(k == i) for k in range(nvars)): pres.field.one})
                 for i, (_, w) in enumerate(pres.variables)]
    return _build_stages(pres, "gamma", "x", variables, N, D)
