"""Resolution builders: Koszul complexes, minimal models, acyclic closures.

The staged constructions follow one recipe.  Stage 1 adjoins exterior
variables (killing the ring variables for a closure, a minimal
generating set of the kernel ideal for a model).  ``minimal_generators``
builds each later stage n one internal degree at a time: in degree d it
picks the cycles of homological degree n-1 whose classes the boundaries
miss and adjoins one variable per pick at once, with that cycle as its
differential value.  A variable y with d(y) = g makes every multiple s*g
a boundary, d(s*y), in the degrees above, so the boundaries alone carry
graded Nakayama's decomposables and the picks minimally generate the
homology as a module over the ground ring.  Every kernel comes from
``ExtensionTower.kernel``, which takes the kernels below it as it needs
them, so a stage is scanned only through its own bound.

All reported counts are certified only through the internal-degree
bound D: homology generators of internal degree > D are invisible.
"""

from . import linalg
from .extensions import ExtensionTower


class ResolutionError(ValueError):
    pass


def kernel_coordinates(base, pres, d):
    """Indices in base.quotient_basis(d) of the monomials pres drops,
    ascending.  A vector of the kernel of base ->> pres in degree d is
    fixed by its coordinates there: m - NF(m), NF(m) the normal form of m
    in pres, is the one that is 1 at m and 0 at the others."""
    kept = pres.basis_index(d)
    return [i for i, m in enumerate(base.quotient_basis(d)) if m not in kept]


def kernel_generators(pres):
    """Minimal homogeneous generators of the kernel of base ->> pres.

    Returns [(degree, reduced ground element)] ascending by degree.  In
    degree d the generators are the basis vectors m - NF(m) of the kernel,
    one per standard monomial m of the base that pres drops
    (``kernel_coordinates``), that the degree-d multiples of the generators
    found below d miss (``linalg.complement``), ascending in the base's
    quotient basis.  By graded Nakayama a minimal generator has the degree
    of a relator beyond the base, so only those degrees are scanned.
    """
    ground = pres.free_base()
    one, neg = pres.field.one, pres.field.neg
    gens = []
    for d in sorted({pres.degree_of(next(iter(f)))
                     for f in pres.relators[len(ground.relators):]}):
        basis = ground.quotient_basis(d)
        span = ground.ideal_span([g for _, g in gens], d)
        for i in linalg.complement(kernel_coordinates(ground, pres, d), span, pres.field):
            nf = pres.normal_form({basis[i]: one})
            gens.append((d, {basis[i]: one, **{s: neg(c) for s, c in nf.items()}}))
    return gens


def koszul_complex(pres, D):
    """Exterior tower over the base through degree D, one degree-1 variable
    per relator beyond the base, in relator order, with it as differential."""
    ground = pres.free_base()
    rels = pres.relators[len(ground.relators):]
    tower = ExtensionTower(ground, "plain", dmax=D)
    for i, f in enumerate(rels):
        g = ground.from_int_poly(f)
        d = pres.degree_of(next(iter(f)))
        tower.adjoin("y%d" % (i + 1), 1, d, tower.ground_element(g))
    return tower


def koszul_on_minimal_generators(pres, D):
    """Koszul tower through degree D on a minimal generating set of the kernel ideal."""
    ground = pres.free_base()
    tower = ExtensionTower(ground, "plain", dmax=D)
    for i, (d, g) in enumerate(kernel_generators(pres)):
        tower.adjoin("y%d" % (i + 1), 1, d, tower.ground_element(g))
    return tower


def _variable_name(tower, n, i):
    """Name of the i-th variable (from 1) of stage n: x{n}_{i} in a gamma
    tower, y{n}_{i} in a plain one."""
    return "%s%d_%d" % ("x" if tower.flavor == "gamma" else "y", n, i)


def minimal_generators(tower, q, D):
    """Cycle lifts of a minimal generating set of H_q over the ground ring,
    each adjoined to tower as a stage-(q + 1) variable as soon as it is found.

    Scans internal degrees 0..D ascending; in degree d the new generators
    are a complement basis, inside the cycle space, of the boundaries: the
    columns of the differential out of (q + 1, d), unsolved.  They include
    the columns s*y of the variables y adjoined below d, and d(s*y) = s*g
    for d(y) = g, so the multiples of the generators found below d are
    boundaries.  Returns [(d, Element)]; the tower gains one variable per
    entry, in that order, named by ``_variable_name``, of bidegree (q + 1, d)
    with the entry's cycle as differential value.

    A cycle is fixed by its coordinates at the free columns of d_q, where
    the canonical kernel vector of free column f is 1 at f and 0 at the
    others, so ``linalg.complement`` picks the free columns the boundaries
    miss: the same cycles, in the same order, that a greedy complement of
    ascending kernel vectors on full coordinates picks.  Kernel vectors
    are solved only for the new generators, a degree without cycles reads
    no boundaries, and the boundary columns are assembled one at a time,
    only until their span fills the free columns.  Once every degree is
    scanned, H_q = 0 through D, and the tower records it for the kernels
    of the next stage (``ExtensionTower.mark_acyclic``).
    """
    gens = []
    for d in range(D + 1):
        kernel = tower.kernel(q, d)
        for f in linalg.complement(kernel.free, tower.columns(q + 1, d), tower.field):
            z = tower.element(kernel.vector(f), q, d)
            gens.append((d, z))
            tower.adjoin(_variable_name(tower, q + 1, len(gens)), q + 1, d, z)
    tower.mark_acyclic(q, D)
    return gens


def _build_stages(ground, flavor, stage1, N, D, ring, lag):
    """Tower over ground through stage N and internal degree D: stage 1
    kills the reduced ground elements of stage1, [(degree, element)], and
    ``minimal_generators`` adjoins stage n, which kills minimal generators
    of H_{n-1}.

    ring is a ring S whose stage-n variables count eps_{n + lag}(S) by
    internal degree, or None when no ring bounds them.  If S has top
    degree s (S_d = 0 for d > s), the bar construction of S has internal
    degrees <= n*s in homological degree n, and eps_{n,j}(S) = 0 for
    j > n*s: a stage-n variable has internal degree at most (n + lag)*s.
    Stage n is scanned only up to that bound, and H_{n-1} = 0 is then
    recorded through D, which the theorem gives.  Stage 2, the first one
    scanned, stops short of D only when (2 + lag)*s < D, so s is looked
    for up to D // (2 + lag).  The tower is the one a scan through D
    builds.
    """
    if N < 1:
        raise ResolutionError("stage bound must be >= 1")
    tower = ExtensionTower(ground, flavor, nmax=N, dmax=D)
    for i, (d, g) in enumerate(stage1):
        tower.adjoin(_variable_name(tower, 1, i + 1), 1, d, tower.ground_element(g))
    top = None if ring is None else ring.top_degree(D // (2 + lag))
    for q in range(1, N):
        minimal_generators(tower, q, D if top is None else min(D, (q + 1 + lag) * top))
        tower.mark_acyclic(q, D)
    return tower


def build_minimal_model(pres, N, D):
    """Minimal model of pres.free_base() ->> pres through stage N, degree D.

    Plain flavor: stage-1 exterior variables kill a minimal generating
    set of the kernel ideal; stage n kills minimal generators of H_{n-1}.
    The differential is decomposable by construction.
    """
    base = pres.free_base()
    # stage n counts eps_{n+1}(S) over a polynomial base, and eps(S|R),
    # which S's top degree does not bound, over a quotient base
    ring = None if base.relators else pres
    return _build_stages(base, "plain", kernel_generators(pres), N, D, ring, 1)


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
    return _build_stages(pres, "gamma", variables, N, D, pres, 0)
