"""Seeded start meshes, made by the benchmark's own newest-vertex bisection.

The generator does not use rdafem, so a change to the program cannot change
the inputs it is measured on.  Every mesh starts from the unit square cut
along its diagonal and is refined by NVB; all its triangles are right
isosceles with the hypotenuse as refinement edge (stored first, as (v0, v1)),
which is also the longest edge that `rdafem.mesh.load_mesh` rotates to the
front, so the program reads back the same refinement edges.
"""

import hashlib

import numpy as np


def unit_square():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[2, 0, 1], [0, 2, 3]], dtype=np.int64)
    return vertices, elements


def _split(elements, marked_keys, mid_of_key, nv0):
    """Bisect every element whose refinement edge (v0, v1) is marked."""
    a, b = elements[:, 0], elements[:, 1]
    keys = np.minimum(a, b) * nv0 + np.maximum(a, b)
    hit = np.isin(keys, marked_keys)
    m = mid_of_key(keys[hit])
    e = elements[hit]
    # (a, b, c) with midpoint m of (a, b) -> (c, a, m) and (b, c, m)
    children = np.concatenate([np.stack([e[:, 2], e[:, 0], m], axis=1),
                               np.stack([e[:, 1], e[:, 2], m], axis=1)])
    return np.concatenate([elements[~hit], children])


def bisect(vertices, elements, marked):
    """NVB of the marked elements with conforming closure."""
    nv0 = len(vertices)
    edges = elements[:, [[0, 1], [1, 2], [2, 0]]]
    keys = np.minimum(edges[..., 0], edges[..., 1]) * nv0 + np.maximum(
        edges[..., 0], edges[..., 1])
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    inverse = inverse.reshape(-1, 3)
    flag = np.zeros(len(uniq), dtype=bool)
    flag[inverse[marked, 0]] = True
    while True:
        need = flag[inverse].any(axis=1) & ~flag[inverse[:, 0]]
        if not need.any():
            break
        flag[inverse[need, 0]] = True
    cut = uniq[flag]
    lo, hi = cut // nv0, cut % nv0
    new_vertices = np.vstack([vertices, 0.5 * (vertices[lo] + vertices[hi])])

    def mid_of_key(k):
        return nv0 + np.searchsorted(cut, k)

    # two rounds: the refinement edge, then the other two edges if marked
    once = _split(elements, cut, mid_of_key, nv0)
    twice = _split(once, cut, mid_of_key, nv0)
    return new_vertices, twice


def refine_uniform(vertices, elements, sweeps):
    for _ in range(sweeps):
        vertices, elements = bisect(vertices, elements, np.arange(len(elements)))
    return vertices, elements


def refine_random(vertices, elements, rng, steps, fraction):
    """`steps` bisections of a random `fraction` of the elements each."""
    for _ in range(steps):
        k = max(1, int(round(fraction * len(elements))))
        marked = rng.choice(len(elements), size=k, replace=False)
        vertices, elements = bisect(vertices, elements, marked)
    return vertices, elements


def refine_graded(vertices, elements, rng, fractions):
    """Bisect the given fraction of elements nearest a seeded point, per step.

    The marked share is fixed, not the marked region, so the element count
    hardly depends on where the point falls.
    """
    centre = rng.uniform(0.2, 0.8, size=2)
    for fraction in fractions:
        dist = np.linalg.norm(vertices[elements].mean(axis=1) - centre, axis=1)
        marked = np.argsort(dist, kind="stable")[:int(fraction * len(elements))]
        vertices, elements = bisect(vertices, elements, marked)
    return vertices, elements


def congruent_copy(vertices, elements, rng, symmetries=8):
    """The image under a random symmetry of the square, randomly renumbered.

    `symmetries` is 8 for data with all the square's symmetries, or 4 to keep
    to the reflections x -> 1-x and y -> 1-y.  For such data the copy has the
    same adaptive trajectory as the original (up to ties in the marking), so
    the work it costs hardly depends on the draw.
    """
    g = int(rng.integers(symmetries))
    vertices = vertices.copy()
    if g & 1:
        vertices[:, 0] = 1.0 - vertices[:, 0]
    if g & 2:
        vertices[:, 1] = 1.0 - vertices[:, 1]
    if g & 4:
        vertices = vertices[:, ::-1].copy()
    if bin(g).count("1") % 2:
        # a reflection: restore counter-clockwise order, refinement edge first
        elements = elements[:, [1, 0, 2]]
    order = rng.permutation(len(vertices))
    new_index = np.empty_like(order)
    new_index[order] = np.arange(len(order))
    return vertices[order], new_index[elements][rng.permutation(len(elements))]


def mesh_text(vertices, elements):
    """The plain-text format of `rdafem.mesh.load_mesh`, byte-reproducible."""
    lines = [f"{len(vertices)} {len(elements)}"]
    lines += [f"{x!r} {y!r}" for x, y in vertices.tolist()]
    lines += [f"{i} {j} {k}" for i, j, k in elements.tolist()]
    return "\n".join(lines) + "\n"


def write_mesh(path, vertices, elements):
    """Write the mesh and return (sha256 of the bytes, n_elements)."""
    data = mesh_text(vertices, elements).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest(), len(elements)
