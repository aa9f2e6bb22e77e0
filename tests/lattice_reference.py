"""Dense n-vector references for the lattice three-form.

The package builds the three-form from the closed-form symbols of the
lattice derivative on each Fourier block and never forms an n-sized
array.  The tests compare it against the same system read off an
explicit real Fourier basis of the zero-mean functions: the site
derivatives applied to the basis, and the dense full-lattice system
assembled from every block at once.
"""

import numpy as np

import diracred.threeform as tf
from diracred.constraints import ConstraintSet
from diracred.numerics import DEFAULT_TOL, NoSolutionError
from diracred.report import CheckReport


def fourier_bases(lat):
    """The first wavevector of every {k, -k} orbit of nonzero
    wavevectors, in orbit order, with its orthonormal real n x m_g basis:
    cos and sin of 2 pi k.x / L, or the cosine alone (m_g = 1) when
    k = -k, which needs an even L."""
    n, L = lat.sites, lat.L
    x = np.array(np.unravel_index(np.arange(n), (L,) * lat.d))
    bases = {}
    for k in map(tuple, tf._orbits(lat).tolist()):
        # reduce k.x mod L before scaling so every phase is exact
        phase = (2.0 * np.pi / L) * ((np.array(k) @ x) % L)
        if tf._self_conjugate(lat, k)[0]:
            bases[k] = np.cos(phase)[:, None] / np.sqrt(n)
        else:
            bases[k] = np.sqrt(2.0 / n) * np.stack(
                [np.cos(phase), np.sin(phase)], axis=1)
    return bases


def site_ops(lat, x):
    """The derivative along each direction applied to the columns of x.

    x is n x c over the sites in C order; returns one n x c array per
    direction, the 1-d derivative applied along that axis.
    """
    grid = x.reshape((lat.L,) * lat.d + (-1,))
    k1 = tf._derivative_1d(lat)
    return [np.moveaxis(np.tensordot(k1, grid, axes=(1, a)), 0, a)
            .reshape(x.shape) for a in range(lat.d)]


def complete_basis(lat, bases):
    """The bases side by side, n x (n - 1), after checking that they are
    orthonormal and orthogonal to the constant function, so that together
    they span every zero-mean function, or NoSolutionError."""
    q = np.hstack(list(bases))
    n = lat.sites
    err = max(np.abs(q.T @ q - np.eye(q.shape[1])).max(),
              np.abs(q.sum(axis=0)).max() / np.sqrt(n))
    if q.shape[1] != n - 1 or err > tf._BLOCK_TOL:
        raise NoSolutionError(
            "Fourier mode bases do not span the zero-mean functions",
            float(err) if q.shape[1] == n - 1 else np.inf,
        )
    return q


def basis_symbols(lat, q):
    """Derivative i on the span of the orthonormal basis q, q^T D_i q,
    after checking that every derivative maps the span into itself, or
    NoSolutionError."""
    images = site_ops(lat, q)
    ell = tuple(q.T @ img for img in images)
    leak = max(float(np.abs(img - q @ e).max())
               for img, e in zip(images, ell))
    if leak > tf._BLOCK_TOL:
        raise NoSolutionError(
            "a lattice derivative leaves its mode block", leak)
    return ell


def dense_threeform(lat):
    """The full-lattice system over every zero-mean function, its
    derivatives read off the n x (n - 1) Fourier basis in orbit order."""
    q = complete_basis(lat, fourier_bases(lat).values())
    return tf.build_threeform(lat, basis_symbols(lat, q))


def stack_threeform(lat, ks):
    """The stack of the blocks of ks as certify_lattice builds it."""
    return tf._stack_system(lat, ks)


def block_stacks(lat):
    """The wavevectors of all the lattice's Fourier blocks, in orbit
    order, in stacks of one block shape: the {k, -k} pairs, then at even
    L the self-conjugate k = -k, cut into stacks that _STACK_ENTRIES
    bounds by the blocks' size.  certify_lattice certifies the stacks of
    the orbit representatives among them."""
    return tf._stacks(lat, tf.axis_orbits(lat)[0])


def block(cs, g):
    """The system at index g of a stack of linear systems, on its own and
    named as the stack names its block g."""
    b, _ = cs.affine_matrix()
    return ConstraintSet.linear(
        cs.spec, b[g], cs.z1[g], None if cs.z2 is None else cs.z2[g],
        cs.block_name(g), ())


def certify_every_block(lat, tol=DEFAULT_TOL, seed=0, paper_choices=False):
    """certify_lattice's reports with every Fourier block certified: each
    stack of block_stacks goes through run_threeform_checks, and with
    ``paper_choices`` through paper_choices_artifacts, and no block takes
    the residuals of another.  The reference for the orbit route."""
    name = tf._lattice_name(lat)
    engine = CheckReport(system=name, tolerances=tol, seeds={"points": seed})
    paper = (CheckReport(system=name + " [paper choices]", tolerances=tol,
                         seeds={"points": seed}) if paper_choices else None)
    for ks in block_stacks(lat):
        sys = stack_threeform(lat, ks)
        rep = tf.run_threeform_checks(sys, tol, seed)
        engine.fold(rep)
        if "omega" in rep.seeds:
            engine.seeds["omega"] = seed
            engine.seeds.setdefault("omega_blocks", []).extend(
                rep.blocks[i] for i in rep.seeds["omega_blocks"])
        if paper is not None:
            paper.fold(tf.paper_choices_artifacts(sys, tol, engine=rep)[2])
    return engine, paper
