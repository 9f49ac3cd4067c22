"""Mesh, assembly, boundary conditions and the linear static solve.

Element e of a uniform mesh couples the eight global DOFs 4e .. 4e+7,
so the global stiffness has half-bandwidth 7.  The solver builds it
straight into LAPACK upper band storage, an (8, ndof) array, and
factors and solves it with banded Cholesky (``dpbsv``): time and
memory are O(ne), and no ndof x ndof matrix is ever formed.

``solve_batch`` solves the M jobs (rigidities, supports, load) of one
mesh together (batched small-matrix linear algebra; Dongarra et al.,
Procedia Comput. Sci. 2017): one ``Ke`` stack, one (8, M ndof) band of
the block-diagonal matrix of the M systems, in which job m's DOF k is
global DOF m ndof + k, one constraint store, and one LAPACK call per
mesh group: one ``dpbsv`` factors and solves all M systems and one
``dsbmv`` gives every residual of the backward-error gate; memory is
O(M ndof).  Each job still gets the bits of its lone solve (see
``_solve_bands``); one batched dense Cholesky would round differently.
If anything in a group fails (a pivot, the gate, or an element
stiffness beyond float64), each of its jobs is solved again as a
one-job group, which gives it the solution and the error of its lone
solve.  ``solve_static`` is the one-job group.

The binding holds two routines, the solve (``dpbsv``) and the gate's
residual (``dsbmv``), from the OpenBLAS that numpy's wheel ships and has
already loaded, called through ``ctypes``, so a process holds one
OpenBLAS and imports no scipy.  Where numpy ships none (a conda or
distro numpy), scipy's public ``scipy.linalg`` wrappers stand in,
behind the same two functions.

All elements of a ``Mesh`` share its ``Le`` and ``inv_R``, hence one
``Ke``.  In band storage it is an (8, 8) slab whose first four columns
belong to the element's left node and last four to its right node, so
the band is filled with two slab adds over all nodes.  Every entry gets
its (at most two) element terms in element order, which makes the band
bit-identical to an element loop, and the load vector is filled alike.

Each constrained DOF k becomes an identity row and column with F[k] = 0.
The system keeps its full size and stays symmetric positive definite,
the solution carries exact zeros at constrained DOFs, and a failed
pivot names its global DOF directly.

A solve is accepted when its normwise backward error (Rigal and Gaches;
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
section 7.1) is at most n * eps:

    ||K d - F||_inf <= n * eps * (||K||_inf ||d||_inf + ||F||_inf)

Cholesky is backward stable, so a correct solve passes at every mesh
size, while the residual itself grows with cond(K) ~ ne^4.  A solve that
fails the check raises ``SingularSystemError``.

Supported boundary conditions (left end x = 0, right end x = L):

    SS : w0 pinned at both ends (plus the axial anchor below)
    CC : all four DOFs clamped at both ends
    CF : all four DOFs clamped at x = 0, free at x = L

A uniform axial translation u0 = const is strain free (the membrane
strain is u0' + w0/R), so the literal SS constraint set is singular.
The solver therefore anchors u0 at the first node for SS; the mode
carries no generalized force, and displacements relative to it, hence
all strains and stresses, are unaffected.

Solves share no mutable state; distinct inputs may be solved from any
number of threads concurrently.
"""

from __future__ import annotations

import ctypes
import enum
import glob
import operator
import os
import struct
from ctypes import byref, c_double, c_int64
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .element import element_load_udl, element_stiffness
from .materials import ConfigError
from .section import SectionRigidities

#: Half-bandwidth of the global stiffness: an element spans DOFs 4e .. 4e+7.
HALF_BAND = 7


def _numpy_openblas():
    """The OpenBLAS that numpy's PyPI wheels ship and load (``numpy.libs`` or
    ``numpy/.dylibs``), or None, e.g. for a conda or distro numpy linked to another BLAS."""
    root = os.path.dirname(np.__file__)
    for folder in (root + ".libs", os.path.join(root, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(folder, "libscipy_openblas64_*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if all(hasattr(lib, f"scipy_{name}_64_") for name in ("dpbsv", "dsbmv")):
                return lib
    return None


def _ctypes_lapack(lib):
    """``dpbsv`` and ``residual`` (``dsbmv``) on ``lib``'s ILP64 Fortran symbols.

    Each argument is a pointer: a constant is an immutable ``bytes`` of the int64 or
    double, anything else a ``byref`` into a numpy array owned by the call or given to it
    (which must be writable); the length of each one-character string argument trails as a
    ``size_t``.  Without ``argtypes``, ctypes passes these objects as they are, so a call
    costs about what an f2py wrapper's does.
    """
    pbsv, sbmv = lib.scipy_dpbsv_64_, lib.scipy_dsbmv_64_
    pbsv.restype = sbmv.restype = None
    kd, ldab, one = (struct.pack("q", v) for v in (HALF_BAND, HALF_BAND + 1, 1))
    alpha, beta, char = struct.pack("d", 1.0), struct.pack("d", -1.0), ctypes.c_size_t(1)

    def pointer(a):
        return byref(c_double.from_buffer(a))

    def dpbsv(ab, F):
        x, info = F.copy(), (c_int64 * 1)()
        n = struct.pack("q", x.size)
        pbsv(b"U", n, kd, one, pointer(ab.T.copy()), ldab, pointer(x), n, info, char)
        return x, info[0]

    def residual(ab, d, F):
        r = F.copy()
        sbmv(b"U", struct.pack("q", r.size), kd, alpha,
             pointer(np.ascontiguousarray(ab.T)), ldab,
             pointer(np.ascontiguousarray(d)), one, beta, pointer(r), one, char)
        return r

    return dpbsv, residual


def _scipy_lapack():
    """The two functions of ``_ctypes_lapack`` on ``scipy.linalg``'s public wrappers."""
    from scipy.linalg import blas, lapack

    def dpbsv(ab, F):
        _, x, info = lapack.dpbsv(ab, F.reshape(-1))
        return x.reshape(F.shape), info

    def residual(ab, d, F):
        return blas.dsbmv(HALF_BAND, 1.0, ab, d.reshape(-1), beta=-1.0,
                          y=F.reshape(-1)).reshape(F.shape)

    return dpbsv, residual


_openblas = _numpy_openblas()
#: ``dpbsv(ab, F) -> (x, info)`` factors and solves a Fortran-ordered (8, N) band for the
#: N = F.size loads F, of any shape; ``residual(ab, d, F)`` is K d - F by ``dsbmv`` on
#: that band, the backward-error gate's residual.
dpbsv, residual = _scipy_lapack() if _openblas is None else _ctypes_lapack(_openblas)

#: Names of the four nodal DOFs, in interleaved storage order.
DOF_NAMES = ("u0", "w0", "w0_x", "phi_x")

_EPS = np.finfo(float).eps

#: Upper-triangle entries (i, j) of Ke and their places (j, HALF_BAND + i - j) in a slab,
#: band storage's (HALF_BAND + i - j, j) transposed.
_KE_UPPER = np.triu_indices(8)
_KE_SLAB = (_KE_UPPER[1], HALF_BAND + _KE_UPPER[0] - _KE_UPPER[1])


class SingularSystemError(RuntimeError):
    """Stiffness not positive definite (BC/mesh misconfiguration), or solve rejected."""


@dataclass(frozen=True)
class Mesh:
    """Uniform 1D mesh along the beam arc.

    L     : total arc length (m)
    ne    : number of elements
    inv_R : curvature 1/R shared by all elements (0 = straight)

    Construction checks L > 0 and that ne is an integer (any type with
    ``__index__``, such as numpy's) >= 1; each ``ConfigError`` names its INI
    key, geometry.L or mesh.ne.
    """

    L: float
    ne: int
    inv_R: float = 0.0

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ConfigError(f"geometry.L: beam length must be positive and finite, got {self.L}")
        try:
            if operator.index(self.ne) < 1:
                raise ConfigError(f"mesh.ne: need at least one element, got ne = {self.ne}")
        except TypeError:
            raise ConfigError(f"mesh.ne: expected an integer, got {self.ne!r}") from None
        if not 0 <= self.inv_R < np.inf:
            raise ValueError("curvature inv_R = 1/R must be nonnegative and finite")

    @property
    def n_nodes(self) -> int:
        return self.ne + 1

    @property
    def ndof(self) -> int:
        return 4 * self.n_nodes

    @property
    def Le(self) -> float:
        return self.L / self.ne

    def element_dofs(self, e: int) -> slice:
        return slice(4 * e, 4 * e + 8)


class BoundaryCondition(enum.Enum):
    SS = "SS"
    CC = "CC"
    CF = "CF"

    def constrained_dofs(self, mesh: Mesh) -> list[int]:
        """Global DOF indices eliminated for this support set."""
        last = 4 * mesh.ne
        if self is BoundaryCondition.SS:
            # w0 at both ends + the axial anchor u0 at node 0
            return [0, 1, last + 1]
        if self is BoundaryCondition.CC:
            return [0, 1, 2, 3, last, last + 1, last + 2, last + 3]
        return [0, 1, 2, 3]  # CF


@dataclass(frozen=True)
class LoadCase:
    """One active load: uniform q (N/m) or a transverse point force (N).

    kind is 'udl', 'point_end' or 'point_mid'; magnitude is q or F.
    """

    kind: str
    magnitude: float

    KINDS = ("udl", "point_end", "point_mid")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"load.type: must be one of {', '.join(self.KINDS)}, "
                              f"got {self.kind!r}")
        if not -np.inf < self.magnitude < np.inf:
            raise ConfigError(f"load.magnitude: must be finite, got {self.magnitude}")


def _fill_band(mesh: Mesh, Ke: np.ndarray) -> np.ndarray:
    """Global stiffness in upper band storage; every element has the stiffness ``Ke``.

    ``ab`` has shape (HALF_BAND + 1, ndof), or (8, M ndof) for an (M, 8, 8)
    ``Ke`` stack: the band of the block-diagonal matrix of the M systems,
    whose coupling entries are exact zeros.  It holds
    ``K[i, j] = ab[HALF_BAND + i - j, j]`` for ``j - HALF_BAND <= i <= j``
    and is Fortran-ordered, as LAPACK reads it, so no call copies it to
    transpose.  In band storage ``Ke`` is an (8, 8) slab, stored by band
    column (``slab[j, HALF_BAND + i - j] = Ke[i, j]``, i <= j), whose
    columns 0-3 belong to the element's left node and 4-7 to its right
    node, so two slab adds over all nodes, each over contiguous memory,
    assemble the band.  Each entry receives at most two terms, node e's
    before node e + 1's as in an element loop.
    """
    slab = np.zeros(Ke.shape)
    slab[..., _KE_SLAB[0], _KE_SLAB[1]] = Ke[..., _KE_UPPER[0], _KE_UPPER[1]]
    columns = np.zeros(Ke.shape[:-2] + (mesh.n_nodes, 4, HALF_BAND + 1))
    columns[..., :-1, :, :] += slab[..., None, :4, :]
    columns[..., 1:, :, :] += slab[..., None, 4:, :]
    return columns.reshape(-1, HALF_BAND + 1).T


def _point_dof(mesh: Mesh, load: LoadCase) -> int:
    """Global w0 DOF of the end node or the mid-span node that a point load acts on."""
    if load.kind == "point_end":
        return 4 * mesh.ne + 1
    if mesh.ne % 2 != 0:
        raise ConfigError(
            f"mesh.ne: mid-span point load needs an even element count, got ne = {mesh.ne}")
    return 4 * (mesh.ne // 2) + 1


def assemble_load(mesh: Mesh, load: LoadCase) -> np.ndarray:
    """Global force vector for the load case.

    Point loads land on the w0 DOF of the end node or the mid-span
    node; the latter requires an even element count so that x = L/2 is
    a node.
    """
    F = np.zeros(mesh.ndof)
    if load.kind == "udl":
        fe = element_load_udl(load.magnitude, mesh.Le)
        nodes = F.reshape(mesh.n_nodes, 4)      # left node's term first, as in an element loop
        nodes[:-1] += fe[:4]
        nodes[1:] += fe[4:]
    else:
        F[_point_dof(mesh, load)] = load.magnitude
    return F


def check_load(mesh: Mesh, bc: BoundaryCondition, load: LoadCase) -> None:
    """Raise a ConfigError for a point load on a DOF the supports fix.

    The constraint would absorb the whole load and the solve would
    return d = 0 (an end point load under SS or CC).
    """
    if load.kind != "udl":
        k = _point_dof(mesh, load)
        if k in bc.constrained_dofs(mesh):
            raise ConfigError(f"load.type: a {load.kind} load on {_dof_label(k)} is held by the "
                              f"{bc.value} supports and would not deflect the beam")


def _dof_label(idx: int) -> str:
    return f"node {idx // 4}, dof {DOF_NAMES[idx % 4]}"


@lru_cache(maxsize=128)
def _band_index(dofs: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(band row, column) indices in an (8, n) band of the rows and columns of dofs:
    column k is ``ab[:, k]``, row k right of the diagonal is ``ab[HALF_BAND - o, k + o]``
    for o = 1 .. min(HALF_BAND, n - 1 - k) (past the last column, the last o repeats);
    and the DOFs.  Read-only."""
    k = np.array(dofs)[:, None]
    o = np.arange(HALF_BAND + 1)
    right = np.minimum(o, n - 1 - k)
    rows = np.append(np.broadcast_to(o, k.shape[:1] + o.shape), HALF_BAND - right)
    cols = np.append(np.broadcast_to(k, k.shape[:1] + o.shape), k + right)
    rows.flags.writeable = cols.flags.writeable = k.flags.writeable = False
    return rows, cols, k[:, 0]


def _constrain(ab: np.ndarray, F: np.ndarray, dofs: list[int]) -> None:
    """Turn each DOF's row and column of the (8, n) band into the identity, and its load in
    the (n,) loads F into 0.

    In a group's block-diagonal band, job m's DOF k is global DOF m ndof + k.  A row
    that runs past its block's last column stores 0.0 over coupling entries, which
    are zeros already, so one store constrains every job as its lone band would.
    """
    rows, cols, k = _band_index(tuple(dofs), ab.shape[1])
    ab[rows, cols] = 0.0
    ab[HALF_BAND, k] = 1.0
    F[k] = 0.0


def backward_error(ab: np.ndarray, d: np.ndarray, F: np.ndarray) -> list[float]:
    """Normwise backward error of d for K d = F, K in upper band storage.

    ``||K d - F||_inf / (||K||_inf ||d||_inf + ||F||_inf)`` of each of the M systems
    of an (8, M n) block-diagonal band, d and F (M, n); NaN where d is not finite.
    The residuals come from one ``dsbmv`` and the row sums of ``|K|`` from one pass
    over the band (a coupling entry adds an exact zero), the norms are taken per
    system, the quotients in floats.
    """
    r = residual(ab, d, F)
    a = np.abs(ab, order="C")             # band rows outermost: summed in order, and faster
    row_sums = a.sum(axis=0)              # each column's upper part, diagonal included
    for k in range(1, HALF_BAND + 1):
        row_sums[:-k] += a[HALF_BAND - k, k:]   # the mirrored entries right of it
    norms = (x.max(axis=1).tolist()
             for x in (row_sums.reshape(d.shape), np.abs(d), np.abs(F), np.abs(r)))
    return [res / scale if (scale := k * x + f) > 0 else res for k, x, f, res in zip(*norms)]


def _solve_bands(ab: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, SingularSystemError | None]:
    """Solve the M systems of an (8, M n) block-diagonal band, loads F (M, n).

    Returns the (M, n) solutions and a ``SingularSystemError`` for the first failed
    pivot or gate, or None.  The band's coupling entries are zeros, so one ``dpbsv``
    and one gate ``dsbmv`` serve all M.  A zero coupling entry adds exact zeros while
    every value is finite, so each block gets the bits of its lone solve.  A NaN or
    inf would cross the couplings, so an error is one system's own only for M = 1:
    ``solve_batch`` solves each system of a failing group again alone.
    """
    n = F.shape[1]
    D, info = dpbsv(ab, F)
    if info:
        return D, SingularSystemError(f"stiffness is not positive definite at "
                                      f"{_dof_label((info - 1) % n)}; check boundary "
                                      "conditions and mesh")
    bound = n * _EPS
    for eta in backward_error(ab, D, F):
        if not eta <= bound:
            return D, SingularSystemError(
                f"solve rejected: backward error {eta:.3e} exceeds n * eps = {bound:.3e}")
    return D, None


def solve_batch(mesh: Mesh, jobs: list[tuple[SectionRigidities, BoundaryCondition, LoadCase]]
                ) -> tuple[np.ndarray, list[SingularSystemError | ArithmeticError | None]]:
    """Solve K d = F for each job (rig, bc, load) on one mesh, as one band.

    Job m's DOF k is DOF m ndof + k of the group's block-diagonal band and of its
    loads, which one ``_constrain`` store constrains.  Returns the (M, ndof)
    solutions and each job's error or None: a ``SingularSystemError`` (failed pivot
    or gate) or the ``ArithmeticError`` of an element stiffness beyond float64.  If
    anything in the group fails and M > 1, each job is solved again as a one-job
    batch and gets that solve's solution and error, so a failure does not stop the
    others, and every job gets the bits and the verdict of a lone ``solve_static``
    (see ``_solve_bands``).  Jobs must pass ``check_load``.
    """
    loads = {load: assemble_load(mesh, load) for load in dict.fromkeys(load for _, _, load in jobs)}
    F, n = np.array([loads[load] for _, _, load in jobs]), mesh.ndof
    try:
        ab = _fill_band(mesh, element_stiffness([rig for rig, _, _ in jobs], mesh))
        _constrain(ab, F.reshape(-1), [m * n + k for m, (_, bc, _) in enumerate(jobs)
                                       for k in bc.constrained_dofs(mesh)])
        D, error = _solve_bands(ab, F)
    except ArithmeticError as err:        # e.g. an element stiffness beyond float64
        D, error = np.zeros(F.shape), err
    if error is None or len(jobs) == 1:
        return D, [error] * len(jobs)
    lone = [solve_batch(mesh, [job]) for job in jobs]
    return np.concatenate([d for d, _ in lone]), [e for _, (e,) in lone]


def solve_static(mesh: Mesh, rig: SectionRigidities, bc: BoundaryCondition,
                 load: LoadCase) -> np.ndarray:
    """Assemble, constrain and solve K d = F for the static response: the (ndof,) DOFs.

    A point load on a constrained DOF raises a ConfigError.  The returned
    DOF array carries exact zeros at constrained DOFs.  The solve is
    accepted only if its normwise backward error is at most n * eps
    (see the module docstring).  This is the one-job ``solve_batch``.
    """
    check_load(mesh, bc, load)
    d, (error,) = solve_batch(mesh, [(rig, bc, load)])
    if error is not None:
        raise error
    return d[0]
