"""Finite-depth inductive towers of operator systems and their dual towers.

A tower is a chain S_1 -> S_2 -> ... -> S_K of operator systems along
unital complete order embeddings.  Its dual tower S_K' -> ... -> S_1' needs
no structure of its own: the connecting maps are the adjoints
:meth:`Embedding.pullback`, at matrix level n the same adjoint amplified,
(id_n (x) phi)', since the duality is a complete order isomorphism.  All
limit statements are truncated at depth K: inductive elements become
threads (a representative at a base stage plus its images up the tower),
dual projective elements become compatible tuples of dual elements at one
level, and the duality pairing is the stage evaluation, which is constant
along a valid thread.  Convergence content of the untruncated limits shows
up here as per-stage cone membership.

The built-in towers hold their embeddings as Kraus operators V_r, with
phi(x) = sum_r V_r x V_r^*: such a map is CP by Choi's theorem, and a
tower checks that it is unital (and, on a proper target, that its images
lie in the target) and that V_0^* V_r = delta_0r I, which makes
y -> V_0^* y V_0 a unital CP left inverse and phi a complete order
embedding.  The map, its amplifications and its adjoint
sum_r V_r^* F V_r are products with the V_r, and together with the
closed-form coordinates of ``full:d`` no basis array or basis image is
stored on their path.  An embedding given by basis images keeps them and
is certified CP by its Choi matrix, and order reflecting by the Choi
matrix of its inverse on the span of the images.

Stage indices are 1-based throughout the public API.  Basis coordinates
are :class:`OperatorSystem`'s, Riesz blocks :class:`MatrixFunctional`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .dual import (
    Functional,
    MatrixFunctional,
    cp_verdict,
    dual_order_unit_radius,
    faithful_state,
    is_cp,
    is_positive_functional,
    positivity_minimum,
    random_positive_functional,
)
from .errors import (
    DimensionError,
    HermitianError,
    InconsistentThreadError,
    ParseError,
    ValidationError,
)
from .systems import (
    OperatorSystem,
    _check_counts,
    cone_member,
    from_blocks,
    level_of,
    make_operator_system,
    named_system,
    random_hermitian_element,
    random_positive_element,
    system_from_json,
    to_blocks,
)

__all__ = [
    "Embedding",
    "Tower",
    "make_tower",
    "ElementThread",
    "FunctionalThread",
    "trace_state_thread",
    "pullback_thread",
    "inductive_positive",
    "pairing",
    "verify_dual_cones",
    "verify_gamma",
]

_COMPAT_TOL = 1e-9
#: Smearing of :func:`inductive_positive`.
_SMEAR = 1e-6


def _kraus_sum(left: np.ndarray, right: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """sum_r (I_n (x) left_r) x (I_n (x) right_r) for x of shape (n q, n q),
    left of shape (r, p, q) and right of shape (r, q, p): every block row of
    x times every left_r by one batched product, then every result times
    its own right_r by another.  The Kraus index is a batch axis of both
    products, so no cross term left_r x right_s is ever formed."""
    r, p, q = left.shape
    rows = left[:, None] @ x.reshape(1, n, q, n * q)
    return (rows.reshape(r, -1, q) @ right).sum(0).reshape(n * p, n * p)


class Embedding:
    """Linear map phi: S -> T between systems, held one of two ways.

    * Coefficient form (the constructor, :meth:`from_coefficients`): the
      images phi(B_k) of the source basis; :class:`Tower` certifies such a
      map CP and order reflecting by Choi matrices.
    * Kraus form (:meth:`from_kraus`): operators V_r of shape (r, d_T, d_S)
      with phi(x) = sum_r V_r x V_r^*, CP by Choi's theorem.  The map, its
      amplifications and its adjoint are products with the V_r; the images
      are derived only when something asks for them.
    """

    def __init__(self, source: OperatorSystem, target: OperatorSystem, images):
        self.source = source
        self.target = target
        mats = []
        for im in images:
            m = la.as_matrix(im)
            if m.shape != (target.d, target.d):
                raise DimensionError(
                    f"image of shape {m.shape} in ambient M_{target.d}"
                )
            mats.append(m)
        if len(mats) != source.dim:
            raise DimensionError(
                f"{len(mats)} images for a source of dimension {source.dim}"
            )
        self._images = np.stack(mats)
        self.kraus = None

    @classmethod
    def from_coefficients(cls, source, target, coeffs) -> "Embedding":
        """Images from a (target.dim x source.dim) coefficient matrix over
        the two orthonormal bases."""
        c = la.as_matrix(coeffs)
        if c.shape != (target.dim, source.dim):
            raise DimensionError(
                f"coefficient matrix {c.shape}, expected {(target.dim, source.dim)}"
            )
        images = [target.from_coords(c[:, j]) for j in range(source.dim)]
        return cls(source, target, images)

    @classmethod
    def from_kraus(cls, source, target, kraus) -> "Embedding":
        """The map x -> sum_r V_r x V_r^* for a stack of (d_T x d_S)
        operators V_r."""
        v = np.array(kraus, dtype=complex)
        if v.ndim != 3 or not len(v) or v.shape[1:] != (target.d, source.d):
            raise DimensionError(
                f"Kraus operators of shape {v.shape}, expected (r, {target.d}, {source.d})"
            )
        emb = cls.__new__(cls)
        emb.source, emb.target, emb._images = source, target, None
        v.flags.writeable = False
        emb.kraus = v
        emb._kraus_h = v.conj().swapaxes(1, 2).copy()
        return emb

    @property
    def images(self) -> np.ndarray:
        """phi(B_k) for the source basis, shape (source.dim, d_T, d_T)."""
        if self._images is None:
            basis = self.source.basis
            self._images = sum(v @ basis @ vh for v, vh in zip(self.kraus, self._kraus_h))
        return self._images

    def apply(self, x) -> np.ndarray:
        """phi(x) for a d_S x d_S matrix x: the level-1 :meth:`apply_level`."""
        m = la.as_matrix(x)
        if m.shape != (self.source.d, self.source.d):
            raise DimensionError(f"element of shape {m.shape} for a source in M_{self.source.d}")
        return self.apply_level(m)

    def apply_level(self, x) -> np.ndarray:
        """Amplification id_n (x) phi on a flattened level element: the
        Kraus products blockwise, or the coordinates of all n^2 blocks, then
        their images, by two matrix products."""
        ds, dt = self.source.d, self.target.d
        blocks = to_blocks(x, ds)
        n = blocks.shape[0]
        if self.kraus is not None:
            return _kraus_sum(self.kraus, self._kraus_h,
                              self.source.project_level(la.as_matrix(x)), n)
        coords = self.source.stack_coords(blocks.reshape(n * n, ds, ds))
        out = coords @ self.images.reshape(len(self.images), dt * dt)
        return from_blocks(out.reshape(n, n, dt, dt))

    def pullback(self, f: MatrixFunctional) -> MatrixFunctional:
        """The adjoint (id_n (x) phi)': [f_ij] |-> [f_ij o phi] from M_n(T')
        to M_n(S') at the level n of f, with the type of f."""
        if f.system is not self.target:
            raise ValidationError("functional does not live on the embedding's target")
        return type(f)(self.source, self._pulled_riesz(f), _canonical=True)

    def _pulled_riesz(self, f: MatrixFunctional) -> np.ndarray:
        """The Riesz matrix of the pullback of f.  In Kraus form it is
        sum_r (I_n (x) V_r)^* F (I_n (x) V_r) projected onto M_n(S) (a
        partial trace on the doubling tower); in coefficient form the source
        basis is orthonormal, so f_ij o phi has the basis values
        f_ij(images[k]), all of them by one product against the images."""
        if self.kraus is None:
            return self.source.riesz_of_values(f.values(self.images))
        return self.source.project_level(_kraus_sum(self._kraus_h, self.kraus, f.riesz, f.n))


def _require_cp(mf: MatrixFunctional, idx: int, prop: str) -> None:
    """Certify the map S -> M_n of the grid ``mf`` CP, or raise
    ValidationError that embedding ``idx`` is not (or not certified)
    ``prop``.  By Choi-Effros the map is CP iff its grid is positive in
    M_n(S'), which :func:`cp_verdict` decides by one eigensolve or solve."""
    status = cp_verdict(mf).status
    if status == "undecided":
        raise ValidationError(f"embedding {idx} could not be certified {prop}")
    if status != "feasible":
        raise ValidationError(f"embedding {idx} is not {prop}")


class Tower:
    """Validated chain of systems and unital complete order embeddings.

    Each embedding must be unital into the next stage, and is certified CP
    and order reflecting when the tower is built (:meth:`_validate`).
    """

    def __init__(self, systems, embeddings, name: str | None = None):
        systems = list(systems)
        embeddings = list(embeddings)
        if len(systems) < 1 or len(embeddings) != len(systems) - 1:
            raise ValidationError(
                f"{len(systems)} systems need {len(systems) - 1} embeddings,"
                f" got {len(embeddings)}"
            )
        self.systems = systems
        self.embeddings = embeddings
        self.name = name
        self._validate()

    @property
    def depth(self) -> int:
        return len(self.systems)

    def stage(self, k: int) -> OperatorSystem:
        if not 1 <= k <= self.depth:
            raise DimensionError(f"stage {k} outside 1..{self.depth}")
        return self.systems[k - 1]

    def thread(self, k: int, x) -> "ElementThread":
        """Element thread with representative x at base stage k."""
        xm = la.as_matrix(x)
        n = level_of(self.stage(k), xm)
        images = [xm]
        for s in range(k - 1, self.depth - 1):
            images.append(self.embeddings[s].apply_level(images[-1]))
        return ElementThread(tower=self, base=k, level=n, images=tuple(images))

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        """Each embedding must connect its stages and be unital; on a proper
        target its images must lie in the target.  A unital CP phi: S -> T is
        a complete order embedding iff some unital CP psi has psi o phi =
        id_S (Arveson extension; Paulsen 2002).  A Kraus embedding is CP as
        it stands, and psi(y) = V_0^* y V_0 is such a psi when V_0^* V_r =
        delta_0r I.  Otherwise (a coefficient embedding, certified CP first,
        or a Kraus list failing that test) phi must be injective and
        phi^-1: phi(S) -> M_{d_S} CP, by one :func:`cp_verdict` whose
        refutation is a point of M_{d_S}(phi(S))+ with a non-positive
        preimage."""
        for idx, emb in enumerate(self.embeddings, start=1):
            src, tgt = self.systems[idx - 1], self.systems[idx]
            if emb.source is not src or emb.target is not tgt:
                raise ValidationError(f"embedding {idx} does not connect its stages")
            image_unit = emb.apply(src.unit)
            if not la.frobenius(image_unit - tgt.unit) <= _COMPAT_TOL:  # NaN fails
                raise ValidationError(f"embedding {idx} is not unital")
            if not tgt.is_full:
                outside = np.flatnonzero(~(tgt.residuals(emb.images) <= _COMPAT_TOL))
                if outside.size:
                    raise ValidationError(
                        f"embedding {idx} maps basis element {outside[0]}"
                        f" outside stage {idx + 1}"
                    )
            if emb.kraus is None:
                _require_cp(MatrixFunctional.of_map(src, emb.images), idx, "completely positive")
            else:
                gram = emb._kraus_h[0] @ emb.kraus
                gram[0] -= np.eye(src.d)
                if la.frobenius(gram) <= _COMPAT_TOL:
                    continue
            image = make_operator_system(emb.images, tgt.d)
            if image.dim != src.dim:
                raise ValidationError(f"embedding {idx} is not order reflecting (not injective)")
            # phi(B_j) = sum_k A_jk C_k over the basis C of phi(S), so
            # phi^-1(C_k) = sum_j (A^-1)_kj B_j
            preimages = np.linalg.solve(image.stack_coords(emb.images),
                                        src.basis.reshape(src.dim, -1))
            _require_cp(MatrixFunctional.of_map(image, preimages.reshape(-1, src.d, src.d)),
                        idx, "order reflecting")


def make_tower(spec) -> Tower:
    """Build a tower from a built-in name or a JSON-style dict.

    Built-ins: ``matrix-doubling:K`` (M_{2^k} with x -> x (x) I_2) and
    ``corner:K`` (M_k into M_{k+1} as x -> diag(x, s(x)) with s the
    normalized trace, the unital corner variant).

    Dict form: ``{"systems": [...], "embeddings": [{"matrix_on_basis":
    [...]}, ...]}`` where each system is a name or a system JSON object and
    ``matrix_on_basis`` is the (next.dim x this.dim) coefficient matrix of
    the map over the orthonormal bases.
    """
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        try:
            depth = int(arg)
        except ValueError:
            raise ParseError(f"tower spec {spec!r} needs an integer depth") from None
        if depth < 1:
            raise ParseError("tower depth must be positive")
        if kind == "matrix-doubling":
            systems = [named_system(f"full:{2 ** k}") for k in range(1, depth + 1)]
            # V_k = I_d (x) e_k, k = 1, 2
            kraus = [[np.kron(np.eye(s.d), e) for e in np.eye(2)[:, :, None]]
                     for s in systems[:-1]]
        elif kind == "corner":
            systems = [named_system(f"full:{k}") for k in range(1, depth + 1)]
            # V_0 = [I_d; 0] and V_j = e_{d+1} e_j^T / sqrt(d), j = 1..d
            kraus = []
            for s in systems[:-1]:
                v = np.zeros((s.d + 1, s.d + 1, s.d))
                v[0, :s.d] = np.eye(s.d)
                v[np.arange(1, s.d + 1), s.d, np.arange(s.d)] = 1.0 / np.sqrt(s.d)
                kraus.append(v)
        else:
            raise ParseError(f"unknown tower spec {spec!r}")
        embeddings = [Embedding.from_kraus(src, tgt, v)
                      for src, tgt, v in zip(systems, systems[1:], kraus)]
        return Tower(systems, embeddings, name=spec)
    if isinstance(spec, dict):
        try:
            sys_specs = spec["systems"]
            emb_specs = spec["embeddings"]
        except KeyError as exc:
            raise ParseError(f"tower JSON missing key {exc}") from exc
        if not (isinstance(sys_specs, list) and isinstance(emb_specs, list)):
            raise ParseError('tower JSON "systems" and "embeddings" must be arrays')
        if len(emb_specs) != len(sys_specs) - 1:
            raise ParseError(
                f"{len(sys_specs)} systems need {len(sys_specs) - 1} embeddings,"
                f" got {len(emb_specs)}"
            )
        systems = [
            named_system(s) if isinstance(s, str) else system_from_json(s)
            for s in sys_specs
        ]
        embeddings = []
        for k, espec in enumerate(emb_specs):
            if not isinstance(espec, dict) or "matrix_on_basis" not in espec:
                raise ParseError(f'embedding {k} must be an object with "matrix_on_basis"')
            coeffs = la.decode_matrix(espec["matrix_on_basis"])
            try:
                embedding = Embedding.from_coefficients(systems[k], systems[k + 1], coeffs)
            except DimensionError as exc:
                raise ParseError(f"embedding {k}: {exc}") from exc
            embeddings.append(embedding)
        return Tower(systems, embeddings)
    raise ParseError(f"cannot build a tower from {type(spec).__name__}")


# ----------------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------------

@dataclass
class ElementThread:
    """Inductive-limit representative: x at base stage k plus images up to K."""

    tower: Tower
    base: int
    level: int
    images: tuple

    def image_at(self, m: int) -> np.ndarray:
        if not self.base <= m <= self.tower.depth:
            raise DimensionError(f"stage {m} outside {self.base}..{self.tower.depth}")
        return self.images[m - self.base]

    @property
    def deepest(self) -> np.ndarray:
        return self.images[-1]


@dataclass
class FunctionalThread:
    """Projective-limit representative at a level n: compatible
    (f_1, ..., f_K) with f_k = (id_n (x) phi_k)' f_{k+1} in M_n(S_k')."""

    tower: Tower
    entries: tuple

    def entry(self, k: int) -> MatrixFunctional:
        return self.entries[k - 1]

    @property
    def norm_sup(self) -> float:
        """max_k of the stage norms (trace norms of the canonical matrices),
        at level 1."""
        return max(f.norm for f in self.entries)

    def check_compatibility(self) -> None:
        """f_{k+1} o phi_k = f_k entrywise on the basis of each stage k < K,
        relative to ``_COMPAT_TOL``.  The adjoint is recomputed here, not
        taken from the thread's own pullbacks, so a stored entry that
        drifted from it is seen."""
        for k in range(1, self.tower.depth):
            emb = self.tower.embeddings[k - 1]
            lhs = emb.source.level_values(emb._pulled_riesz(self.entries[k]))
            rhs = emb.source.level_values(self.entries[k - 1].riesz)
            if np.any(np.abs(lhs - rhs) > _COMPAT_TOL * np.maximum(1.0, np.abs(rhs))):
                raise InconsistentThreadError(
                    f"adjoint compatibility broken at stage {k}"
                )


def trace_state_thread(t: Tower) -> FunctionalThread:
    """The stage-wise normalized-trace states; compatible for the built-in
    towers, validated here for any tower."""
    entries = [faithful_state(s) for s in t.systems]
    thread = FunctionalThread(t, tuple(entries))
    thread.check_compatibility()
    return thread


def pullback_thread(t: Tower, f_top: MatrixFunctional) -> FunctionalThread:
    """Thread (phi_{1,K}' f, ..., f) from an element f of M_n(S_K') at any
    level n; compatibility holds by construction."""
    if f_top.system is not t.stage(t.depth):
        raise ValidationError("functional must live on the deepest stage")
    entries = [f_top]
    for emb in reversed(t.embeddings):
        entries.append(emb.pullback(entries[-1]))
    entries.reverse()
    return FunctionalThread(t, tuple(entries))


# ----------------------------------------------------------------------------
# Thread-level operations
# ----------------------------------------------------------------------------

def inductive_positive(t: Tower, e: ElementThread) -> bool:
    """Truncated-depth positivity: r-smeared cone membership of the deepest
    image at :func:`cone_member`'s default tolerance.  The smearing
    r = ``_SMEAR`` stands in for the vanishing correction terms that a
    finite embedding tower forces to zero, and admits boundary elements
    with lambda_min = 0.

    The verdict means "positive at depth K": elements whose positivity only
    emerges past the truncation depth cannot be seen here.
    """
    if e.tower is not t:
        raise ValidationError("thread belongs to a different tower")
    deep = e.deepest
    if not la.is_hermitian(deep, 1e-8):
        raise HermitianError("inductive positivity needs a Hermitian thread")
    smeared = _SMEAR * np.eye(deep.shape[0]) + deep
    return cone_member(t.stage(t.depth), smeared)


def pairing(e: ElementThread, f: FunctionalThread) -> complex:
    """Duality pairing <x-thread, f-thread> = f_k(x_k) at the base stage.

    Verifies that f_m(phi_{k,m} x_k) is constant for m >= k, relative to
    ``_COMPAT_TOL``; a violation means a broken thread and raises
    InconsistentThreadError.
    """
    if e.tower is not f.tower:
        raise ValidationError("threads belong to different towers")
    if e.level != 1 or f.entry(1).n != 1:
        raise DimensionError("pairing is defined for level-1 threads")
    base_val = f.entry(e.base).pair(e.image_at(e.base))
    scale = max(1.0, abs(base_val))
    for m in range(e.base, e.tower.depth + 1):
        val = f.entry(m).pair(e.image_at(m))
        if abs(val - base_val) > _COMPAT_TOL * scale:
            raise InconsistentThreadError(
                f"pairing drifts at stage {m}: |{val:.3e} - {base_val:.3e}|"
            )
    return base_val


# ----------------------------------------------------------------------------
# Verification sweeps
# ----------------------------------------------------------------------------

def _nonpositive_hermitian(system, rng, floor=-1e-3):
    while True:
        h = random_hermitian_element(system, rng)
        if la.lambda_min(h) < floor:
            return h


def _negative_witness_failures(t: Tower, rng, count: int) -> int:
    """Draw ``count`` functionals on the deepest stage certified not positive
    (a non-PSD Riesz matrix can give a positive functional on a proper
    stage); count those whose positivity minimizer is not a positive element
    thread with negative pairing against the pulled-back thread."""
    top = t.stage(t.depth)
    failures = 0
    for _ in range(count):
        f_top = Functional(top, _nonpositive_hermitian(top, rng, floor=-1e-2))
        while is_positive_functional(f_top) is not False:
            f_top = Functional(top, _nonpositive_hermitian(top, rng, floor=-1e-2))
        f = pullback_thread(t, f_top)
        val, x = positivity_minimum(f_top)
        if not (val < 0 and pairing(t.thread(t.depth, x), f).real < 0):
            failures += 1
    return failures


def verify_dual_cones(
    t: Tower,
    samples: int = 50,
    *,
    rng: np.random.Generator,
) -> dict:
    """Dual-cone behavior of the truncated pairing.

    (a) positive x positive pairings are >= -1e-8; (b) every sampled
    non-positive element thread gets a positive functional thread built from
    the most-negative eigendirection at the deepest stage, with pairing < 0;
    (c) every sampled non-positive functional thread gets a positive element
    thread with negative pairing from the positivity minimizer.  ``samples``
    below 1 raises ValidationError.
    """
    _check_counts(samples=samples)
    report: dict = {"passed": True}

    violations = 0
    pair_count = 0
    for _ in range(samples):
        k = int(rng.integers(1, t.depth + 1))
        x = random_positive_element(t.stage(k), rng)
        e = t.thread(k, x)
        f = pullback_thread(t, random_positive_functional(t.stage(t.depth), rng))
        val = pairing(e, f)
        pair_count += 1
        if val.real < -1e-8 or abs(val.imag) > 1e-8 * max(1.0, abs(val)):
            violations += 1
    report["positive_pairs"] = {"count": pair_count, "violations": violations}

    sep_failures = 0
    for _ in range(max(1, samples // 5)):
        k = int(rng.integers(1, t.depth + 1))
        x = _nonpositive_hermitian(t.stage(k), rng)
        e = t.thread(k, x)
        if inductive_positive(t, e):
            sep_failures += 1
            continue
        w, u = la.spectral_decompose(e.deepest)
        psi = u[:, -1]
        f_top = Functional(t.stage(t.depth), np.outer(psi, psi.conj()))
        f = pullback_thread(t, f_top)
        val = pairing(e, f).real
        if val >= -1e-6:
            sep_failures += 1
    report["separating_states"] = {"failures": sep_failures}

    witness_failures = _negative_witness_failures(t, rng, max(1, samples // 5))
    report["negative_witnesses"] = {"failures": witness_failures}

    report["passed"] = bool(
        violations == 0 and sep_failures == 0 and witness_failures == 0
    )
    return report


def verify_gamma(
    t: Tower,
    samples: int = 30,
    max_level: int = 2,
    *,
    rng: np.random.Generator,
) -> dict:
    """Truncated-depth checks that the pairing map is a complete order
    isomorphism onto the dual of the inductive limit.

    * zero thread: all basis pairings vanish and the thread norm is zero;
    * injectivity: vanishing pairings against the basis threads of every
      stage force the thread norm below 1e-8 (and conversely nonzero
      threads show a nonzero pairing); on a thread checked compatible the
      pairing with a basis thread of stage k is the basis value f_k(b);
    * level 1 order correspondence, both directions with witnesses;
    * levels 2..max_level: matrix functional threads built from PSD Choi
      data are CP at every stage, non-PSD data (redrawn while its projection
      onto the deepest stage is CP) is certified not CP there, and the
      stage-wise trace states form a matrix order unit with a uniform
      finite radius over the truncation.  Uniform means over the K stages
      of this tower only; it says nothing of the radii as K grows.

    ``samples`` or ``max_level`` below 1 raises ValidationError.
    """
    _check_counts(samples=samples, max_level=max_level)
    top = t.stage(t.depth)
    report: dict = {"passed": True}
    failures: list[str] = []

    def max_basis_pairing(f: FunctionalThread) -> float:
        f.check_compatibility()
        return max(float(np.abs(s.level_values(g.riesz)).max())
                   for g, s in zip(f.entries, t.systems))

    zero = pullback_thread(t, Functional.zero(top))
    if max_basis_pairing(zero) > 1e-12 or zero.norm_sup > 1e-12:
        failures.append("zero thread does not map to the zero functional")

    for _ in range(samples):
        f_top = Functional(top, la.hermitian_part(random_hermitian_element(top, rng)))
        f = pullback_thread(t, f_top)
        pi = max_basis_pairing(f)
        if (pi <= 1e-9) != (f.norm_sup <= 1e-8):
            failures.append("injectivity mismatch on a sampled thread")
    tiny = pullback_thread(t, 1e-12 * Functional(top, random_hermitian_element(top, rng)))
    pi = max_basis_pairing(tiny)
    if not (pi <= 1e-9 and tiny.norm_sup <= 1e-8):
        failures.append("near-zero thread not recognized as zero")

    order_violations = 0
    for _ in range(samples):
        f = pullback_thread(t, random_positive_functional(top, rng))
        k = int(rng.integers(1, t.depth + 1))
        e = t.thread(k, random_positive_element(t.stage(k), rng))
        if pairing(e, f).real < -1e-8:
            order_violations += 1
    order_violations += _negative_witness_failures(t, rng, max(1, samples // 5))
    if order_violations:
        failures.append(f"{order_violations} level-1 order correspondence failures")

    delta_thread = trace_state_thread(t)
    unit_radii = []
    for _ in range(max(1, samples // 5)):
        g_top = Functional(top, la.hermitian_part(random_hermitian_element(top, rng)))
        g = pullback_thread(t, g_top)
        stage_radii = []
        for k in range(1, t.depth + 1):
            r = dual_order_unit_radius(delta_thread.entry(k), g.entry(k), 1)
            if r is None:
                failures.append(f"trace state fails to dominate at stage {k}")
                break
            stage_radii.append(r)
        else:
            unit_radii.append(max(stage_radii))
    report["unit_radii"] = unit_radii

    def gaussian(side: int) -> np.ndarray:
        return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))

    def nonpsd_verdict(g: np.ndarray):
        choi = la.hermitian_part(g)
        lam = la.lambda_min(choi)
        if lam > -1e-3:
            choi = choi - (1e-2 + abs(lam)) * np.eye(len(choi))
        return cp_verdict(MatrixFunctional.from_choi(top, choi))

    cp_failures = 0
    for n in range(2, max_level + 1):
        for i in range(samples):
            side = top.d * n
            g = gaussian(side)
            if i % 2 == 0:
                choi = (g @ g.conj().T) / side  # PSD: the induced map is CP
                mf_top = MatrixFunctional.from_choi(top, choi)
                stages = pullback_thread(t, mf_top).entries
                if not all(is_cp(mf) is True for mf in stages):
                    cp_failures += 1
            else:
                # projected onto M_n(S), non-PSD data can be CP on a proper
                # stage: redraw until it is not (a full stage never redraws)
                verdict = nonpsd_verdict(g)
                while verdict.status == "feasible":
                    verdict = nonpsd_verdict(gaussian(side))
                if verdict.status != "infeasible" or verdict.certificate is None:
                    cp_failures += 1
        # the stage-wise trace states lift to a matrix order unit
        dthread = [MatrixFunctional.diag(delta_thread.entry(k), n)
                   for k in range(1, t.depth + 1)]
        if not all(is_cp(mf) is True for mf in dthread):
            cp_failures += 1
    if cp_failures:
        failures.append(f"{cp_failures} matrix-level CP failures")

    report["failures"] = failures
    report["passed"] = not failures
    return report
