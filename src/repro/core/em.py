"""EM estimation of ``P(p|t)`` (Sec 4.2-4.3, Algorithm 1).

Observations are pre-encoded candidate lists: for observation ``x_i`` each
candidate is ``(template_id, path_id, f)`` where ``f = f(x_i, z_i)`` of
Eq 19 — the product of every probability term except ``θ_pt``, computable
before estimation.  The pruning of Sec 4.3 is inherent to the encoding: only
templates derivable by conceptualizing ``e_i`` in ``q_i`` and only predicates
connecting ``(e_i, v_i)`` appear, so each iteration is ``O(m)``.

* **Initialization** (Eq 23): ``θ^(0)`` uniform over the predicates observed
  with each template.
* **E-step** (Eq 21): posterior responsibility of each hidden ``z_i=(p,t)``,
  ``P(z_i|X,θ) ∝ f(x_i,z_i)·θ_pt``, normalized per observation.
* **M-step** (Eq 22): ``θ_pt ∝ Σ_i P(z_i=(p,t)|X,θ)``, normalized per
  template over predicates.

The estimator is array-based: observations are flattened into CSR-style
parallel buffers (:class:`EncodedObservations`), every distinct ``(t, p)``
pair becomes a dense *cell*, and each E/M iteration is vectorized numpy
instead of nested dict gets.  The original dict-of-dict implementation is
the test oracle ``tests/oracles/em_reference.py`` (equivalence tests and the
before/after benchmark).

The per-iteration incomplete-data log-likelihood is recorded; it is
non-decreasing (standard EM guarantee), which the test suite asserts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Candidate = tuple[int, int, float]  # (template_id, path_id, f)


@dataclass(frozen=True, slots=True)
class EMConfig:
    max_iterations: int = 25
    tolerance: float = 1e-7  # relative log-likelihood improvement to continue


@dataclass
class EMResult:
    """Estimated parameters plus the optimization trace."""

    # theta[template_id][path_id] = P(p|t)
    theta: dict[int, dict[int, float]]
    log_likelihood: list[float] = field(default_factory=list)
    iterations: int = 0
    # responsibility mass per template, Σ_i Σ_p P(z_i=(p,t)|X,θ) at the end;
    # serves as the template's observed frequency (Table 13's ordering).
    template_support: dict[int, float] = field(default_factory=dict)


class EncodedObservations:
    """Flat CSR-style encoding of EM observations.

    Candidates of all observations live in three parallel buffers
    (``template_ids``, ``path_ids``, ``fs``); ``offsets[i]:offsets[i+1]``
    delimits observation ``i``.  The offline learner emits this encoding
    directly, so EM never touches a nested python list.
    """

    __slots__ = ("offsets", "template_ids", "path_ids", "fs")

    def __init__(self) -> None:
        self.offsets = array("q", [0])
        self.template_ids = array("q")
        self.path_ids = array("q")
        self.fs = array("d")

    def append(self, candidates: Iterable[Candidate]) -> None:
        """Add one observation (its candidate list) to the buffers."""
        t_buf, p_buf, f_buf = self.template_ids, self.path_ids, self.fs
        for template_id, path_id, f in candidates:
            t_buf.append(template_id)
            p_buf.append(path_id)
            f_buf.append(f)
        self.offsets.append(len(t_buf))

    def append_candidate(self, template_id: int, path_id: int, f: float) -> None:
        """Add one candidate to the observation currently being built; call
        :meth:`close_observation` when the observation is complete."""
        self.template_ids.append(template_id)
        self.path_ids.append(path_id)
        self.fs.append(f)

    def close_observation(self) -> None:
        """Seal the candidates appended since the last close into one
        observation."""
        self.offsets.append(len(self.template_ids))

    @property
    def open_candidates(self) -> int:
        """Candidates appended but not yet sealed by :meth:`close_observation`."""
        return len(self.template_ids) - self.offsets[-1]

    @classmethod
    def from_observations(cls, observations: Sequence[Sequence[Candidate]]) -> "EncodedObservations":
        """Flatten nested candidate lists into the CSR buffers."""
        encoded = cls()
        for candidates in observations:
            encoded.append(candidates)
        return encoded

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_candidates(self) -> int:
        """Total candidates across all observations."""
        return len(self.template_ids)


def run_em(
    observations: Sequence[Sequence[Candidate]] | EncodedObservations,
    config: EMConfig | None = None,
) -> EMResult:
    """Maximum-likelihood estimation of ``P(p|t)`` via array-based EM.

    Accepts either nested candidate lists (flattened on entry) or a
    pre-built :class:`EncodedObservations`.  Produces the same estimates as
    the dict-of-dict oracle (equivalence-tested to 1e-9) in a fraction of
    the time: the E/M recurrences run over contiguous buffers indexed by
    dense cell ids instead of chained dict lookups.
    """
    config = config or EMConfig()
    if not isinstance(observations, EncodedObservations):
        observations = EncodedObservations.from_observations(observations)

    m = observations.n_candidates
    result = EMResult(theta={})
    if m == 0 or len(observations) == 0:
        return result

    t_ids, p_ids, fs = observations.template_ids, observations.path_ids, observations.fs

    # Dense re-indexing: every distinct (template, path) pair becomes a cell;
    # every distinct template id a dense template index.
    cell_index: dict[tuple[int, int], int] = {}
    template_index: dict[int, int] = {}
    cells = array("q")
    obs_of = array("q")
    for i in range(len(observations)):
        start, end = observations.offsets[i], observations.offsets[i + 1]
        for j in range(start, end):
            pair = (t_ids[j], p_ids[j])
            cell = cell_index.setdefault(pair, len(cell_index))
            cells.append(cell)
            obs_of.append(i)
    n_cells = len(cell_index)
    n_obs = len(observations)

    cell_template = array("q")  # dense template index per cell
    cell_pairs: list[tuple[int, int]] = [(0, 0)] * n_cells
    for (template_id, path_id), cell in cell_index.items():
        cell_pairs[cell] = (template_id, path_id)
    for template_id, path_id in cell_pairs:
        cell_template.append(template_index.setdefault(template_id, len(template_index)))
    n_templates = len(template_index)

    # Eq 23 over cells: uniform over a template's cells that ever see f > 0.
    positive = bytearray(n_cells)
    for j in range(m):
        if fs[j] > 0.0:
            positive[cells[j]] = 1
    if not any(positive):
        return result
    paths_per_template = array("q", bytes(8 * n_templates))
    for cell in range(n_cells):
        if positive[cell]:
            paths_per_template[cell_template[cell]] += 1
    theta_flat = array("d", bytes(8 * n_cells))
    for cell in range(n_cells):
        if positive[cell]:
            theta_flat[cell] = 1.0 / paths_per_template[cell_template[cell]]

    if config.max_iterations < 1:
        # No iteration: θ stays at its Eq 23 initialization (reference parity).
        for cell in range(n_cells):
            if positive[cell]:
                template_id, path_id = cell_pairs[cell]
                result.theta.setdefault(template_id, {})[path_id] = theta_flat[cell]
        return result

    # Vectorized E/M loop over the cell buffers.
    fs_v = np.frombuffer(fs, dtype=np.float64)
    cells_v = np.frombuffer(cells, dtype=np.int64)
    obs_v = np.frombuffer(obs_of, dtype=np.int64)
    tmpl_v = np.frombuffer(cell_template, dtype=np.int64)
    theta_v = np.frombuffer(theta_flat, dtype=np.float64).copy()
    previous_ll: float | None = None
    for _ in range(config.max_iterations):
        weights = fs_v * theta_v[cells_v]                     # E-step, Eq 21
        totals = np.bincount(obs_v, weights=weights, minlength=n_obs)
        live = totals > 0.0
        log_likelihood = float(np.log(totals[live]).sum()) if live.any() else 0.0
        inv_totals = np.zeros(n_obs)
        inv_totals[live] = 1.0 / totals[live]
        resp = weights * inv_totals[obs_v]
        resp[weights <= 0.0] = 0.0
        acc = np.bincount(cells_v, weights=resp, minlength=n_cells)
        support = np.bincount(tmpl_v, weights=acc, minlength=n_templates)
        denom = support[tmpl_v]                               # M-step, Eq 22
        theta_v = np.divide(acc, denom, out=np.zeros(n_cells), where=denom > 0.0)
        result.log_likelihood.append(log_likelihood)
        result.iterations += 1
        if previous_ll is not None:
            scale = max(abs(previous_ll), 1.0)
            if (log_likelihood - previous_ll) / scale < config.tolerance:
                break
        previous_ll = log_likelihood

    # Decode the flat estimate back into the sparse dict form of the result.
    theta: dict[int, dict[int, float]] = {}
    template_support: dict[int, float] = {}
    for cell in range(n_cells):
        mass = acc[cell]
        if mass <= 0.0:
            continue
        template_id, path_id = cell_pairs[cell]
        theta.setdefault(template_id, {})[path_id] = mass / support[cell_template[cell]]
    for template_id, dense in template_index.items():
        if support[dense] > 0.0:
            template_support[template_id] = support[dense]
    result.theta = theta
    result.template_support = template_support
    return result

