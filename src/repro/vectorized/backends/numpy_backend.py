"""Pure-NumPy reference kernels.

These are the correctness reference: bit-for-bit identical to the object
engine under scripted schedules (the engine parity suites assert this),
and the baseline every other backend is compared against.

Operation-order notes mirror :mod:`repro.vectorized.engines`: flow sums
accumulate left-to-right over sorted-neighbor slots, colliding receiver
updates go through ``np.add.at`` in ascending message order, and padded
slots hold exact zeros so they cannot perturb rounding.

The PCF kernels address edge state through flat views. Edge ``e`` is
``node * md + slot``; copy ``a`` (0/1) of edge ``e`` is row ``2e + a`` of
``fval.reshape(-1, d)`` and element ``2e + a`` of ``fw.reshape(-1)``, so
the sibling copy of row ``x`` is row ``x ^ 1``. Receiver edges are unique
within a round, so the delivery phase runs as one pass over all delivered
messages: every branch is an ``np.where`` select, and a message whose
branch does not apply writes back the value it just read.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.vectorized.backends.base import KernelBackend


def _flat(a: np.ndarray, *shape: int) -> np.ndarray:
    """``a`` reshaped to ``shape`` as a view, never a copy.

    The kernels write state back through these views; a reshape that
    silently copied would drop the round's updates.
    """
    if not a.flags.c_contiguous:
        raise ValueError("kernel state arrays must be C-contiguous")
    return a.reshape(shape)


def _rows(a: np.ndarray, d: int) -> np.ndarray:
    """Flat per-copy rows of ``a``: ``(rows, d)``, or ``(rows,)`` if d == 1.

    Scalar payloads (d == 1) run every select and scatter on 1-D arrays.
    """
    return _flat(a, -1) if d == 1 else _flat(a, -1, d)


def _per_row(mask: np.ndarray, d: int) -> np.ndarray:
    """A per-message mask shaped to select among ``_rows`` payloads."""
    return mask if d == 1 else mask[:, None]


def _all_components(equal: np.ndarray, d: int) -> np.ndarray:
    """Per message: does the comparison hold in every component?"""
    return equal if d == 1 else np.all(equal, axis=1)


def _add_rows(val, w, rows, add_val, add_w) -> None:
    """``val[rows[k]] += add_val[k]``, ``w[rows[k]] += add_w[k]`` in order k.

    ``val`` is ``(n, d)``. The value scatter is one 1-D ``np.add.at`` over
    the flattened cells ``row * d + component``, listed message-major.
    Each cell is touched only by its own component, and message ``k``'s
    entry precedes message ``k + 1``'s, so every cell receives its
    additions in ascending message order: the same sequence of float
    additions as the 2-D ``np.add.at(val, rows, add_val)``.
    """
    d = val.shape[1]
    cells = rows if d == 1 else ((rows * d)[:, None] + np.arange(d)).ravel()
    np.add.at(_flat(val, -1), cells, add_val.ravel())
    np.add.at(w, rows, add_w)


def _delivered(delivered, *arrays):
    """Compact per-message arrays to the delivered messages.

    Skipped when every message is delivered (no loss, nothing blocked).
    """
    if delivered.all():
        return arrays
    idx = np.flatnonzero(delivered)
    return tuple(a[idx] for a in arrays)


class NumpyKernels(KernelBackend):
    """The reference backend: whole-array NumPy round kernels."""

    name = "numpy"
    compiled = False

    def push_sum_round(self, val, w, senders, receivers, delivered) -> None:
        # Keep half, send half — the send-side halving happens regardless
        # of delivery (a dropped message loses mass, as in the real
        # protocol).
        V = _rows(val, val.shape[1])
        half_val = V.take(senders, axis=0) * 0.5
        half_w = w.take(senders) * 0.5
        V[senders] = half_val
        w[senders] = half_w
        receivers, half_val, half_w = _delivered(
            delivered, receivers, half_val, half_w
        )
        _add_rows(val, w, receivers, half_val, half_w)

    @staticmethod
    def _flow_totals(fval, fw) -> Tuple[np.ndarray, np.ndarray]:
        # Accumulate the flow sum left-to-right over sorted-neighbor slots
        # — the object engine's rounding order.
        total_val = np.zeros(fval.shape[::2], dtype=fval.dtype)
        total_w = np.zeros(fw.shape[0], dtype=fw.dtype)
        for s in range(fval.shape[1]):
            total_val += fval[:, s]
            total_w += fw[:, s]
        return total_val, total_w

    def push_flow_round(
        self, fval, fw, v0, w0, senders, slots, receivers, r_slots, delivered
    ) -> None:
        # Estimate fused in: est = v0 - sum(flows), then one PF round.
        total_val, total_w = self._flow_totals(fval, fw)
        est_val = v0 - total_val
        est_w = w0 - total_w

        # Phase 1: virtual sends (sender slots are unique per round).
        fval[senders, slots] += est_val[senders] * 0.5
        fw[senders, slots] += est_w[senders] * 0.5

        # Phase 2: snapshot the physical payloads.
        sent_val = fval[senders, slots].copy()
        sent_w = fw[senders, slots].copy()

        # Phase 3: deliveries — receiver (node, slot) pairs are unique.
        idx = np.nonzero(delivered)[0]
        fval[receivers[idx], r_slots[idx]] = -sent_val[idx]
        fw[receivers[idx], r_slots[idx]] = -sent_w[idx]

    def pcf_round(
        self,
        fval,
        fw,
        c,
        r,
        phi_val,
        phi_w,
        v0,
        w0,
        senders,
        slots,
        receivers,
        r_slots,
        delivered,
    ) -> Tuple[int, int]:
        md, d = c.shape[1], v0.shape[1]
        F, FW = _rows(fval, d), _flat(fw, -1)
        C, R = _flat(c, -1), _flat(r, -1)
        PHI = _rows(phi_val, d)
        est_val = v0.reshape(PHI.shape) - PHI
        est_w = w0 - phi_w

        # Phase 1: virtual sends into the active copy + incremental phi.
        es = senders * md + slots
        rows = 2 * es + C.take(es)
        half_val = est_val.take(senders, axis=0) * 0.5
        half_w = est_w.take(senders) * 0.5
        F[rows] += half_val
        FW[rows] += half_w
        PHI[senders] += half_val
        phi_w[senders] += half_w

        es, j, t = _delivered(delivered, es, receivers, r_slots)
        if not len(es):
            return 0, 0
        er = j * md + t

        # Phase 2: every read (sender payloads and receiver state) happens
        # before any delivery write: messages cross in flight.
        pc, pr = C.take(es), R.take(es)
        lc, lr = C.take(er), R.take(er)
        # (adopt) peer swapped first: take over its role assignment.
        lc = np.where((lc != pc) & (lr == pr), pc, lc)
        eq = lc == pc
        sa = 2 * es + lc  # payload active copy (for role-consistent messages)
        ra = 2 * er + lc  # local active copy
        sp, rp = sa ^ 1, ra ^ 1
        ga, gp = F.take(sa, axis=0), F.take(sp, axis=0)
        fa, fp = F.take(ra, axis=0), F.take(rp, axis=0)
        ga_w, gp_w, fa_w, fp_w = FW.take(sa), FW.take(sp), FW.take(ra), FW.take(rp)

        # Phase 3: the passive-copy handshake.
        conserved = _all_components(gp == -fp, d) & (gp_w == -fp_w)
        peer_zero = _all_components(gp == 0.0, d) & (gp_w == 0.0)
        cancel = eq & conserved & (lr == pr)
        swap = eq & ~cancel & peer_zero & (lr + 1 == pr)
        # (repair): conservation violated — treat the passive like an
        # active.
        repair = eq & ~cancel & ~swap & (lr <= pr)
        # (cancel)/(swap): zero the passive copy, advance the era; the
        # value stays absorbed in phi (no delta). Swap also flips roles.
        zero = cancel | swap

        # Combined phi delta per message (active PF repair + optional
        # passive repair), accumulated from 0.0 by subtraction like the
        # object engine; messages outside a branch keep a +0.0 delta.
        eq_d, repair_d = _per_row(eq, d), _per_row(repair, d)
        delta_val = np.where(eq_d, 0.0 - (fa + ga), 0.0)
        delta_w = np.where(eq, 0.0 - (fa_w + ga_w), 0.0)
        delta_val = np.where(repair_d, delta_val - (fp + gp), delta_val)
        delta_w = np.where(repair, delta_w - (fp_w + gp_w), delta_w)

        F[ra] = np.where(eq_d, -ga, fa)
        FW[ra] = np.where(eq, -ga_w, fa_w)
        F[rp] = np.where(_per_row(zero, d), 0.0, np.where(repair_d, -gp, fp))
        FW[rp] = np.where(zero, 0.0, np.where(repair, -gp_w, fp_w))
        C[er] = np.where(swap, 1 - lc, lc)
        R[er] = lr + zero
        # Accumulate phi in sender order.
        _add_rows(phi_val, phi_w, j, delta_val, delta_w)
        return int(np.count_nonzero(cancel)), int(np.count_nonzero(swap))

    def pcf_hardened_round(
        self,
        fval,
        fw,
        r,
        frozen_val,
        frozen_w,
        initiator,
        phi_val,
        phi_w,
        v0,
        w0,
        senders,
        slots,
        receivers,
        r_slots,
        delivered,
    ) -> Tuple[int, int]:
        md, d = r.shape[1], v0.shape[1]
        F, FW, R = _rows(fval, d), _flat(fw, -1), _flat(r, -1)
        FZ, FZW = _rows(frozen_val, d), _flat(frozen_w, -1)
        PHI = _rows(phi_val, d)
        est_val = v0.reshape(PHI.shape) - PHI
        est_w = w0 - phi_w

        # Phase 1: virtual sends into the era-derived active copy.
        es = senders * md + slots
        rows = 2 * es + R.take(es) % 2
        half_val = est_val.take(senders, axis=0) * 0.5
        half_w = est_w.take(senders) * 0.5
        F[rows] += half_val
        FW[rows] += half_w
        PHI[senders] += half_val
        phi_w[senders] += half_w

        es, j, t = _delivered(delivered, es, receivers, r_slots)
        if not len(es):
            return 0, 0
        er = j * md + t

        # Phase 2: all reads before any delivery write.
        pr, pfz, pfz_w = R.take(es), FZ.take(es, axis=0), FZW.take(es)
        lr, ini = R.take(er), _flat(initiator, -1).take(er)
        lz, lz_w = FZ.take(er, axis=0), FZW.take(er)
        # Boundary refresh: peer one era behind, at the initiator.
        boundary = (pr == lr - 1) & ini
        # Frozen-verified catch-up: peer one era ahead, at the follower.
        catch = (pr == lr + 1) & ~ini
        lr = lr + catch
        # Era-equal processing, including just-caught-up messages.
        eq = pr == lr
        follow = eq & ~ini
        passive = boundary | follow
        # Active copy of the (possibly advanced) era. A catch-up zeroes
        # exactly this copy, and the boundary refresh touches the other.
        sa = 2 * es + lr % 2
        ra = 2 * er + lr % 2
        sp, rp = sa ^ 1, ra ^ 1
        ga, gp = F.take(sa, axis=0), F.take(sp, axis=0)
        fa, fp = F.take(ra, axis=0), F.take(rp, axis=0)
        ga_w, gp_w, fa_w, fp_w = FW.take(sa), FW.take(sp), FW.take(ra), FW.take(rp)

        # Phase 3. Initiator: cancel when the follower mirrors exactly.
        conserved = _all_components(gp == -fp, d) & (gp_w == -fp_w)
        cancel = eq & ini & conserved

        # Phi delta from 0.0, in the object engine's order: catch-up term,
        # active PF repair (the caught-up copy reads its fresh 0.0), then
        # the passive term of the boundary refresh or the follower.
        catch_d, eq_d = _per_row(catch, d), _per_row(eq, d)
        passive_d, cancel_d = _per_row(passive, d), _per_row(cancel, d)
        delta_val = np.where(catch_d, 0.0 - (fa + pfz), 0.0)
        delta_w = np.where(catch, 0.0 - (fa_w + pfz_w), 0.0)
        delta_val = np.where(
            eq_d, delta_val - (np.where(catch_d, 0.0, fa) + ga), delta_val
        )
        delta_w = np.where(
            eq, delta_w - (np.where(catch, 0.0, fa_w) + ga_w), delta_w
        )
        delta_val = np.where(passive_d, delta_val - (fp + gp), delta_val)
        delta_w = np.where(passive, delta_w - (fp_w + gp_w), delta_w)

        F[ra] = np.where(eq_d, -ga, fa)
        FW[ra] = np.where(eq, -ga_w, fa_w)
        F[rp] = np.where(cancel_d, 0.0, np.where(passive_d, -gp, fp))
        FW[rp] = np.where(cancel, 0.0, np.where(passive, -gp_w, fp_w))
        FZ[er] = np.where(catch_d, -pfz, np.where(cancel_d, fp, lz))
        FZW[er] = np.where(catch, -pfz_w, np.where(cancel, fp_w, lz_w))
        R[er] = lr + cancel
        # Accumulate phi in sender order.
        _add_rows(phi_val, phi_w, j, delta_val, delta_w)
        return int(np.count_nonzero(cancel)), int(np.count_nonzero(catch))
