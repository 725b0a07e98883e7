"""Reference image-source synthesis: the full-lattice, one-mic-at-a-time algorithm.

Every image of the lattice cube gets its gain, directivity (``arccos``
followed by the pattern law) and, in sinc mode, a 65-tap ``np.sinc`` x Hann
kernel evaluated tap by tap, before any image is discarded.  The engine in
``roomforge.image_source`` prunes, batches microphones and uses closed forms;
tests compare it against this.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import butter, sosfilt

from roomforge.core import directivity_gain
from roomforge.image_source import SINC_HALF_WIDTH, _resolve_reflectivity


def _axis_images(src, length, n_max):
    n = np.arange(-n_max, n_max + 1)
    coords, hits0, hits1, signs = [], [], [], []
    for p in (0, 1):
        coords.append(2.0 * n * length + (1 - 2 * p) * src)
        hits0.append(np.abs(n - p))
        hits1.append(np.abs(n))
        signs.append(np.full(n.shape, 1 - 2 * p))
    return (
        np.concatenate(coords),
        np.concatenate(hits0),
        np.concatenate(hits1),
        np.concatenate(signs),
    )


def reference_rir(room, source, mic, config, sample_rate):
    """IR samples between ``source`` and ``mic``; geometry is assumed valid."""
    c = room.speed_of_sound
    betas = _resolve_reflectivity(room)
    n_out = int(round(config.ir_length * sample_rate))

    if config.max_reflection_order == "auto":
        max_dist = c * config.ir_length
        n_maxes = [int(math.ceil(max_dist / (2.0 * L))) + 1 for L in room.dimensions]
        order_cap = None
    else:
        order = int(config.max_reflection_order)
        n_maxes = [order // 2 + 1] * 3
        order_cap = order

    per_axis = [
        _axis_images(source.position[d], room.dimensions[d], n_maxes[d]) for d in range(3)
    ]
    mic_pos = np.asarray(mic.position)

    def bc(arr, axis):
        shape = [1, 1, 1]
        shape[axis] = arr.size
        return arr.reshape(shape)

    dx = mic_pos[0] - bc(per_axis[0][0], 0)
    dy = mic_pos[1] - bc(per_axis[1][0], 1)
    dz = mic_pos[2] - bc(per_axis[2][0], 2)
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)

    att = (
        bc(betas[0] ** per_axis[0][1] * betas[1] ** per_axis[0][2], 0)
        * bc(betas[2] ** per_axis[1][1] * betas[3] ** per_axis[1][2], 1)
        * bc(betas[4] ** per_axis[2][1] * betas[5] ** per_axis[2][2], 2)
    )
    counts = (
        bc(per_axis[0][1] + per_axis[0][2], 0)
        + bc(per_axis[1][1] + per_axis[1][2], 1)
        + bc(per_axis[2][1] + per_axis[2][2], 2)
    )
    if config.negative_reflection:
        att = att * np.where(counts % 2 == 0, 1.0, -1.0)
    if order_cap is not None:
        att = np.where(counts <= order_cap, att, 0.0)

    pattern = source.directivity
    if pattern.pattern != "omnidirectional":
        ori = source.orientation
        cos_theta = (
            ori[0] * bc(per_axis[0][3], 0) * dx
            + ori[1] * bc(per_axis[1][3], 1) * dy
            + ori[2] * bc(per_axis[2][3], 2) * dz
        ) / dist
        theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
        att = att * directivity_gain(pattern, theta)

    amps = (att / (4.0 * np.pi * dist)).ravel()
    delays = (dist / c).ravel() * sample_rate

    ir = np.zeros(n_out)
    if config.fractional_delay == "nearest":
        taps = np.round(delays).astype(np.int64)
        keep = (taps >= 0) & (taps < n_out) & (amps != 0.0)
        np.add.at(ir, taps[keep], amps[keep])
    else:
        keep = (delays < n_out + SINC_HALF_WIDTH) & (amps != 0.0)
        delays_k = delays[keep]
        amps_k = amps[keep]
        offsets = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
        for start in range(0, delays_k.size, 65536):
            d_blk = delays_k[start : start + 65536, np.newaxis]
            a_blk = amps_k[start : start + 65536, np.newaxis]
            centers = np.round(d_blk).astype(np.int64) + offsets
            frac = centers - d_blk
            window = 0.5 * (1.0 + np.cos(np.pi * frac / (SINC_HALF_WIDTH + 1)))
            taps = a_blk * np.sinc(frac) * window
            idx = centers.ravel()
            vals = taps.ravel()
            ok = (idx >= 0) & (idx < n_out)
            np.add.at(ir, idx[ok], vals[ok])

    if config.highpass_hz > 0:
        sos = butter(2, config.highpass_hz, btype="highpass", fs=sample_rate, output="sos")
        ir = sosfilt(sos, ir)
    return ir
