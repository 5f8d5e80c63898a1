//! Data-instruction semantics, split into its resolve-time and run-time
//! halves.
//!
//! * **Resolve time** — [`accesses`] derives the operand ranges of an
//!   interpreted [`Inst`]; the compiled tier gets the same information
//!   pre-computed in a [`DataOp`]'s [`OperandSpec`]s, leaving only
//!   register-indirect addresses ([`spec_addr`]) for run time.
//! * **Run time** — the arithmetic kernels ([`kernels`]) operate on plain
//!   slices and are shared verbatim by both tiers: [`execute`] (the
//!   interpreter, which re-derives everything per step) and
//!   [`execute_data`] (the compiled tier, which dispatches directly on the
//!   lowered [`DataForm`]) route to the same code, so the two tiers are
//!   bit-identical by construction.
//!
//! Operand locations are the typed [`Loc`] — external memory is a variant,
//! not a sentinel tile index.

use crate::error::{Error, Result};
use scaledeep_isa::micro::{DataForm, DataOp, OperandSpec};
use scaledeep_isa::{samp_out, ActKind, Addr, Inst, Loc, MemRef, PoolMode, Reg};

/// A resolved operand range: location, element offset, element length.
pub(super) type Range = (Loc, u32, u32);

/// The tracked accesses one data instruction performs.
#[derive(Debug, Default, Clone)]
pub(super) struct Access {
    pub reads: Vec<Range>,
    pub writes: Vec<Range>,
}

/// Resolves an operand address: immediates pass through, register-indirect
/// addresses read the register file.
pub(super) fn spec_addr(addr: Addr, regs: &[i64], program: &str) -> Result<u32> {
    match addr {
        Addr::Imm(a) => Ok(a),
        Addr::Reg(r) => {
            let v = regs[r.index()];
            u32::try_from(v).map_err(|_| Error::ControlFault {
                program: program.to_string(),
                detail: format!("register {r} holds invalid address {v}"),
            })
        }
    }
}

fn resolve(m: MemRef, regs: &[i64], program: &str) -> Result<(Loc, u32)> {
    Ok((m.tile.into(), spec_addr(m.addr, regs, program)?))
}

/// Resolves the tracked ranges of a data instruction; `None` for scalar,
/// control and tracker instructions.
pub(super) fn accesses(inst: &Inst, regs: &[i64], program: &str) -> Result<Option<Access>> {
    let r = |m: MemRef, len: u32, regs: &[i64]| -> Result<Range> {
        let (loc, addr) = resolve(m, regs, program)?;
        Ok((loc, addr, len))
    };
    let acc = match *inst {
        Inst::NdConv {
            input,
            in_h,
            in_w,
            kernel,
            k,
            lanes,
            output,
            out_h,
            out_w,
            ..
        } => {
            let in_len = u32::from(in_h) * u32::from(in_w);
            let ker_len = u32::from(lanes) * u32::from(k) * u32::from(k);
            let out_len = u32::from(lanes) * u32::from(out_h) * u32::from(out_w);
            Access {
                reads: vec![r(input, in_len, regs)?, r(kernel, ker_len, regs)?],
                writes: vec![r(output, out_len, regs)?],
            }
        }
        Inst::MatMul {
            input,
            n_in,
            matrix,
            rows,
            output,
            ..
        } => Access {
            reads: vec![r(input, n_in, regs)?, r(matrix, rows * n_in, regs)?],
            writes: vec![r(output, rows, regs)?],
        },
        Inst::NdActFn { src, len, dst, .. } => Access {
            reads: vec![r(src, len, regs)?],
            writes: vec![r(dst, len, regs)?],
        },
        Inst::NdActBwd {
            pre, err, len, dst, ..
        } => Access {
            reads: vec![r(pre, len, regs)?, r(err, len, regs)?],
            writes: vec![r(dst, len, regs)?],
        },
        Inst::NdSubsamp {
            src,
            in_h,
            in_w,
            window,
            stride,
            pad,
            ceil,
            dst,
            ..
        } => {
            let oh = samp_out(
                in_h as usize,
                window as usize,
                stride as usize,
                pad as usize,
                ceil,
            );
            let ow = samp_out(
                in_w as usize,
                window as usize,
                stride as usize,
                pad as usize,
                ceil,
            );
            Access {
                reads: vec![r(src, u32::from(in_h) * u32::from(in_w), regs)?],
                writes: vec![r(dst, (oh * ow) as u32, regs)?],
            }
        }
        Inst::NdUpsamp {
            err,
            fwd,
            in_h,
            in_w,
            window,
            stride,
            pad,
            ceil,
            dst,
            ..
        } => {
            let oh = samp_out(
                in_h as usize,
                window as usize,
                stride as usize,
                pad as usize,
                ceil,
            );
            let ow = samp_out(
                in_w as usize,
                window as usize,
                stride as usize,
                pad as usize,
                ceil,
            );
            let in_len = u32::from(in_h) * u32::from(in_w);
            Access {
                reads: vec![r(err, (oh * ow) as u32, regs)?, r(fwd, in_len, regs)?],
                writes: vec![r(dst, in_len, regs)?],
            }
        }
        Inst::NdAcc { dst, src, len } => Access {
            reads: vec![r(src, len, regs)?],
            writes: vec![r(dst, len, regs)?],
        },
        Inst::VecScaleAcc {
            src,
            len,
            scalar,
            dst,
            elementwise,
        } => Access {
            reads: vec![
                r(src, len, regs)?,
                r(scalar, if elementwise { len } else { 1 }, regs)?,
            ],
            writes: vec![r(dst, len, regs)?],
        },
        Inst::DmaLoad { src, dst, len, .. }
        | Inst::DmaStore { src, dst, len, .. }
        | Inst::Prefetch { src, dst, len }
        | Inst::PassBuff { src, dst, len } => Access {
            reads: vec![r(src, len, regs)?],
            writes: vec![r(dst, len, regs)?],
        },
        _ => return Ok(None),
    };
    Ok(Some(acc))
}

/// Memory view used during execution: on-chip tiles plus external memory.
pub(super) struct MemView<'a> {
    pub tiles: &'a mut [Vec<f32>],
    pub ext: &'a mut Vec<f32>,
}

impl MemView<'_> {
    fn slice(&mut self, loc: Loc, addr: u32, len: u32, program: &str) -> Result<&mut [f32]> {
        let (mem, cap): (&mut Vec<f32>, usize) = match loc {
            Loc::External => {
                let cap = self.ext.len();
                (self.ext, cap)
            }
            Loc::Tile(tile) => {
                let m = self
                    .tiles
                    .get_mut(tile as usize)
                    .ok_or_else(|| Error::ControlFault {
                        program: program.to_string(),
                        detail: format!("tile M{tile} does not exist"),
                    })?;
                let cap = m.len();
                (m, cap)
            }
        };
        let end = addr as u64 + len as u64;
        if end > cap as u64 {
            return Err(Error::OutOfBounds {
                program: program.to_string(),
                tile: loc.tile().unwrap_or(u16::MAX),
                addr: end,
                capacity: cap as u32,
            });
        }
        Ok(&mut mem[addr as usize..(addr + len) as usize])
    }

    fn copy(&mut self, loc: Loc, addr: u32, len: u32, program: &str) -> Result<Vec<f32>> {
        Ok(self.slice(loc, addr, len, program)?.to_vec())
    }

    /// Copies a range into a reusable scratch buffer (the compiled tier's
    /// allocation-free read path). The value sequence is identical to
    /// [`MemView::copy`].
    fn copy_into(
        &mut self,
        loc: Loc,
        addr: u32,
        len: u32,
        buf: &mut Vec<f32>,
        program: &str,
    ) -> Result<()> {
        let src = self.slice(loc, addr, len, program)?;
        buf.clear();
        buf.extend_from_slice(src);
        Ok(())
    }
}

/// The run loop's reusable buffers. `bufs` hold the compiled tier's read
/// operands: data micro-ops have at most two reads, and reads are always
/// copied out before the write slice is formed (preserving the
/// interpreter's overlap semantics), so two buffers per run loop suffice.
/// `acc` is the staged convolution's per-lane accumulator (see
/// [`kernels::conv_staged`]). `tracked` holds the `(tile, addr, len)`
/// tracker ranges of the last step of either tier: the extents its
/// tracker records touched when it executed, or its operand ranges when
/// it blocked. `woken` holds the waiters one of those extents woke
/// ([`WaitMap::wake_overlapping`]).
///
/// [`WaitMap::wake_overlapping`]: crate::engine::WaitMap::wake_overlapping
#[derive(Debug, Default)]
pub(super) struct Scratch {
    bufs: [Vec<f32>; 2],
    acc: Vec<f32>,
    pub(super) tracked: Vec<(u16, u32, u32)>,
    pub(super) woken: Vec<usize>,
}

/// The arithmetic kernels. Most are shared verbatim by the interpreter
/// and the compiled tier: both copy their read operands out, then run
/// these over plain slices. Convolution is the exception: the
/// interpreter runs the simple per-MAC reference [`kernels::conv`] (the
/// bit-identity oracle), while the compiled tier runs the staged
/// [`kernels::conv_staged`] — the same floating-point operations in the
/// same per-output order, restructured into branch-free row sweeps the
/// compiler can vectorize. Their bit-equality is pinned by
/// `conv_staged_matches_reference_bit_for_bit` and by every
/// tier-cross-check above this layer.
mod kernels {
    use super::{act_derivative, apply_act, ActKind, PoolMode};

    /// `v` with its quiet bit set (sign and payload preserved) —
    /// what x86 returns when it propagates a NaN operand.
    fn quiet(v: f32) -> f32 {
        f32::from_bits(v.to_bits() | 0x0040_0000)
    }

    /// The x86 default quiet NaN ("real indefinite"), produced by
    /// invalid operations like `inf * 0` or `inf - inf`. Note the
    /// sign bit is set.
    const INDEFINITE: u32 = 0xFFC0_0000;

    /// Multiply with source-level-deterministic NaN results: a NaN
    /// operand propagates in operand order (first wins, quietized), a
    /// fresh invalid canonicalizes to the hardware default. For
    /// non-NaN results this is exactly `a * b`.
    ///
    /// Why this exists: LLVM treats the sign/payload of a NaN
    /// produced by `fadd`/`fmul` as nondeterministic and will commute
    /// operands under optimization, so two textually-identical
    /// accumulation loops can disagree on a NaN's sign bit depending
    /// on how each inlining site was vectorized (observed in release
    /// builds only). Source operand order cannot pin it; this helper
    /// can, because the NaN case is decided by explicit branches.
    fn mul_det(a: f32, b: f32) -> f32 {
        let p = a * b;
        if p.is_nan() {
            if a.is_nan() {
                return quiet(a);
            }
            if b.is_nan() {
                return quiet(b);
            }
            return f32::from_bits(INDEFINITE);
        }
        p
    }

    /// Add with source-level-deterministic NaN results; see
    /// [`mul_det`].
    fn add_det(a: f32, b: f32) -> f32 {
        let s = a + b;
        if s.is_nan() {
            if a.is_nan() {
                return quiet(a);
            }
            if b.is_nan() {
                return quiet(b);
            }
            return f32::from_bits(INDEFINITE);
        }
        s
    }

    /// Recomputes one convolution output element in the reference tap
    /// order with [`mul_det`]/[`add_det`], giving a bit-deterministic
    /// result even when NaNs flow through the accumulation. Both conv
    /// kernels fall back to this for any output that lands on NaN, so
    /// their NaN bits agree by construction at every optimization
    /// level. `init` is the destination's pre-call value (used only
    /// when `accumulate`).
    #[allow(clippy::too_many_arguments)]
    fn conv_element_det(
        x: &[f32],
        ker: &[f32],
        init: f32,
        ih: usize,
        iw: usize,
        oy: usize,
        ox: usize,
        k: usize,
        stride: usize,
        pad: usize,
        accumulate: bool,
        flip: bool,
    ) -> f32 {
        let mut sum = 0.0f32;
        for ky in 0..k {
            let iy = (oy * stride + ky) as isize - pad as isize;
            if iy < 0 || iy >= ih as isize {
                continue;
            }
            for kx in 0..k {
                let ix = (ox * stride + kx) as isize - pad as isize;
                if ix < 0 || ix >= iw as isize {
                    continue;
                }
                let kv = if flip {
                    ker[(k - 1 - ky) * k + (k - 1 - kx)]
                } else {
                    ker[ky * k + kx]
                };
                sum = add_det(sum, mul_det(x[iy as usize * iw + ix as usize], kv));
            }
        }
        if accumulate {
            add_det(init, sum)
        } else {
            sum
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn conv(
        x: &[f32],
        kers: &[f32],
        out: &mut [f32],
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
        k: usize,
        stride: usize,
        pad: usize,
        lanes: usize,
        accumulate: bool,
        flip: bool,
    ) {
        for lane in 0..lanes {
            let ker = &kers[lane * k * k..(lane + 1) * k * k];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut sum = 0.0f32;
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= ih as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= iw as isize {
                                continue;
                            }
                            let kv = if flip {
                                ker[(k - 1 - ky) * k + (k - 1 - kx)]
                            } else {
                                ker[ky * k + kx]
                            };
                            sum += x[iy as usize * iw + ix as usize] * kv;
                        }
                    }
                    let o = &mut out[lane * oh * ow + oy * ow + ox];
                    let c = if accumulate { *o + sum } else { sum };
                    *o = if c.is_nan() {
                        conv_element_det(
                            x, ker, *o, ih, iw, oy, ox, k, stride, pad, accumulate, flip,
                        )
                    } else {
                        c
                    };
                }
            }
        }
    }

    /// The compiled tier's convolution: bit-identical to [`conv`], fast.
    ///
    /// [`conv`] walks every (output, kernel-tap) pair and bounds-checks
    /// each tap. This version picks one of two restructurings by shape —
    /// both preserve, per output element, exactly the reference's
    /// floating-point sequence (taps in ascending `(ky, kx)` order
    /// accumulated from 0.0, then one combine with the destination), so
    /// every non-NaN result — zero-valued taps are never skipped — is
    /// bit-identical by construction. Outputs that land on NaN are
    /// recomputed by [`conv_element_det`] in every kernel (reference
    /// included), because optimized code may commute a two-NaN
    /// `fadd`/`fmul` and flip the surviving NaN's sign (see
    /// [`mul_det`]):
    ///
    /// * **Tap sweep** (wide outputs, the FP/BP shapes): loops are
    ///   interchanged — kernel taps outside, outputs inside — so each tap
    ///   contributes one branch-free sweep over a contiguous output row.
    ///   Interchange alone would change an `accumulate` destination's
    ///   addition order, so each lane stages into the zeroed `tmp`
    ///   accumulator and folds into `out` at the end.
    /// * **Row dot** (small outputs with large kernels, the WG shape,
    ///   where per-tap sweeps degenerate to a few elements): per output,
    ///   the valid tap rectangle is computed once and each kernel row
    ///   becomes one branch-free slice dot in ascending `kx` order.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn conv_staged(
        x: &[f32],
        kers: &[f32],
        out: &mut [f32],
        tmp: &mut Vec<f32>,
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
        k: usize,
        stride: usize,
        pad: usize,
        lanes: usize,
        accumulate: bool,
        flip: bool,
    ) {
        let stride = stride.max(1);
        if ow >= k {
            conv_tap_sweep(
                x, kers, out, tmp, ih, iw, oh, ow, k, stride, pad, lanes, accumulate, flip,
            );
        } else {
            conv_row_dot(
                x, kers, out, ih, iw, oh, ow, k, stride, pad, lanes, accumulate, flip,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_tap_sweep(
        x: &[f32],
        kers: &[f32],
        out: &mut [f32],
        tmp: &mut Vec<f32>,
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
        k: usize,
        stride: usize,
        pad: usize,
        lanes: usize,
        accumulate: bool,
        flip: bool,
    ) {
        tmp.clear();
        tmp.resize(oh * ow, 0.0);
        for lane in 0..lanes {
            let ker = &kers[lane * k * k..(lane + 1) * k * k];
            tmp.fill(0.0);
            for ky in 0..k {
                for kx in 0..k {
                    let kv = if flip {
                        ker[(k - 1 - ky) * k + (k - 1 - kx)]
                    } else {
                        ker[ky * k + kx]
                    };
                    // Valid output columns for this tap:
                    // 0 <= ox*stride + kx - pad < iw.
                    let ox_lo = if kx >= pad {
                        0
                    } else {
                        (pad - kx).div_ceil(stride)
                    };
                    let ox_hi = if iw + pad > kx {
                        ow.min((iw + pad - kx - 1) / stride + 1)
                    } else {
                        0
                    };
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= ih as isize {
                            continue;
                        }
                        let row = iy as usize * iw;
                        let trow = &mut tmp[oy * ow + ox_lo..oy * ow + ox_hi];
                        if stride == 1 {
                            let xrow = &x[row + ox_lo + kx - pad..row + ox_hi - 1 + kx - pad + 1];
                            for (t, xv) in trow.iter_mut().zip(xrow) {
                                *t += xv * kv;
                            }
                        } else {
                            for (i, t) in trow.iter_mut().enumerate() {
                                *t += x[row + (ox_lo + i) * stride + kx - pad] * kv;
                            }
                        }
                    }
                }
            }
            let out_lane = &mut out[lane * oh * ow..(lane + 1) * oh * ow];
            for (i, (o, t)) in out_lane.iter_mut().zip(tmp.iter()).enumerate() {
                let c = if accumulate { *o + t } else { *t };
                *o = if c.is_nan() {
                    conv_element_det(
                        x,
                        ker,
                        *o,
                        ih,
                        iw,
                        i / ow,
                        i % ow,
                        k,
                        stride,
                        pad,
                        accumulate,
                        flip,
                    )
                } else {
                    c
                };
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_row_dot(
        x: &[f32],
        kers: &[f32],
        out: &mut [f32],
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
        k: usize,
        stride: usize,
        pad: usize,
        lanes: usize,
        accumulate: bool,
        flip: bool,
    ) {
        for lane in 0..lanes {
            let ker = &kers[lane * k * k..(lane + 1) * k * k];
            for oy in 0..oh {
                let base_y = oy * stride;
                // Valid kernel rows: 0 <= base_y + ky - pad < ih.
                let ky_lo = pad.saturating_sub(base_y);
                let ky_hi = k.min((ih + pad).saturating_sub(base_y));
                for ox in 0..ow {
                    let base_x = ox * stride;
                    let kx_lo = pad.saturating_sub(base_x);
                    let kx_hi = k.min((iw + pad).saturating_sub(base_x));
                    let mut sum = 0.0f32;
                    if kx_lo < kx_hi {
                        for ky in ky_lo..ky_hi {
                            let row = (base_y + ky - pad) * iw;
                            let xrow = &x[row + base_x + kx_lo - pad..row + base_x + kx_hi - pad];
                            if flip {
                                let fr = (k - 1 - ky) * k;
                                let krow = &ker[fr + k - kx_hi..fr + k - kx_lo];
                                for (xv, kv) in xrow.iter().zip(krow.iter().rev()) {
                                    sum += xv * kv;
                                }
                            } else {
                                let krow = &ker[ky * k + kx_lo..ky * k + kx_hi];
                                for (xv, kv) in xrow.iter().zip(krow) {
                                    sum += xv * kv;
                                }
                            }
                        }
                    }
                    let o = &mut out[lane * oh * ow + oy * ow + ox];
                    let c = if accumulate { *o + sum } else { sum };
                    *o = if c.is_nan() {
                        conv_element_det(
                            x, ker, *o, ih, iw, oy, ox, k, stride, pad, accumulate, flip,
                        )
                    } else {
                        c
                    };
                }
            }
        }
    }

    pub(super) fn matmul(x: &[f32], w: &[f32], out: &mut [f32], n_in: usize, accumulate: bool) {
        for (o, row) in out.iter_mut().zip(w.chunks_exact(n_in)) {
            let dot: f32 = row.iter().zip(x).map(|(a, b)| a * b).sum();
            if accumulate {
                *o += dot;
            } else {
                *o = dot;
            }
        }
    }

    pub(super) fn act(kind: ActKind, x: &[f32], out: &mut [f32]) {
        for (o, v) in out.iter_mut().zip(x) {
            *o = apply_act(kind, *v);
        }
    }

    pub(super) fn act_bwd(kind: ActKind, z: &[f32], e: &[f32], out: &mut [f32]) {
        for ((o, z), e) in out.iter_mut().zip(z).zip(e) {
            *o = e * act_derivative(kind, *z);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn subsamp(
        mode: PoolMode,
        x: &[f32],
        out: &mut [f32],
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
        win: usize,
        stride: usize,
        pad: usize,
    ) {
        // The valid window rows/cols are precomputed per output so the
        // inner sweep is a branch-free pass over contiguous input rows;
        // the traversal order (ascending wy, wx over the valid taps) is
        // the natural one, so `sum`'s accumulation sequence — and with
        // it every result bit — is independent of this restructuring.
        for oy in 0..oh {
            let base_y = oy * stride;
            let wy_lo = pad.saturating_sub(base_y);
            let wy_hi = win.min((ih + pad).saturating_sub(base_y));
            for ox in 0..ow {
                let base_x = ox * stride;
                let wx_lo = pad.saturating_sub(base_x);
                let wx_hi = win.min((iw + pad).saturating_sub(base_x));
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                if wx_lo < wx_hi {
                    for wy in wy_lo..wy_hi {
                        let row = (base_y + wy - pad) * iw;
                        for v in &x[row + base_x + wx_lo - pad..row + base_x + wx_hi - pad] {
                            best = best.max(*v);
                            sum += v;
                        }
                    }
                }
                let n = wy_hi.saturating_sub(wy_lo) * wx_hi.saturating_sub(wx_lo);
                out[oy * ow + ox] = match (mode, n) {
                    (_, 0) => 0.0,
                    (PoolMode::Max, _) => best,
                    (PoolMode::Avg, _) => sum / n as f32,
                };
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn upsamp(
        mode: PoolMode,
        e: &[f32],
        x: &[f32],
        out: &mut [f32],
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
        win: usize,
        stride: usize,
        pad: usize,
    ) {
        // Same valid-range precomputation as `subsamp`, with no per-pixel
        // index buffer: max mode tracks the argmax directly, avg mode
        // counts the window population and then re-walks the same taps in
        // the same order to distribute the share — so every `out[idx]`
        // receives its additions in the exact sequence the original
        // collect-then-scatter form produced.
        for oy in 0..oh {
            let base_y = oy * stride;
            let wy_lo = pad.saturating_sub(base_y);
            let wy_hi = win.min((ih + pad).saturating_sub(base_y));
            for ox in 0..ow {
                let base_x = ox * stride;
                let wx_lo = pad.saturating_sub(base_x);
                let wx_hi = win.min((iw + pad).saturating_sub(base_x));
                let ev = e[oy * ow + ox];
                match mode {
                    PoolMode::Max => {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = None;
                        for wy in wy_lo..wy_hi {
                            let row = (base_y + wy - pad) * iw;
                            for wx in wx_lo..wx_hi {
                                let idx = row + base_x + wx - pad;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = Some(idx);
                                }
                            }
                        }
                        if let Some(idx) = best_idx {
                            out[idx] += ev;
                        }
                    }
                    PoolMode::Avg => {
                        let n = wy_hi.saturating_sub(wy_lo) * wx_hi.saturating_sub(wx_lo);
                        let share = ev / n.max(1) as f32;
                        if wx_lo < wx_hi {
                            for wy in wy_lo..wy_hi {
                                let row = (base_y + wy - pad) * iw;
                                for o in
                                    &mut out[row + base_x + wx_lo - pad..row + base_x + wx_hi - pad]
                                {
                                    *o += share;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    pub(super) fn acc(x: &[f32], out: &mut [f32]) {
        for (o, v) in out.iter_mut().zip(x) {
            *o += v;
        }
    }

    pub(super) fn scale_acc(x: &[f32], scales: &[f32], out: &mut [f32], elementwise: bool) {
        for (i, (o, v)) in out.iter_mut().zip(x).enumerate() {
            let s = if elementwise { scales[i] } else { scales[0] };
            *o += s * v;
        }
    }

    pub(super) fn copy(x: &[f32], out: &mut [f32], accumulate: bool) {
        if accumulate {
            for (o, v) in out.iter_mut().zip(x) {
                *o += v;
            }
        } else {
            out.copy_from_slice(x);
        }
    }
}

/// Executes one data instruction (the interpreter tier): operands are
/// resolved from the instruction, reads copied out, and the shared kernel
/// applied. Bounds are checked on access.
pub(super) fn execute(
    inst: &Inst,
    regs: &[i64],
    mem: &mut MemView<'_>,
    program: &str,
) -> Result<()> {
    match *inst {
        Inst::NdConv {
            input,
            in_h,
            in_w,
            kernel,
            k,
            stride,
            pad,
            lanes,
            output,
            out_h,
            out_w,
            accumulate,
            flip,
        } => {
            let (il, ia) = resolve(input, regs, program)?;
            let (kl, ka) = resolve(kernel, regs, program)?;
            let (ol, oa) = resolve(output, regs, program)?;
            let (ih, iw) = (in_h as usize, in_w as usize);
            let (oh, ow) = (out_h as usize, out_w as usize);
            let (k, stride, pad) = (k as usize, stride as usize, pad as usize);
            let x = mem.copy(il, ia, (ih * iw) as u32, program)?;
            let kers = mem.copy(kl, ka, (lanes as usize * k * k) as u32, program)?;
            let out = mem.slice(ol, oa, (lanes as usize * oh * ow) as u32, program)?;
            kernels::conv(
                &x,
                &kers,
                out,
                ih,
                iw,
                oh,
                ow,
                k,
                stride,
                pad,
                lanes as usize,
                accumulate,
                flip,
            );
        }
        Inst::MatMul {
            input,
            n_in,
            matrix,
            rows,
            output,
            accumulate,
        } => {
            let (il, ia) = resolve(input, regs, program)?;
            let (ml, ma) = resolve(matrix, regs, program)?;
            let (ol, oa) = resolve(output, regs, program)?;
            let x = mem.copy(il, ia, n_in, program)?;
            let w = mem.copy(ml, ma, rows * n_in, program)?;
            let out = mem.slice(ol, oa, rows, program)?;
            kernels::matmul(&x, &w, out, n_in as usize, accumulate);
        }
        Inst::NdActFn {
            kind,
            src,
            len,
            dst,
        } => {
            let (sl, sa) = resolve(src, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let x = mem.copy(sl, sa, len, program)?;
            let out = mem.slice(dl, da, len, program)?;
            kernels::act(kind, &x, out);
        }
        Inst::NdActBwd {
            kind,
            pre,
            err,
            len,
            dst,
        } => {
            let (pl, pa) = resolve(pre, regs, program)?;
            let (el, ea) = resolve(err, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let z = mem.copy(pl, pa, len, program)?;
            let e = mem.copy(el, ea, len, program)?;
            let out = mem.slice(dl, da, len, program)?;
            kernels::act_bwd(kind, &z, &e, out);
        }
        Inst::NdSubsamp {
            mode,
            src,
            in_h,
            in_w,
            window,
            stride,
            pad,
            ceil,
            dst,
        } => {
            let (sl, sa) = resolve(src, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let (ih, iw) = (in_h as usize, in_w as usize);
            let (win, stride, pad) = (window as usize, stride as usize, pad as usize);
            let oh = samp_out(ih, win, stride, pad, ceil);
            let ow = samp_out(iw, win, stride, pad, ceil);
            let x = mem.copy(sl, sa, (ih * iw) as u32, program)?;
            let out = mem.slice(dl, da, (oh * ow) as u32, program)?;
            kernels::subsamp(mode, &x, out, ih, iw, oh, ow, win, stride, pad);
        }
        Inst::NdUpsamp {
            mode,
            err,
            fwd,
            in_h,
            in_w,
            window,
            stride,
            pad,
            ceil,
            dst,
        } => {
            let (el, ea) = resolve(err, regs, program)?;
            let (fl, fa) = resolve(fwd, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let (ih, iw) = (in_h as usize, in_w as usize);
            let (win, stride, pad) = (window as usize, stride as usize, pad as usize);
            let oh = samp_out(ih, win, stride, pad, ceil);
            let ow = samp_out(iw, win, stride, pad, ceil);
            let e = mem.copy(el, ea, (oh * ow) as u32, program)?;
            let x = mem.copy(fl, fa, (ih * iw) as u32, program)?;
            let out = mem.slice(dl, da, (ih * iw) as u32, program)?;
            kernels::upsamp(mode, &e, &x, out, ih, iw, oh, ow, win, stride, pad);
        }
        Inst::NdAcc { dst, src, len } => {
            let (sl, sa) = resolve(src, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let x = mem.copy(sl, sa, len, program)?;
            let out = mem.slice(dl, da, len, program)?;
            kernels::acc(&x, out);
        }
        Inst::VecScaleAcc {
            src,
            len,
            scalar,
            dst,
            elementwise,
        } => {
            let (sl, sa) = resolve(src, regs, program)?;
            let (cl, ca) = resolve(scalar, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let x = mem.copy(sl, sa, len, program)?;
            let scales = mem.copy(cl, ca, if elementwise { len } else { 1 }, program)?;
            let out = mem.slice(dl, da, len, program)?;
            kernels::scale_acc(&x, &scales, out, elementwise);
        }
        Inst::DmaLoad {
            src,
            dst,
            len,
            accumulate,
        }
        | Inst::DmaStore {
            src,
            dst,
            len,
            accumulate,
        } => {
            let (sl, sa) = resolve(src, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let x = mem.copy(sl, sa, len, program)?;
            let out = mem.slice(dl, da, len, program)?;
            kernels::copy(&x, out, accumulate);
        }
        Inst::Prefetch { src, dst, len } | Inst::PassBuff { src, dst, len } => {
            let (sl, sa) = resolve(src, regs, program)?;
            let (dl, da) = resolve(dst, regs, program)?;
            let x = mem.copy(sl, sa, len, program)?;
            let out = mem.slice(dl, da, len, program)?;
            kernels::copy(&x, out, false);
        }
        _ => {
            return Err(Error::ControlFault {
                program: program.to_string(),
                detail: format!("not a data instruction: {inst}"),
            })
        }
    }
    Ok(())
}

/// Executes one lowered data micro-op (the compiled tier): operand
/// addresses were resolved by the caller ([`spec_addr`] per operand, in
/// reads-then-write order), reads are copied into the run loop's
/// [`Scratch`] buffers, and the same kernels as [`execute`] apply.
pub(super) fn execute_data(
    op: &DataOp,
    read_addrs: &[u32],
    write_addr: u32,
    mem: &mut MemView<'_>,
    scratch: &mut Scratch,
    program: &str,
) -> Result<()> {
    let Scratch {
        bufs: [a, b], acc, ..
    } = scratch;
    debug_assert_eq!(op.reads.len(), read_addrs.len());
    for ((spec, &addr), buf) in op.reads.iter().zip(read_addrs).zip([&mut *a, &mut *b]) {
        mem.copy_into(spec.loc, addr, spec.len, buf, program)?;
    }
    let w: &OperandSpec = &op.write;
    let out = mem.slice(w.loc, write_addr, w.len, program)?;
    match op.form {
        DataForm::Conv {
            in_h,
            in_w,
            k,
            stride,
            pad,
            lanes,
            out_h,
            out_w,
            accumulate,
            flip,
        } => kernels::conv_staged(
            a, b, out, acc, in_h, in_w, out_h, out_w, k, stride, pad, lanes, accumulate, flip,
        ),
        DataForm::MatMul { n_in, accumulate } => kernels::matmul(a, b, out, n_in, accumulate),
        DataForm::ActFn { kind } => kernels::act(kind, a, out),
        DataForm::ActBwd { kind } => kernels::act_bwd(kind, a, b, out),
        DataForm::Subsamp {
            mode,
            in_h,
            in_w,
            window,
            stride,
            pad,
            out_h,
            out_w,
        } => kernels::subsamp(mode, a, out, in_h, in_w, out_h, out_w, window, stride, pad),
        DataForm::Upsamp {
            mode,
            in_h,
            in_w,
            window,
            stride,
            pad,
            out_h,
            out_w,
        } => kernels::upsamp(
            mode, a, b, out, in_h, in_w, out_h, out_w, window, stride, pad,
        ),
        DataForm::Acc => kernels::acc(a, out),
        DataForm::ScaleAcc { elementwise } => kernels::scale_acc(a, b, out, elementwise),
        DataForm::Copy { accumulate } => kernels::copy(a, out, accumulate),
    }
    Ok(())
}

fn apply_act(kind: ActKind, v: f32) -> f32 {
    match kind {
        ActKind::Relu => v.max(0.0),
        ActKind::Tanh => v.tanh(),
        ActKind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
    }
}

fn act_derivative(kind: ActKind, z: f32) -> f32 {
    match kind {
        ActKind::Relu => {
            if z > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        ActKind::Tanh => {
            let t = z.tanh();
            1.0 - t * t
        }
        ActKind::Sigmoid => {
            let s = 1.0 / (1.0 + (-z).exp());
            s * (1.0 - s)
        }
    }
}

/// Executes a scalar-control instruction, returning the next pc.
pub(super) fn execute_scalar(
    inst: &Inst,
    pc: usize,
    regs: &mut [i64],
    program: &str,
) -> Result<ScalarOutcome> {
    let rd = |r: Reg| r.index();
    let next = match *inst {
        Inst::Ldri { rd: d, value } => {
            regs[rd(d)] = value;
            pc + 1
        }
        Inst::Mov { rd: d, rs } => {
            regs[rd(d)] = regs[rd(rs)];
            pc + 1
        }
        Inst::Addr { rd: d, rs1, rs2 } => {
            regs[rd(d)] = regs[rd(rs1)].wrapping_add(regs[rd(rs2)]);
            pc + 1
        }
        Inst::Addri { rd: d, rs, imm } => {
            regs[rd(d)] = regs[rd(rs)].wrapping_add(imm);
            pc + 1
        }
        Inst::Subr { rd: d, rs1, rs2 } => {
            regs[rd(d)] = regs[rd(rs1)].wrapping_sub(regs[rd(rs2)]);
            pc + 1
        }
        Inst::Subri { rd: d, rs, imm } => {
            regs[rd(d)] = regs[rd(rs)].wrapping_sub(imm);
            pc + 1
        }
        Inst::Mulr { rd: d, rs1, rs2 } => {
            regs[rd(d)] = regs[rd(rs1)].wrapping_mul(regs[rd(rs2)]);
            pc + 1
        }
        Inst::Inv { rd: d, rs } => {
            regs[rd(d)] = !regs[rd(rs)];
            pc + 1
        }
        Inst::Bnez { rs, offset } => branch(pc, regs[rd(rs)] != 0, offset),
        Inst::Beqz { rs, offset } => branch(pc, regs[rd(rs)] == 0, offset),
        Inst::Bgtz { rs, offset } => branch(pc, regs[rd(rs)] > 0, offset),
        Inst::Branch { offset } => branch(pc, true, offset),
        Inst::Halt => return Ok(ScalarOutcome::Halt),
        Inst::Nop => pc + 1,
        _ => {
            return Err(Error::ControlFault {
                program: program.to_string(),
                detail: format!("not a scalar instruction: {inst}"),
            })
        }
    };
    Ok(ScalarOutcome::Next(next))
}

/// Result of a scalar step.
pub(super) enum ScalarOutcome {
    /// Continue at the given pc.
    Next(usize),
    /// The thread halted.
    Halt,
}

fn branch(pc: usize, taken: bool, offset: i32) -> usize {
    if taken {
        (pc as i64 + 1 + offset as i64).max(0) as usize
    } else {
        pc + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_isa::micro::lower_inst;
    use scaledeep_isa::{MemRef, MicroOp, TileRef};

    fn mem1(data: Vec<f32>) -> Vec<Vec<f32>> {
        vec![data]
    }

    /// Runs an instruction through the compiled tier's lowering + data
    /// executor (immediate addresses only).
    fn execute_lowered(inst: &Inst, regs: &[i64], view: &mut MemView<'_>) -> Result<()> {
        let MicroOp::Data(op) = lower_inst(inst) else {
            panic!("not a data instruction");
        };
        let mut addrs = [0u32; 2];
        for (i, r) in op.reads.iter().enumerate() {
            addrs[i] = spec_addr(r.addr, regs, "t").unwrap();
        }
        let wa = spec_addr(op.write.addr, regs, "t").unwrap();
        let mut scratch = Scratch::default();
        execute_data(&op, &addrs[..op.reads.len()], wa, view, &mut scratch, "t")
    }

    #[test]
    fn ndconv_matches_hand_computation() {
        // 3x3 input, 2x2 kernel, stride 1, no pad -> 2x2 out.
        let mut tiles = mem1(vec![
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, // input
            1.0, 0.0, 0.0, 1.0, // kernel
            0.0, 0.0, 0.0, 0.0, // out
        ]);
        let mut ext = Vec::new();
        let inst = Inst::NdConv {
            input: MemRef::at(TileRef(0), 0),
            in_h: 3,
            in_w: 3,
            kernel: MemRef::at(TileRef(0), 9),
            k: 2,
            stride: 1,
            pad: 0,
            lanes: 1,
            output: MemRef::at(TileRef(0), 13),
            out_h: 2,
            out_w: 2,
            accumulate: false,
            flip: false,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][13..17], &[6.0, 8.0, 12.0, 14.0]);
    }

    #[test]
    fn ndconv_flip_reverses_kernel() {
        let mut tiles = mem1(vec![
            1.0, 0.0, 0.0, 0.0, // 2x2 input (impulse)
            1.0, 2.0, 3.0, 4.0, // kernel
            0.0, // 1x1 out (k=2, no pad)
        ]);
        let mut ext = Vec::new();
        let mk = |flip| Inst::NdConv {
            input: MemRef::at(TileRef(0), 0),
            in_h: 2,
            in_w: 2,
            kernel: MemRef::at(TileRef(0), 4),
            k: 2,
            stride: 1,
            pad: 0,
            lanes: 1,
            output: MemRef::at(TileRef(0), 8),
            out_h: 1,
            out_w: 1,
            accumulate: false,
            flip,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&mk(false), &[0; 64], &mut view, "t").unwrap();
        let unflipped = tiles[0][8];
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&mk(true), &[0; 64], &mut view, "t").unwrap();
        let flipped = tiles[0][8];
        assert_eq!(unflipped, 1.0); // impulse picks ker[0][0]
        assert_eq!(flipped, 4.0); // flipped picks ker[1][1]
    }

    #[test]
    fn conv_staged_matches_reference_bit_for_bit() {
        // The staged (compiled-tier) convolution must reproduce the
        // reference kernel exactly — same bits, not just close — across
        // geometry (kernel size, stride, padding, lanes), both flip and
        // accumulate variants, and value patterns that expose any
        // operation reordering: NaN/∞ (absorb everything downstream),
        // signed zeros, and magnitude spreads that make addition order
        // observable in the low mantissa bits.
        let mut deterministic = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            deterministic ^= deterministic << 13;
            deterministic ^= deterministic >> 7;
            deterministic ^= deterministic << 17;
            deterministic
        };
        let specials = [f32::NAN, f32::INFINITY, -0.0, 1e-30, -1e30];
        for (k, stride, pad) in [
            (1usize, 1usize, 0usize),
            (2, 1, 0),
            (3, 1, 1),
            (3, 2, 1),
            (5, 2, 2),
            (3, 1, 2), // pad larger than needed: fully-padded border taps
            (5, 1, 0), // WG-like: kernel wider than the output (row-dot path)
            (6, 1, 1), // WG-like with padding, even kernel
        ] {
            for lanes in [1usize, 3] {
                for (accumulate, flip) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let (ih, iw) = (7usize, 6usize);
                    let oh = (ih + 2 * pad - k) / stride + 1;
                    let ow = (iw + 2 * pad - k) / stride + 1;
                    let mut x: Vec<f32> = (0..ih * iw)
                        .map(|_| (next() % 2000) as f32 / 7.0 - 140.0)
                        .collect();
                    let mut kers: Vec<f32> = (0..lanes * k * k)
                        .map(|_| (next() % 200) as f32 / 3.0 - 33.0)
                        .collect();
                    // Sprinkle the special values at varying positions.
                    let (xn, kn) = (x.len(), kers.len());
                    for (i, &s) in specials.iter().enumerate() {
                        x[(i * 11) % xn] = s;
                        kers[(i * 7) % kn] = s;
                    }
                    let init: Vec<f32> = (0..lanes * oh * ow)
                        .map(|_| (next() % 100) as f32 - 50.0)
                        .collect();
                    let mut want = init.clone();
                    kernels::conv(
                        &x, &kers, &mut want, ih, iw, oh, ow, k, stride, pad, lanes, accumulate,
                        flip,
                    );
                    let mut got = init;
                    let mut tmp = Vec::new();
                    kernels::conv_staged(
                        &x, &kers, &mut got, &mut tmp, ih, iw, oh, ow, k, stride, pad, lanes,
                        accumulate, flip,
                    );
                    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        want_bits, got_bits,
                        "k={k} stride={stride} pad={pad} lanes={lanes} acc={accumulate} flip={flip}"
                    );
                }
            }
        }
    }

    #[test]
    fn conv_nan_sign_survives_optimization() {
        // Regression for a release-only divergence: an accumulator
        // holding -NaN (from `inf * -0.0`, the x86 "indefinite") added
        // to a +NaN product is a two-NaN `fadd`, whose surviving sign
        // LLVM may pick per call site. Both kernels must agree on the
        // explicitly-defined first-operand-wins answer: -NaN.
        let (ih, iw, k) = (2usize, 3usize, 2usize);
        let (oh, ow) = (1usize, 2usize); // ow >= k: tap-sweep path
                                         // Taps for output (0, 1) in reference order:
                                         //   (0,0): 1 * 2      -> finite
                                         //   (0,1): inf * -0.0 -> -NaN (invalid)
                                         //   (1,0): 1 * 3      -> finite
                                         //   (1,1): 1 * NaN    -> +NaN (propagated)
                                         // With flip=true the kernel is indexed reversed, so lay the
                                         // taps out so the *flipped* reads hit the values above.
        let x = [1.0f32, 1.0, f32::INFINITY, 1.0, 1.0, 1.0];
        let kers = [f32::NAN, 3.0, -0.0, 2.0];
        let mut want = [0.0f32; 2];
        kernels::conv(
            &x, &kers, &mut want, ih, iw, oh, ow, k, 1, 0, 1, false, true,
        );
        let mut got = [0.0f32; 2];
        let mut tmp = Vec::new();
        kernels::conv_staged(
            &x, &kers, &mut got, &mut tmp, ih, iw, oh, ow, k, 1, 0, 1, false, true,
        );
        assert_eq!(want[1].to_bits(), 0xFFC0_0000, "reference NaN sign");
        assert_eq!(got[1].to_bits(), 0xFFC0_0000, "staged NaN sign");
        assert_eq!(want[0].to_bits(), got[0].to_bits());
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut tiles = mem1(vec![0.0; 4]);
        let mut ext = Vec::new();
        let inst = Inst::NdAcc {
            dst: MemRef::at(TileRef(0), 2),
            src: MemRef::at(TileRef(0), 0),
            len: 4,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        let err = execute(&inst, &[0; 64], &mut view, "t").unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { .. }));
    }

    #[test]
    fn scalar_loop_terminates() {
        // r0 = 2; loop: r0 -= 1; bnez r0, loop; halt.
        let prog = [
            Inst::Ldri {
                rd: Reg::R0,
                value: 2,
            },
            Inst::Subri {
                rd: Reg::R0,
                rs: Reg::R0,
                imm: 1,
            },
            Inst::Bnez {
                rs: Reg::R0,
                offset: -2,
            },
            Inst::Halt,
        ];
        let mut regs = [0i64; 64];
        let mut pc = 0;
        let mut steps = 0;
        while let ScalarOutcome::Next(next) = execute_scalar(&prog[pc], pc, &mut regs, "t").unwrap()
        {
            pc = next;
            steps += 1;
            assert!(steps < 20, "loop must terminate");
        }
        assert_eq!(regs[0], 0);
    }

    #[test]
    fn vec_scale_acc_is_axpy() {
        let mut tiles = mem1(vec![
            1.0, 2.0, /*scalar*/ -2.0, /*dst*/ 10.0, 10.0,
        ]);
        let mut ext = Vec::new();
        let inst = Inst::VecScaleAcc {
            src: MemRef::at(TileRef(0), 0),
            len: 2,
            scalar: MemRef::at(TileRef(0), 2),
            dst: MemRef::at(TileRef(0), 3),
            elementwise: false,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][3..5], &[8.0, 6.0]);
    }

    #[test]
    fn matmul_accumulates_when_asked() {
        let mut tiles = mem1(vec![
            1.0, 2.0, // x
            3.0, 4.0, 5.0, 6.0, // W rows [3,4], [5,6]
            10.0, 20.0, // y (pre-filled)
        ]);
        let mut ext = Vec::new();
        let mk = |accumulate| Inst::MatMul {
            input: MemRef::at(TileRef(0), 0),
            n_in: 2,
            matrix: MemRef::at(TileRef(0), 2),
            rows: 2,
            output: MemRef::at(TileRef(0), 6),
            accumulate,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&mk(true), &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][6..8], &[10.0 + 11.0, 20.0 + 17.0]);
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&mk(false), &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][6..8], &[11.0, 17.0]);
    }

    #[test]
    fn avg_subsample_with_padding_counts_valid_elements() {
        // 2x2 input, 3x3 window with pad 1: the single output averages
        // only the 4 valid elements.
        let mut tiles = mem1(vec![1.0, 2.0, 3.0, 4.0, 0.0]);
        let mut ext = Vec::new();
        let inst = Inst::NdSubsamp {
            mode: PoolMode::Avg,
            src: MemRef::at(TileRef(0), 0),
            in_h: 2,
            in_w: 2,
            window: 3,
            stride: 3,
            pad: 1,
            ceil: false,
            dst: MemRef::at(TileRef(0), 4),
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &[0; 64], &mut view, "t").unwrap();
        assert_eq!(tiles[0][4], 2.5);
    }

    #[test]
    fn max_upsample_routes_error_to_argmax() {
        // 2x2 input pooled 2x2 -> one output; the error returns to the max.
        let mut tiles = mem1(vec![
            /*fwd*/ 1.0, 9.0, 3.0, 4.0, /*err*/ 7.0, /*dst*/ 0.0, 0.0, 0.0, 0.0,
        ]);
        let mut ext = Vec::new();
        let inst = Inst::NdUpsamp {
            mode: PoolMode::Max,
            err: MemRef::at(TileRef(0), 4),
            fwd: MemRef::at(TileRef(0), 0),
            in_h: 2,
            in_w: 2,
            window: 2,
            stride: 2,
            pad: 0,
            ceil: true,
            dst: MemRef::at(TileRef(0), 5),
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][5..9], &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn prefetch_copies_from_external_memory() {
        let mut tiles = mem1(vec![0.0; 4]);
        let mut ext = vec![5.0, 6.0, 7.0, 8.0];
        let inst = Inst::Prefetch {
            src: MemRef::at(scaledeep_isa::EXT_MEM_TILE, 1),
            dst: MemRef::at(TileRef(0), 0),
            len: 3,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][0..3], &[6.0, 7.0, 8.0]);
    }

    #[test]
    fn activation_backward_applies_derivatives() {
        let mut tiles = mem1(vec![
            /*pre*/ -1.0, 0.5, /*err*/ 2.0, 2.0, /*dst*/ 0.0, 0.0,
        ]);
        let mut ext = Vec::new();
        let inst = Inst::NdActBwd {
            kind: ActKind::Relu,
            pre: MemRef::at(TileRef(0), 0),
            err: MemRef::at(TileRef(0), 2),
            len: 2,
            dst: MemRef::at(TileRef(0), 4),
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &[0; 64], &mut view, "t").unwrap();
        assert_eq!(&tiles[0][4..6], &[0.0, 2.0]);
    }

    #[test]
    fn register_indirect_addressing_resolves() {
        let mut tiles = mem1(vec![5.0, 0.0]);
        let mut ext = Vec::new();
        let mut regs = [0i64; 64];
        regs[3] = 1; // destination address in r3
        let inst = Inst::DmaLoad {
            src: MemRef::at(TileRef(0), 0),
            dst: MemRef {
                tile: TileRef(0),
                addr: Addr::Reg(Reg::R3),
            },
            len: 1,
            accumulate: false,
        };
        let mut view = MemView {
            tiles: &mut tiles,
            ext: &mut ext,
        };
        execute(&inst, &regs, &mut view, "t").unwrap();
        assert_eq!(tiles[0][1], 5.0);
    }

    #[test]
    fn lowered_executor_matches_interpreter_per_form() {
        // One representative per MemOffload / CoarseData / DataTransfer
        // form, run through both tiers from the same initial memory.
        let init: Vec<f32> = (0..32).map(|i| (i as f32) * 0.5 - 4.0).collect();
        let insts = vec![
            Inst::NdConv {
                input: MemRef::at(TileRef(0), 0),
                in_h: 3,
                in_w: 3,
                kernel: MemRef::at(TileRef(0), 9),
                k: 2,
                stride: 1,
                pad: 1,
                lanes: 2,
                output: MemRef::at(TileRef(0), 0),
                out_h: 4,
                out_w: 4,
                accumulate: true,
                flip: true,
            },
            Inst::MatMul {
                input: MemRef::at(TileRef(0), 0),
                n_in: 3,
                matrix: MemRef::at(TileRef(0), 4),
                rows: 4,
                output: MemRef::at(TileRef(0), 20),
                accumulate: false,
            },
            Inst::NdActFn {
                kind: ActKind::Tanh,
                src: MemRef::at(TileRef(0), 0),
                len: 8,
                dst: MemRef::at(TileRef(0), 16),
            },
            Inst::NdActBwd {
                kind: ActKind::Sigmoid,
                pre: MemRef::at(TileRef(0), 0),
                err: MemRef::at(TileRef(0), 8),
                len: 8,
                dst: MemRef::at(TileRef(0), 16),
            },
            Inst::NdSubsamp {
                mode: PoolMode::Avg,
                src: MemRef::at(TileRef(0), 0),
                in_h: 4,
                in_w: 4,
                window: 2,
                stride: 2,
                pad: 0,
                ceil: false,
                dst: MemRef::at(TileRef(0), 20),
            },
            Inst::NdUpsamp {
                mode: PoolMode::Max,
                err: MemRef::at(TileRef(0), 16),
                fwd: MemRef::at(TileRef(0), 0),
                in_h: 4,
                in_w: 4,
                window: 2,
                stride: 2,
                pad: 0,
                ceil: false,
                dst: MemRef::at(TileRef(0), 8),
            },
            Inst::NdAcc {
                dst: MemRef::at(TileRef(0), 16),
                src: MemRef::at(TileRef(0), 0),
                len: 8,
            },
            Inst::VecScaleAcc {
                src: MemRef::at(TileRef(0), 0),
                len: 4,
                scalar: MemRef::at(TileRef(0), 8),
                dst: MemRef::at(TileRef(0), 16),
                elementwise: true,
            },
            Inst::DmaLoad {
                src: MemRef::at(TileRef(0), 0),
                dst: MemRef::at(TileRef(0), 16),
                len: 8,
                accumulate: true,
            },
            Inst::PassBuff {
                src: MemRef::at(scaledeep_isa::EXT_MEM_TILE, 0),
                dst: MemRef::at(TileRef(0), 24),
                len: 4,
            },
        ];
        for inst in insts {
            let mut t_a = mem1(init.clone());
            let mut ext_a = vec![1.0, 2.0, 3.0, 4.0];
            let mut view = MemView {
                tiles: &mut t_a,
                ext: &mut ext_a,
            };
            execute(&inst, &[0; 64], &mut view, "t").unwrap();

            let mut t_b = mem1(init.clone());
            let mut ext_b = vec![1.0, 2.0, 3.0, 4.0];
            let mut view = MemView {
                tiles: &mut t_b,
                ext: &mut ext_b,
            };
            execute_lowered(&inst, &[0; 64], &mut view).unwrap();

            assert_eq!(t_a, t_b, "tile state diverged for {inst}");
            assert_eq!(ext_a, ext_b, "ext state diverged for {inst}");
        }
    }
}
