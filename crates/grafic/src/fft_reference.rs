//! The interleaved-complex FFT that the split-complex kernels in
//! [`crate::fft`] replaced, kept as the bit-for-bit reference their tests
//! compare against: rows of `Complex` values, one twiddle table per call,
//! and the inverse normalisation as a pass of its own.
#![cfg(test)]

use crate::fft::{Complex, Direction, Grid3};
use rayon::prelude::*;

/// Twiddle factors `e^{∓2πi t/n}` for `t < n/2`; the butterfly stage of
/// length `len` reads entry `t·(n/len)`. Computed directly per entry rather
/// than by a running product, so no butterfly waits on the previous one.
pub fn twiddles(n: usize, dir: Direction) -> Vec<Complex> {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let step = sign * 2.0 * std::f64::consts::PI / n as f64;
    (0..n / 2).map(|t| Complex::cis(step * t as f64)).collect()
}

/// Transform `width` interleaved lines of `data` in place with the table
/// `twiddles`: row `t` (elements `t·width .. (t+1)·width`) holds point `t`
/// of every line. Each butterfly runs along a whole row, so its twiddle and
/// loop cost are shared by all lines, while every line still sees exactly
/// the operations a lone 1-D transform would apply to it.
pub fn fft_rows(data: &mut [Complex], width: usize, tw: &[Complex], dir: Direction) {
    let n = data.len() / width;
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation of the rows.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            let (lo, hi) = data.split_at_mut(j * width);
            lo[i * width..(i + 1) * width].swap_with_slice(&mut hi[..width]);
        }
    }
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for chunk in data.chunks_exact_mut(len * width) {
            let (lo, hi) = chunk.split_at_mut(len / 2 * width);
            let rows = lo.chunks_exact_mut(width).zip(hi.chunks_exact_mut(width));
            for (t, (lo_row, hi_row)) in rows.enumerate() {
                let w = tw[t * stride];
                for (a, b) in lo_row.iter_mut().zip(hi_row.iter_mut()) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
        }
        len <<= 1;
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for c in data.iter_mut() {
            *c = c.scale(inv);
        }
    }
}

/// Run `lines(j, scratch)` on every j-slab of an `n × n × w` grid (row
/// `(i, j)` holds `w` elements at `(i·n + j)·w`), one slab per task: the
/// x-lines, laid out so that row i of the scratch holds point i of every
/// line. Slab j (row `(i, j)` for every i) is disjoint from every other,
/// so workers gather it into the scratch and scatter it back through a
/// shared base pointer.
fn x_pass(data: &mut [Complex], n: usize, w: usize, lines: impl Fn(usize, &mut [Complex]) + Sync) {
    #[derive(Clone, Copy)]
    struct RawMut(*mut Complex);
    // SAFETY: the pointer is into `data`, alive for the whole pass, and each
    // worker touches only its own slab.
    unsafe impl Send for RawMut {}
    // SAFETY: as for `Send`; shared copies never touch the same slab.
    unsafe impl Sync for RawMut {}
    impl RawMut {
        // Accessor so closures capture the whole `Sync` wrapper, not the
        // bare pointer field (Rust 2021 disjoint capture).
        #[inline]
        fn ptr(self) -> *mut Complex {
            self.0
        }
    }
    assert_eq!(data.len(), n * n * w);
    let base = RawMut(data.as_mut_ptr());
    (0..n).into_par_iter().for_each(move |j| {
        // SAFETY: row (i, j) lies inside `data` (length checked above); slab
        // j is touched by this worker only, and one row borrow is alive at a
        // time.
        let row = |i: usize| unsafe {
            std::slice::from_raw_parts_mut(base.ptr().add((i * n + j) * w), w)
        };
        let mut s = vec![Complex::ZERO; n * w];
        for (i, dst) in s.chunks_exact_mut(w).enumerate() {
            dst.copy_from_slice(row(i));
        }
        lines(j, &mut s);
        for (i, src) in s.chunks_exact(w).enumerate() {
            row(i).copy_from_slice(src);
        }
    });
}

/// `dst[k·n + j] = src[j·n + k]` for an `n × n` block.
fn transpose(src: &[Complex], dst: &mut [Complex], n: usize) {
    for j in 0..n {
        for k in 0..n {
            dst[k * n + j] = src[j * n + k];
        }
    }
}

/// `Grid3::fft` on interleaved rows.
pub fn grid3_fft(grid: &mut Grid3, dir: Direction) {
    let n = grid.n;
    let plane = n * n;
    let tw = twiddles(n, dir);
    let tw = &tw[..];

    // Passes 1 and 2, one x-plane per task. Row j of the plane already
    // holds point j of every y-line; the z-lines are transposed into
    // the scratch to be laid out the same way.
    grid.data.par_chunks_exact_mut(plane).for_each(|p| {
        let mut s = vec![Complex::ZERO; plane];
        transpose(p, &mut s, n);
        fft_rows(&mut s, n, tw, dir);
        transpose(&s, p, n);
        fft_rows(p, n, tw, dir);
    });
    x_pass(&mut grid.data, n, n, |_, s| fft_rows(s, n, tw, dir));
}

/// `filter_real` on interleaved rows.
pub fn filter_real(
    n: usize,
    real: &[f64],
    g: impl Fn(usize, usize, usize) -> f64 + Sync,
) -> Vec<f64> {
    assert!(
        n.is_power_of_two() && n >= 2,
        "grid side must be a power of two >= 2"
    );
    assert_eq!(real.len(), n * n * n, "grid holds n³ values");
    let h = n / 2 + 1;
    let (fwd, inv) = (
        twiddles(n, Direction::Forward),
        twiddles(n, Direction::Inverse),
    );
    let (fwd_m, inv_m) = (
        twiddles(n / 2, Direction::Forward),
        twiddles(n / 2, Direction::Inverse),
    );
    let mut spec = vec![Complex::ZERO; n * n * h];
    spec.par_chunks_exact_mut(n * h)
        .enumerate()
        .for_each(|(i, plane)| {
            z_forward(&real[i * n * n..][..n * n], plane, n, &fwd, &fwd_m);
            fft_rows(plane, h, &fwd, Direction::Forward);
        });
    x_pass(&mut spec, n, h, |j, s| {
        fft_rows(s, h, &fwd, Direction::Forward);
        for (i, row) in s.chunks_exact_mut(h).enumerate() {
            for (k, c) in row.iter_mut().enumerate() {
                *c = c.scale(g(i, j, k));
            }
        }
        fft_rows(s, h, &inv, Direction::Inverse);
    });
    spec.par_chunks_exact_mut(n * h)
        .for_each(|plane| fft_rows(plane, h, &inv, Direction::Inverse));
    let mut out = vec![0.0f64; n * n * n];
    out.par_chunks_exact_mut(n * n)
        .enumerate()
        .for_each(|(i, plane)| z_inverse(&spec[i * n * h..][..n * h], plane, n, &inv, &inv_m));
    out
}

/// The z-lines of one real x-plane (`n` lines of `n` reals) to their
/// `h = n/2 + 1` modes each: row j of `plane` (`n` rows of `h`) is line j's
/// spectrum. `tw` and `tw_m` are the forward tables for `n` and `n/2`.
fn z_forward(real: &[f64], plane: &mut [Complex], n: usize, tw: &[Complex], tw_m: &[Complex]) {
    let (m, h) = (n / 2, n / 2 + 1);
    // Row t of the scratch holds packed point t of every line.
    let mut s = vec![Complex::ZERO; m * n];
    for (j, line) in real.chunks_exact(n).enumerate() {
        for (t, pair) in line.chunks_exact(2).enumerate() {
            s[t * n + j] = Complex::new(pair[0], pair[1]);
        }
    }
    fft_rows(&mut s, n, tw_m, Direction::Forward);
    // Z = E + iO holds the transforms of the even and odd samples:
    // E = (Z_k + Z*_{m−k})/2, O = −i(Z_k − Z*_{m−k})/2, and mode k is
    // E + e^{−2πik/n}·O (the twiddle is −1 at k = m).
    for k in 0..h {
        let w = if k < m {
            tw[k]
        } else {
            Complex::new(-1.0, 0.0)
        };
        let (zk, zc) = (&s[k % m * n..][..n], &s[(m - k) % m * n..][..n]);
        for j in 0..n {
            let (a, b) = (zk[j], zc[j].conj());
            let d = (a - b).scale(0.5);
            plane[j * h + k] = (a + b).scale(0.5) + w * Complex::new(d.im, -d.re);
        }
    }
}

/// [`z_forward`] undone, with the `1/n` normalisation: `plane`'s rows of
/// modes back to the real z-lines of `real`. `tw` and `tw_m` are the
/// inverse tables for `n` and `n/2`.
fn z_inverse(plane: &[Complex], real: &mut [f64], n: usize, tw: &[Complex], tw_m: &[Complex]) {
    let (m, h) = (n / 2, n / 2 + 1);
    // E = (F_k + F*_{m−k})/2 and O = e^{2πik/n}(F_k − F*_{m−k})/2 repack as
    // Z = E + iO, whose half-length inverse is the even and odd samples.
    let mut s = vec![Complex::ZERO; m * n];
    for k in 0..m {
        for (j, row) in plane.chunks_exact(h).enumerate() {
            let (a, b) = (row[k], row[m - k].conj());
            let e = (a + b).scale(0.5);
            let o = tw[k] * (a - b).scale(0.5);
            s[k * n + j] = Complex::new(e.re - o.im, e.im + o.re);
        }
    }
    fft_rows(&mut s, n, tw_m, Direction::Inverse);
    for (j, line) in real.chunks_exact_mut(n).enumerate() {
        for (t, pair) in line.chunks_exact_mut(2).enumerate() {
            let z = s[t * n + j];
            pair[0] = z.re;
            pair[1] = z.im;
        }
    }
}
