//! In-house radix-2 complex FFT.
//!
//! GRAFIC synthesises Gaussian random fields in Fourier space and transforms
//! them back to real space; we reproduce that with a dependency-free
//! Cooley–Tukey implementation. Sizes are restricted to powers of two, which
//! matches the power-of-two grids used throughout (16³ … 128³).
//!
//! The 3-D transform applies the 1-D transform along each axis; the axis
//! passes over independent lines are parallelised with rayon. Every line
//! receives exactly the operations a lone 1-D transform applies to it, so
//! the output is bitwise identical at any thread count. [`filter_real`]
//! runs the same passes on the half spectrum of a real grid.

use rayon::prelude::*;

/// A complex number. We keep our own minimal type rather than pulling in a
/// complex-arithmetic crate; only the operations the FFT needs are defined.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// e^{iθ}
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Inverse,
}

/// In-place iterative radix-2 Cooley–Tukey FFT on a power-of-two length
/// buffer. The inverse transform includes the 1/N normalisation, so
/// `fft(fft(x, Forward), Inverse) == x` up to rounding.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_1d(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    fft_rows(data, 1, &twiddles(n, dir), dir);
}

/// Twiddle factors `e^{∓2πi t/n}` for `t < n/2`; the butterfly stage of
/// length `len` reads entry `t·(n/len)`. Computed directly per entry rather
/// than by a running product, so no butterfly waits on the previous one.
fn twiddles(n: usize, dir: Direction) -> Vec<Complex> {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let step = sign * 2.0 * std::f64::consts::PI / n as f64;
    (0..n / 2).map(|t| Complex::cis(step * t as f64)).collect()
}

/// Transform `width` interleaved lines of `data` in place with the table
/// [`twiddles`]: row `t` (elements `t·width .. (t+1)·width`) holds point `t`
/// of every line. Each butterfly runs along a whole row, so its twiddle and
/// loop cost are shared by all lines, while every line still sees exactly
/// the operations a lone 1-D transform would apply to it.
fn fft_rows(data: &mut [Complex], width: usize, tw: &[Complex], dir: Direction) {
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

/// A dense 3-D complex grid of side `n` stored in row-major `(x, y, z)`
/// order: index `(i, j, k)` lives at `i*n*n + j*n + k`.
#[derive(Debug, Clone)]
pub struct Grid3 {
    pub n: usize,
    pub data: Vec<Complex>,
}

impl Grid3 {
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two(), "grid side must be a power of two");
        Grid3 {
            n,
            data: vec![Complex::ZERO; n * n * n],
        }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> Complex {
        self.data[self.idx(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: Complex) {
        let ix = self.idx(i, j, k);
        self.data[ix] = v;
    }

    /// 3-D FFT: 1-D transforms along z, then y, then x, all from one twiddle
    /// table. Lines along each axis are independent, so each pass is a
    /// parallel iteration whose task transforms a whole block of lines at
    /// once ([`fft_rows`]).
    pub fn fft(&mut self, dir: Direction) {
        let n = self.n;
        let plane = n * n;
        let tw = twiddles(n, dir);
        let tw = &tw[..];

        // Passes 1 and 2, one x-plane per task. Row j of the plane already
        // holds point j of every y-line; the z-lines are transposed into
        // the scratch to be laid out the same way.
        self.data.par_chunks_exact_mut(plane).for_each(|p| {
            let mut s = vec![Complex::ZERO; plane];
            transpose(p, &mut s, n);
            fft_rows(&mut s, n, tw, dir);
            transpose(&s, p, n);
            fft_rows(p, n, tw, dir);
        });
        x_pass(&mut self.data, n, n, |_, s| fft_rows(s, n, tw, dir));
    }

    /// Total power `Σ |f|²` — useful for Parseval checks.
    pub fn total_power(&self) -> f64 {
        self.data.iter().map(|c| c.norm_sqr()).sum()
    }
}

/// `F⁻¹[g · F f]` for a real `n³` grid `f` and an **even** real multiplier
/// `g` (`g(−k) = g(k)`). `g` is read only at modes with `kz ≤ n/2`; every
/// other mode takes its conjugate twin's value (`F(−k) = F(k)*`), so for a
/// `g` that is not even the filter applied is `g`'s even extension from
/// that half, not `g`.
///
/// `f` is row-major `(x, y, z)` and `n` a power of two ≥ 2; `g(i, j, k)`
/// indexes the modes as [`Grid3::fft`] lays them out. The result is the
/// full complex transform's at about half the work.
///
/// The transforms run on the half spectrum, `n × n × (n/2 + 1)` modes.
/// Along z, a line's `n` reals are packed into `n/2` complex numbers (even
/// samples real, odd imaginary), transformed at half length and split into
/// the line's `n/2 + 1` modes; y and x are `Grid3::fft`'s passes on the
/// narrower rows, and each x-slab is scaled by `g` between its forward and
/// inverse transforms, so it is gathered once for both. Every line is
/// transformed on its own, so the result is bitwise identical at any
/// thread count.
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

/// Frequency (integer wavenumber) corresponding to index `i` on an `n`-point
/// transform, mapped to the symmetric range `[-n/2, n/2)`.
#[inline]
pub fn freq(i: usize, n: usize) -> i64 {
    let i = i as i64;
    let n = n as i64;
    if i < n / 2 || n == 1 {
        i
    } else {
        i - n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn fft_of_constant_is_delta() {
        let n = 16;
        let mut d = vec![Complex::new(1.0, 0.0); n];
        fft_1d(&mut d, Direction::Forward);
        assert!(approx(d[0].re, n as f64, 1e-12));
        for c in &d[1..] {
            assert!(c.norm_sqr() < 1e-20);
        }
    }

    #[test]
    fn fft_roundtrip_1d() {
        let n = 64;
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut d = orig.clone();
        fft_1d(&mut d, Direction::Forward);
        fft_1d(&mut d, Direction::Inverse);
        for (a, b) in orig.iter().zip(&d) {
            assert!(approx(a.re, b.re, 1e-10) && approx(a.im, b.im, 1e-10));
        }
    }

    #[test]
    fn fft_single_mode_lands_in_right_bin() {
        let n = 32;
        let k = 5;
        let mut d: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64))
            .collect();
        fft_1d(&mut d, Direction::Forward);
        for (i, c) in d.iter().enumerate() {
            if i == k {
                assert!(approx(c.re, n as f64, 1e-10));
            } else {
                assert!(c.norm_sqr() < 1e-18, "leak at bin {i}: {c:?}");
            }
        }
    }

    #[test]
    fn fft_linear() {
        let n = 16;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft_1d(&mut fa, Direction::Forward);
        fft_1d(&mut fb, Direction::Forward);
        fft_1d(&mut fab, Direction::Forward);
        for i in 0..n {
            let s = fa[i] + fb[i];
            assert!(approx(s.re, fab[i].re, 1e-10) && approx(s.im, fab[i].im, 1e-10));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut d = vec![Complex::ZERO; 12];
        fft_1d(&mut d, Direction::Forward);
    }

    #[test]
    fn grid3_roundtrip() {
        let n = 8;
        let mut g = Grid3::zeros(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    g.set(i, j, k, Complex::new((i + 2 * j + 3 * k) as f64, 0.0));
                }
            }
        }
        let orig = g.clone();
        g.fft(Direction::Forward);
        g.fft(Direction::Inverse);
        for (a, b) in orig.data.iter().zip(&g.data) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    /// e^{2πi(ax+by+cz)/n} lands only in bin (a, b, c), with weight n³. The
    /// three frequencies differ, so a transposed pass or a mis-indexed
    /// twiddle moves the peak; roundtrip and Parseval cannot see either.
    #[test]
    fn grid3_plane_wave_lands_in_its_bin() {
        for (n, [a, b, c]) in [(8usize, [1usize, 2, 3]), (32, [3, 7, 13])] {
            let mut g = Grid3::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let phase = (a * i + b * j + c * k) % n;
                        let theta = 2.0 * std::f64::consts::PI * phase as f64 / n as f64;
                        g.set(i, j, k, Complex::cis(theta));
                    }
                }
            }
            g.fft(Direction::Forward);
            let peak = (n * n * n) as f64;
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let v = g.get(i, j, k);
                        if (i, j, k) == (a, b, c) {
                            assert!((v.re - peak).abs() < 1e-9 * peak && v.im.abs() < 1e-9 * peak);
                        } else {
                            assert!(
                                v.norm_sqr().sqrt() < 1e-9 * peak,
                                "n={n}: leak at ({i},{j},{k}): {v:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Interleaving lines changes no bit: the 3-D transform equals `fft_1d`
    /// applied to every z-, then y-, then x-line on its own.
    #[test]
    fn grid3_matches_lone_line_transforms_bitwise() {
        let n = 16;
        let mut g = Grid3::zeros(n);
        for (ix, c) in g.data.iter_mut().enumerate() {
            *c = Complex::new((ix as f64 * 0.37).sin(), (ix % 11) as f64 - 5.0);
        }
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut lone = g.clone();
            let mut line = vec![Complex::ZERO; n];
            for axis in [2, 1, 0] {
                for a in 0..n {
                    for b in 0..n {
                        let at = |t: usize| match axis {
                            2 => (a, b, t),
                            1 => (a, t, b),
                            _ => (t, a, b),
                        };
                        for (t, c) in line.iter_mut().enumerate() {
                            let (i, j, k) = at(t);
                            *c = lone.get(i, j, k);
                        }
                        fft_1d(&mut line, dir);
                        for (t, c) in line.iter().enumerate() {
                            let (i, j, k) = at(t);
                            lone.set(i, j, k, *c);
                        }
                    }
                }
            }
            let mut whole = g.clone();
            whole.fft(dir);
            for (x, y) in whole.data.iter().zip(&lone.data) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    fn real_grid(n: usize, seed: usize) -> Vec<f64> {
        (0..n * n * n)
            .map(|ix| ((ix * 2654435761 + seed * 97) % 1000) as f64 / 250.0 - 1.7)
            .collect()
    }

    /// An even multiplier: it depends on the squared wavenumbers only.
    fn even_multiplier(n: usize) -> impl Fn(usize, usize, usize) -> f64 + Sync {
        move |i, j, k| {
            let [a, b, c] = [i, j, k].map(|x| freq(x, n) as f64);
            1.0 / (1.0 + a * a + 2.0 * b * b + 0.5 * c * c)
        }
    }

    /// The half-spectrum filter is the full complex transform's, to
    /// rounding: forward, every mode scaled, inverse, real part.
    #[test]
    fn filter_real_matches_the_complex_transform() {
        for n in [2usize, 4, 8, 16] {
            let real = real_grid(n, n);
            let g = even_multiplier(n);
            let mut full = Grid3 {
                n,
                data: real.iter().map(|&v| Complex::new(v, 0.0)).collect(),
            };
            full.fft(Direction::Forward);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let ix = full.idx(i, j, k);
                        full.data[ix] = full.data[ix].scale(g(i, j, k));
                    }
                }
            }
            full.fft(Direction::Inverse);
            let half = filter_real(n, &real, &g);
            for (a, b) in half.iter().zip(&full.data) {
                assert!((a - b.re).abs() < 1e-13, "n={n}: {a} vs {b:?}");
            }
        }
    }

    #[test]
    fn filter_real_by_one_is_the_identity() {
        for n in [2usize, 4, 8, 32] {
            let real = real_grid(n, 3);
            let back = filter_real(n, &real, |_, _, _| 1.0);
            for (a, b) in real.iter().zip(&back) {
                assert!((a - b).abs() < 1e-12, "n={n}: {a} vs {b}");
            }
        }
    }

    /// Three real plane waves, cos(2π(ax+by+cz)/n) with 0 < c < n/2 and
    /// different frequencies; a multiplier that is 1 at one wave's stored
    /// mode (a, b, c) alone returns that wave alone (its twin mode
    /// (−a, −b, −c) has kz > n/2 and is never asked for). A transposed pass
    /// or a mis-split line would keep the wrong wave.
    #[test]
    fn filter_real_keeps_exactly_the_selected_plane_wave() {
        for (n, waves) in [
            (8usize, [[1usize, 3, 2], [3, 2, 1], [2, 1, 3]]),
            (32, [[3, 7, 13], [7, 13, 3], [13, 3, 7]]),
        ] {
            let wave = |[a, b, c]: [usize; 3], sine: bool| -> Vec<f64> {
                let mut v = vec![0.0; n * n * n];
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            let phase = (a * i + b * j + c * k) % n;
                            let t = 2.0 * std::f64::consts::PI * phase as f64 / n as f64;
                            v[(i * n + j) * n + k] = if sine { t.sin() } else { t.cos() };
                        }
                    }
                }
                v
            };
            for (pick, sine) in [(0, false), (1, true), (2, false)] {
                let parts: Vec<Vec<f64>> = (0..3).map(|w| wave(waves[w], w == 1)).collect();
                let sum: Vec<f64> = (0..n * n * n)
                    .map(|ix| parts[0][ix] + parts[1][ix] + parts[2][ix])
                    .collect();
                let [a, b, c] = waves[pick];
                let got = filter_real(n, &sum, |i, j, k| f64::from((i, j, k) == (a, b, c)));
                for (x, y) in got.iter().zip(&wave(waves[pick], sine)) {
                    assert!((x - y).abs() < 1e-12, "n={n} wave {pick}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn filter_real_is_bitwise_identical_across_thread_counts() {
        let n = 16;
        let real = real_grid(n, 5);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| filter_real(n, &real, even_multiplier(n)))
        };
        let one = run(1);
        for threads in [2, 4] {
            for (x, y) in run(threads).iter().zip(&one) {
                assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn grid3_parseval() {
        let n = 8;
        let mut g = Grid3::zeros(n);
        for (ix, c) in g.data.iter_mut().enumerate() {
            *c = Complex::new((ix % 7) as f64 - 3.0, 0.0);
        }
        let real_power = g.total_power();
        g.fft(Direction::Forward);
        let k_power = g.total_power() / (n * n * n) as f64;
        assert!((real_power - k_power).abs() < 1e-6 * real_power.max(1.0));
    }

    #[test]
    fn freq_mapping() {
        assert_eq!(freq(0, 8), 0);
        assert_eq!(freq(3, 8), 3);
        assert_eq!(freq(4, 8), -4);
        assert_eq!(freq(7, 8), -1);
    }
}
