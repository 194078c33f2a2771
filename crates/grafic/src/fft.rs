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
//! the output is bitwise identical at any thread count.

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

        // Pass 3: lines along x, one j-slab per task. Slab j (elements
        // (i, j, k) for all i, k: one contiguous z-row per x-plane) is
        // disjoint from every other, so workers gather it into the scratch
        // and scatter it back through a shared base pointer.
        #[derive(Clone, Copy)]
        struct RawMut(*mut Complex);
        // SAFETY: the pointer is into `self.data`, alive for the whole pass,
        // and each worker touches only its own slab.
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
        let base = RawMut(self.data.as_mut_ptr());
        (0..n).into_par_iter().for_each(move |j| {
            // SAFETY: row (i, j, ·) lies inside `self.data`; slab j is touched
            // by this worker only, and one row borrow is alive at a time.
            let row = |i: usize| unsafe {
                std::slice::from_raw_parts_mut(base.ptr().add((i * n + j) * n), n)
            };
            let mut s = vec![Complex::ZERO; plane];
            for (i, dst) in s.chunks_exact_mut(n).enumerate() {
                dst.copy_from_slice(row(i));
            }
            fft_rows(&mut s, n, tw, dir);
            for (i, src) in s.chunks_exact(n).enumerate() {
                row(i).copy_from_slice(src);
            }
        });
    }

    /// Total power `Σ |f|²` — useful for Parseval checks.
    pub fn total_power(&self) -> f64 {
        self.data.iter().map(|c| c.norm_sqr()).sum()
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
