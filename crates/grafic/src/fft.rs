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
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock};

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
    let mut re: Vec<f64> = data.iter().map(|c| c.re).collect();
    let mut im: Vec<f64> = data.iter().map(|c| c.im).collect();
    Kernel::detected().rows(&mut re, &mut im, 1, &plan(n, dir));
    for (c, (&re, &im)) in data.iter_mut().zip(re.iter().zip(&im)) {
        *c = Complex::new(re, im);
    }
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

/// Everything a length-`n` transform in one direction needs besides the
/// data, built once per process and shared ([`plan`]).
struct Plan {
    n: usize,
    dir: Direction,
    /// Row pairs `(i, j)`, `i < j`, that the bit-reversal permutation swaps.
    swaps: Vec<(usize, usize)>,
    /// Real and imaginary parts of each stage's twiddles, stage after
    /// stage: the stage of half-length `h` reads its `h` factors at offset
    /// `h − 1` (entries `t·n/2h` of [`twiddles`]), so the last stage's are
    /// the whole table.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    /// `1/n` for the inverse transform, multiplied into the last stage's
    /// stores.
    scale: Option<f64>,
}

impl Plan {
    fn new(n: usize, dir: Direction) -> Plan {
        let table = twiddles(n, dir);
        let (mut tw_re, mut tw_im) = (Vec::new(), Vec::new());
        let mut half = 1;
        while half < n {
            let stride = n / (2 * half);
            tw_re.extend((0..half).map(|t| table[t * stride].re));
            tw_im.extend((0..half).map(|t| table[t * stride].im));
            half *= 2;
        }
        let bits = n.trailing_zeros();
        let swaps = (1..n)
            .filter_map(|i| {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                (j > i).then_some((i, j))
            })
            .collect();
        let scale = (dir == Direction::Inverse && n > 1).then(|| 1.0 / n as f64);
        Plan {
            n,
            dir,
            swaps,
            tw_re,
            tw_im,
            scale,
        }
    }

    /// Entry `t < n/2` of [`twiddles`] (the last stage's factor `t`).
    #[inline]
    fn twiddle(&self, t: usize) -> (f64, f64) {
        let at = self.n / 2 - 1 + t;
        (self.tw_re[at], self.tw_im[at])
    }
}

/// The process's plan for a length-`n` transform in direction `dir`.
fn plan(n: usize, dir: Direction) -> Arc<Plan> {
    static PLANS: Mutex<Vec<Arc<Plan>>> = Mutex::new(Vec::new());
    // A push is the only update, so the list is valid even after a panic.
    let mut plans = PLANS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(p) = plans.iter().find(|p| (p.n, p.dir) == (n, dir)) {
        return p.clone();
    }
    let p = Arc::new(Plan::new(n, dir));
    plans.push(p.clone());
    p
}

/// Which compilation of the row transform runs: [`rows_body`] built for the
/// baseline target, or for AVX2. Rust never contracts a multiply and an add
/// into an FMA, so both compute the same bits; AVX2 only runs four lanes of
/// a row per instruction instead of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Baseline,
    /// Only constructed by [`Kernel::avx2`], after the CPU reported AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// AVX2 when this CPU has it; detected once per process.
    fn detected() -> Kernel {
        static DETECTED: OnceLock<Kernel> = OnceLock::new();
        *DETECTED.get_or_init(|| Kernel::avx2().unwrap_or(Kernel::Baseline))
    }

    /// The AVX2 compilation, if this CPU can run it.
    fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Kernel::Avx2);
        }
        None
    }

    /// Transform `width` interleaved lines held as split planes: row `t`
    /// of `re` and `im` (elements `t·width .. (t+1)·width`) holds point `t`
    /// of every line. See [`rows_body`].
    #[inline]
    fn rows(self, re: &mut [f64], im: &mut [f64], width: usize, plan: &Plan) {
        match self {
            Kernel::Baseline => rows_baseline(re, im, width, plan),
            // SAFETY: `Avx2` exists only where the CPU reported AVX2.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { rows_avx2(re, im, width, plan) },
        }
    }
}

fn rows_baseline(re: &mut [f64], im: &mut [f64], width: usize, plan: &Plan) {
    rows_body(re, im, width, plan);
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_avx2(re: &mut [f64], im: &mut [f64], width: usize, plan: &Plan) {
    rows_body(re, im, width, plan);
}

/// The one row transform: `width` lines of `plan.n` points, real and
/// imaginary parts in separate planes (see [`Kernel::rows`]). Each
/// butterfly runs along a whole row, so its twiddle and loop cost are
/// shared by all lines, while every line still sees exactly the operations
/// a lone 1-D transform would apply to it: `v = b·w`, `a ← u + v`,
/// `b ← u − v`, each product and sum rounded as the `Complex` operators
/// round it, and the inverse's `1/n` applied to the last stage's sums.
#[inline(always)]
fn rows_body(re: &mut [f64], im: &mut [f64], width: usize, plan: &Plan) {
    let n = plan.n;
    assert!(re.len() == n * width && im.len() == n * width);
    if n <= 1 {
        return;
    }
    for &(i, j) in &plan.swaps {
        for d in [&mut *re, &mut *im] {
            let (lo, hi) = d.split_at_mut(j * width);
            lo[i * width..][..width].swap_with_slice(&mut hi[..width]);
        }
    }
    let mut half = 1;
    while half < n {
        let tw = (
            &plan.tw_re[half - 1..][..half],
            &plan.tw_im[half - 1..][..half],
        );
        match plan.scale {
            Some(s) if 2 * half == n => stage::<true>(re, im, width, half, tw, s),
            _ => stage::<false>(re, im, width, half, tw, 1.0),
        }
        half *= 2;
    }
}

/// One radix-2 stage of half-length `half` over every block of `2·half`
/// rows; `SCALE` multiplies the stored sums by `s`.
#[inline(always)]
fn stage<const SCALE: bool>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    half: usize,
    (tw_re, tw_im): (&[f64], &[f64]),
    s: f64,
) {
    let span = half * width;
    let blocks = re
        .chunks_exact_mut(2 * span)
        .zip(im.chunks_exact_mut(2 * span));
    for (block_re, block_im) in blocks {
        let (lo_re, hi_re) = block_re.split_at_mut(span);
        let (lo_im, hi_im) = block_im.split_at_mut(span);
        for t in 0..half {
            let (wr, wi) = (tw_re[t], tw_im[t]);
            let row = t * width..(t + 1) * width;
            let a = lo_re[row.clone()].iter_mut().zip(&mut lo_im[row.clone()]);
            let b = hi_re[row.clone()].iter_mut().zip(&mut hi_im[row]);
            for ((ar, ai), (br, bi)) in a.zip(b) {
                let (ur, ui) = (*ar, *ai);
                let vr = *br * wr - *bi * wi;
                let vi = *br * wi + *bi * wr;
                let (sr, si, dr, di) = (ur + vr, ui + vi, ur - vr, ui - vi);
                if SCALE {
                    (*ar, *ai, *br, *bi) = (sr * s, si * s, dr * s, di * s);
                } else {
                    (*ar, *ai, *br, *bi) = (sr, si, dr, di);
                }
            }
        }
    }
}

/// Rows of a 3-D grid (`n × n` rows of `w` points, row `(i, j)` for
/// x-index `i` and y-index `j`) that the x-pass gathers into split planes
/// and scatters back.
trait SlabRows: Sync {
    /// Copy row `(i, j)` into `re` and `im`.
    ///
    /// # Safety
    /// Row `(i, j)` is inside the grid, and no other thread touches it.
    unsafe fn load(&self, i: usize, j: usize, re: &mut [f64], im: &mut [f64]);

    /// Copy `re` and `im` into row `(i, j)`.
    ///
    /// # Safety
    /// As for [`SlabRows::load`].
    unsafe fn store(&self, i: usize, j: usize, re: &[f64], im: &[f64]);
}

/// A [`Grid3`]'s interleaved rows.
struct ComplexRows<'a> {
    ptr: *mut Complex,
    n: usize,
    w: usize,
    _grid: PhantomData<&'a mut [Complex]>,
}

impl<'a> ComplexRows<'a> {
    fn new(grid: &'a mut [Complex], n: usize, w: usize) -> Self {
        assert_eq!(grid.len(), n * n * w, "grid holds n × n rows of w");
        ComplexRows {
            ptr: grid.as_mut_ptr(),
            n,
            w,
            _grid: PhantomData,
        }
    }
}

// SAFETY: `ptr` is into a grid borrowed mutably for `'a` (so nothing else
// touches it), `n` and `w` are plain sizes checked against its length, and
// each worker touches only its own rows (the `SlabRows` contract).
unsafe impl Sync for ComplexRows<'_> {}

impl SlabRows for ComplexRows<'_> {
    unsafe fn load(&self, i: usize, j: usize, re: &mut [f64], im: &mut [f64]) {
        let row = std::slice::from_raw_parts(self.ptr.add((i * self.n + j) * self.w), self.w);
        for (c, (r, m)) in row.iter().zip(re.iter_mut().zip(im)) {
            (*r, *m) = (c.re, c.im);
        }
    }

    unsafe fn store(&self, i: usize, j: usize, re: &[f64], im: &[f64]) {
        let row = std::slice::from_raw_parts_mut(self.ptr.add((i * self.n + j) * self.w), self.w);
        for (c, (&r, &m)) in row.iter_mut().zip(re.iter().zip(im)) {
            *c = Complex::new(r, m);
        }
    }
}

/// A half spectrum in split planes: x-plane `i` is `2·n·w` values at
/// `i·2nw`, its real parts (`n` rows of `w`) before its imaginary parts.
struct SplitRows<'a> {
    ptr: *mut f64,
    n: usize,
    w: usize,
    _spec: PhantomData<&'a mut [f64]>,
}

impl<'a> SplitRows<'a> {
    fn new(spec: &'a mut [f64], n: usize, w: usize) -> Self {
        assert_eq!(
            spec.len(),
            2 * n * n * w,
            "spectrum holds n × n split rows of w"
        );
        SplitRows {
            ptr: spec.as_mut_ptr(),
            n,
            w,
            _spec: PhantomData,
        }
    }

    /// The real and imaginary parts of row `(i, j)`.
    ///
    /// # Safety
    /// `i` and `j` are below `n`.
    #[inline]
    unsafe fn parts(&self, i: usize, j: usize) -> (*mut f64, *mut f64) {
        let re = self.ptr.add(i * 2 * self.n * self.w + j * self.w);
        (re, re.add(self.n * self.w))
    }
}

// SAFETY: as for `ComplexRows`.
unsafe impl Sync for SplitRows<'_> {}

impl SlabRows for SplitRows<'_> {
    unsafe fn load(&self, i: usize, j: usize, re: &mut [f64], im: &mut [f64]) {
        let (r, m) = self.parts(i, j);
        re.copy_from_slice(std::slice::from_raw_parts(r, self.w));
        im.copy_from_slice(std::slice::from_raw_parts(m, self.w));
    }

    unsafe fn store(&self, i: usize, j: usize, re: &[f64], im: &[f64]) {
        let (r, m) = self.parts(i, j);
        std::slice::from_raw_parts_mut(r, self.w).copy_from_slice(re);
        std::slice::from_raw_parts_mut(m, self.w).copy_from_slice(im);
    }
}

/// Run `lines(j, re, im)` on every j-slab of `rows`, one slab per task: the
/// x-lines, gathered so that row i of the split scratch holds point i of
/// every line. Slab j (row `(i, j)` for every i) is disjoint from every
/// other, so workers gather and scatter it through the shared rows.
fn x_pass(
    rows: &impl SlabRows,
    n: usize,
    w: usize,
    lines: impl Fn(usize, &mut [f64], &mut [f64]) + Sync,
) {
    (0..n).into_par_iter().for_each(|j| {
        let mut s = vec![0.0; 2 * n * w];
        let (re, im) = s.split_at_mut(n * w);
        for (i, (r, m)) in re
            .chunks_exact_mut(w)
            .zip(im.chunks_exact_mut(w))
            .enumerate()
        {
            // SAFETY: `rows` holds `n × n` rows of `w` (checked where it was
            // made), i and j are below n, and slab j is this task's alone.
            unsafe { rows.load(i, j, r, m) };
        }
        lines(j, re, im);
        for (i, (r, m)) in re.chunks_exact(w).zip(im.chunks_exact(w)).enumerate() {
            // SAFETY: as for `load`.
            unsafe { rows.store(i, j, r, m) };
        }
    });
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

    /// 3-D FFT: 1-D transforms along z, then y, then x, all from one plan.
    /// Lines along each axis are independent, so each pass is a parallel
    /// iteration whose task transforms a whole block of lines at once, in
    /// split planes ([`Kernel::rows`]).
    pub fn fft(&mut self, dir: Direction) {
        self.fft_with(Kernel::detected(), dir);
    }

    fn fft_with(&mut self, kernel: Kernel, dir: Direction) {
        let n = self.n;
        let plane = n * n;
        let plan = plan(n, dir);
        let plan = &*plan;

        // Passes 1 and 2, one x-plane per task. The z-lines are transposed
        // into the scratch so that row k holds point k of every line; the
        // y-lines are transposed back, row j holding point j.
        self.data.par_chunks_exact_mut(plane).for_each(|p| {
            let mut s = vec![0.0; 4 * plane];
            let (z, y) = s.split_at_mut(2 * plane);
            let (zr, zi) = z.split_at_mut(plane);
            let (yr, yi) = y.split_at_mut(plane);
            for (j, line) in p.chunks_exact(n).enumerate() {
                for (k, c) in line.iter().enumerate() {
                    (zr[k * n + j], zi[k * n + j]) = (c.re, c.im);
                }
            }
            kernel.rows(zr, zi, n, plan);
            for j in 0..n {
                for k in 0..n {
                    (yr[j * n + k], yi[j * n + k]) = (zr[k * n + j], zi[k * n + j]);
                }
            }
            kernel.rows(yr, yi, n, plan);
            for (c, (&re, &im)) in p.iter_mut().zip(yr.iter().zip(yi.iter())) {
                *c = Complex::new(re, im);
            }
        });
        let rows = ComplexRows::new(&mut self.data, n, n);
        x_pass(&rows, n, n, |_, re, im| kernel.rows(re, im, n, plan));
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
/// The transforms run on the half spectrum, `n × n × (n/2 + 1)` modes,
/// held in split planes (each x-plane's real parts, then its imaginary
/// parts). Along z, a line's `n` reals are packed into `n/2` complex
/// numbers (even samples real, odd imaginary), transformed at half length
/// and split into the line's `n/2 + 1` modes; y and x are `Grid3::fft`'s
/// passes on the narrower rows, and each x-slab is scaled by `g` between
/// its forward and inverse transforms, so it is gathered once for both.
/// Every line is transformed on its own, so the result is bitwise
/// identical at any thread count.
pub fn filter_real(
    n: usize,
    real: &[f64],
    g: impl Fn(usize, usize, usize) -> f64 + Sync,
) -> Vec<f64> {
    filter_real_with(Kernel::detected(), n, real, g)
}

fn filter_real_with(
    kernel: Kernel,
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
    let (fwd, inv) = (plan(n, Direction::Forward), plan(n, Direction::Inverse));
    let (fwd_m, inv_m) = (
        plan(n / 2, Direction::Forward),
        plan(n / 2, Direction::Inverse),
    );
    let (fwd, inv, fwd_m, inv_m) = (&*fwd, &*inv, &*fwd_m, &*inv_m);
    let mut spec = vec![0.0f64; 2 * n * n * h];
    spec.par_chunks_exact_mut(2 * n * h)
        .enumerate()
        .for_each(|(i, plane)| {
            let (re, im) = plane.split_at_mut(n * h);
            z_forward(kernel, &real[i * n * n..][..n * n], re, im, fwd, fwd_m);
            kernel.rows(re, im, h, fwd);
        });
    let rows = SplitRows::new(&mut spec, n, h);
    x_pass(&rows, n, h, |j, re, im| {
        kernel.rows(re, im, h, fwd);
        let split = re.chunks_exact_mut(h).zip(im.chunks_exact_mut(h));
        for (i, (r, m)) in split.enumerate() {
            for (k, (r, m)) in r.iter_mut().zip(m.iter_mut()).enumerate() {
                let s = g(i, j, k);
                (*r, *m) = (*r * s, *m * s);
            }
        }
        kernel.rows(re, im, h, inv);
    });
    spec.par_chunks_exact_mut(2 * n * h).for_each(|plane| {
        let (re, im) = plane.split_at_mut(n * h);
        kernel.rows(re, im, h, inv);
    });
    let mut out = vec![0.0f64; n * n * n];
    out.par_chunks_exact_mut(n * n)
        .enumerate()
        .for_each(|(i, plane)| {
            let (re, im) = spec[i * 2 * n * h..][..2 * n * h].split_at(n * h);
            z_inverse(kernel, re, im, plane, inv, inv_m);
        });
    out
}

/// The z-lines of one real x-plane (`n` lines of `n` reals) to their
/// `h = n/2 + 1` modes each: row j of `re`/`im` (`n` rows of `h`) is line
/// j's spectrum. `full` and `half` are the forward plans for `n` and `n/2`.
fn z_forward(
    kernel: Kernel,
    real: &[f64],
    re: &mut [f64],
    im: &mut [f64],
    full: &Plan,
    half: &Plan,
) {
    let n = full.n;
    let (m, h) = (n / 2, n / 2 + 1);
    // Row t of the scratch holds packed point t of every line.
    let mut s = vec![0.0; 2 * m * n];
    let (sr, si) = s.split_at_mut(m * n);
    for (j, line) in real.chunks_exact(n).enumerate() {
        for (t, pair) in line.chunks_exact(2).enumerate() {
            (sr[t * n + j], si[t * n + j]) = (pair[0], pair[1]);
        }
    }
    kernel.rows(sr, si, n, half);
    // Z = E + iO holds the transforms of the even and odd samples:
    // E = (Z_k + Z*_{m−k})/2, O = −i(Z_k − Z*_{m−k})/2, and mode k is
    // E + e^{−2πik/n}·O (the twiddle is −1 at k = m). Every sum and product
    // is `Complex`'s, in its order.
    for k in 0..h {
        let (wr, wi) = if k < m { full.twiddle(k) } else { (-1.0, 0.0) };
        let (zk, zc) = (k % m * n, (m - k) % m * n);
        for j in 0..n {
            let (ar, ai) = (sr[zk + j], si[zk + j]);
            let (br, bi) = (sr[zc + j], -si[zc + j]);
            let (dr, di) = ((ar - br) * 0.5, (ai - bi) * 0.5);
            let (xr, xi) = (di, -dr);
            re[j * h + k] = (ar + br) * 0.5 + (wr * xr - wi * xi);
            im[j * h + k] = (ai + bi) * 0.5 + (wr * xi + wi * xr);
        }
    }
}

/// [`z_forward`] undone, with the `1/n` normalisation: the rows of modes in
/// `re`/`im` back to the real z-lines of `real`. `full` and `half` are the
/// inverse plans for `n` and `n/2`.
fn z_inverse(kernel: Kernel, re: &[f64], im: &[f64], real: &mut [f64], full: &Plan, half: &Plan) {
    let n = full.n;
    let (m, h) = (n / 2, n / 2 + 1);
    // E = (F_k + F*_{m−k})/2 and O = e^{2πik/n}(F_k − F*_{m−k})/2 repack as
    // Z = E + iO, whose half-length inverse is the even and odd samples.
    let mut s = vec![0.0; 2 * m * n];
    let (sr, si) = s.split_at_mut(m * n);
    for k in 0..m {
        let (wr, wi) = full.twiddle(k);
        for j in 0..n {
            let (ar, ai) = (re[j * h + k], im[j * h + k]);
            let (br, bi) = (re[j * h + m - k], -im[j * h + m - k]);
            let (er, ei) = ((ar + br) * 0.5, (ai + bi) * 0.5);
            let (dr, di) = ((ar - br) * 0.5, (ai - bi) * 0.5);
            let (or, oi) = (wr * dr - wi * di, wr * di + wi * dr);
            (sr[k * n + j], si[k * n + j]) = (er - oi, ei + or);
        }
    }
    kernel.rows(sr, si, n, half);
    for (j, line) in real.chunks_exact_mut(n).enumerate() {
        for (t, pair) in line.chunks_exact_mut(2).enumerate() {
            (pair[0], pair[1]) = (sr[t * n + j], si[t * n + j]);
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

    /// The kernels this CPU runs: the baseline always, AVX2 when detected.
    fn kernels() -> Vec<Kernel> {
        let mut all = vec![Kernel::Baseline];
        match Kernel::avx2() {
            Some(k) => all.push(k),
            None => eprintln!("no AVX2 on this CPU: the AVX2 half of this test was skipped"),
        }
        all
    }

    /// Values that exercise the rounding: mixed signs and magnitudes,
    /// signed zeros.
    fn awkward(ix: usize) -> f64 {
        match ix % 13 {
            0 => 0.0,
            5 => -0.0,
            7 => 1e-300 * ix as f64,
            11 => -3e7 / (1 + ix) as f64,
            _ => ((ix as f64) * 0.618_033_988_75).sin() * (1 + ix % 5) as f64,
        }
    }

    #[test]
    fn fft_1d_matches_the_interleaved_reference_bitwise() {
        for n in (0..=10).map(|b| 1usize << b) {
            let orig: Vec<Complex> = (0..n)
                .map(|t| Complex::new(awkward(t), awkward(t + 3 * n)))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut want = orig.clone();
                let tw = crate::fft_reference::twiddles(n, dir);
                crate::fft_reference::fft_rows(&mut want, 1, &tw, dir);
                let mut got = orig.clone();
                fft_1d(&mut got, dir);
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits())
                    );
                }
            }
        }
    }

    /// The split-plane transform is the interleaved one bit for bit, in
    /// both directions, n = 2 … 64, for each compilation of the kernel.
    #[test]
    fn grid3_fft_matches_the_interleaved_reference_bitwise() {
        for n in (1..=6).map(|b| 1usize << b) {
            let mut g = Grid3::zeros(n);
            for (ix, c) in g.data.iter_mut().enumerate() {
                *c = Complex::new(awkward(ix), awkward(ix * 7 + 1));
            }
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut want = g.clone();
                crate::fft_reference::grid3_fft(&mut want, dir);
                for kernel in kernels() {
                    let mut got = g.clone();
                    got.fft_with(kernel, dir);
                    for (ix, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
                        assert_eq!(
                            (a.re.to_bits(), a.im.to_bits()),
                            (b.re.to_bits(), b.im.to_bits()),
                            "n={n} {dir:?} {kernel:?} at {ix}"
                        );
                    }
                }
            }
        }
    }

    /// As above for the half-spectrum filter, with an even multiplier and
    /// one that is not.
    #[test]
    fn filter_real_matches_the_interleaved_reference_bitwise() {
        for n in (1..=6).map(|b| 1usize << b) {
            let real: Vec<f64> = (0..n * n * n).map(awkward).collect();
            let odd = move |i: usize, j: usize, k: usize| 1.0 + (i * 3 + j * 5 + k) as f64 / 7.0;
            let even = even_multiplier(n);
            let filters: [&(dyn Fn(usize, usize, usize) -> f64 + Sync); 2] = [&even, &odd];
            for g in filters {
                let want = crate::fft_reference::filter_real(n, &real, g);
                for kernel in kernels() {
                    let got = filter_real_with(kernel, n, &real, g);
                    for (ix, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} {kernel:?} at {ix}");
                    }
                }
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
