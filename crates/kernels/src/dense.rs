//! Deterministic, team-parallel dense-vector passes for the solvers.
//!
//! A Krylov iteration spends its time in one SpMV and a handful of
//! streaming passes over `f64` vectors: dots, axpys, direction
//! updates. At DRAM-resident sizes those passes are pure bandwidth,
//! and running them on one core while the SpMV uses the whole team
//! leaves most of the memory system idle. [`Passes`] runs them on the
//! same warm [`ExecEngine`] team the kernels use.
//!
//! # Chunks and determinism
//!
//! A pass walks its vectors in fixed [`CHUNK`]-element chunks. Each
//! chunk's reduction partials go to that chunk's slot of a scratch
//! buffer allocated once per [`Passes`], and the caller sums the slots
//! in chunk order. Which worker ran which chunk never reaches the
//! result. Every reduction is therefore bitwise the same for every
//! team size, and the same whether the pass was dispatched or ran
//! inline. Within a chunk, [`dot_chunk`] accumulates in four
//! interleaved lanes, the order of the serial dot the solvers used
//! before, so a vector of at most one chunk reduces exactly as it
//! did.
//!
//! # Fusion
//!
//! [`Passes::pass`] hands its body the chunk's sub-slice of every
//! output and input, so one pass can update several vectors and then
//! reduce over the updated values while the chunk is still in cache.
//! A reduction over a freshly updated chunk is bitwise the same as a
//! separate dot pass over the whole updated vector. Outputs reach the
//! workers as disjoint per-chunk sub-slices through [`YPtr`]; the
//! borrow checker already guarantees that no output aliases another
//! output or an input, so the API is safe for callers.
//!
//! # Inline cutoff
//!
//! Passes over fewer than [`INLINE_CHUNKS`] chunks run on the calling
//! thread without a dispatch; see that constant for its derivation.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::engine::ExecEngine;
use crate::schedule::YPtr;

/// Elements per chunk (64 KiB of `f64`). A fused pass over up to six
/// vectors keeps its chunks (384 KiB) in a core's L2, so the
/// reductions that follow an update re-read it from cache, not DRAM.
pub const CHUNK: usize = 8192;

/// Fewest chunks a pass needs before it is dispatched to the team;
/// smaller passes run inline on the caller.
///
/// Dispatching pays when the work it takes off the caller exceeds the
/// team's wake-up: on `T` threads a pass of `c` chunks at `t` seconds
/// each saves `c·t·(1 − 1/T)` against one `engine.wake_us`. On the
/// two-vCPU AVX-512 host the repository benchmark runs on, an empty
/// dispatch measured 17 µs back to back (60 µs after a 2 ms idle
/// gap), and the cheapest chunk — a dot over two cache-resident
/// chunks — streams in about 5 µs. With `T = 2` that breaks even at
/// `c = 2·wake/t ≈ 7` chunks; measured, a 4-chunk dot took 23 µs
/// inline against 27 µs dispatched, an 8-chunk dot 46 µs against
/// 37 µs. Eight chunks (64K elements) is the first power of two past
/// break-even. DRAM-resident vectors stream each chunk several times
/// slower and clear the cutoff by orders of magnitude, so its exact
/// value only decides small, cache-resident solves.
pub const INLINE_CHUNKS: usize = 8;

/// Most reduction results one pass may return.
pub const MAX_PARTIALS: usize = 4;

/// The host's parallelism, read once per process.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Dot product over one chunk in four interleaved lanes: lane `j`
/// accumulates elements `4k + j`, the lanes combine pairwise, and the
/// tail adds on in order.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn dot_chunk(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; 4];
    let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
    let (b4, b_tail) = b.split_at(a4.len());
    for (x, y) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        for j in 0..4 {
            acc[j] += x[j] * y[j];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        s += x * y;
    }
    s
}

/// Team-parallel passes over vectors of one fixed length, with the
/// reduction scratch they need. Build one per solve.
#[derive(Debug)]
pub struct Passes {
    engine: Arc<ExecEngine>,
    len: usize,
    /// `MAX_PARTIALS` slots per chunk, written by whichever worker
    /// runs the chunk and summed in chunk order by the caller.
    partials: Vec<f64>,
}

impl Passes {
    /// Passes over vectors of `len` elements on the process-wide
    /// engine for the host's parallelism — the warm team the kernels
    /// dispatch to.
    pub fn new(len: usize) -> Passes {
        Passes::with_engine(len, ExecEngine::global(host_threads()))
    }

    /// Passes over vectors of `len` elements on `engine`.
    pub fn with_engine(len: usize, engine: Arc<ExecEngine>) -> Passes {
        let partials = vec![0.0; len.div_ceil(CHUNK) * MAX_PARTIALS];
        Passes { engine, len, partials }
    }

    /// Runs `body` over every chunk of `outs` and `ins` and returns
    /// its `K` per-chunk results, each summed in chunk order.
    ///
    /// `body` receives the chunk's sub-slice of every output and
    /// input, all of one length. It must compute its results from
    /// those slices alone — then they, and the outputs, are bitwise
    /// independent of the team size. Passes of at least
    /// [`INLINE_CHUNKS`] chunks dispatch to the team under `label`,
    /// which names them in `/trace` and the engine telemetry.
    ///
    /// # Panics
    /// Panics if a vector's length differs from this `Passes`' length
    /// or `K > MAX_PARTIALS`, and re-raises a panic of `body`.
    pub fn pass<const M: usize, const N: usize, const K: usize>(
        &mut self,
        label: &str,
        outs: [&mut [f64]; M],
        ins: [&[f64]; N],
        body: impl Fn([&mut [f64]; M], [&[f64]; N]) -> [f64; K] + Sync,
    ) -> [f64; K] {
        assert!(K <= MAX_PARTIALS, "a pass returns at most {MAX_PARTIALS} reductions");
        let len = self.len;
        assert!(
            outs.iter().map(|o| o.len()).chain(ins.iter().map(|i| i.len())).all(|l| l == len),
            "vector length differs from the pass length {len}"
        );
        let outs = outs.map(|o| YPtr(o.as_mut_ptr()));
        let slots = YPtr(self.partials.as_mut_ptr());
        let run_chunks = |chunks: Range<usize>| {
            for c in chunks {
                let start = c * CHUNK;
                let end = (start + CHUNK).min(len);
                // SAFETY: every output has `len` elements (asserted
                // above) and came from its own `&mut` borrow, held by
                // this call until the pass returns. Chunk `c` is run
                // by exactly one worker, so `start..end` is disjoint
                // from every other live sub-slice of the same vector.
                let o = outs.map(|p| unsafe { p.subslice(start, end - start) });
                let sums = body(o, ins.map(|i| &i[start..end]));
                for (k, s) in sums.into_iter().enumerate() {
                    // SAFETY: `partials` holds `MAX_PARTIALS ≥ K`
                    // slots per chunk, borrowed exclusively by
                    // `&mut self`; slot `c·MAX_PARTIALS + k` belongs
                    // to chunk `c`, run by this worker alone.
                    unsafe { slots.write(c * MAX_PARTIALS + k, s) };
                }
            }
        };
        let nchunks = len.div_ceil(CHUNK);
        if nchunks < INLINE_CHUNKS {
            run_chunks(0..nchunks);
        } else {
            let t = self.engine.nthreads();
            self.engine.run_labeled(label, &|tid| {
                run_chunks(nchunks * tid / t..nchunks * (tid + 1) / t);
            });
        }
        std::array::from_fn(|k| {
            let mut slots = self.partials.iter().skip(k).step_by(MAX_PARTIALS).take(nchunks);
            // Start from the first chunk, not from 0.0, so one chunk
            // returns its partial unchanged (a -0.0 included).
            let first = slots.next().copied().unwrap_or(0.0);
            slots.fold(first, |sum, s| sum + s)
        })
    }

    /// `a · b`.
    ///
    /// # Panics
    /// Panics on a length other than this `Passes`' length.
    pub fn dot(&mut self, label: &str, a: &[f64], b: &[f64]) -> f64 {
        let [d] = self.pass(label, [], [a, b], |[], [a, b]| [dot_chunk(a, b)]);
        d
    }

    /// Euclidean norm `‖a‖`.
    ///
    /// # Panics
    /// Panics on a length other than this `Passes`' length.
    pub fn norm2(&mut self, label: &str, a: &[f64]) -> f64 {
        let [d] = self.pass(label, [], [a], |[], [a]| [dot_chunk(a, a)]);
        d.sqrt()
    }

    /// `y += alpha · x`.
    ///
    /// # Panics
    /// Panics on a length other than this `Passes`' length.
    pub fn axpy(&mut self, label: &str, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.pass(label, [y], [x], |[y], [x]| {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
            []
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial four-lane dot the solvers used before this module:
    /// the reference the single-chunk case must match bitwise.
    fn serial_dot(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        let chunks = a.len() / 4;
        for k in 0..chunks {
            let i = 4 * k;
            acc[0] += a[i] * b[i];
            acc[1] += a[i + 1] * b[i + 1];
            acc[2] += a[i + 2] * b[i + 2];
            acc[3] += a[i + 3] * b[i + 3];
        }
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for i in 4 * chunks..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    /// Values whose sums depend on the order they are added in.
    fn wobbly(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
                (h as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi((i % 7) as i32 - 3)
            })
            .collect()
    }

    /// Below one chunk, exactly one chunk, and several chunks with a
    /// ragged tail — the last both below and above the inline cutoff.
    const SIZES: [usize; 6] = [0, 5, 1000, CHUNK, 3 * CHUNK + 17, INLINE_CHUNKS * CHUNK + 4097];

    fn engines() -> Vec<Arc<ExecEngine>> {
        (1..=3).map(|t| Arc::new(ExecEngine::new(t))).collect()
    }

    #[test]
    fn dot_matches_naive_for_all_remainders() {
        for n in 0..12 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot_chunk(&a, &b) - naive).abs() < 1e-12, "n={n}");
            assert!((Passes::new(n).dot("t", &a, &b) - naive).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn single_chunk_dot_equals_the_serial_dot() {
        for n in [0, 1, 3, 4, 7, 1000, CHUNK - 1, CHUNK] {
            let (a, b) = (wobbly(n, 1), wobbly(n, 2));
            for e in engines() {
                let d = Passes::with_engine(n, e).dot("t", &a, &b);
                assert_eq!(d.to_bits(), serial_dot(&a, &b).to_bits(), "n={n}");
            }
        }
        // One chunk's partial comes back unchanged, a -0.0 included.
        let [z] = Passes::new(1).pass("t", [], [&[1.0][..]], |[], [_]| [-0.0]);
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn dot_and_norm_are_bitwise_independent_of_the_team() {
        for n in SIZES {
            let (a, b) = (wobbly(n, 3), wobbly(n, 4));
            let got: Vec<(u64, u64)> = engines()
                .into_iter()
                .map(|e| {
                    let mut p = Passes::with_engine(n, e);
                    (p.dot("t", &a, &b).to_bits(), p.norm2("t", &a).to_bits())
                })
                .collect();
            assert!(got.windows(2).all(|w| w[0] == w[1]), "n={n}: {got:?}");
        }
    }

    #[test]
    fn fused_passes_are_bitwise_independent_of_the_team() {
        for n in SIZES {
            let (p0, q, d) = (wobbly(n, 5), wobbly(n, 6), wobbly(n, 7));
            let run = |e: Arc<ExecEngine>| {
                let mut ps = Passes::with_engine(n, e);
                let (mut x, mut r, mut z) = (wobbly(n, 8), wobbly(n, 9), vec![0.0; n]);
                // A CG-style update with preconditioning and two
                // reductions over the updated chunk.
                let red = ps.pass(
                    "t",
                    [&mut x, &mut r, &mut z],
                    [&p0, &q, &d],
                    |[x, r, z], [p, q, d]| {
                        for i in 0..x.len() {
                            x[i] += 0.3 * p[i];
                            r[i] -= 0.3 * q[i];
                            z[i] = r[i] * d[i];
                        }
                        [dot_chunk(r, r), dot_chunk(r, z)]
                    },
                );
                let mut y = p0.clone();
                ps.axpy("t", -1.7, &q, &mut y);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                (red.map(f64::to_bits), bits(&x), bits(&r), bits(&z), bits(&y))
            };
            let got: Vec<_> = engines().into_iter().map(run).collect();
            assert!(got.windows(2).all(|w| w[0] == w[1]), "n={n}");
        }
    }

    #[test]
    fn fused_reduction_equals_a_separate_dot() {
        let n = 3 * CHUNK + 17;
        let (q, mut r) = (wobbly(n, 10), wobbly(n, 11));
        let mut ps = Passes::with_engine(n, Arc::new(ExecEngine::new(2)));
        let [rr] = ps.pass("t", [&mut r], [&q], |[r], [q]| {
            for (ri, qi) in r.iter_mut().zip(q) {
                *ri -= 0.5 * qi;
            }
            [dot_chunk(r, r)]
        });
        assert_eq!(rr.to_bits(), ps.dot("t", &r, &r).to_bits());
    }

    #[test]
    fn axpy_and_norm() {
        let mut ps = Passes::new(2);
        let mut y = [10.0, 20.0];
        ps.axpy("t", 2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, [12.0, 24.0]);
        assert_eq!(ps.norm2("t", &[3.0, 4.0]), 5.0);
        assert_eq!(Passes::new(0).norm2("t", &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn length_mismatch_panics() {
        Passes::new(3).dot("t", &[1.0; 3], &[1.0; 2]);
    }
}
