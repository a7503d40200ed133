//! `tmk-parmacs`: the parallel programming interface shared by every
//! platform in the case study.
//!
//! The paper's applications are written once against the ANL PARMACS macros
//! and recompiled for each machine; the shared-memory implementation is the
//! only thing that changes. This crate plays the PARMACS role: the
//! [`System`] trait is the programming interface, implemented by every
//! machine model in `tmk-machines` (SGI-like bus machine, TreadMarks/ATM
//! cluster, directory machine, hybrid) and trivially by
//! [`SequentialSystem`] for reference runs.
//!
//! Applications are generic over `S: System`, address shared memory through
//! typed [`SharedSlice`]s laid out by an [`Alloc`], initialize it through
//! [`InitWriter`] on the master before the parallel phase, and synchronize
//! with numbered locks and barriers.

use std::marker::PhantomData;

/// Simulated-cycle count (re-declared here so apps need not depend on the
/// simulator; machine models interpret it).
pub type Cycle = u64;

/// The PARMACS-like programming interface, one handle per processor.
///
/// Data-plane calls operate on a flat shared byte segment. Ranged accesses
/// are the unit of simulated atomicity: a single `read_bytes`/`write_bytes`
/// executes at one simulated instant (machine models charge per-cache-line
/// costs internally), so apps should size them like the real programs'
/// natural data units (a matrix row, a molecule record, a queue entry).
pub trait System {
    /// Number of processors in this run.
    fn nprocs(&self) -> usize;
    /// This processor's id, in `0..nprocs`.
    fn pid(&self) -> usize;
    /// Reads shared memory.
    fn read_bytes(&self, addr: usize, buf: &mut [u8]);
    /// Writes shared memory.
    fn write_bytes(&self, addr: usize, data: &[u8]);
    /// Acquires a numbered global lock.
    fn lock(&self, lock: usize);
    /// Releases a numbered global lock.
    fn unlock(&self, lock: usize);
    /// Waits at a numbered global barrier until all processors arrive.
    fn barrier(&self, barrier: usize);
    /// Charges `cycles` of private computation (the execution-driven
    /// equivalent of actually spending that much CPU time).
    fn compute(&self, cycles: Cycle);
    /// Marks the start of the measurement window: machine models snapshot
    /// their statistics counters so steady-state rates can exclude cold
    /// start (the paper excludes SOR's first iteration this way).
    fn mark(&self) {}
}

/// Typed convenience accessors for any [`System`], including trait objects.
pub trait SystemExt: System {
    /// Reads one scalar.
    fn read<T: Scalar>(&self, addr: usize) -> T {
        let mut buf = [0u8; 16];
        let b = &mut buf[..T::BYTES];
        self.read_bytes(addr, b);
        T::from_le(b)
    }

    /// Writes one scalar.
    fn write<T: Scalar>(&self, addr: usize, v: T) {
        let mut buf = [0u8; 16];
        let b = &mut buf[..T::BYTES];
        v.to_le(b);
        self.write_bytes(addr, b);
    }
}

impl<S: System + ?Sized> SystemExt for S {}

/// Pre-parallel initialization sink: the master writes initial shared data
/// through this before processors start (PARMACS programs initialize in the
/// sequential prologue).
pub trait InitWriter {
    /// Writes initial bytes at `addr`.
    fn write_init(&mut self, addr: usize, bytes: &[u8]);
}

/// Typed convenience for any [`InitWriter`], including trait objects.
pub trait InitExt: InitWriter {
    /// Writes one initial scalar.
    fn init<T: Scalar>(&mut self, addr: usize, v: T) {
        let mut buf = [0u8; 16];
        let b = &mut buf[..T::BYTES];
        v.to_le(b);
        self.write_init(addr, b);
    }
}

impl<W: InitWriter + ?Sized> InitExt for W {}

/// Fixed-size little-endian scalars storable in shared memory.
///
/// Sealed: the ten primitive numeric types are the only implementors, so a
/// `[T]` can be handed to a machine as the bytes it already is (every bit
/// pattern of each is a valid value, and none has padding).
///
/// ```compile_fail,E0277
/// #[derive(Clone, Copy)]
/// struct Mine(u32);
/// impl tmk_parmacs::Scalar for Mine {
///     const BYTES: usize = 4;
///     fn to_le(self, out: &mut [u8]) {
///         out.copy_from_slice(&self.0.to_le_bytes());
///     }
///     fn from_le(inp: &[u8]) -> Self {
///         Mine(u32::from_le_bytes(inp.try_into().unwrap()))
///     }
/// }
/// ```
pub trait Scalar: Copy + sealed::Sealed {
    /// Encoded size in bytes (at most 16).
    const BYTES: usize;
    /// Serializes into `out` (`out.len() == Self::BYTES`).
    fn to_le(self, out: &mut [u8]);
    /// Deserializes from `inp` (`inp.len() == Self::BYTES`).
    fn from_le(inp: &[u8]) -> Self;
}

mod sealed {
    pub trait Sealed {}
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn to_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn from_le(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("scalar width"))
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// Runs `f` on the shared-memory (little-endian) encoding of `vals`.
fn with_le_bytes<T: Scalar, R>(vals: &[T], f: impl FnOnce(&[u8]) -> R) -> R {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `Scalar` is sealed to the primitive numeric types, which
        // have no padding, so all `size_of_val(vals)` bytes behind the
        // pointer are initialized; `u8` has alignment 1; the shared borrow
        // of `vals` outlives the view. On a little-endian target the bytes
        // in memory are each element's `to_le` encoding, in order.
        f(
            unsafe {
                std::slice::from_raw_parts(vals.as_ptr().cast(), std::mem::size_of_val(vals))
            },
        )
    }
    #[cfg(target_endian = "big")]
    f(&encode(vals))
}

/// Lets `fill` write the shared-memory (little-endian) encoding of `out`.
fn fill_from_le_bytes<T: Scalar>(out: &mut [T], fill: impl FnOnce(&mut [u8])) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `with_le_bytes`, and additionally every bit pattern
        // is a valid value of each sealed primitive, so `fill` may store any
        // bytes; the exclusive borrow of `out` outlives the view.
        fill(unsafe {
            std::slice::from_raw_parts_mut(out.as_mut_ptr().cast(), std::mem::size_of_val(out))
        })
    }
    #[cfg(target_endian = "big")]
    {
        let mut bytes = vec![0u8; out.len() * T::BYTES];
        fill(&mut bytes);
        decode(&bytes, out);
    }
}

/// The per-element codec: what a big-endian host runs, and the reference
/// the tests hold the byte view to.
#[cfg(any(target_endian = "big", test))]
fn encode<T: Scalar>(vals: &[T]) -> Vec<u8> {
    let mut bytes = vec![0u8; vals.len() * T::BYTES];
    for (chunk, v) in bytes.chunks_exact_mut(T::BYTES).zip(vals) {
        v.to_le(chunk);
    }
    bytes
}

#[cfg(any(target_endian = "big", test))]
fn decode<T: Scalar>(bytes: &[u8], out: &mut [T]) {
    for (chunk, slot) in bytes.chunks_exact(T::BYTES).zip(out) {
        *slot = T::from_le(chunk);
    }
}

/// A typed view of a shared-memory array.
#[derive(Debug)]
pub struct SharedSlice<T> {
    addr: usize,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

// Derive would put bounds on T; a SharedSlice is always Copy/Clone.
impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedSlice<T> {}

impl<T: Scalar> SharedSlice<T> {
    /// Views `len` elements at byte address `addr`.
    pub fn new(addr: usize, len: usize) -> Self {
        SharedSlice {
            addr,
            len,
            _marker: PhantomData,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `len == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base byte address.
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn addr_of(&self, i: usize) -> usize {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.addr + i * T::BYTES
    }

    /// Reads element `i`.
    pub fn get<S: System + ?Sized>(&self, sys: &S, i: usize) -> T {
        sys.read(self.addr_of(i))
    }

    /// Writes element `i`.
    pub fn set<S: System + ?Sized>(&self, sys: &S, i: usize, v: T) {
        sys.write(self.addr_of(i), v)
    }

    /// Reads `out.len()` elements starting at `i` in one ranged access,
    /// straight into `out`.
    pub fn read_range<S: System + ?Sized>(&self, sys: &S, i: usize, out: &mut [T]) {
        assert!(i + out.len() <= self.len);
        fill_from_le_bytes(out, |bytes| sys.read_bytes(self.addr + i * T::BYTES, bytes));
    }

    /// Writes `vals` starting at `i` in one ranged access, straight out of
    /// `vals`.
    pub fn write_range<S: System + ?Sized>(&self, sys: &S, i: usize, vals: &[T]) {
        assert!(i + vals.len() <= self.len);
        with_le_bytes(vals, |bytes| {
            sys.write_bytes(self.addr + i * T::BYTES, bytes)
        });
    }

    /// Initializes elements `[i, i+vals.len())` on the master.
    pub fn init_range<W: InitWriter + ?Sized>(&self, w: &mut W, i: usize, vals: &[T]) {
        assert!(i + vals.len() <= self.len);
        with_le_bytes(vals, |bytes| w.write_init(self.addr + i * T::BYTES, bytes));
    }
}

/// Bump allocator for laying out shared data structures.
#[derive(Debug, Clone)]
pub struct Alloc {
    next: usize,
    limit: usize,
}

impl Alloc {
    /// An allocator over a `limit`-byte shared segment.
    pub fn new(limit: usize) -> Self {
        Alloc { next: 0, limit }
    }

    /// Allocates raw bytes with alignment.
    ///
    /// # Panics
    ///
    /// Panics when the segment is exhausted or `align` is not a power of
    /// two.
    pub fn bytes(&mut self, len: usize, align: usize) -> usize {
        assert!(align.is_power_of_two());
        let addr = (self.next + align - 1) & !(align - 1);
        assert!(
            addr + len <= self.limit,
            "shared segment exhausted: need {len}B at {addr}, limit {}",
            self.limit
        );
        self.next = addr + len;
        addr
    }

    /// Allocates a typed array (naturally aligned).
    pub fn slice<T: Scalar>(&mut self, len: usize) -> SharedSlice<T> {
        let addr = self.bytes(len * T::BYTES, T::BYTES.max(1));
        SharedSlice::new(addr, len)
    }

    /// Allocates a typed array starting on a fresh boundary of `align`
    /// bytes — used to give each processor's partition its own pages.
    pub fn slice_aligned<T: Scalar>(&mut self, len: usize, align: usize) -> SharedSlice<T> {
        let addr = self.bytes(len * T::BYTES, align);
        SharedSlice::new(addr, len)
    }

    /// Bytes consumed so far.
    pub fn used(&self) -> usize {
        self.next
    }
}

/// A complete parallel application in the PARMACS style: a shared-memory
/// layout, a sequential master initialization, and an SPMD body.
///
/// Workloads are machine-independent; `tmk-machines::run_workload` executes
/// them on any platform. The body returns a per-processor checksum so
/// cross-platform runs can validate that every shared-memory implementation
/// computed the same answer.
pub trait Workload: Sync {
    /// Shared-layout handle produced by [`plan`](Self::plan) (addresses of
    /// the allocated structures).
    type Plan: Send + Sync;

    /// Short application name ("sor", "tsp", ...) — stable across inputs,
    /// used by benchmark drivers to key memoized runs and label records.
    fn name(&self) -> &'static str;

    /// The input parameters of this instance as a `key=value ...` string,
    /// so every run can report exactly what it executed (DESIGN.md §3) and
    /// two instances with different inputs never share a memo entry.
    fn params(&self) -> String;

    /// Shared segment size this workload needs, in bytes.
    fn segment_bytes(&self) -> usize;

    /// Lays out shared data.
    fn plan(&self, alloc: &mut Alloc) -> Self::Plan;

    /// Master initialization, run before the parallel phase.
    fn init(&self, plan: &Self::Plan, w: &mut dyn InitWriter);

    /// The SPMD body; returns this processor's checksum contribution.
    fn body(&self, sys: &dyn System, plan: &Self::Plan) -> f64;
}

/// A trivial single-"processor" `System` over a plain byte vector: the
/// sequential reference implementation used by app unit tests and
/// correctness oracles.
#[derive(Debug)]
pub struct SequentialSystem {
    mem: std::cell::RefCell<Vec<u8>>,
}

impl SequentialSystem {
    /// A sequential system with `bytes` of zeroed shared memory.
    pub fn new(bytes: usize) -> Self {
        SequentialSystem {
            mem: std::cell::RefCell::new(vec![0; bytes]),
        }
    }
}

impl System for SequentialSystem {
    fn nprocs(&self) -> usize {
        1
    }
    fn pid(&self) -> usize {
        0
    }
    fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        let mem = self.mem.borrow();
        buf.copy_from_slice(&mem[addr..addr + buf.len()]);
    }
    fn write_bytes(&self, addr: usize, data: &[u8]) {
        let mut mem = self.mem.borrow_mut();
        mem[addr..addr + data.len()].copy_from_slice(data);
    }
    fn lock(&self, _lock: usize) {}
    fn unlock(&self, _lock: usize) {}
    fn barrier(&self, _barrier: usize) {}
    fn compute(&self, _cycles: Cycle) {}
}

impl InitWriter for SequentialSystem {
    fn write_init(&mut self, addr: usize, bytes: &[u8]) {
        self.write_bytes(addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let sys = SequentialSystem::new(64);
        sys.write(0, 3.5f64);
        sys.write(8, -7i32);
        sys.write(12, 250u8);
        assert_eq!(sys.read::<f64>(0), 3.5);
        assert_eq!(sys.read::<i32>(8), -7);
        assert_eq!(sys.read::<u8>(12), 250);
    }

    #[test]
    fn shared_slice_ranges() {
        let sys = SequentialSystem::new(256);
        let s: SharedSlice<f64> = SharedSlice::new(16, 10);
        s.write_range(&sys, 2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0; 3];
        s.read_range(&sys, 2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(s.get(&sys, 3), 2.0);
        assert_eq!(s.addr_of(2), 32);
    }

    /// Ranged accesses against per-element `get`/`set` and the byte view
    /// against the per-element codec, at an odd byte address, for lengths
    /// 0, 1 and `vals.len()`.
    fn check_ranges<T: Scalar + PartialEq + std::fmt::Debug>(vals: &[T]) {
        for n in [0, 1, vals.len()] {
            let vals = &vals[..n];
            let slice: SharedSlice<T> = SharedSlice::new(3, n + 2);
            with_le_bytes(vals, |bytes| assert_eq!(bytes, encode(vals)));

            let written = SequentialSystem::new(256);
            slice.write_range(&written, 1, vals);
            let mut inited = SequentialSystem::new(256);
            slice.init_range(&mut inited, 1, vals);
            let by_element = SequentialSystem::new(256);
            for (k, &v) in vals.iter().enumerate() {
                slice.set(&by_element, 1 + k, v);
            }
            assert_eq!(*written.mem.borrow(), *by_element.mem.borrow());
            assert_eq!(*inited.mem.borrow(), *by_element.mem.borrow());

            let mut out = vec![T::from_le(&[0x5a; 16][..T::BYTES]); n];
            slice.read_range(&by_element, 1, &mut out);
            for (k, v) in out.iter().enumerate() {
                assert_eq!(*v, slice.get(&by_element, 1 + k));
            }
            // Bit-exact, which `==` on floats is not (-0.0 == 0.0).
            assert_eq!(encode(&out), encode(vals));
            out.fill(T::from_le(&[0x5a; 16][..T::BYTES]));
            decode(&encode(vals), &mut out);
            assert_eq!(encode(&out), encode(vals));
        }
    }

    #[test]
    fn ranges_match_per_element_access_for_every_scalar() {
        check_ranges::<u8>(&[0, 1, 0x80, 0xff]);
        check_ranges::<u16>(&[0, 1, 0x8001, 0xfffe]);
        check_ranges::<u32>(&[0, 1, 0x8000_0001, 0xdead_beef]);
        check_ranges::<u64>(&[0, 1, 0x8000_0000_0000_0001, 0x0123_4567_89ab_cdef]);
        check_ranges::<i8>(&[0, -1, i8::MIN, i8::MAX]);
        check_ranges::<i16>(&[0, -1, i16::MIN, 0x1234]);
        check_ranges::<i32>(&[0, -1, i32::MIN, 0x1234_5678]);
        check_ranges::<i64>(&[0, -1, i64::MIN, 0x0123_4567_89ab_cdef]);
        check_ranges::<f32>(&[0.0, -0.0, 1.5, f32::MIN_POSITIVE, f32::INFINITY]);
        check_ranges::<f64>(&[0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NEG_INFINITY]);
    }

    #[test]
    fn alloc_alignment_and_exhaustion() {
        let mut a = Alloc::new(64);
        let x = a.bytes(3, 1);
        assert_eq!(x, 0);
        let y = a.bytes(8, 8);
        assert_eq!(y, 8);
        let s: SharedSlice<u32> = a.slice(4);
        assert_eq!(s.addr() % 4, 0);
        assert!(std::panic::catch_unwind(move || {
            let mut a = a;
            a.bytes(1000, 1)
        })
        .is_err());
    }

    #[test]
    fn aligned_slice_starts_on_boundary() {
        let mut a = Alloc::new(65536);
        let _pad: SharedSlice<u8> = a.slice(10);
        let s: SharedSlice<f64> = a.slice_aligned(8, 4096);
        assert_eq!(s.addr() % 4096, 0);
    }

    #[test]
    fn init_writer_roundtrip() {
        let mut sys = SequentialSystem::new(64);
        let s: SharedSlice<u64> = SharedSlice::new(0, 4);
        s.init_range(&mut sys, 1, &[10, 20]);
        assert_eq!(s.get(&sys, 1), 10);
        assert_eq!(s.get(&sys, 2), 20);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn addr_of_bounds_checked() {
        let s: SharedSlice<u64> = SharedSlice::new(0, 2);
        s.addr_of(2);
    }
}
