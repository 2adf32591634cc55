//! Hostile length fields must not turn into allocations.
//!
//! The artifact CRC is integrity, not authentication: anyone who can
//! publish can compute it over a blob of their choosing. A ~200-byte
//! artifact whose header claims a 2^30-element tensor must not ask for a
//! 4 GiB `vec![0f32; ..]` — an allocation failure aborts the replica.
//! This binary installs a counting global allocator (which is why it is
//! a binary of its own, with one test so nothing else allocates
//! meanwhile) and checks that every such claim, in a published artifact
//! and in a model file, is refused as a format error having allocated
//! less than 1 MiB beyond its input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smgcn_obs::integrity::{crc32, FRAME_HEADER};
use smgcn_serve::{artifact, FrozenError, FrozenModel, ServingVocab};
use smgcn_tensor::Matrix;

/// Bytes requested from the allocator since the process started
/// (growth only: frees are not subtracted).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

/// Runs `f` and returns its result with the bytes it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

/// A small valid artifact (no names, so the tensor directory starts the
/// header) and the offset of its header frame's payload.
fn valid_artifact() -> (Vec<u8>, usize) {
    let symptoms = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 - 1.5);
    let herbs = Matrix::from_fn(4, 2, |r, c| (r * 3 + c * 5) as f32 * 0.25 - 2.0);
    let model = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
    let blob = artifact::encode(&model, &ServingVocab::default());
    assert_eq!(&blob[..artifact::MAGIC.len()], artifact::MAGIC);
    (blob, artifact::MAGIC.len() + FRAME_HEADER)
}

/// Overwrites the `u64` at `at` and recomputes the header frame's CRC, so
/// the blob reaches the parser behind the checksum.
fn patched(blob: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut blob = blob.to_vec();
    blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let header = artifact::MAGIC.len() + FRAME_HEADER;
    let len = u32::from_le_bytes(blob[header - 8..header - 4].try_into().unwrap()) as usize;
    let crc = crc32(&blob[header..header + len]);
    blob[header - 4..header].copy_from_slice(&crc.to_le_bytes());
    blob
}

#[test]
fn hostile_lengths_are_refused_without_allocating_for_them() {
    let (valid, header) = valid_artifact();
    assert!(artifact::decode(&valid).is_ok());
    // Header layout: version 4, the two name counts 8 + 8, the tensor
    // count 8, then per tensor name_len 8, name, rows 8, cols 8, crc 4.
    // The first tensor is "frozen.symptoms" (15 bytes).
    let n_at = header + 20;
    let name_len_at = n_at + 8;
    let rows_at = name_len_at + 8 + 15;
    let cols_at = rows_at + 8;
    // The first tensor frame starts right after the header frame.
    let header_len = u32::from_le_bytes(valid[header - 8..header - 4].try_into().unwrap());
    let first_frame_at = header + header_len as usize;
    let cases = [
        // 2^29 rows of the model's 2 columns: more than a frame holds.
        ("2^30-element tensor", patched(&valid, rows_at, 1 << 29)),
        // A frame holds 1 GiB, and the header and the frame agree on
        // it, but the input does not hold it.
        ("2^28-element tensor", {
            let mut blob = patched(&valid, rows_at, 1 << 27);
            blob[first_frame_at..first_frame_at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
            blob
        }),
        (
            "2^30 elements as 2^15 x 2^15",
            patched(&patched(&valid, rows_at, 1 << 15), cols_at, 1 << 15),
        ),
        ("2^62 tensors", patched(&valid, n_at, 1 << 62)),
        ("1 MiB name", patched(&valid, name_len_at, 1 << 20)),
        ("2^40-byte name", patched(&valid, name_len_at, 1 << 40)),
        ("a frame past the end of the input", {
            let mut blob = valid.clone();
            blob[first_frame_at..first_frame_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            blob
        }),
    ];
    for (what, blob) in &cases {
        let (result, allocated) = counted(|| artifact::decode(blob));
        match result {
            Err(FrozenError::Format(_)) => {}
            other => panic!("{what}: expected a format error, got {other:?}"),
        }
        assert!(
            allocated < MIB,
            "{what}: decode allocated {allocated} bytes for a {}-byte artifact",
            blob.len()
        );
    }
    // The same claims in a file: its length bounds them just the same.
    let path = std::env::temp_dir().join(format!("smgcn_alloc_bound_{}", std::process::id()));
    for (what, blob) in &cases {
        std::fs::write(&path, blob).unwrap();
        let (result, allocated) = counted(|| FrozenModel::load(&path));
        match result {
            Err(FrozenError::Format(_)) => {}
            other => panic!("{what}: expected a format error, got {other:?}"),
        }
        assert!(
            allocated < blob.len() + MIB,
            "{what}: load allocated {allocated} bytes for a {}-byte file",
            blob.len()
        );
    }
    std::fs::remove_file(&path).ok();
    // The counter sees what it should: a valid decode allocates, and
    // before the claims were checked the first case asked for 4 GiB.
    let (_, allocated) = counted(|| artifact::decode(&valid).unwrap());
    assert!(allocated > 0);
}
