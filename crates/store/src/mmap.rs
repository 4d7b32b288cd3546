//! Read-only file mappings without `libc`.
//!
//! The zero-copy open path wants the file's bytes addressable in place.
//! On Linux (x86-64 / AArch64) [`Mapping::open`] issues the `mmap` /
//! `munmap` syscalls directly via inline assembly — no new dependencies,
//! no `libc` crate — wrapped so the only `unsafe` lives here. On every
//! other platform, or if the kernel refuses the mapping, the file is read
//! into a 64-byte aligned heap buffer instead: one allocation and one copy,
//! same alignment guarantees, so every consumer above this module is
//! identical across the two modes.
//!
//! `mmap` returns page-aligned addresses (≥ 4 KiB), and the heap fallback
//! allocates 64-byte-aligned chunks, so in both modes a section placed on a
//! 64-byte file offset lands on a 64-byte address — the contract
//! [`gvex_linalg::backend::SIMD_ALIGN`] kernels rely on.

use crate::error::StoreError;
use std::fs::File;
use std::io::Read;
use std::ops::Deref;
use std::path::Path;

/// A 64-byte-aligned heap buffer (the portable mapping mode). Alignment
/// comes from the element type: the backing store is a `Vec` of 64-byte
/// cache-line chunks.
pub struct AlignedBuf {
    chunks: Vec<Chunk>,
    len: usize,
}

#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Chunk([u8; 64]);

impl AlignedBuf {
    /// Reads the whole of `file` (of known `len`) into a fresh buffer.
    fn read_from(file: &mut File, len: usize) -> Result<Self, StoreError> {
        let chunks = vec![Chunk([0u8; 64]); len.div_ceil(64)];
        let mut buf = Self { chunks, len };
        file.read_exact(buf.as_mut_bytes())?;
        Ok(buf)
    }

    fn as_mut_bytes(&mut self) -> &mut [u8] {
        // Chunk is a plain byte array with no padding; viewing the chunk
        // storage as bytes is exact.
        let ptr = self.chunks.as_mut_ptr() as *mut u8;
        unsafe { std::slice::from_raw_parts_mut(ptr, self.len) }
    }

    fn as_bytes(&self) -> &[u8] {
        let ptr = self.chunks.as_ptr() as *const u8;
        unsafe { std::slice::from_raw_parts(ptr, self.len) }
    }
}

/// Raw `mmap`/`munmap` syscalls. Linux-stable syscall ABI only; both
/// arches use `PROT_READ = 1`, `MAP_PRIVATE = 2`.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    /// Maps `len` bytes of `fd` read-only. Returns the mapped address or
    /// the negated errno.
    pub unsafe fn mmap_ro(fd: i32, len: usize) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        core::arch::asm!(
            "syscall",
            inlateout("rax") 9isize => ret,       // SYS_mmap
            in("rdi") 0usize,                     // addr hint
            in("rsi") len,
            in("rdx") 1usize,                     // PROT_READ
            in("r10") 2usize,                     // MAP_PRIVATE
            in("r8") fd as isize,
            in("r9") 0usize,                      // offset
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        #[cfg(target_arch = "aarch64")]
        core::arch::asm!(
            "svc 0",
            in("x8") 222isize,                    // SYS_mmap
            inlateout("x0") 0usize => ret,
            in("x1") len,
            in("x2") 1usize,                      // PROT_READ
            in("x3") 2usize,                      // MAP_PRIVATE
            in("x4") fd as isize,
            in("x5") 0usize,                      // offset
            options(nostack)
        );
        ret
    }

    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        let _ret: isize;
        #[cfg(target_arch = "x86_64")]
        core::arch::asm!(
            "syscall",
            inlateout("rax") 11isize => _ret,     // SYS_munmap
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        #[cfg(target_arch = "aarch64")]
        core::arch::asm!(
            "svc 0",
            in("x8") 215isize,                    // SYS_munmap
            inlateout("x0") ptr => _ret,
            in("x1") len,
            options(nostack)
        );
    }
}

/// A read-only view of a whole file: memory-mapped where possible, an
/// aligned heap copy otherwise. Dereferences to `&[u8]`.
pub enum Mapping {
    /// Kernel mapping; unmapped on drop.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mapped {
        /// Page-aligned base address.
        ptr: *const u8,
        /// Mapped length in bytes (the exact file length).
        len: usize,
    },
    /// Aligned heap copy (platforms without the syscall wrapper, refused
    /// mappings, empty files).
    Heap(AlignedBuf),
}

// The mapping is immutable for its whole lifetime (PROT_READ, private),
// so shared references to its bytes are safe to send across threads.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Opens `path` and makes its entire contents addressable: mapped where
    /// the syscall wrapper exists, read into the aligned heap buffer
    /// otherwise. Zero-length files yield an empty heap mapping (`mmap`
    /// rejects length 0).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(StoreError::Malformed("file exceeds addressable memory".into()));
        }
        let len = len as usize;
        if len > 0 {
            if let Some(m) = Self::try_map(&file, len) {
                return Ok(m);
            }
        }
        Ok(Mapping::Heap(AlignedBuf::read_from(&mut file, len)?))
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn try_map(file: &File, len: usize) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        let ret = unsafe { sys::mmap_ro(file.as_raw_fd(), len) };
        // -4095..=-1 is the kernel's errno band; anything else is an address.
        if (-4095..0).contains(&ret) {
            return None;
        }
        Some(Mapping::Mapped { ptr: ret as *const u8, len })
    }

    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    fn try_map(_file: &File, _len: usize) -> Option<Self> {
        None
    }

    /// Which mode actually served this mapping (`"mmap"` or `"read"`),
    /// for `db inspect` and the store counters.
    pub fn kind(&self) -> &'static str {
        match self {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Mapping::Mapped { .. } => "mmap",
            Mapping::Heap(_) => "read",
        }
    }
}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Mapping::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Mapping::Heap(buf) => buf.as_bytes(),
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if let Mapping::Mapped { ptr, len } = self {
            unsafe { sys::munmap(*ptr, *len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("gvex-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&p).unwrap();
        f.write_all(bytes).unwrap();
        p
    }

    #[test]
    fn maps_file_contents() {
        let p = tmp("contents", b"hello mapping");
        let m = Mapping::open(&p).unwrap();
        assert_eq!(&m[..], b"hello mapping");
        let mapped =
            cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")));
        assert_eq!(m.kind(), if mapped { "mmap" } else { "read" });
        drop(m);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn heap_buffer_is_aligned_and_exact() {
        let data: Vec<u8> = (0..=200u8).collect();
        let p = tmp("aligned", &data);
        let mut f = File::open(&p).unwrap();
        let buf = AlignedBuf::read_from(&mut f, data.len()).unwrap();
        assert_eq!(buf.as_bytes(), &data[..]);
        assert_eq!(buf.as_bytes().as_ptr() as usize % 64, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let p = tmp("empty", b"");
        let m = Mapping::open(&p).unwrap();
        assert!(m.is_empty());
        std::fs::remove_file(&p).ok();
    }
}
