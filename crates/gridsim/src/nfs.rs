//! Shared working-directory (NFS) model.
//!
//! "The current version of RAMSES requires a NFS working directory in order
//! to write the output files, hence restricting the possible types of
//! solving architectures. Each DIET server will be in charge of a set of
//! machines ... belonging to the same cluster."
//!
//! We model each cluster's NFS volume as a capacity-limited store with a
//! shared write channel: concurrent writers split the volume bandwidth, so a
//! SeD running several stages at once pays I/O contention — the reason the
//! paper serialises one simulation per SeD.

use std::collections::HashMap;

/// One cluster's NFS volume.
#[derive(Debug, Clone)]
pub struct NfsVolume {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Aggregate write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Aggregate read bandwidth, bytes/s.
    pub read_bw: f64,
    used: u64,
    files: HashMap<String, u64>,
}

/// Errors from volume operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsError {
    OutOfSpace { requested: u64, free: u64 },
    NoSuchFile(String),
    AlreadyExists(String),
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::OutOfSpace { requested, free } => {
                write!(f, "out of space: need {requested}, free {free}")
            }
            NfsError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            NfsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
        }
    }
}

impl std::error::Error for NfsError {}

impl NfsVolume {
    /// A typical 2006 cluster scratch volume: 1 TB, ~60 MB/s writes over NFS.
    pub fn cluster_scratch() -> Self {
        NfsVolume::new(1 << 40, 60e6, 80e6)
    }

    pub fn new(capacity: u64, write_bw: f64, read_bw: f64) -> Self {
        NfsVolume {
            capacity,
            write_bw,
            read_bw,
            used: 0,
            files: HashMap::new(),
        }
    }

    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    pub fn used(&self) -> u64 {
        self.used
    }

    pub fn file_size(&self, path: &str) -> Option<u64> {
        self.files.get(path).copied()
    }

    /// Create a file; returns the virtual time needed to write it given
    /// `concurrent_writers` (≥ 1) sharing the volume.
    pub fn write(
        &mut self,
        path: &str,
        size: u64,
        concurrent_writers: usize,
    ) -> Result<f64, NfsError> {
        if self.files.contains_key(path) {
            return Err(NfsError::AlreadyExists(path.to_string()));
        }
        if size > self.free() {
            return Err(NfsError::OutOfSpace {
                requested: size,
                free: self.free(),
            });
        }
        self.files.insert(path.to_string(), size);
        self.used += size;
        let share = self.write_bw / concurrent_writers.max(1) as f64;
        Ok(size as f64 / share)
    }

    /// Read a file; returns the virtual read time.
    pub fn read(&self, path: &str, concurrent_readers: usize) -> Result<f64, NfsError> {
        let size = self
            .file_size(path)
            .ok_or_else(|| NfsError::NoSuchFile(path.to_string()))?;
        let share = self.read_bw / concurrent_readers.max(1) as f64;
        Ok(size as f64 / share)
    }

    /// Remove a file, reclaiming space (post-campaign cleanup).
    pub fn remove(&mut self, path: &str) -> Result<u64, NfsError> {
        match self.files.remove(path) {
            Some(size) => {
                self.used -= size;
                Ok(size)
            }
            None => Err(NfsError::NoSuchFile(path.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut v = NfsVolume::new(1000, 100.0, 200.0);
        let wt = v.write("snap.bin", 500, 1).unwrap();
        assert!((wt - 5.0).abs() < 1e-12);
        let rt = v.read("snap.bin", 1).unwrap();
        assert!((rt - 2.5).abs() < 1e-12);
        assert_eq!(v.used(), 500);
    }

    #[test]
    fn contention_slows_writers() {
        let mut v = NfsVolume::new(10_000, 100.0, 100.0);
        let t1 = v.write("a", 100, 1).unwrap();
        let t4 = v.write("b", 100, 4).unwrap();
        assert!((t4 - 4.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn out_of_space_rejected() {
        let mut v = NfsVolume::new(100, 10.0, 10.0);
        v.write("a", 90, 1).unwrap();
        match v.write("b", 20, 1) {
            Err(NfsError::OutOfSpace { requested, free }) => {
                assert_eq!(requested, 20);
                assert_eq!(free, 10);
            }
            other => panic!("expected OutOfSpace, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_write_rejected() {
        let mut v = NfsVolume::new(1000, 10.0, 10.0);
        v.write("a", 10, 1).unwrap();
        assert!(matches!(
            v.write("a", 10, 1),
            Err(NfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn remove_reclaims_space() {
        let mut v = NfsVolume::new(100, 10.0, 10.0);
        v.write("a", 60, 1).unwrap();
        assert_eq!(v.remove("a").unwrap(), 60);
        assert_eq!(v.free(), 100);
        assert!(matches!(v.remove("a"), Err(NfsError::NoSuchFile(_))));
        // Space can be reused.
        v.write("b", 100, 1).unwrap();
    }

    #[test]
    fn read_missing_file_fails() {
        let v = NfsVolume::new(100, 10.0, 10.0);
        assert!(matches!(v.read("ghost", 1), Err(NfsError::NoSuchFile(_))));
    }
}
