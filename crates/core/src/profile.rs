//! Problem profiles.
//!
//! "To match client requests with server services, clients and servers must
//! use the same problem description ... a name and ... three integers
//! last_in, last_inout and last_out" (paper §4.2.1). Arguments `0..=last_in`
//! are IN, `last_in+1..=last_inout` INOUT, `last_inout+1..=last_out` OUT.
//!
//! [`ProfileDesc`] is the server-side description (argument kinds only);
//! [`Profile`] is the client-side instance carrying actual values. The
//! paper's `ramsesZoom2` is `alloc("ramsesZoom2", 6, 6, 8)`: seven IN
//! arguments (0..=6), no INOUT, two OUT (7 = result tarball, 8 = error code).

use crate::data::{DietValue, Persistence};
use crate::error::DietError;

/// Direction of one argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgMode {
    In,
    InOut,
    Out,
}

/// Declared shape of one argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgDesc {
    pub mode: ArgMode,
    /// Coarse type tag used for matching ("file", "scalar", …). DIET's
    /// `diet_generic_desc_set` records the same information.
    pub type_tag: ArgTag,
}

/// Coarse argument type (the `diet_data_type_t` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgTag {
    Scalar,
    Vector,
    StringTag,
    File,
    /// Accept anything (used by generic services).
    Any,
}

impl ArgTag {
    fn matches(self, v: &DietValue) -> bool {
        match self {
            ArgTag::Any => true,
            ArgTag::Scalar => matches!(
                v,
                DietValue::ScalarI32(_)
                    | DietValue::ScalarI64(_)
                    | DietValue::ScalarF64(_)
                    | DietValue::ScalarChar(_)
            ),
            ArgTag::Vector => {
                matches!(v, DietValue::VectorF64(_) | DietValue::VectorI32(_))
            }
            ArgTag::StringTag => matches!(v, DietValue::Str(_)),
            ArgTag::File => matches!(v, DietValue::File { .. }),
        }
    }
}

/// Service description: name + argument layout (the `diet_profile_desc_t`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDesc {
    pub service: String,
    pub last_in: isize,
    pub last_inout: isize,
    pub last_out: isize,
    /// One descriptor per argument slot (len = last_out + 1).
    pub args: Vec<ArgDesc>,
}

impl ProfileDesc {
    /// The `diet_profile_desc_alloc` analog. Descriptors default to
    /// `ArgTag::Any`; refine them with [`ProfileDesc::set_arg`].
    ///
    /// # Panics
    /// Panics if the indices are inconsistent (mirrors DIET's assertion).
    pub fn alloc(service: &str, last_in: isize, last_inout: isize, last_out: isize) -> Self {
        assert!(last_in >= -1 && last_inout >= last_in && last_out >= last_inout);
        let n = (last_out + 1).max(0) as usize;
        let args = (0..n)
            .map(|i| ArgDesc {
                mode: if (i as isize) <= last_in {
                    ArgMode::In
                } else if (i as isize) <= last_inout {
                    ArgMode::InOut
                } else {
                    ArgMode::Out
                },
                type_tag: ArgTag::Any,
            })
            .collect();
        ProfileDesc {
            service: service.to_string(),
            last_in,
            last_inout,
            last_out,
            args,
        }
    }

    /// The `diet_generic_desc_set` analog.
    pub fn set_arg(&mut self, index: usize, tag: ArgTag) -> Result<(), DietError> {
        if index >= self.args.len() {
            return Err(DietError::BadArgIndex {
                index,
                last_out: self.last_out.max(0) as usize,
            });
        }
        self.args[index].type_tag = tag;
        Ok(())
    }

    pub fn mode_of(&self, index: usize) -> Option<ArgMode> {
        self.args.get(index).map(|a| a.mode)
    }

    pub fn n_args(&self) -> usize {
        self.args.len()
    }

    /// Check a concrete profile instance against this description.
    pub fn validate(&self, p: &Profile) -> Result<(), DietError> {
        if p.service != self.service {
            return Err(DietError::ProfileMismatch {
                service: self.service.clone(),
                detail: format!("service name {} vs {}", p.service, self.service),
            });
        }
        if p.values.len() != self.args.len() {
            return Err(DietError::ProfileMismatch {
                service: self.service.clone(),
                detail: format!(
                    "argument count {} vs declared {}",
                    p.values.len(),
                    self.args.len()
                ),
            });
        }
        for (i, (v, d)) in p.values.iter().zip(&self.args).enumerate() {
            match d.mode {
                ArgMode::In | ArgMode::InOut => {
                    if v.is_null() {
                        return Err(DietError::ProfileMismatch {
                            service: self.service.clone(),
                            detail: format!("IN/INOUT argument {i} is null"),
                        });
                    }
                    if !d.type_tag.matches(v) {
                        return Err(DietError::ProfileMismatch {
                            service: self.service.clone(),
                            detail: format!("argument {i} has type {}", v.type_name()),
                        });
                    }
                }
                // OUT arguments "should be declared even if their values is
                // set to NULL" — anything (including Null) is fine pre-call.
                ArgMode::Out => {}
            }
        }
        Ok(())
    }
}

/// A concrete call instance (the `diet_profile_t` analog).
///
/// ```
/// use diet_core::profile::{ProfileDesc, Profile, ArgTag};
/// use diet_core::data::{DietValue, Persistence};
///
/// // The paper's ramsesZoom2: alloc("ramsesZoom2", 6, 6, 8).
/// let mut desc = ProfileDesc::alloc("ramsesZoom2", 6, 6, 8);
/// desc.set_arg(1, ArgTag::Scalar).unwrap();
/// let mut profile = Profile::alloc(&desc);
/// profile.set(1, DietValue::ScalarI32(128), Persistence::Volatile).unwrap();
/// assert_eq!(profile.get_i32(1).unwrap(), 128);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pub service: String,
    pub values: Vec<DietValue>,
    pub persistence: Vec<Persistence>,
}

impl Profile {
    /// The `diet_profile_alloc` analog: every slot starts Null/Volatile.
    pub fn alloc(desc: &ProfileDesc) -> Self {
        Profile {
            service: desc.service.clone(),
            values: vec![DietValue::Null; desc.n_args()],
            persistence: vec![Persistence::Volatile; desc.n_args()],
        }
    }

    /// The `diet_*_set` analog.
    pub fn set(
        &mut self,
        index: usize,
        value: DietValue,
        mode: Persistence,
    ) -> Result<(), DietError> {
        if index >= self.values.len() {
            return Err(DietError::BadArgIndex {
                index,
                last_out: self.values.len().saturating_sub(1),
            });
        }
        self.values[index] = value;
        self.persistence[index] = mode;
        Ok(())
    }

    /// The `diet_*_get` analog.
    pub fn get(&self, index: usize) -> Result<&DietValue, DietError> {
        self.values.get(index).ok_or(DietError::BadArgIndex {
            index,
            last_out: self.values.len().saturating_sub(1),
        })
    }

    /// Typed getter for scalars, with a descriptive error.
    pub fn get_i32(&self, index: usize) -> Result<i32, DietError> {
        let v = self.get(index)?;
        v.as_i32().ok_or(DietError::TypeMismatch {
            index,
            expected: "scalar i32",
            got: v.type_name(),
        })
    }

    pub fn get_f64(&self, index: usize) -> Result<f64, DietError> {
        let v = self.get(index)?;
        v.as_f64().ok_or(DietError::TypeMismatch {
            index,
            expected: "scalar f64",
            got: v.type_name(),
        })
    }

    pub fn get_file(&self, index: usize) -> Result<(&str, &bytes::Bytes), DietError> {
        let v = self.get(index)?;
        v.as_file().ok_or(DietError::TypeMismatch {
            index,
            expected: "file",
            got: v.type_name(),
        })
    }

    /// Total bytes the client ships to the server (IN + INOUT payloads).
    pub fn upload_bytes(&self, desc: &ProfileDesc) -> u64 {
        self.values
            .iter()
            .zip(&desc.args)
            .filter(|(_, d)| matches!(d.mode, ArgMode::In | ArgMode::InOut))
            .map(|(v, _)| v.payload_bytes())
            .sum()
    }

    /// Total bytes the server ships back (INOUT + OUT payloads).
    pub fn download_bytes(&self, desc: &ProfileDesc) -> u64 {
        self.values
            .iter()
            .zip(&desc.args)
            .filter(|(_, d)| matches!(d.mode, ArgMode::InOut | ArgMode::Out))
            .map(|(v, _)| v.payload_bytes())
            .sum()
    }

    /// Server side of the reply rule "an argument the solve did not replace
    /// is not sent back": every slot still holding the very buffer
    /// (`DietValue::same_buffer`) that `request` — the argument values the
    /// call arrived with — held there becomes `Null`. The caller has that
    /// value; [`restore_unreturned`](Self::restore_unreturned) puts it back.
    pub fn drop_unreplaced(&mut self, request: &[DietValue]) {
        for (slot, sent) in self.values.iter_mut().zip(request) {
            if slot.same_buffer(sent) {
                *slot = DietValue::Null;
            }
        }
    }

    /// Caller side of [`drop_unreplaced`](Self::drop_unreplaced): a `Null`
    /// slot of the reply gets back the value `sent` (the profile the call
    /// carried) had there, if that was a kind the server may have left out.
    /// A solve can therefore not clear a buffer argument over the wire: the
    /// caller sees what it sent.
    pub fn restore_unreturned(&mut self, sent: Profile) {
        for (slot, sent) in self.values.iter_mut().zip(sent.values) {
            // `same_buffer` with itself: is it a kind that has a buffer?
            if slot.is_null() && sent.same_buffer(&sent) {
                *slot = sent;
            }
        }
    }

    /// Ids of every grid-data reference argument — what a data-aware MA
    /// feeds into the replica catalog's locality query.
    pub fn data_ref_ids(&self) -> Vec<String> {
        self.values
            .iter()
            .filter_map(|v| v.as_data_ref().map(str::to_string))
            .collect()
    }
}

/// The paper's `ramsesZoom2` profile description, exactly as §4.2.1 builds
/// it: `alloc("ramsesZoom2", 6, 6, 8)` with a namelist file, six scalars, an
/// OUT result tarball and an OUT error code.
pub fn ramses_zoom2_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("ramsesZoom2", 6, 6, 8);
    d.set_arg(0, ArgTag::File).unwrap(); // parameter (namelist) file
    d.set_arg(1, ArgTag::Scalar).unwrap(); // resolution
    d.set_arg(2, ArgTag::Scalar).unwrap(); // IC size (Mpc/h)
    d.set_arg(3, ArgTag::Scalar).unwrap(); // centre cx
    d.set_arg(4, ArgTag::Scalar).unwrap(); // centre cy
    d.set_arg(5, ArgTag::Scalar).unwrap(); // centre cz
    d.set_arg(6, ArgTag::Scalar).unwrap(); // number of zoom levels (nbBox)
    d.set_arg(7, ArgTag::File).unwrap(); // OUT: result tarball
    d.set_arg(8, ArgTag::Scalar).unwrap(); // OUT: error code
    d
}

/// The first-part service: a namelist file in, halo catalog + error out.
pub fn ramses_zoom1_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("ramsesZoom1", 1, 1, 3);
    d.set_arg(0, ArgTag::File).unwrap(); // namelist
    d.set_arg(1, ArgTag::Scalar).unwrap(); // resolution
    d.set_arg(2, ArgTag::File).unwrap(); // OUT: halo catalog tarball
    d.set_arg(3, ArgTag::Scalar).unwrap(); // OUT: error code
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn alloc_assigns_modes_by_ranges() {
        let d = ProfileDesc::alloc("svc", 1, 2, 4);
        assert_eq!(d.mode_of(0), Some(ArgMode::In));
        assert_eq!(d.mode_of(1), Some(ArgMode::In));
        assert_eq!(d.mode_of(2), Some(ArgMode::InOut));
        assert_eq!(d.mode_of(3), Some(ArgMode::Out));
        assert_eq!(d.mode_of(4), Some(ArgMode::Out));
        assert_eq!(d.mode_of(5), None);
        assert_eq!(d.n_args(), 5);
    }

    #[test]
    fn no_in_args_profile() {
        let d = ProfileDesc::alloc("gen", -1, -1, 0);
        assert_eq!(d.mode_of(0), Some(ArgMode::Out));
        assert_eq!(d.n_args(), 1);
    }

    #[test]
    #[should_panic]
    fn inconsistent_indices_panic() {
        ProfileDesc::alloc("bad", 3, 1, 5);
    }

    #[test]
    fn ramses_zoom2_matches_paper() {
        let d = ramses_zoom2_desc();
        assert_eq!(d.service, "ramsesZoom2");
        assert_eq!(d.n_args(), 9);
        assert_eq!(d.last_in, 6);
        assert_eq!(d.last_inout, 6);
        assert_eq!(d.last_out, 8);
        for i in 0..=6 {
            assert_eq!(d.mode_of(i), Some(ArgMode::In));
        }
        assert_eq!(d.mode_of(7), Some(ArgMode::Out));
        assert_eq!(d.mode_of(8), Some(ArgMode::Out));
    }

    fn filled_zoom2() -> (ProfileDesc, Profile) {
        let d = ramses_zoom2_desc();
        let mut p = Profile::alloc(&d);
        p.set(
            0,
            DietValue::File {
                name: "ramses.nml".into(),
                data: Bytes::from_static(b"&RUN ncpu=32 /"),
            },
            Persistence::Volatile,
        )
        .unwrap();
        for (i, v) in [(1, 128), (2, 100), (3, 50), (4, 50), (5, 50), (6, 2)] {
            p.set(i, DietValue::ScalarI32(v), Persistence::Volatile)
                .unwrap();
        }
        (d, p)
    }

    #[test]
    fn validation_accepts_null_out_args() {
        let (d, p) = filled_zoom2();
        d.validate(&p).unwrap();
    }

    #[test]
    fn validation_rejects_null_in_arg() {
        let d = ramses_zoom2_desc();
        let p = Profile::alloc(&d); // everything Null
        assert!(matches!(
            d.validate(&p),
            Err(DietError::ProfileMismatch { .. })
        ));
    }

    #[test]
    fn validation_rejects_wrong_type() {
        let (d, mut p) = filled_zoom2();
        // Argument 0 must be a file.
        p.set(0, DietValue::ScalarI32(1), Persistence::Volatile)
            .unwrap();
        assert!(d.validate(&p).is_err());
    }

    #[test]
    fn validation_rejects_wrong_service_name() {
        let (d, mut p) = filled_zoom2();
        p.service = "other".into();
        assert!(d.validate(&p).is_err());
    }

    #[test]
    fn typed_getters() {
        let (_, p) = filled_zoom2();
        assert_eq!(p.get_i32(1).unwrap(), 128);
        assert!(p.get_f64(1).is_err());
        let (name, data) = p.get_file(0).unwrap();
        assert_eq!(name, "ramses.nml");
        assert!(!data.is_empty());
        assert!(matches!(p.get_i32(99), Err(DietError::BadArgIndex { .. })));
    }

    #[test]
    fn upload_download_split() {
        let (d, mut p) = filled_zoom2();
        let up = p.upload_bytes(&d);
        // 7 IN args: file (10+14 bytes) + 6 scalars (24 bytes).
        assert_eq!(up, (10 + 14 + 24) as u64);
        assert_eq!(p.download_bytes(&d), 0);
        p.set(
            7,
            DietValue::File {
                name: "out.tgz".into(),
                data: Bytes::from(vec![0u8; 100]),
            },
            Persistence::Volatile,
        )
        .unwrap();
        p.set(8, DietValue::ScalarI32(0), Persistence::Volatile)
            .unwrap();
        assert_eq!(p.download_bytes(&d), 107 + 4);
    }
}
