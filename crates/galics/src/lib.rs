//! # galics — post-processing chain for RAMSES snapshots
//!
//! The paper's Section 3: "These files need post-processing with GALICS
//! softwares: HaloMaker, TreeMaker and GalaxyMaker. These three softwares are
//! meant to be used sequentially, each of them producing different kinds of
//! information."
//!
//! * [`fof`] + [`halo`] — **HaloMaker**: detect dark-matter halos in a
//!   snapshot with a friends-of-friends percolation and produce a catalog of
//!   halo positions, masses and velocities (the input of the zoom step).
//! * [`tree`] — **TreeMaker**: link halos across snapshots into merger trees
//!   by following their particle content through cosmic time.
//! * [`galaxy`] — **GalaxyMaker**: apply a semi-analytic model on top of the
//!   merger trees to form galaxies and emit a galaxy catalog.

pub mod fof;
pub mod galaxy;
pub mod halo;
pub mod tree;

pub use fof::FofParams;
pub use galaxy::{Galaxy, GalaxyCatalog, SamParams};
pub use halo::{Halo, HaloCatalog};
pub use tree::{MergerTree, TreeNode};

use ramses::nbody::Snapshot;

/// Run the full chain on a time-ordered series of snapshots:
/// HaloMaker on each, TreeMaker across them, GalaxyMaker on the trees.
pub fn run_pipeline(
    snaps: &[Snapshot],
    fof: &FofParams,
    sam: &SamParams,
) -> (Vec<HaloCatalog>, MergerTree, GalaxyCatalog) {
    let catalogs: Vec<HaloCatalog> = snaps.iter().map(|s| halo::halo_maker(s, fof)).collect();
    let tree = tree::tree_maker(snaps, &catalogs);
    let galaxies = galaxy::galaxy_maker(&tree, sam);
    (catalogs, tree, galaxies)
}
