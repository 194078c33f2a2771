//! OAR-like batch reservations.
//!
//! Grid'5000 resources are obtained through the OAR batch scheduler: a
//! reservation asks for `nodes × walltime` on one cluster and either starts
//! immediately, is queued behind conflicting reservations, or is rejected
//! ("one cluster of Lyon had only one SED due to reservation restrictions" —
//! exactly this mechanism). The campaign deployment is itself a set of
//! reservations (11 × 16 nodes), so the substrate models them.

use crate::des::SimTime;

/// One reservation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub nodes: usize,
    pub walltime: SimTime,
}

/// A granted reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    pub id: u64,
    pub nodes: usize,
    pub start: SimTime,
    pub end: SimTime,
}

impl Reservation {
    pub fn overlaps(&self, t0: SimTime, t1: SimTime) -> bool {
        self.start < t1 && t0 < self.end
    }
}

/// Why a reservation could not be granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OarError {
    /// More nodes than the cluster owns.
    TooLarge { requested: usize, capacity: usize },
    /// Zero nodes or non-positive walltime.
    Invalid,
}

impl std::fmt::Display for OarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OarError::TooLarge {
                requested,
                capacity,
            } => write!(f, "requested {requested} nodes of {capacity}"),
            OarError::Invalid => write!(f, "invalid reservation request"),
        }
    }
}

impl std::error::Error for OarError {}

/// Per-cluster batch scheduler: first-fit in time (conservative backfilling
/// is deliberately out of scope — OAR's advance-reservation path is
/// first-fit too).
#[derive(Debug, Clone)]
pub struct OarScheduler {
    pub capacity: usize,
    next_id: u64,
    granted: Vec<Reservation>,
}

impl OarScheduler {
    pub fn new(capacity: usize) -> Self {
        OarScheduler {
            capacity,
            next_id: 0,
            granted: Vec::new(),
        }
    }

    /// Nodes busy during `[t0, t1)`.
    pub fn busy_nodes(&self, t0: SimTime, t1: SimTime) -> usize {
        // Peak concurrent usage over the window: evaluate at every
        // reservation boundary inside the window.
        let mut points = vec![t0];
        for r in &self.granted {
            if r.overlaps(t0, t1) {
                points.push(r.start.max(t0));
            }
        }
        points
            .into_iter()
            .map(|t| {
                self.granted
                    .iter()
                    .filter(|r| r.start <= t && t < r.end)
                    .map(|r| r.nodes)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// Free nodes over the window.
    pub fn free_nodes(&self, t0: SimTime, t1: SimTime) -> usize {
        self.capacity - self.busy_nodes(t0, t1)
    }

    /// Submit at time `now`: the reservation starts at the earliest instant
    /// with enough free nodes for the whole walltime.
    pub fn submit(&mut self, now: SimTime, req: Request) -> Result<Reservation, OarError> {
        if req.nodes == 0 || req.walltime <= 0.0 {
            return Err(OarError::Invalid);
        }
        if req.nodes > self.capacity {
            return Err(OarError::TooLarge {
                requested: req.nodes,
                capacity: self.capacity,
            });
        }
        // Candidate start times: now, plus the end of every reservation.
        let mut candidates: Vec<SimTime> = vec![now];
        candidates.extend(self.granted.iter().filter(|r| r.end > now).map(|r| r.end));
        candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for t in candidates {
            if self.free_nodes(t, t + req.walltime) >= req.nodes {
                let res = Reservation {
                    id: self.next_id,
                    nodes: req.nodes,
                    start: t,
                    end: t + req.walltime,
                };
                self.next_id += 1;
                self.granted.push(res);
                return Ok(res);
            }
        }
        unreachable!("the end of the last reservation always fits");
    }

    /// Release a reservation early at time `now` (truncate its end).
    pub fn release(&mut self, id: u64, now: SimTime) -> bool {
        match self.granted.iter_mut().find(|r| r.id == id) {
            Some(r) if r.end > now => {
                r.end = r.start.max(now);
                true
            }
            Some(_) => true,
            None => false,
        }
    }

    pub fn reservations(&self) -> &[Reservation] {
        &self.granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_start_when_free() {
        let mut oar = OarScheduler::new(64);
        let r = oar
            .submit(
                0.0,
                Request {
                    nodes: 16,
                    walltime: 3600.0,
                },
            )
            .unwrap();
        assert_eq!(r.start, 0.0);
        assert_eq!(r.end, 3600.0);
        assert_eq!(oar.free_nodes(0.0, 3600.0), 48);
    }

    #[test]
    fn paper_deployment_two_seds_fit_one_does_not() {
        // A 56-node cluster fits two 16-node SeD reservations alongside
        // other users holding 30 nodes — but not three. This is the
        // "reservation restrictions" of the paper's Lyon cluster.
        let mut oar = OarScheduler::new(56);
        oar.submit(
            0.0,
            Request {
                nodes: 30,
                walltime: 1e5,
            },
        )
        .unwrap();
        let a = oar
            .submit(
                0.0,
                Request {
                    nodes: 16,
                    walltime: 1e5,
                },
            )
            .unwrap();
        assert_eq!(a.start, 0.0);
        let b = oar
            .submit(
                0.0,
                Request {
                    nodes: 16,
                    walltime: 1e5,
                },
            )
            .unwrap();
        // No room now: the second SeD is delayed to after the others end.
        assert!(b.start >= 1e5, "second SeD should queue: {b:?}");
    }

    #[test]
    fn queued_reservation_starts_at_first_gap() {
        let mut oar = OarScheduler::new(16);
        oar.submit(
            0.0,
            Request {
                nodes: 16,
                walltime: 100.0,
            },
        )
        .unwrap();
        let r = oar
            .submit(
                10.0,
                Request {
                    nodes: 8,
                    walltime: 50.0,
                },
            )
            .unwrap();
        assert_eq!(r.start, 100.0);
        assert_eq!(r.end, 150.0);
    }

    #[test]
    fn oversized_and_invalid_rejected() {
        let mut oar = OarScheduler::new(8);
        assert!(matches!(
            oar.submit(
                0.0,
                Request {
                    nodes: 9,
                    walltime: 1.0
                }
            ),
            Err(OarError::TooLarge { .. })
        ));
        assert!(matches!(
            oar.submit(
                0.0,
                Request {
                    nodes: 0,
                    walltime: 1.0
                }
            ),
            Err(OarError::Invalid)
        ));
        assert!(matches!(
            oar.submit(
                0.0,
                Request {
                    nodes: 1,
                    walltime: 0.0
                }
            ),
            Err(OarError::Invalid)
        ));
    }

    #[test]
    fn early_release_frees_nodes() {
        let mut oar = OarScheduler::new(16);
        let r = oar
            .submit(
                0.0,
                Request {
                    nodes: 16,
                    walltime: 1000.0,
                },
            )
            .unwrap();
        assert!(oar.release(r.id, 100.0));
        let r2 = oar
            .submit(
                100.0,
                Request {
                    nodes: 16,
                    walltime: 10.0,
                },
            )
            .unwrap();
        assert_eq!(r2.start, 100.0);
        assert!(!oar.release(999, 0.0));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut oar = OarScheduler::new(32);
        let mut ends = Vec::new();
        for i in 0..20 {
            let r = oar
                .submit(
                    i as f64,
                    Request {
                        nodes: 8 + (i % 3),
                        walltime: 50.0 + i as f64,
                    },
                )
                .unwrap();
            ends.push(r);
        }
        // At every reservation start, usage must be within capacity.
        for r in &ends {
            let busy = oar.busy_nodes(r.start, r.start + 1e-9);
            assert!(busy <= 32, "capacity exceeded at t={}: {busy}", r.start);
        }
    }
}
